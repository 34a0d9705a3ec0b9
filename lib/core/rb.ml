module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Matrix = Qca_util.Matrix
module Rng = Qca_util.Rng
module Stats = Qca_util.Stats
module Engine = Qca_qx.Engine

type clifford = { gates : Gate.unitary list; matrix : Matrix.t; mutable inverse_index : int }

let matrix_of_gates gates =
  List.fold_left (fun acc g -> Matrix.mul (Gate.matrix g) acc) (Matrix.identity 2) gates

(* Close {H, S} under products, deduplicating up to global phase: yields the
   24-element single-qubit Clifford group. *)
let build_group () =
  let seen : clifford list ref = ref [] in
  let known m = List.exists (fun c -> Matrix.equal_up_to_phase ~eps:1e-9 c.matrix m) !seen in
  let frontier = ref [ { gates = []; matrix = Matrix.identity 2; inverse_index = -1 } ] in
  seen := !frontier;
  let generators = [ Gate.H; Gate.S ] in
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun c ->
        List.iter
          (fun g ->
            let gates = c.gates @ [ g ] in
            let m = matrix_of_gates gates in
            if not (known m) then begin
              let element = { gates; matrix = m; inverse_index = -1 } in
              seen := element :: !seen;
              next := element :: !next
            end)
          generators)
      !frontier;
    frontier := !next
  done;
  let arr = Array.of_list (List.rev !seen) in
  (* Fill inverse table. *)
  Array.iteri
    (fun i c ->
      let adj = Matrix.adjoint c.matrix in
      let rec find j =
        if j = Array.length arr then failwith "Rb: inverse not found"
        else if Matrix.equal_up_to_phase ~eps:1e-9 arr.(j).matrix adj then j
        else find (j + 1)
      in
      arr.(i).inverse_index <- find 0)
    arr;
  arr

let cached_group = lazy (build_group ())

let group () = Lazy.force cached_group

let gates c = c.gates

let inverse c =
  let g = group () in
  g.(c.inverse_index)

let average_gate_count () =
  let g = group () in
  let total = Array.fold_left (fun acc c -> acc + List.length c.gates) 0 g in
  float_of_int total /. float_of_int (Array.length g)

let interleaved_sequence_circuit ?interleave rng ~qubit ~total_qubits ~length =
  let g = group () in
  let chosen0 = List.init length (fun _ -> g.(Rng.int rng (Array.length g))) in
  (* When interleaving, the target gate follows every random Clifford. *)
  let interleave_element =
    match interleave with
    | None -> None
    | Some u ->
        if not (Gate.is_clifford u) then
          invalid_arg "Rb: interleaved gate must be a Clifford";
        Some { gates = [ u ]; matrix = matrix_of_gates [ u ]; inverse_index = -1 }
  in
  let chosen =
    match interleave_element with
    | None -> chosen0
    | Some e -> List.concat_map (fun c -> [ c; e ]) chosen0
  in
  let net =
    List.fold_left (fun acc c -> Matrix.mul c.matrix acc) (Matrix.identity 2) chosen
  in
  (* Recovery: the group element equal to the adjoint of the net product. *)
  let adj = Matrix.adjoint net in
  let recovery =
    let rec find j =
      if j = Array.length g then failwith "Rb: recovery not found"
      else if Matrix.equal_up_to_phase ~eps:1e-9 g.(j).matrix adj then g.(j)
      else find (j + 1)
    in
    find 0
  in
  let all = chosen @ [ recovery ] in
  let instrs =
    List.concat_map (fun c -> List.map (fun u -> Gate.Unitary (u, [| qubit |])) c.gates) all
    @ [ Gate.Measure qubit ]
  in
  Circuit.of_list ~name:(Printf.sprintf "rb-%d" length) total_qubits instrs

type point = { sequence_length : int; survival : float; sequences : int; shots_each : int }

type decay = {
  points : point list;
  amplitude : float;
  p : float;
  error_per_clifford : float;
}

let sequence_circuit rng ~qubit ~total_qubits ~length =
  interleaved_sequence_circuit rng ~qubit ~total_qubits ~length

let run_with ?interleave ~lengths ~sequences ~shots ~noise ~rng () =
  let survival_at length =
    let per_sequence =
      Array.init sequences (fun _ ->
          let circuit =
            interleaved_sequence_circuit ?interleave rng ~qubit:0 ~total_qubits:1 ~length
          in
          Engine.success_probability
            (Engine.run ~noise ~rng ~shots circuit)
            ~accept:(fun bits -> bits.(0) = 0))
    in
    Stats.mean per_sequence
  in
  let points =
    List.map
      (fun m -> { sequence_length = m; survival = survival_at m; sequences; shots_each = shots })
      lengths
  in
  (* survival = 0.5 + A p^m; fit (survival - 0.5) as exponential decay. *)
  let usable =
    List.filter_map
      (fun pt ->
        let y = pt.survival -. 0.5 in
        if y > 1e-3 then Some (float_of_int pt.sequence_length, y) else None)
      points
  in
  let amplitude, p =
    if List.length usable >= 2 then Stats.exponential_decay_fit (Array.of_list usable)
    else (0.5, 1.0)
  in
  let p = Float.min 1.0 p in
  { points; amplitude; p; error_per_clifford = (1.0 -. p) /. 2.0 }

let run ?(lengths = [ 1; 2; 4; 8; 16; 32 ]) ?(sequences = 8) ?(shots = 64) ~noise ~rng () =
  run_with ~lengths ~sequences ~shots ~noise ~rng ()

type interleaved = { reference : decay; interleaved : decay; gate_error : float }

let run_interleaved ?(lengths = [ 1; 2; 4; 8; 16; 32 ]) ?(sequences = 8) ?(shots = 64)
    ~gate ~noise ~rng () =
  let reference = run_with ~lengths ~sequences ~shots ~noise ~rng () in
  let inter = run_with ~interleave:gate ~lengths ~sequences ~shots ~noise ~rng () in
  let ratio = inter.p /. Float.max 1e-9 reference.p in
  { reference; interleaved = inter; gate_error = Float.max 0.0 ((1.0 -. ratio) /. 2.0) }
