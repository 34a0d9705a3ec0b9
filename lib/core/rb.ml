module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Matrix = Qca_util.Matrix
module Engine = Qca_qx.Engine

type clifford = Gate.unitary Clifford_group.element

let cached_group =
  lazy
    (Clifford_group.close ~identity:(Matrix.identity 2)
       (List.map (fun g -> (g, Gate.matrix g)) [ Gate.H; Gate.S ]))

let group () = Clifford_group.elements (Lazy.force cached_group)
let gates = Clifford_group.gates
let inverse c = Clifford_group.inverse (Lazy.force cached_group) c
let average_gate_count () = Clifford_group.average_gate_count (Lazy.force cached_group)

let interleaved_sequence_circuit ?interleave rng ~qubit ~total_qubits ~length =
  (* When interleaving, the target gate follows every random Clifford. *)
  let interleave =
    Option.map
      (fun u ->
        if not (Gate.is_clifford u) then invalid_arg "Rb: interleaved gate must be a Clifford";
        (u, Gate.matrix u))
      interleave
  in
  let sequence = Clifford_group.sequence ?interleave (Lazy.force cached_group) rng ~length in
  let instrs =
    List.map (fun u -> Gate.Unitary (u, [| qubit |])) sequence @ [ Gate.Measure qubit ]
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
  let survivals =
    Clifford_group.survivals ~lengths ~sequences (fun length ->
        let circuit =
          interleaved_sequence_circuit ?interleave rng ~qubit:0 ~total_qubits:1 ~length
        in
        Engine.success_probability
          (Engine.run ~noise ~rng ~shots circuit)
          ~accept:(fun bits -> bits.(0) = 0))
  in
  let points =
    List.map
      (fun (m, survival) -> { sequence_length = m; survival; sequences; shots_each = shots })
      survivals
  in
  let amplitude, p = Clifford_group.fit_decay ~qubits:1 survivals in
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
