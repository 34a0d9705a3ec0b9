module Matrix = Qca_util.Matrix
module Cplx = Qca_util.Cplx
module Rng = Qca_util.Rng
module Stats = Qca_util.Stats

type 'g element = { gates : 'g list; matrix : Matrix.t; inverse : int }

type 'g t = {
  elements : 'g element array;
  index : (string, int) Hashtbl.t;  (** Canonical key -> element. *)
  identity : Matrix.t;
}

(* Phase-canonical fingerprint of a unitary: divide by the phase of the
   first entry with significant modulus, round, and serialise. *)
let canonical_key m =
  let dim = Matrix.rows m in
  let phase = ref Cplx.one in
  (try
     for r = 0 to dim - 1 do
       for c = 0 to dim - 1 do
         let z = Matrix.get m r c in
         if Cplx.abs z > 1e-6 then begin
           phase := Cplx.scale (1.0 /. Cplx.abs z) z;
           raise Exit
         end
       done
     done
   with Exit -> ());
  let inv_phase = Cplx.conj !phase in
  (* Adding 0.0 maps IEEE negative zero to positive zero so "-0.0000" and
     "0.0000" cannot split a key. *)
  let clean x = (Float.round (x *. 10000.) /. 10000.) +. 0.0 in
  let buffer = Buffer.create 256 in
  for r = 0 to dim - 1 do
    for c = 0 to dim - 1 do
      let z = Cplx.mul inv_phase (Matrix.get m r c) in
      Buffer.add_string buffer
        (Printf.sprintf "%.4f,%.4f;" (clean (Cplx.re z)) (clean (Cplx.im z)))
    done
  done;
  Buffer.contents buffer

let find index m =
  match Hashtbl.find_opt index (canonical_key m) with
  | Some j -> j
  | None -> failwith "Clifford_group: element not in the group"

(* Breadth-first closure: each frontier element, in turn, times each
   generator; a product whose key is new joins the group and the next
   frontier (which is walked newest first). *)
let close ~identity generators =
  let index = Hashtbl.create 1024 in
  Hashtbl.replace index (canonical_key identity) 0;
  let found = ref [ ([], identity) ] in
  let frontier = ref !found in
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun (gates, matrix) ->
        List.iter
          (fun (g, g_matrix) ->
            let m = Matrix.mul g_matrix matrix in
            let key = canonical_key m in
            if not (Hashtbl.mem index key) then begin
              Hashtbl.replace index key (Hashtbl.length index);
              let product = (gates @ [ g ], m) in
              found := product :: !found;
              next := product :: !next
            end)
          generators)
      !frontier;
    frontier := !next
  done;
  let element (gates, matrix) = { gates; matrix; inverse = find index (Matrix.adjoint matrix) } in
  { elements = Array.of_list (List.rev_map element !found); index; identity }

let elements t = t.elements
let gates e = e.gates
let inverse t e = t.elements.(e.inverse)

let average_gate_count t =
  let total = Array.fold_left (fun acc e -> acc + List.length e.gates) 0 t.elements in
  float_of_int total /. float_of_int (Array.length t.elements)

let sequence ?interleave t rng ~length =
  let n = Array.length t.elements in
  let chosen = List.init length (fun _ -> t.elements.(Rng.int rng n)) in
  let after, step =
    match interleave with
    | None -> ([], fun acc -> acc)
    | Some (g, m) -> ([ g ], Matrix.mul m)
  in
  let net = List.fold_left (fun acc e -> step (Matrix.mul e.matrix acc)) t.identity chosen in
  let recovery = t.elements.(find t.index (Matrix.adjoint net)) in
  List.concat_map (fun e -> e.gates @ after) chosen @ recovery.gates

let survivals ~lengths ~sequences survival =
  List.map
    (fun m -> (m, Stats.mean (Array.init sequences (fun _ -> survival m))))
    lengths

let fit_decay ~qubits points =
  let offset = 1.0 /. float_of_int (1 lsl qubits) in
  let usable =
    List.filter_map
      (fun (m, s) ->
        let y = s -. offset in
        if y > 1e-3 then Some (float_of_int m, y) else None)
      points
  in
  let amplitude, p =
    if List.length usable >= 2 then Stats.exponential_decay_fit (Array.of_list usable)
    else (1.0 -. offset, 1.0)
  in
  (amplitude, Float.min 1.0 p)
