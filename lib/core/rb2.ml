module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Matrix = Qca_util.Matrix
module Sim = Qca_qx.Sim

type clifford = (Gate.unitary * int array) Clifford_group.element

let generator ((u, ops) as g) =
  (g, Circuit.unitary_matrix (Circuit.of_list 2 [ Gate.Unitary (u, ops) ]))

let cached =
  lazy
    (Clifford_group.close ~identity:(Matrix.identity 4)
       (List.map generator
          [
            (Gate.H, [| 0 |]);
            (Gate.H, [| 1 |]);
            (Gate.S, [| 0 |]);
            (Gate.S, [| 1 |]);
            (Gate.Cz, [| 0; 1 |]);
          ]))

let group () = Clifford_group.elements (Lazy.force cached)
let gates = Clifford_group.gates
let inverse c = Clifford_group.inverse (Lazy.force cached) c
let average_gate_count () = Clifford_group.average_gate_count (Lazy.force cached)

let sequence_circuit rng ~length =
  let sequence = Clifford_group.sequence (Lazy.force cached) rng ~length in
  let instrs =
    List.map (fun (u, ops) -> Gate.Unitary (u, ops)) sequence @ [ Gate.Measure 0; Gate.Measure 1 ]
  in
  Circuit.of_list ~name:(Printf.sprintf "rb2-%d" length) 2 instrs

type decay = { points : (int * float) list; p : float; error_per_clifford : float }

let run ?(lengths = [ 1; 2; 4; 8; 16 ]) ?(sequences = 6) ?(shots = 48) ~noise ~rng () =
  let points =
    Clifford_group.survivals ~lengths ~sequences (fun length ->
        let circuit = sequence_circuit rng ~length in
        let zeros = ref 0 in
        for _ = 1 to shots do
          let result = Sim.run ~noise ~rng circuit in
          if result.Sim.classical.(0) = 0 && result.Sim.classical.(1) = 0 then incr zeros
        done;
        float_of_int !zeros /. float_of_int shots)
  in
  let _, p = Clifford_group.fit_decay ~qubits:2 points in
  { points; p; error_per_clifford = 3.0 *. (1.0 -. p) /. 4.0 }
