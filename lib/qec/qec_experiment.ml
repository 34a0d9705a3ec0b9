module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Rng = Qca_util.Rng
module Bits = Qca_util.Bits

let total_qubits code = code.Code.n + Code.ancilla_count code

(* One round of [Code.syndrome_circuit] on the tableau: a prep measures
   its qubit and applies X on a 1; [on_measure i outcome] runs right after
   stabilizer [i]'s ancilla is measured, before the next instruction. *)
let walk_round code tableau rng ~on_measure =
  let n = code.Code.n in
  List.iter
    (function
      | Gate.Prep q -> if Tableau.measure tableau rng q = 1 then Tableau.x tableau q
      | Gate.Unitary (u, ops) -> Tableau.apply_gate tableau u ops
      | Gate.Measure q -> on_measure (q - n) (Tableau.measure tableau rng q)
      | Gate.Conditional _ | Gate.Barrier _ ->
          invalid_arg "Qec_experiment: not a syndrome-extraction instruction")
    (Circuit.instructions (Code.syndrome_circuit code))

let prepare_logical_zero code rng =
  let tableau = Tableau.create (total_qubits code) in
  (* Measuring each stabilizer projects into a joint eigenspace; a -1
     outcome is repaired with a frame-fix operator that anticommutes with
     that stabilizer and commutes with the already-fixed ones. Rather than
     search for one, simply repeat the projection: starting from |0...0>
     every Z-type stabilizer is already +1, and for X-type stabilizers a -1
     outcome is fixed by any Z on one support qubit (which may disturb later
     X stabilizers, so sweep until clean, which terminates for CSS codes). *)
  let rec sweep budget =
    (* User-definable codes can be non-CSS, where the single-qubit frame fix
       is not guaranteed to settle — so this is a structured error, not an
       assertion. *)
    if budget = 0 then
      Qca_util.Error.fail ~site:"Qec_experiment.prepare_logical_zero"
        ~context:[ ("code", code.Code.name) ]
        (Qca_util.Error.Non_convergence "stabilizer projection did not converge");
    let dirty = ref false in
    walk_round code tableau rng ~on_measure:(fun i outcome ->
        if outcome = 1 then begin
          dirty := true;
          let stab = code.Code.stabilizers.(i) in
          (* Fix with a single-qubit operator anticommuting with this stabilizer. *)
          match Pauli.support stab with
          | [] -> assert false
          | q :: _ -> if stab.Pauli.x <> 0 then Tableau.z tableau q else Tableau.x tableau q
        end);
    if !dirty then sweep (budget - 1)
  in
  sweep 32;
  tableau

let extract_syndrome code tableau rng =
  let syndrome = ref 0 in
  walk_round code tableau rng ~on_measure:(fun i outcome ->
      if outcome = 1 then syndrome := Bits.set !syndrome i);
  !syndrome

let circuit_level_syndrome_matches code error rng =
  let tableau = prepare_logical_zero code rng in
  Tableau.apply_pauli tableau error;
  let measured = extract_syndrome code tableau rng in
  measured = Code.syndrome code error

type overhead = {
  qec_ops_per_round : int;
  logical_op_cost : int;
  rounds_per_logical_op : int;
  qec_fraction : float;
  physical_qubits : int;
}

let overhead_of ?(rounds_per_logical_op = 1) code =
  let round_circuit = Code.syndrome_circuit code in
  let ops circuit =
    List.length
      (List.filter
         (fun instr ->
           match instr with
           | Gate.Unitary _ | Gate.Conditional _ | Gate.Prep _ | Gate.Measure _ -> true
           | Gate.Barrier _ -> false)
         (Circuit.instructions circuit))
  in
  let qec_ops_per_round = ops round_circuit in
  (* A transversal logical operation costs one physical op per data qubit. *)
  let logical_op_cost = code.Code.n in
  let qec_total = qec_ops_per_round * rounds_per_logical_op in
  {
    qec_ops_per_round;
    logical_op_cost;
    rounds_per_logical_op;
    qec_fraction = float_of_int qec_total /. float_of_int (qec_total + logical_op_cost);
    physical_qubits = total_qubits code;
  }
