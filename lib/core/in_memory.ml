module Circuit = Qca_circuit.Circuit
module Platform = Qca_compiler.Platform
module Mapping = Qca_compiler.Mapping
module Decompose = Qca_compiler.Decompose

type architecture = Von_neumann | In_memory | Quantum_nearest_neighbour

let architecture_to_string = function
  | Von_neumann -> "von Neumann (data to logic)"
  | In_memory -> "in-memory (logic to data)"
  | Quantum_nearest_neighbour -> "quantum NN (state routing)"

type workload = { operations : int; operands_per_op : int; locality : float }

let data_movements architecture w ~movement_per_distant_op =
  if w.locality < 0.0 || w.locality > 1.0 then invalid_arg "In_memory: locality in [0,1]";
  let ops = float_of_int w.operations in
  let operands = float_of_int w.operands_per_op in
  match architecture with
  | Von_neumann -> ops *. operands
  | In_memory -> ops *. operands *. (1.0 -. w.locality)
  | Quantum_nearest_neighbour -> ops *. (1.0 -. w.locality) *. movement_per_distant_op

type routing_pressure = {
  two_qubit_gates : int;
  swaps_inserted : int;
  swaps_per_interaction : float;
  locality_measured : float;
}

let measure_routing platform circuit =
  let widened =
    Circuit.of_list ~name:(Circuit.name circuit) platform.Platform.qubit_count
      (Circuit.instructions circuit)
  in
  let swap_capable =
    { platform with Platform.primitives = "swap" :: platform.Platform.primitives }
  in
  let lowered = Decompose.run swap_capable widened in
  let result = Mapping.run ~strategy:Mapping.Greedy platform lowered in
  let two_qubit_gates = Circuit.two_qubit_gate_count lowered in
  let swaps = result.Mapping.swaps_added in
  (* Interactions that needed no routing were already nearest-neighbour. *)
  let distant =
    (* Each routed interaction consumed at least one swap; approximate the
       distant count by the interactions that triggered routing. *)
    min two_qubit_gates swaps
  in
  {
    two_qubit_gates;
    swaps_inserted = swaps;
    swaps_per_interaction =
      (if two_qubit_gates = 0 then 0.0
       else float_of_int swaps /. float_of_int two_qubit_gates);
    locality_measured =
      (if two_qubit_gates = 0 then 1.0
       else 1.0 -. (float_of_int distant /. float_of_int two_qubit_gates));
  }

let comparison_table w ~movement_per_distant_op =
  List.map
    (fun a -> (architecture_to_string a, data_movements a w ~movement_per_distant_op))
    [ Von_neumann; In_memory; Quantum_nearest_neighbour ]
