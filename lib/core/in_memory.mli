(** Section 5's in-memory computing argument, quantified.

    The paper argues that quantum computing is inherently in-memory: logic
    is applied where the qubits live, and what moves is the occasional qubit
    state for a nearest-neighbour two-qubit gate — exactly the
    data-vs-logic movement trade-off of memristor architectures. This
    module provides the first-order traffic model for the three
    architectures and measures the quantum column directly from the
    routing pass. *)

type architecture =
  | Von_neumann  (** Every operation ships its operands over the bus. *)
  | In_memory  (** Logic moves to data; only non-local intermediates move. *)
  | Quantum_nearest_neighbour
      (** Gates act in place; SWAP chains move states for distant pairs. *)

type workload = {
  operations : int;  (** Total compute operations. *)
  operands_per_op : int;
  locality : float;  (** Fraction of operations whose operands are local. *)
}

val data_movements : architecture -> workload -> movement_per_distant_op:float -> float
(** Expected operand movements: the von Neumann column ignores locality
    (everything crosses the bus), the in-memory and quantum columns pay
    only for the non-local fraction, the quantum column weighted by the
    measured SWAP cost per distant interaction. *)

type routing_pressure = {
  two_qubit_gates : int;
  swaps_inserted : int;
  swaps_per_interaction : float;  (** The measured movement_per_distant_op. *)
  locality_measured : float;  (** Fraction of 2q gates already adjacent. *)
}

val measure_routing : Qca_compiler.Platform.t -> Qca_circuit.Circuit.t -> routing_pressure
(** Run the greedy router and extract the quantum data-movement numbers
    for a circuit on a nearest-neighbour platform. *)

val comparison_table : workload -> movement_per_distant_op:float -> (string * float) list
(** Movements per architecture, for printing. *)
