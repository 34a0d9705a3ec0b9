(** Stabilizer code descriptions: the repetition ("small") codes Preskill's
    NISQ argument favours and the Surface-17 planar code the paper's
    superconducting stack targets. *)

type t = {
  name : string;
  n : int;  (** Data qubits. *)
  stabilizers : Pauli.t array;
  logical_x : Pauli.t;
  logical_z : Pauli.t;
  distance : int;
}

val syndrome : t -> Pauli.t -> int
(** Bit [i] set iff the error anticommutes with stabilizer [i]. *)

val is_valid : t -> bool
(** All stabilizers mutually commute, logicals commute with stabilizers,
    and the two logicals anticommute. *)

val in_stabilizer_group : t -> Pauli.t -> bool
(** True when the operator is a product of stabilizer generators
    (exhaustive over 2^|S| products — fine for the small codes here). *)

val logical_effect : t -> Pauli.t -> [ `None | `X | `Z | `Y ]
(** Classify a residual operator with trivial syndrome: which logical
    operator it implements on the code space. *)

val bit_flip_repetition : int -> t
(** [[d, 1, d]] repetition code protecting against X errors (stabilizers
    Z_i Z_{i+1}). Distance must be odd. *)

val phase_flip_repetition : int -> t
(** Dual repetition code protecting against Z errors. *)

val surface_17 : t
(** Rotated distance-3 surface code on 9 data qubits (8 stabilizers), the
    layout behind the paper's Surface-17 superconducting experiments. *)

val rotated_surface : int -> t
(** [rotated_surface d] is the rotated surface code of odd distance [d] on
    d^2 data qubits with d^2 - 1 stabilizers; [rotated_surface 3] has the
    same structure as {!surface_17}. Raises for even or small [d]. *)

val steane : t
(** The [[7,1,3]] Steane code: the classic CSS "small code" alternative to
    surface codes in the Preskill-era discussion of section 2.1. *)

val ancilla_count : t -> int
(** Ancillas needed for one syndrome-extraction round (one per stabilizer). *)

val physical_qubits : t -> int
(** Data plus syndrome ancillas: the physical footprint of one logical
    qubit ([2 d^2 - 1] for {!rotated_surface}). Feeds the fault-tolerant
    cost model ({!Qca.Error_budget.fault_tolerant}). *)

val syndrome_circuit : t -> Qca_circuit.Circuit.t
(** Circuit-level syndrome extraction: data qubits [0 .. n-1], ancilla for
    stabilizer [i] at qubit [n + i]; ancillas are prepared, entangled via
    CNOT/CZ ladders, and measured. *)

val cycle_circuit : ?rounds:int -> t -> Qca_circuit.Circuit.t
(** [rounds] (default 1) concatenated {!syndrome_circuit}s: one circuit of
    QEC cycles, run like any other job through [Qca.Runner.run] on a
    [Direct] route. The rounds are pure Clifford with mid-circuit
    preparation and measurement, so the planner sends ideal runs to the
    tableau and noisy runs to state-vector trajectories. Each round
    re-prepares its ancillas, so the classical record after the run holds
    the last round's syndrome; histogram keys put qubit 0 rightmost, so
    the ancilla bits are the first [ancilla_count code] characters.
    Raises [Invalid_argument] on [rounds < 1]. *)
