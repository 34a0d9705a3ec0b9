(** Platform configuration files.

    The paper's key retargeting claim (section 3.1) is that moving the same
    micro-architecture between superconducting and semiconducting technologies
    only required a new compiler configuration file and micro-code table.
    This module is that configuration file. *)

type topology =
  | All_to_all  (** Perfect qubits: no connectivity constraint. *)
  | Grid of int * int  (** rows x cols nearest-neighbour lattice. *)
  | Custom of Qca_util.Graph.t

type t = {
  name : string;
  qubit_count : int;
  topology : topology;
  primitives : string list;
      (** Mnemonics the hardware executes natively (see {!Qca_circuit.Gate.name}). *)
  durations_ns : (string * int) list;
      (** Gate duration lookup; ["*"] provides the default. *)
  cycle_ns : int;  (** Clock cycle of the micro-architecture timing grid. *)
  noise : Qca_qx.Noise.model;  (** Error model used for realistic execution. *)
}

val connectivity : t -> Qca_util.Graph.t
(** Materialised coupling graph (complete graph for {!All_to_all}). *)

val supports : t -> Qca_circuit.Gate.unitary -> bool
(** Is the gate a native primitive? *)

val duration_ns : t -> Qca_circuit.Gate.t -> int
val duration_cycles : t -> Qca_circuit.Gate.t -> int
(** Ceiling of duration over the cycle time; at least 1. *)

val are_coupled : t -> int -> int -> bool
(** Can a two-qubit primitive act on this physical pair? *)

val perfect : int -> t
(** Perfect-qubit platform on [n] qubits: every gate native, all-to-all,
    no noise (Figure 2b's simulated full stack). *)

val superconducting_17 : t
(** 17-qubit transmon-style platform: Surface-17 style 2-D grid slice,
    primitives {x90, mx90, y90, my90, rz, cz}, paper-quoted error rates
    (Figure 2a's experimental full stack). *)

val semiconducting_4 : t
(** 4-qubit spin-qubit platform: linear chain, slower two-qubit gates —
    the second technology of the paper's retargeting demonstration. *)
