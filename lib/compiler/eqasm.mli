(** eQASM lowering: the executable QASM level of Figure 6.

    The second backend pass of section 3.1: translate a scheduled circuit
    into timed, mask-register-based instructions executable by the
    micro-architecture. The format follows Fu et al.'s eQASM: SMIS/SMIT set
    single/two-qubit mask registers, QWAIT advances the timing grid, and
    bundles issue quantum operations with a pre-interval relative to the
    previous bundle. *)

type quantum_op = {
  mnemonic : string;  (** Platform primitive name, e.g. "x90", "cz", "measure". *)
  angle : float option;  (** For rz: the rotation angle resolved via a LUT. *)
  mask : int;  (** Mask register index (s-register for 1q ops, t-register for 2q). *)
  two_qubit : bool;
  condition : int option;
      (** Classical bit gating the op (eQASM's fast conditional execution,
          fed by the measurement-result registers via FMR). *)
}

type instruction =
  | Smis of int * int list  (** [Smis (s, qubits)]: set single-qubit mask. *)
  | Smit of int * (int * int) list  (** [Smit (t, pairs)]: set two-qubit mask. *)
  | Qwait of int  (** Idle for the given number of cycles. *)
  | Bundle of int * quantum_op list
      (** [Bundle (pre_interval, ops)]: after [pre_interval] cycles from the
          previous quantum issue, fire all ops in parallel. *)

type program = {
  platform_name : string;
  qubit_count : int;
  cycle_ns : int;
  instructions : instruction list;
  makespan_cycles : int;
}

type stats = {
  bundle_count : int;
  mask_registers_used : int;
  total_quantum_ops : int;
  peak_parallelism : int;
  duration_ns : int;
}

val register_limit : int
(** Mask registers of each kind (32): [s0]..[s31] and [t0]..[t31]. *)

val of_schedule : Platform.t -> Schedule.t -> program
(** Lower a schedule. Raises [Invalid_argument] if mask registers are
    exhausted (32 of each kind, as in the eQASM paper). *)

val stats : program -> stats

val to_string : program -> string
(** Assembly rendering, one instruction per line. *)
