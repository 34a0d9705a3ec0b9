(** Gate algebra: the unitary set shared by OpenQL, cQASM and the QX
    simulator, with exact matrices and adjoints. *)

type unitary =
  | I
  | X
  | Y
  | Z
  | H
  | S
  | Sdag
  | T
  | Tdag
  | X90  (** +90 degree X rotation: the RB/eQASM primitive. *)
  | Xm90
  | Y90
  | Ym90
  | Rx of float
  | Ry of float
  | Rz of float
  | Cnot
  | Cz
  | Swap
  | Cphase of float  (** Controlled phase by an arbitrary angle. *)
  | Crk of int  (** Controlled phase by [2 pi / 2^k]: the QFT primitive. *)
  | Toffoli

type t =
  | Unitary of unitary * int array
      (** A unitary applied to operand qubits; the operand count must equal
          [arity]. For controlled gates, controls come first. *)
  | Conditional of int * unitary * int array
      (** [Conditional (bit, u, ops)]: apply [u] only when classical bit
          [bit] (the latest measurement of that qubit index) is 1 — cQASM's
          binary-controlled gates ([c-x b[0], q[1]]), the fast-feedback
          primitive of the paper's hybrid quantum-classical loop (§3.3). *)
  | Prep of int  (** Initialise a qubit to |0> (cQASM [prep_z]). *)
  | Measure of int  (** Z-basis measurement into the classical bit of the same index. *)
  | Barrier of int array  (** Scheduling barrier across the listed qubits. *)

val arity : unitary -> int
(** Number of qubit operands. *)

val matrix : unitary -> Qca_util.Matrix.t
(** Unitary matrix of dimension [2^arity], operands ordered
    most-significant-first (control qubits in the high bits). *)

val adjoint : unitary -> unitary
(** Inverse unitary (as a named gate). *)

val is_diagonal : unitary -> bool
(** True when the matrix is diagonal in the computational basis (these
    commute through control structure and are cheap for the simulator). *)

val is_two_qubit : unitary -> bool
val is_clifford : unitary -> bool
(** True for generators of the Clifford group (used by RB and QEC). *)

val name : unitary -> string
(** Lower-case cQASM mnemonic, without angle arguments. *)

val kind : unitary -> int
(** The constructor's index, [0] to [Array.length kinds - 1]: [I] is 0,
    ..., the two-qubit gates are 16 to 20 and [Toffoli] 21. {!name},
    {!arity} and every predicate above depend on the kind only. *)

val kinds : unitary array
(** One gate per kind, at its index, with parameter 0. *)

val kind_of_name : string -> int option
(** The kind whose {!name} is the string, if any. *)

val qubits : t -> int array
(** Operand qubits of an instruction (copy). *)

val active_qubits : t -> int array
(** Qubits whose state or measurement record the instruction uses: gate
    operands, the condition bit of a conditional, a measured or prepared
    qubit. A barrier uses none. A gate's result is its operand array
    itself, not a copy: read it, do not write it. *)

val map_qubits : (int -> int) -> t -> t
(** Rewrite operand qubits (used by mapping/routing). *)

val equal : t -> t -> bool
(** Structural equality with floating-point angle tolerance 1e-12. *)

val to_string : t -> string
(** cQASM-style rendering, e.g. ["cnot q[0], q[1]"]. *)
