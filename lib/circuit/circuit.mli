(** Quantum circuit intermediate representation.

    A circuit is an ordered instruction list over [qubit_count] qubits. It is
    the exchange format between the OpenQL-style compiler passes, the cQASM
    printer/parser, the micro-architecture and the QX simulator. *)

type t

val create : ?name:string -> int -> t
(** [create n] is the empty circuit on [n] qubits. *)

val of_list : ?name:string -> int -> Gate.t list -> t
(** Validates every instruction (see {!validate_instruction}). *)

val name : t -> string
val qubit_count : t -> int
val instructions : t -> Gate.t list
val length : t -> int

val add : t -> Gate.t -> t
(** Append one instruction, validating operands. *)

val append : t -> t -> t
(** Concatenate; qubit counts must agree. *)

val repeat : int -> t -> t
(** [repeat k c] concatenates [k] copies of [c]. *)

val map_qubits : (int -> int) -> t -> t
(** Rewrite all operand qubits (the function must stay within range). *)

val inverse : t -> t
(** Reverse with adjoint gates. Raises [Invalid_argument] if the circuit
    contains non-unitary instructions. *)

val gate_count : t -> int
(** Unitary instructions only. *)

val two_qubit_gate_count : t -> int

val depth : t -> int
(** Circuit depth counting each instruction as one cycle, with barriers
    synchronising their operand set. *)

type figures = { gates : int; two_qubit_gates : int; depth : int }

val figures : t -> figures
(** {!gate_count}, {!two_qubit_gate_count} and {!depth} in one walk. *)

val qubits_used : t -> int list
(** Sorted list of qubits touched by at least one instruction. *)

val active_of_used : bool array -> int array
(** The register qubits whose [used] flag is set, ascending: a simulation
    holds register qubit [(active_of_used used).(i)] as its qubit [i]. A
    register with no used qubit keeps qubit 0, so every simulation has
    one. *)

val active_qubits : t -> int array
(** {!active_of_used} over {!Gate.active_qubits} of every instruction: the
    qubits a simulation of the circuit has to hold. *)

val compact : t -> (t * int array) option
(** [Some (narrow, active)] when some qubit is idle: [narrow] is the circuit
    relabelled in order onto [Array.length active] qubits (qubit
    [active.(i)] becomes qubit [i]; barriers keep only active operands).
    [None] when every qubit is active, so such a circuit is used as is. *)

val validate_instruction : int -> Gate.t -> unit
(** Raises [Invalid_argument] when operands are out of range, duplicated, or
    of the wrong count for the unitary's arity, or when a conditional's
    classical bit is outside [[0, qubit_count)] (bit [k] holds the outcome
    of measuring qubit [k]). *)

val unitary_matrix : t -> Qca_util.Matrix.t
(** Full [2^n] unitary of a measurement-free circuit (little-endian basis:
    qubit 0 is the least-significant bit). Only sensible for small [n];
    raises [Invalid_argument] beyond 10 qubits or on non-unitary content. *)

val equal : t -> t -> bool
val to_string : t -> string
