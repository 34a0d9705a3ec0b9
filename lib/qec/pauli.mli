(** n-qubit Pauli operators in symplectic (X-bits, Z-bits) representation,
    ignoring global phase. Supports up to 62 qubits. *)

type t = { x : int; z : int }
(** Qubit [q] carries X iff bit [q] of [x] is set, Z iff bit [q] of [z]; both
    set means Y. *)

val identity : t

val single : int -> char -> t
(** [single q 'X'|'Y'|'Z'] is the weight-one Pauli on qubit [q]. *)

val of_string : string -> t
(** ["XIZY"] reads left-to-right as qubits 0, 1, 2, 3. *)

val to_string : width:int -> t -> string

val mul : t -> t -> t
(** Product, phase discarded. *)

val weight : t -> int
(** Number of qubits acted on non-trivially. *)

val commutes : t -> t -> bool
(** Symplectic form: true iff the operators commute. *)

val is_identity : t -> bool
val equal : t -> t -> bool

val support : t -> int list
(** Sorted list of touched qubits. *)

val conjugate : Qca_circuit.Gate.unitary -> int array -> t -> t option
(** [conjugate u ops p]: the image U P U{^ †} of [p], up to phase, under
    gate [u] on operands [ops], or [None] where a Pauli frame stops. The
    one rule table for pushing a Pauli through a gate, shared by the
    engine's error frames and the circuit-level QEC harness: I, X, Y and Z
    pass [p] unchanged (U P U{^ †} = ±P); H, S, Sdag, CNOT, CZ and SWAP map
    it by the Clifford rules; T, Tdag, Rz, Cphase and Crk, being diagonal,
    pass a [p] with no X on their operands; any other gate passes only a
    [p] that leaves its operands alone; everything else stops it. A gate
    that repeats an operand takes the last rule. *)

val depolarizing_error : Qca_util.Rng.t -> int -> float -> t
(** [depolarizing_error rng n p]: iid error; each of the [n] qubits suffers
    X, Y or Z with probability [p/3] each. *)

val xz_error : Qca_util.Rng.t -> int -> px:float -> pz:float -> t
(** Independent X and Z flips per qubit. *)
