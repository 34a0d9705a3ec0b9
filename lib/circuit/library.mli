(** Standard circuit constructions used by examples, tests and benchmarks. *)

val bell : unit -> Circuit.t
(** Two-qubit Bell pair preparation (H; CNOT). *)

val ghz : int -> Circuit.t
(** [ghz n] prepares the n-qubit GHZ state. *)

val qft : int -> Circuit.t
(** Quantum Fourier transform on [n] qubits (with final swaps), little-endian
    convention matching {!Circuit.unitary_matrix}. *)

val qft_inverse : int -> Circuit.t

val multi_controlled_x :
  controls:int list -> ancillas:int list -> target:int -> int -> Circuit.t
(** [multi_controlled_x ~controls ~ancillas ~target n] is a C^k X on an
    [n]-qubit register using a Toffoli ladder. Needs
    [max 0 (k - 2)] clean ancillas (returned to |0>). *)

val phase_flip_on :
  pattern:bool array -> qubits:int list -> ancillas:int list -> int -> Circuit.t
(** Oracle that flips the phase of exactly the computational-basis state
    whose bits on [qubits] equal [pattern] (X-conjugated multi-controlled Z).
    [pattern.(i)] corresponds to [List.nth qubits i]. *)

val grover_diffusion : qubits:int list -> ancillas:int list -> int -> Circuit.t
(** Inversion-about-the-mean operator on the listed register. *)

val cuccaro_adder : int -> Circuit.t
(** [cuccaro_adder k] is the ripple-carry adder on registers a (qubits
    [0..k-1]), b ([k..2k-1]), carry-in ancilla [2k] and carry-out [2k+1]; the
    sum replaces register b. Total [2k + 2] qubits. *)

val bernstein_vazirani : secret:int -> int -> Circuit.t
(** [bernstein_vazirani ~secret n]: recover an n-bit hidden string in one
    oracle query. Qubits 0..n-1 are the input register (measured at the
    end), qubit n is the phase ancilla; the measured bits equal [secret]. *)

val deutsch_jozsa : balanced:int option -> int -> Circuit.t
(** [deutsch_jozsa ~balanced n]: decide constant vs balanced in one query.
    [balanced = Some mask] uses the balanced function f(x) = parity(x land
    mask) (mask must be nonzero); [None] uses a constant function. All-zero
    measurement of the input register means constant. Uses n + 1 qubits. *)

val teleport : ?prepare:Gate.unitary -> unit -> Circuit.t
(** Quantum teleportation on 3 qubits: [prepare] (default Ry 1.047) sets the
    payload on qubit 0, which is teleported to qubit 2 using mid-circuit
    measurement and binary-controlled X/Z corrections — the canonical
    exercise of the stack's classical fast-feedback path. *)

val random_circuit : Qca_util.Rng.t -> qubits:int -> gates:int -> Circuit.t
(** Random circuit of single- and two-qubit gates (used by mapping and
    scheduling benchmarks). *)
