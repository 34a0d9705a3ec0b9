(** Two-qubit randomised benchmarking (section 3.1 benchmarks "one or two
    qubits").

    The full 11520-element two-qubit Clifford group is generated once by
    closing {H, S} on each qubit plus CZ under composition (deduplicating
    matrices up to global phase); sequences of uniform group elements are
    closed with the exact group inverse and the 00-survival decay fitted as
    in the single-qubit case. The two-qubit depolarising parameter relates
    to the error per Clifford as r = (1 - p) (1 - 1/4) = 3(1 - p)/4. *)

type clifford

val group : unit -> clifford array
(** Generated lazily on first use (a few hundred ms). *)

val gates : clifford -> (Qca_circuit.Gate.unitary * int array) list
(** A realisation over qubits {0, 1}. *)

val inverse : clifford -> clifford

val average_gate_count : unit -> float
(** Mean primitive gates per group element in this presentation. *)

val sequence_circuit :
  Qca_util.Rng.t -> length:int -> Qca_circuit.Circuit.t
(** [length] random two-qubit Cliffords, the recovery element, and
    measurements on both qubits. *)

type decay = {
  points : (int * float) list;  (** (sequence length, 00-survival). *)
  p : float;
  error_per_clifford : float;  (** 3 (1 - p) / 4. *)
}

val run :
  ?lengths:int list ->
  ?sequences:int ->
  ?shots:int ->
  noise:Qca_qx.Noise.model ->
  rng:Qca_util.Rng.t ->
  unit ->
  decay
(** Defaults: lengths [1; 2; 4; 8; 16], 6 sequences, 48 shots. *)
