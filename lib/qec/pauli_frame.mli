(** Circuit-level QEC simulation by Pauli-frame propagation.

    The code-capacity experiments in {!Decoder} put errors only on data
    qubits between perfect syndrome measurements. Real syndrome extraction
    (section 2.1) is itself built from noisy gates, and a single faulty CNOT
    spreads errors from ancilla to data — the reason thresholds drop an
    order of magnitude at circuit level. This module propagates a Pauli
    frame through the ancilla-based extraction circuit with depolarising
    gate errors and measurement flips, all in O(gates) per round. *)

type frame = { mutable x : int; mutable z : int }
(** Accumulated Pauli error, one bit per qubit (data then ancillas). *)

val propagate_cnot : frame -> int -> int -> unit
(** Standard Clifford propagation: X copies control -> target, Z copies
    target -> control. *)

val propagate_h : frame -> int -> unit
(** Exchange X and Z components on one qubit. *)

type round_result = {
  syndrome : int;  (** Measured (noisy) syndrome bits. *)
  frame : frame;  (** Frame after the round (ancilla bits reset). *)
}

val noisy_round :
  rng:Qca_util.Rng.t ->
  gate_error:float ->
  measurement_error:float ->
  Code.t ->
  frame ->
  round_result
(** One ancilla-based syndrome-extraction round with faulty preps, CNOTs,
    Hadamards and measurements, starting from (and updating) the given data
    frame. *)

val logical_error_rate :
  ?rounds:int ->
  ?trials:int ->
  rng:Qca_util.Rng.t ->
  Code.t ->
  Decoder.t ->
  gate_error:float ->
  measurement_error:float ->
  float
(** Monte-Carlo circuit-level logical error rate: [rounds] (default =
    distance) noisy extraction rounds accumulate gate faults, then a final
    perfect round feeds the lookup decoder; a trial fails when the residual
    operator acts as a logical. *)
