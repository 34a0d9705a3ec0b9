(** Circuit-level QEC simulation by Pauli-frame propagation.

    The code-capacity experiments in {!Decoder} put errors only on data
    qubits between perfect syndrome measurements. Real syndrome extraction
    (section 2.1) is itself built from noisy gates, and a single faulty CNOT
    spreads errors from ancilla to data — the reason thresholds drop an
    order of magnitude at circuit level. This module walks
    {!Code.syndrome_circuit} with a Pauli frame, mapped through each gate by
    {!Pauli.conjugate}, under depolarising gate errors and measurement
    flips, all in O(gates) per round. *)

type round_result = {
  syndrome : int;  (** Measured (noisy) syndrome bits. *)
  frame : Pauli.t;
      (** Frame after the round, one bit per qubit (data, then ancillas). *)
}

val noisy_round :
  rng:Qca_util.Rng.t ->
  gate_error:float ->
  measurement_error:float ->
  Code.t ->
  Pauli.t ->
  round_result
(** One round of {!Code.syndrome_circuit} from the given frame: each prep,
    gate and measurement may fault (a faulty prep or one-qubit gate draws
    one of X, Y, Z; a faulty CNOT one of the 15 non-identity two-qubit
    Paulis, ancilla operand first; a measurement flips with probability
    [measurement_error]). *)

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
