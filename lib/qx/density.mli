(** Density-matrix simulator: exact open-system evolution for small
    registers (n <= 8).

    Where {!Sim} samples Monte-Carlo trajectories, this module evolves the
    density matrix rho directly: unitaries as U rho U+, error channels as
    exact Kraus sums. It exists to validate the trajectory engine (the test
    suite checks the two agree) and to compute noise-limited quantities
    without sampling error. *)

type t

val create : int -> t
(** |0...0><0...0| on n qubits (1 <= n <= 8). *)

val qubit_count : t -> int
val dimension : t -> int

val of_state : State.t -> t
(** Pure-state density matrix |psi><psi|. *)

val get : t -> int -> int -> Qca_util.Cplx.t
(** Matrix element rho_{row,col}. *)

val trace : t -> float
(** Always ~1 for a valid state. *)

val purity : t -> float
(** Tr rho^2: 1 for pure states, 1/2^n for the maximally mixed state. *)

val apply_unitary : t -> Qca_circuit.Gate.unitary -> int array -> unit

val apply_channel : t -> Noise.channel -> int -> unit
(** Exact Kraus-sum application of a single-qubit channel. *)

val probabilities : t -> float array
(** Diagonal: the measurement distribution. *)

val prob_one : t -> int -> float

val fidelity_with_state : t -> State.t -> float
(** <psi| rho |psi>. *)

val expectation_diag : t -> (int -> float) -> float

val run : ?noise:Noise.model -> Qca_circuit.Circuit.t -> t
(** Evolve a circuit exactly under the error model (gates followed by
    depolarising + decoherence channels on their operands, as in {!Sim}).
    Measurement, preparation and conditional instructions are rejected —
    use the trajectory simulator for those. *)

val sample :
  ?noise:Noise.model -> ?shots:int -> ?seed:int -> Qca_circuit.Circuit.t -> Engine.result
(** The exact-distribution oracle: evolve rho through the circuit's unitary
    prefix under [noise] (default {!Noise.ideal}; channels as exact Kraus
    sums, no trajectory sampling), then sample [shots] (default 1024)
    terminal measurements from its diagonal with the engine's sampler, so
    with one seed an ideal circuit gives the histogram {!Engine.run} gives.
    Only the gate channels of [noise] apply: its [prep_error] and
    [readout_error] are ignored, so under a model with either rate
    non-zero (e.g. {!Noise.depolarizing}) the oracle's distribution
    differs from the engine's trajectories, which do apply them.
    The differential tests compare the engine against it; it is not an
    execution target (jobs go through [Qca.Runner.run]). Raises
    [Invalid_argument] for circuits that need trajectory execution
    (feedback, mid-circuit measurement/reset), more than 8 qubits, or
    [shots < 1]. *)
