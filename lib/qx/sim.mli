(** QX simulator front end: single trajectories on perfect or realistic
    qubits.

    The paper's QX engine executes cQASM, measures, and returns results to
    the micro-architecture; this module exposes one shot of it with its
    final state. Shot-level estimates (histograms, success probabilities)
    come from {!Engine.run}, which simulates terminal-measurement circuits
    once and samples all shots from the final distribution (see
    [docs/engine.md]); whole jobs go through [Qca.Runner.run].

    Seed semantics: every entry point that omits [?rng] draws from the
    engine's process-wide default stream, which advances across calls —
    repeated calls see fresh randomness, whole-program runs stay
    reproducible. Pass [?rng] (or use {!Engine.run} with [?seed]) for
    call-level reproducibility. *)

type outcome = {
  state : State.t;  (** Final state vector. *)
  classical : int array;
      (** One classical bit per qubit, holding the latest measurement of that
          qubit (-1 when never measured). *)
}

val run :
  ?noise:Noise.model -> ?rng:Qca_util.Rng.t -> Qca_circuit.Circuit.t -> outcome
(** Execute a circuit once (one trajectory). [noise] defaults to
    {!Noise.ideal} (perfect qubits). *)

val expectation_z :
  ?noise:Noise.model -> ?rng:Qca_util.Rng.t -> Qca_circuit.Circuit.t -> int -> float
(** <Z> on one qubit of the final state of a single (noisy) run. *)

val state_fidelity_vs_ideal :
  noise:Noise.model -> rng:Qca_util.Rng.t -> shots:int -> Qca_circuit.Circuit.t -> float
(** Average over trajectories of |<psi_noisy|psi_ideal>|^2 for a
    measurement-free circuit (via {!Engine.fold_trajectories}). *)
