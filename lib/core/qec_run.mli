(** Circuit-level QEC cycles: repeated syndrome extraction
    ({!Qca_qec.Code.syndrome_circuit}) as one circuit, run like any other
    job through [Runner.run] on a [Direct] route.

    Syndrome-extraction rounds are pure Clifford with mid-circuit
    preparation and measurement, so the planner sends ideal runs to the
    tableau (plan [Clifford], polynomial in qubit count) and noisy runs to
    state-vector trajectories — the dispatch that makes repeated
    stabilization affordable above the simulator layer. The
    algebraic/tableau-level harnesses stay in {!Qca_qec.Qec_experiment};
    this module is the circuit-level counterpart (the QEC layer cannot
    depend on the engine). *)

val cycle_circuit : ?rounds:int -> Qca_qec.Code.t -> Qca_circuit.Circuit.t
(** [rounds] (default 1) concatenated syndrome-extraction rounds on data
    qubits [0 .. n-1] with one ancilla per stabilizer at [n + i]; each
    round re-prepares its ancillas, so the classical record after the run
    holds the last round's syndrome. Histogram keys put qubit 0 rightmost,
    so the ancilla bits are the first [Code.ancilla_count code]
    characters. Raises [Invalid_argument] on [rounds < 1]. *)
