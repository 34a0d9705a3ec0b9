(** Cycle-accurate micro-architecture controller (Figure 6).

    Executes an eQASM program: maintains the timing grid, resolves mask
    registers, runs every quantum operation through the micro-code unit into
    per-channel timing queues, and drives the QX simulator as the "quantum
    chip" at the end of the pipeline (the pink block of Figure 7).

    The chip is the engine's own per-op step ({!Qca_qx.Engine.micro_step}):
    each eQASM op, its mask resolved to state qubits, is lowered to engine
    micro-ops, so gates, gate noise, measurement, readout error and prep
    have one semantics across [Engine.run], {!run_shots} and
    [Qisa.execute]. [rz] is a virtual-Z frame update: it lowers to a fused
    kernel, which draws no gate noise.

    The chip holds only the program's active qubits, those an SMIS or SMIT
    mask names: every shot allocates 2^active amplitudes, not 2^qubit_count.
    The relabel keeps qubit order, so histograms are the same, seed for
    seed, as a full-width simulation's. *)

type technology = {
  tech_name : string;
  microcode : Microcode.table;
  pulses : Adi.library;
}

val superconducting : technology
val semiconducting : technology

type trace_event = {
  time_ns : int;
  qubit : int;
  opcode : int;
  pulse_name : string;
  duration_ns : int;
}

type run_stats = {
  total_ns : int;  (** Wall-clock length of the pulse schedule. *)
  bundles_issued : int;
  micro_ops : int;
  peak_queue_depth : int;
  timing_violations : int;
  software_phase_updates : int;  (** rz frame updates (no pulse emitted). *)
}

type result = {
  outcome : Qca_qx.Sim.outcome;
      (** QX execution result. [classical] has one entry per program qubit.
          From {!finish} and [Qisa.execute], [state] is indexed by program
          qubits too: the active qubits' amplitudes, copied exactly into a
          [qubit_count]-qubit register whose idle qubits are |0>. In
          {!run_shots}'s [last], [state] holds the active qubits only, in
          order ({!active_qubits} gives the program qubit of each), so a
          many-shot run never allocates the full width. *)
  trace : trace_event list;  (** Pulse-level timeline, time-ordered. *)
  stats : run_stats;
}

type shots_result = {
  histogram : (string * int) list;
      (** Measured bitstrings over all shots (count-descending; qubit 0
          rightmost, '-' for never-measured qubits). *)
  last : result;
      (** Trace and stats of the final shot; its state holds the active
          qubits only (see {!result}). *)
  report : Qca_qx.Engine.run_report;
      (** Engine-format metrics: always the trajectory plan, with gate
          applies and measurements summed over all shots. *)
}

val run_shots :
  ?noise:Qca_qx.Noise.model ->
  ?seed:int ->
  ?rng:Qca_util.Rng.t ->
  ?shots:int ->
  ?faults:Qca_util.Fault.t ->
  ?policy:Qca_util.Resilience.policy ->
  technology ->
  Qca_compiler.Eqasm.program ->
  shots_result
(** Execute an eQASM program for many shots (default 1024) and histogram
    the measurement records. The micro-architecture is inherently
    per-shot — measurement collapse feeds the timing pipeline — so there is
    no sampled fast path here; the value of this entry point is the uniform
    histogram + {!Qca_qx.Engine.run_report} surface. One shot is
    [(run_shots ~shots:1 ...).last]. [?rng] wins over [?seed]; with
    neither, a process-wide stream advancing across calls is used (as
    {!Qca_qx.Engine.default_rng}). [noise] defaults to ideal qubits.
    Raises {!Qca_util.Error.Error} on a mnemonic missing from the
    micro-code table, a pulse missing from the ADI library, or a gate with
    the wrong operand count.

    With a [faults] injector attached, every shot aborted by a transient
    fault is retried per [policy] (default
    {!Qca_util.Resilience.default_policy}); shots that exhaust their
    retries are dropped from the histogram and counted in
    [report.resilience.faulted_shots] (so
    [faulted_shots + histogram total = shots]). If {e every} shot faults,
    raises a permanent {!Qca_util.Error.Error} so the caller's degradation
    ladder can take over. Without [faults] behaviour is bit-identical to
    the pre-resilience path. *)

(** {2 Stepwise execution}

    The QISA interpreter (Figure 5) interleaves classical instructions with
    quantum ones, so it needs to feed the controller one instruction at a
    time and read measurement results back (FMR). *)

type session

val active_qubits : qubit_count:int -> Qca_compiler.Eqasm.instruction list -> int array
(** The qubits SMIS/SMIT masks name in [instructions], ascending
    ({!Qca_circuit.Circuit.active_of_used}): the qubits a session of them
    has to hold. *)

val start :
  ?noise:Qca_qx.Noise.model ->
  ?rng:Qca_util.Rng.t ->
  ?faults:Qca_util.Fault.t ->
  active:int array ->
  technology ->
  qubit_count:int ->
  cycle_ns:int ->
  session
(** A session whose state holds the [active] qubits (ascending, as
    {!active_qubits} returns them). Operating on a qubit outside them
    raises an [Invalid] structured error. *)

val step : session -> Qca_compiler.Eqasm.instruction -> unit
(** Execute one eQASM instruction in the session. *)

val classical_bit : session -> int -> int
(** Latest measurement result of a qubit (-1 when never measured): the FMR
    (fetch measurement result) path. *)

val finish : session -> result
(** Close the session and collect trace + statistics. *)

val trace_to_string : result -> string
(** Tabular pulse timeline (one line per micro-op). *)
