(** Cycle-accurate micro-architecture controller (Figure 6).

    Executes an eQASM program: maintains the timing grid, resolves mask
    registers, runs every quantum operation through the micro-code unit into
    per-channel timing queues, and drives the QX simulator as the "quantum
    chip" at the end of the pipeline (the pink block of Figure 7). *)

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
  outcome : Qca_qx.Sim.outcome;  (** QX execution result. *)
  trace : trace_event list;  (** Pulse-level timeline, time-ordered. *)
  stats : run_stats;
}

val run :
  ?noise:Qca_qx.Noise.model ->
  ?rng:Qca_util.Rng.t ->
  ?faults:Qca_util.Fault.t ->
  technology ->
  Qca_compiler.Eqasm.program ->
  result
(** Execute one shot. Raises {!Qca_util.Error.Error} ([Unknown_mnemonic] /
    [Missing_pulse]) on mnemonics missing from the micro-code table or
    pulses missing from the ADI library, and transient structured errors
    when an attached [faults] injector fires (see {!Qca_util.Fault} for the
    controller fault sites; retry wrapping is the caller's job — or use
    {!run_shots}). [noise] defaults to ideal qubits so that functional
    behaviour can be checked separately from error modelling. Without
    [?rng], randomness comes from a process-wide stream that advances
    across calls (see {!Qca_qx.Engine.default_rng} for the semantics). *)

type shots_result = {
  histogram : (string * int) list;
      (** Measured bitstrings over all shots (count-descending; qubit 0
          rightmost, '-' for never-measured qubits). *)
  last : result;  (** Trace and stats of the final shot. *)
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
    histogram + {!Qca_qx.Engine.run_report} surface. [?rng] wins over
    [?seed]; with neither, the shared stream is used.

    With a [faults] injector attached, every shot aborted by a transient
    fault is retried per [policy] (default
    {!Qca_util.Resilience.default_policy}); shots that exhaust their
    retries are dropped from the histogram and counted in
    [report.resilience.faulted_shots] (so
    [faulted_shots + histogram total = shots]). If {e every} shot faults,
    raises a permanent {!Qca_util.Error.Error} so the caller's degradation
    ladder can take over. Without [faults] behaviour is bit-identical to
    the pre-resilience path. *)

val backend :
  ?platform:Qca_compiler.Platform.t ->
  ?technology:technology ->
  ?faults:Qca_util.Fault.t ->
  ?policy:Qca_util.Resilience.policy ->
  unit ->
  (module Qca_qx.Backend.S)
(** An execution target that compiles the circuit for [platform] (default
    the 17-qubit superconducting platform, Real mode), then pushes every
    shot through the micro-architecture under the platform noise model.
    Histogram keys are platform-width (the mapper may relocate logical
    qubits). [faults]/[policy] thread through to {!run_shots}; wrap the
    result with {!Qca_qx.Resilient.wrap} to add backend-level fallback. *)

module Backend : Qca_qx.Backend.S
(** [backend ()] with the defaults: "microarch-superconducting". *)

(** {2 Stepwise execution}

    The QISA interpreter (Figure 5) interleaves classical instructions with
    quantum ones, so it needs to feed the controller one instruction at a
    time and read measurement results back (FMR). *)

type session

val start :
  ?noise:Qca_qx.Noise.model ->
  ?rng:Qca_util.Rng.t ->
  ?faults:Qca_util.Fault.t ->
  technology ->
  qubit_count:int ->
  cycle_ns:int ->
  session

val step : session -> Qca_compiler.Eqasm.instruction -> unit
(** Execute one eQASM instruction in the session. *)

val classical_bit : session -> int -> int
(** Latest measurement result of a qubit (-1 when never measured): the FMR
    (fetch measurement result) path. *)

val elapsed_cycles : session -> int

val finish : session -> result
(** Close the session and collect trace + statistics. *)

val trace_to_string : result -> string
(** Tabular pulse timeline (one line per micro-op). *)
