(** The one job path of the stack: run a {!Job_spec.t} on the backend its
    route names.

    - A [Direct] route runs the circuit on the QX engine
      ({!Qca_qx.Engine.run_checked}) with the spec's noise, plan override
      and fault injection.
    - A [Compiled] route compiles once ({!Qca_compiler.Compiler.compile}).
      When the route is in Real mode with a micro-architecture and the
      compiler emitted eQASM, every shot runs through the cycle-accurate
      controller
      ({!Qca_microarch.Controller.run_shots}); with [ladder = true] a
      controller failure, or a faulted-shot ratio above the retry policy's
      [degrade_threshold], falls back to QX on the already-compiled program
      and records the event in [report.resilience.degraded]. Every other
      compiled route runs the compiled program on QX under its mode's noise
      ({!Job_spec.route_noise}).

    [qxc run]/[exec], the job service ({!Qca_service.Service}), {!Stack},
    the examples and the benchmarks all go through here, so every consumer
    sees the same seed semantics, fault handling and report schema
    ([docs/service.md]). *)

type outcome = {
  histogram : (string * int) list;
      (** Measured bitstrings, count-descending (see
          {!Qca_qx.Engine.result}). *)
  report : Qca_qx.Engine.run_report;
  compiled : Qca_compiler.Compiler.output option;
      (** Present for [Compiled] routes. *)
  microarch_stats : Qca_microarch.Controller.run_stats option;
      (** Last-shot pipeline stats when the micro-architecture ran the job
          ([None] after a ladder fallback). *)
}

val run :
  ?rng:Qca_util.Rng.t ->
  ?faults:Qca_util.Fault.t ->
  Job_spec.t ->
  (outcome, Qca_util.Error.t) result
(** Run the job. [?rng] overrides the spec's seed (engine precedence
    rules); [?faults] threads an existing injector through instead of
    building one from the spec: the job service runs its atomic jobs on
    its own per-job generator and injector. Payload, compilation and
    execution failures are all structured [Error]s. *)

val prepare :
  Job_spec.t -> Qca_circuit.Circuit.t -> (Qca_qx.Engine.prepared, Qca_util.Error.t) result
(** The engine preparation of a [Direct] job ({!Qca_qx.Engine.prepare})
    on its elaborated circuit, with the spec's noise model, plan override
    and shots: the arguments {!run}'s Direct arm passes. The job
    service prepares a job with this once and samples it slice by slice
    with {!Qca_qx.Engine.sample}. *)

val success_probability : outcome -> accept:(string -> bool) -> float
(** Fraction of histogram mass on accepted bitstrings. *)

val outcome_fields : outcome -> (string * Qca_util.Json.t) list
(** The ["histogram"] and ["report"] fields of a finished job: the body
    of [qxc run --json] and the tail of a [qxd] result line. *)
