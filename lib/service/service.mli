(** Multi-tenant quantum job service: the long-running front door of the
    stack ([docs/service.md]).

    Clients {!submit} a {!Qca.Job_spec.t} under a tenant name and get back
    a {!handle}; {!poll}, {!await} and {!cancel} operate on handles. Jobs
    are executed by a pool of virtual worker slots driven by {!step} /
    {!drain}: scheduling is {e cooperative and deterministic} — amplitude-
    level parallelism stays in the engine's domain pool
    ({!Qca_util.Parallel}), while this layer multiplexes {e jobs} over the
    simulated QPU the way a real accelerator service multiplexes a serial
    quantum device.

    {2 Scheduling}

    Weighted fair queuing over per-tenant virtual time: each slice of work
    advances its tenant's clock by [cost / weight], and the scheduler
    always serves the tenant with the smallest clock, so a tenant with
    weight 2 receives twice the throughput of a tenant with weight 1 and
    no tenant starves. A direct-route job is prepared once
    ({!Qca.Runner.prepare}) and sampled [slice_shots] shots per scheduler
    visit ({!Qca_qx.Engine.sample}) on its own generator, so long jobs are
    preempted at slice boundaries and the merged result is bit-identical
    to one uninterrupted run. Compiled and fault-injected jobs execute
    atomically and pay their full cost on the tenant clock.

    {2 Sharing and caching}

    Ideal jobs whose circuits share a {!Qca.Job_spec.digest}, plan
    override and fusion share one prepared value (the simulate pass of a
    sampled plan runs once), each sampling its own shots with its own
    seed. Seeded jobs are also served from a result cache keyed on
    {!Qca.Job_spec.cache_key}. Both show in {!stats} and the report.

    {2 Backpressure}

    Admission walks a degradation ladder before refusing work: when the
    backlog passes [degrade_above], new micro-architecture jobs are
    downgraded to realistic-QX simulation and direct jobs have their shots
    capped (recorded in [report.resilience.degraded]); when it passes
    [max_queue], submission fails with a structured
    {!Qca_util.Error.Overloaded}. Per-tenant [max_queued] quotas fail with
    {!Qca_util.Error.Quota_exceeded}. *)

type quota = {
  max_running : int;  (** Concurrent started jobs per tenant. *)
  max_queued : int;  (** Waiting jobs per tenant before quota rejection. *)
  weight : float;  (** Fair-share weight (> 0); default 1.0. *)
}

type config = {
  workers : int;  (** Worker slots per {!step} (clamped to >= 1). *)
  max_queue : int;  (** Global waiting-job capacity (reject beyond). *)
  degrade_above : int;  (** Backlog at which admission degrades new jobs. *)
  slice_shots : int;  (** Preemption granularity for direct-route jobs. *)
  degraded_shot_cap : int;  (** Shot cap applied to degraded direct jobs. *)
  default_quota : quota;
  quotas : (string * quota) list;  (** Per-tenant overrides. *)
  cache_capacity : int;  (** Entries per cache, result and prepared, oldest out first (0: off). *)
  service_seed : int;
      (** Derives per-job RNG streams for jobs without an explicit seed. *)
  admission_max_bytes : float;
      (** Admission-oracle cap on estimated simulation state memory
          ({!Qca_analysis.Estimate.t.state_bytes}); exceeding it rejects
          the job with {!Qca_util.Error.Resource_exceeded} before any work
          is done. [0.] disables. Default 8 GiB
          ({!Qca_analysis.Estimate.host_bytes_default}). *)
  admission_max_ns : float;
      (** Admission-oracle cap on estimated simulation time
          ({!Qca_analysis.Estimate.t.sim_ns}). Direct jobs over the cap
          are {e degraded} (shot budget capped to fit, recorded in
          [stats.degraded]); jobs that cannot fit even at one shot are
          rejected. [0.] (the default) disables. *)
}

val default_quota : quota
(** [{ max_running = 4; max_queued = 16; weight = 1.0 }] *)

val default_config : config

type t

type handle

val job_id : handle -> int
val job_tenant : handle -> string

type status =
  | Queued of int  (** Waiting; the int is the global queue position. *)
  | Running of { done_shots : int; total_shots : int }
  | Done of Qca.Runner.outcome
  | Failed of Qca_util.Error.t
  | Cancelled

val create : ?config:config -> unit -> t

val submit :
  t -> tenant:string -> Qca.Job_spec.t -> (handle, Qca_util.Error.t) result
(** Admit a job. The payload is resolved now (parse errors are reported
    here, not at execution), the result cache is consulted (hits complete
    immediately and bypass admission control — they cost nothing), then
    the static-estimate oracle ([admission_max_bytes] /
    [admission_max_ns], rejections counted in [stats.rejected_estimate]),
    quota, backpressure-degradation and capacity checks run in that
    order. *)

val preflight : t -> Qca.Job_spec.t -> (unit, Qca_util.Error.t) result
(** The admission oracle alone — the {e pre-claim} gate [qxd serve] runs
    on every inbox entry before {!Qca_service.Spool.claim}: a static
    {!Qca.Job_spec.estimate} against the configured caps, O(program body),
    no simulation and no queue-state consultation. An [Error] (structured
    {!Qca_util.Error.Resource_exceeded}) is accounted in {!stats}
    ([submitted], [rejected], [rejected_estimate]); [Ok] performs no
    accounting — the subsequent {!submit} does it. Degradable jobs (time
    cap, direct route) pass preflight and are degraded at submission. *)

val poll : t -> handle -> status
(** Non-blocking status; never advances execution. *)

val step : t -> bool
(** Run one scheduler tick: up to [workers] slices, each given to the
    eligible tenant with the smallest virtual time. Returns [false] when
    no runnable work exists.

    Deadlines are enforced here, cooperatively: before a job's slice
    runs, its [deadline_ms] budget (wall clock since the job started) is
    checked, and an exhausted budget fails the job with a terminal
    {!Qca_util.Error.Deadline_exceeded} — a job never {e starts} work
    past its deadline, and overshoots by at most the slice already in
    flight. Each slice also passes the [slice] chaos kill point
    ({!Qca_util.Fault.crash_point}, [docs/resilience.md]). *)

val await : t -> handle -> (Qca.Runner.outcome, Qca_util.Error.t) result
(** Drive {!step} until the job completes. Cancelled jobs return a
    {!Qca_util.Error.Cancelled} error. *)

val cancel : t -> handle -> bool
(** Cancel a waiting or running job ([true]); running jobs stop at their
    next slice boundary — work already done is discarded. [false] when the
    job already finished (or was already cancelled). *)

val drain : t -> unit
(** {!step} until idle. *)

val release : t -> handle -> bool
(** Forget a finished (done, failed or cancelled) job, so a long-lived
    service holds only its live jobs: [true] if the record was dropped.
    A waiting or running job is left untouched ([false]). After a
    release, {!poll} on the handle reports an unknown job. [qxd] calls
    it once a job's result is published. *)

type stats = {
  submitted : int;  (** All submission attempts. *)
  accepted : int;  (** Admitted to the queue (cache hits not included). *)
  completed : int;  (** Finished successfully (cache hits included). *)
  failed : int;
  deadline_exceeded : int;
      (** Jobs that ran out of their [deadline_ms] budget at a slice
          boundary (also counted in [failed]). *)
  cancelled : int;
  rejected : int;  (** Refused: overload, quota or unresolvable payload. *)
  rejected_estimate : int;
      (** Subset of [rejected] refused by the static-estimate admission
          oracle ({!Qca_util.Error.Resource_exceeded}), including [qxd]
          pre-claim rejections via {!preflight}. *)
  degraded : int;  (** Admitted via the backpressure degradation ladder. *)
  cache_hits : int;
  shared_analyses : int;  (** Jobs that reused another job's prepared value. *)
  slices : int;  (** Scheduler slices executed. *)
  per_tenant : (string * int) list;  (** Completed jobs per tenant. *)
}

val stats : t -> stats

val stats_to_json : t -> string
(** One-line JSON object (schema in [docs/service.md]). *)

val execution_log_length : int
(** How many slices {!execution_log} keeps (1024). *)

val execution_log : t -> (string * int) list
(** Chronological (tenant, job id) pairs, one per slice, for the newest
    {!execution_log_length} slices the service has run (all of them
    until it has run more): the fairness witness used by tests. The log
    is a fixed ring, so a long-lived daemon's memory does not grow with
    the jobs it has served. *)
