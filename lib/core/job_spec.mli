(** The canonical "run request" record of the stack.

    {!Runner.run} is the one job path, and this record is its input: what
    to run (a circuit, or cQASM source to parse), where to run it (the
    {!route}: the QX engine directly, or the compiler followed by the
    micro-architecture or QX), and the run parameters (shots, seed, noise,
    plan override, fusion, fault-injection and retry policy). [qxc run]/
    [exec], {!Stack.spec} and the multi-tenant job service
    ({!Qca_service.Service}) all build one, so the CLI and the daemon are
    thin clients of the same code path; see [docs/service.md].

    All fields are plain data (no RNG or injector state), so a spec can be
    serialised over the service's spool protocol and re-hydrated
    bit-identically: {!faults} builds a fresh, deterministic injector from
    [fault_rate]/[fault_seed] on every call. *)

type payload =
  | Circuit of Qca_circuit.Circuit.t  (** An already-built circuit. *)
  | Source of { name : string; text : string }
      (** cQASM source, parsed by {!resolve} (errors are structured
          {!Qca_util.Error.t} values, not exceptions). *)

type route =
  | Direct
      (** Straight to the QX engine ({!Qca_qx.Engine.run}): no compiler,
          topology or micro-architecture — the [qxc run] path. *)
  | Compiled of {
      platform : Qca_compiler.Platform.t;
      mode : Qca_compiler.Compiler.mode;
      technology : Qca_microarch.Controller.technology option;
          (** Required for micro-architecture (Real-mode) execution. *)
      ladder : bool;
          (** [true]: walk the degradation ladder on failure
              (micro-architecture -> realistic QX, as {!Stack.spec}
              jobs do). [false]: fail fast with the structured error
              (the [qxc exec] semantics). *)
      router : Qca_compiler.Mapping.strategy;
          (** Routing strategy forwarded to
              {!Qca_compiler.Compiler.compile}
              ({!Qca_compiler.Mapping.default_strategy} unless named;
              [Greedy] is the baseline). Participates in
              {!cache_key} — differently-routed results are never
              shared. *)
    }

type t = {
  label : string;  (** Job name, used in reports and service logs. *)
  payload : payload;
  route : route;
  shots : int;
  seed : int option;
      (** Explicit seed: required for result-cache eligibility. *)
  noise : float option;
      (** Depolarising error rate for [Direct] runs ([None] = ideal);
          [Compiled] routes use the platform's own model. *)
  plan : Qca_qx.Engine.plan option;
      (** Simulation-plan override ([qxc run --plan]): [None] is the
          planner's automatic choice; [Some Trajectory] is the historical
          [--trajectory] force; [Some Sampled]/[Some Clifford] force those
          plans (rejected with a structured error when unsound). *)
  fusion : bool;  (** Gate-fusion pre-pass (default on). *)
  fault_rate : float option;
      (** Per-site fault-injection probability ([None] = injection off). *)
  fault_seed : int;  (** Seed of the injector's own RNG stream. *)
  max_retries : int;  (** Retries per shot before it counts as faulted. *)
  backoff_ns : int;  (** Base simulated backoff per retry. *)
  degrade_threshold : float;
      (** Faulted-shot fraction beyond which the ladder degrades. *)
  priority : int;  (** Service scheduling priority (lower runs sooner). *)
  deadline_ms : int option;
      (** Wall-clock budget from job start, enforced cooperatively at
          scheduler slice boundaries; exceeding it is a terminal
          {!Qca_util.Error.Deadline_exceeded} failure ([None] = no
          deadline). A deadline of [0] fails at the first slice boundary —
          the deterministic form used by tests. *)
}

val make :
  ?label:string ->
  ?route:route ->
  ?shots:int ->
  ?seed:int ->
  ?noise:float ->
  ?plan:Qca_qx.Engine.plan ->
  ?fusion:bool ->
  ?fault_rate:float ->
  ?fault_seed:int ->
  ?max_retries:int ->
  ?backoff_ns:int ->
  ?degrade_threshold:float ->
  ?deadline_ms:int ->
  payload ->
  t
(** Defaults mirror [qxc run]: route [Direct], 1024 shots, no explicit
    seed, ideal noise, automatic plan, fusion on, injection off,
    {!Qca_util.Resilience.default_policy} retry parameters, priority 0,
    no deadline. Raises [Invalid_argument] on [shots < 1] or a negative
    [deadline_ms]. *)

val of_circuit : ?label:string -> Qca_circuit.Circuit.t -> t
(** [make (Circuit c)] with the defaults. *)

val of_source : ?label:string -> string -> t
(** [make (Source ...)] with the defaults. *)

val resolve : t -> (Qca_circuit.Circuit.t, Qca_util.Error.t) result
(** The payload as a circuit: [Circuit c] unwrapped, [Source] parsed and
    flattened (parse failures become [Error]). [resolve spec] is
    [Result.map snd (elaborate spec)]. *)

val elaborate : t -> (t * Qca_circuit.Circuit.t, Qca_util.Error.t) result
(** {!resolve}, plus the run parameters the payload itself carries folded
    into the spec: a [Source] payload's [error_model depolarizing_channel,
    p] directive (the QX convention, [docs/languages.md]) sets
    [noise = Some p] when the spec has no explicit [noise]
    ({!program_noise}). [Circuit] payloads and
    specs with an explicit [noise] come back unchanged. {!Runner.run} and
    the job service run the elaborated spec, so [qxc run], [qxc submit]
    and [qxd] agree on a program's noise. *)

val program_noise :
  ?noise:float ->
  ?site:string ->
  Qca_circuit.Cqasm.program ->
  (float option, Qca_util.Error.t) result
(** The depolarising rate a run of [program] uses: an explicit [noise]
    wins; otherwise the program's [error_model depolarizing_channel, p]
    directive gives [Some p]; otherwise [None] (ideal). Any other model
    name is a structured [Invalid] error (at [site]) whose context names
    it. The one mapping behind {!elaborate}, {!estimate} and
    [qxc estimate]. *)

val estimate : t -> (Qca_analysis.Estimate.t, Qca_util.Error.t) result
(** Static resource estimate of the job ({!Qca_analysis.Estimate}): the
    shared semantics behind [qxc estimate], [qxc run --metrics] and the
    service's admission oracle. [Source] payloads are parsed but {e not}
    flattened, so repeated subcircuits estimate symbolically in O(body);
    the spec's shots, plan override and noise (the [error_model] directive
    as in {!elaborate}; platform noise for [Compiled] routes) feed the
    prediction. Parse failures become [Error]. *)

val digest : Qca_circuit.Circuit.t -> string
(** Hex digest of the circuit's canonical form (qubit count +
    instruction list; the circuit's name does not participate). Two jobs
    whose resolved circuits share a digest can share one
    {!Qca_qx.Engine.sampled_distribution}. *)

val cache_key : t -> Qca_circuit.Circuit.t -> string option
(** Result-cache key: circuit digest plus every semantic run parameter
    (route fingerprint, shots, seed, noise, plan, fault/retry policy).
    [None] when the spec has no explicit seed — an unseeded run draws from
    the process-wide stream and is not reproducible, so it must not be
    cached. [fusion] deliberately does not participate: fused and unfused
    runs are bit-identical. The plan override participates like the router:
    the automatic plan (and the historical [--trajectory] force, which kept
    its [traj=true] field) add no suffix, so pre-planner fingerprints stay
    stable; forcing [sampled] or [clifford] appends a [|plan=...] suffix. *)

val noise_model : t -> Qca_qx.Noise.model
(** [noise] as an engine noise model (ideal when [None]). *)

val faults : t -> Qca_util.Fault.t option
(** A fresh injector per call, seeded from [fault_seed]: equal specs give
    identical fault patterns. [None] when [fault_rate] is [None]. *)

val retry_policy : t -> Qca_util.Resilience.policy

val route_router : route -> Qca_compiler.Mapping.strategy
(** The route's routing strategy ({!Qca_compiler.Mapping.default_strategy}
    for [Direct] routes, where it is never consulted). *)

val route_description : t -> string
(** One-line route summary for logs, e.g. ["direct"] or
    ["superconducting-17/real/microarch+ladder"]; a non-default router
    appends its name (["+greedy"]). *)
