(** The canonical "run request" record of the stack.

    {!Runner.run} is the one job path, and this record is its input: what
    to run (a circuit, or cQASM source to parse), where to run it (the
    {!route}: the QX engine directly, or the compiler followed by the
    micro-architecture or QX), and the run parameters (shots, seed, noise,
    plan override, fault-injection and retry policy). [qxc run]/
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

(** {2 The stack vocabulary}

    One table names every platform that [--platform], [qxc qisa
    --technology] and spool headers accept: [superconducting] and
    [semiconducting] are devices, each a fixed platform paired with the
    micro-architecture that runs it (section 3.1's retargeting unit: a
    compiler configuration plus a micro-code table); [perfect] is
    {!Qca_compiler.Platform.perfect} sized to the program, with no
    micro-architecture. *)

val devices :
  (string * (Qca_compiler.Platform.t * Qca_microarch.Controller.technology)) list
(** The table's devices by name, in table order. *)

val platform_of_name : string -> int -> (Qca_compiler.Platform.t, string) result
(** [platform_of_name name qubits]: the platform [name] denotes for a
    program of [qubits] qubits, or an [unknown platform] message. *)

val platform_name : Qca_compiler.Platform.t -> string option
(** The table name of a platform (compared by platform name), so a route
    can be written back as names; [None] for a platform the table does
    not hold. *)

val route_of_names :
  ?router:Qca_compiler.Mapping.strategy ->
  platform:string option ->
  mode:string ->
  ladder:bool ->
  qubits:int ->
  unit ->
  (route, string) result
(** The route a [--platform]/[--mode]/[--ladder] triple denotes: [None]
    platform is [Direct]; Real mode picks up the device's
    micro-architecture, and a platform without one ([perfect]) is refused
    in Real mode. [router] (default
    {!Qca_compiler.Mapping.default_strategy}) is the [--route] strategy.
    Errors are messages for the caller to report as input errors. *)

type t = {
  label : string;  (** Job name, used in reports and service logs. *)
  payload : payload;
  route : route;
  shots : int;
  seed : int option;
      (** Explicit seed: required for result-cache eligibility. *)
  noise : float option;
      (** Depolarising error rate for [Direct] runs ([None] = ideal);
          [Compiled] routes ignore it: their qubit model decides
          ({!route_noise}). *)
  plan : Qca_qx.Engine.plan option;
      (** Simulation-plan override ([qxc run --plan]): [None] is the
          planner's automatic choice; [Some Trajectory] is the historical
          [--trajectory] force; [Some Sampled]/[Some Clifford] force those
          plans (rejected with a structured error when unsound). *)
  fusion : bool;
      (** Always [true] and read by nothing in the stack: every run
          applies one kernel per gate. Kept only because stackbench's
          engine loops ([stackbench/engine_loops.ml]) still read it. *)
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
  ?fault_rate:float ->
  ?fault_seed:int ->
  ?max_retries:int ->
  ?backoff_ns:int ->
  ?degrade_threshold:float ->
  ?deadline_ms:int ->
  payload ->
  t
(** Defaults mirror [qxc run]: route [Direct], 1024 shots, no explicit
    seed, ideal noise, automatic plan, injection off,
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

val finite_angles : site:string -> Qca_circuit.Circuit.t -> (unit, Qca_util.Error.t) result
(** [Ok] unless a rotation angle is NaN or infinite; then an [Invalid]
    error at [site] with the static checker's C07 message, its code and
    instruction in the context. No backend gives such an angle a meaning,
    so {!elaborate} and [qxc compile] refuse it rather than run it. *)

val elaborate : t -> (t * Qca_circuit.Circuit.t, Qca_util.Error.t) result
(** {!resolve}, plus the run parameters the payload itself carries folded
    into the spec: a [Source] payload's [error_model depolarizing_channel,
    p] directive (the QX convention, [docs/languages.md]) sets
    [noise = Some p] when the spec has no explicit [noise]
    ({!program_noise}). [Circuit] payloads and
    specs with an explicit [noise] come back unchanged. A circuit with a
    non-finite rotation angle is refused ({!finite_angles}). {!Runner.run} and
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
    the spec's shots, plan override and {!route_noise} (with the
    [error_model] directive folded in as in {!elaborate}) feed the
    prediction, so the predicted plan is the one the job runs. Parse
    failures become [Error]. *)

val digest : Qca_circuit.Circuit.t -> string
(** Hex digest of the circuit's canonical form (qubit count +
    instruction list; the circuit's name does not participate). Two jobs
    whose resolved circuits share a digest can share one
    {!Qca_qx.Engine.prepared} value. *)

val cache_key : t -> digest:string -> string option
(** Result-cache key: the circuit's {!digest} (passed in, as a caller
    that keys on the circuit has it already) plus every semantic run parameter
    (route fingerprint, shots, seed, noise, plan, fault/retry policy).
    [None] when the spec has no explicit seed — an unseeded run draws from
    the process-wide stream and is not reproducible, so it must not be
    cached. The plan override participates like the router:
    the automatic plan (and the historical [--trajectory] force, which kept
    its [traj=true] field) add no suffix, so pre-planner fingerprints stay
    stable; forcing [sampled] or [clifford] appends a [|plan=...] suffix. *)

val route_noise : route -> float option -> Qca_qx.Noise.model
(** The noise a job on [route] with depolarising rate [noise] runs under:
    on [Direct], [noise] as a depolarising model (ideal when [None]); on
    [Compiled], ideal for Perfect mode and the platform's own model for
    Realistic and Real, whatever [noise] says. {!Runner.run},
    {!estimate} and [qxc estimate] all read it. *)

val noise_model : t -> Qca_qx.Noise.model
(** [route_noise spec.route spec.noise]. *)

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
