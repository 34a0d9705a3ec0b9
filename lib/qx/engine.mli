(** Shot-batched execution engine: the single run surface of the stack.

    [run] first analyses a circuit into a {e run plan} (the simulation
    planner, [docs/engine.md]):

    - {b Sampled}: the circuit's measurements are terminal and unconditioned
      and the noise model is ideal, so the state vector is simulated {e once}
      and all shots are drawn from the final probability distribution —
      [O(gates * 2^n + shots * n)] instead of [O(shots * gates * 2^n)].
    - {b Trajectory}: mid-circuit measurement, conditional (feedback) gates,
      mid-circuit resets or per-gate stochastic noise force one full
      state-vector simulation per shot (the Monte-Carlo trajectory path).
    - {b Clifford}: every gate is Clifford (total {!Qca_qec.Tableau.supports}
      classification, no exception probing) and the noise model is ideal, so
      shots run on the Aaronson–Gottesman stabilizer tableau in [O(poly n)]
      per shot. Chosen automatically when the circuit's structure would
      force trajectories (mid-circuit measurement, feedback, resets), or
      when a cost model says the tableau beats the single-pass state vector
      (wide terminal circuits, including every [n > 30] Clifford circuit the
      state vector cannot represent at all).

    Circuits are compiled {e once} into a flat micro-program (an array of
    kernel/conditional/prep/measure micro-ops) executed by a single
    dispatch loop shared by all three plans — no per-shot list re-walk.
    Trajectory and Clifford shots run as a batch across the
    {!Qca_util.Parallel} domain pool with one derived RNG stream per shot
    ({!Qca_util.Rng.streams}), so parallel histograms are bit-identical to
    sequential ones at any [QCA_DOMAINS].

    Every run records per-run metrics — the plan chosen and why, gate-apply
    counts by kernel, wall time per phase, seed — in a {!run_report}
    (JSON-serialisable via {!report_to_json}: the stack's observability
    layer, surfaced by the [qxc] CLI).

    {2 Seed semantics}

    Precedence: an explicit [?rng] wins; otherwise [?seed] creates a fresh
    generator; otherwise the process-wide default stream is used. The
    default stream is created once (seed [0x5EED]) and {e advances across
    calls}, so repeated anonymous runs see fresh randomness while a whole
    program execution stays reproducible bit-for-bit. Pass [?seed] (or
    [?rng]) for run-level reproducibility.

    Trajectory and Clifford plans derive one stream per shot from the run's
    generator (one parent draw per shot, in shot order); the Clifford
    executor consumes exactly one uniform draw per measurement like
    [State.measure], so a Clifford-plan histogram is seed-identical to the
    same circuit forced through the [Trajectory] state-vector plan. *)

type plan = Sampled | Trajectory | Clifford

val plan_to_string : plan -> string

type phase_times = {
  analyse_s : float;  (** Run-plan analysis. *)
  simulate_s : float;  (** State-vector evolution (all shots for trajectory). *)
  sample_s : float;  (** Shot sampling from the final distribution. *)
}
(** Elapsed seconds per phase on the monotonic wall clock
    ({!Qca_util.Clock.now}). A trajectory batch spread over several
    domains reports the time that passed, not the CPU seconds the domains
    summed, so the three phases never add up to more than the run took. *)

type resilience = {
  faults_injected : (string * int) list;
      (** Injected-fault fires by {!Qca_util.Fault.site_label}, cumulative
          over the injector's lifetime. *)
  retries : int;  (** Transient-fault retries performed. *)
  faulted_shots : int;
      (** Shots lost after exhausting retries (excluded from the
          histogram): [faulted_shots + histogram total = shots]. *)
  backoff_ns : int;  (** Simulated backoff time accumulated by retries. *)
  degraded : string option;
      (** Set when a fallback backend absorbed the run (degradation event,
          see [docs/resilience.md]). *)
}

val no_resilience : resilience
(** All counters zero, no degradation: the report value when resilience is
    off. *)

val resilience_of :
  Qca_util.Fault.t option -> Qca_util.Resilience.counters -> resilience
(** The report value of a run: {!no_resilience} without an injector,
    else its fire counts and the retry counters (no degradation). *)

type fusion_stats = {
  gates_in : int;
      (** Unitary gates that reached the fusion pre-pass. Conditional
          gates execute outside the pass and are not counted. *)
  kernels : int;  (** Kernel sweeps executed per pass (fused or single). *)
  fused_1q : int;  (** Fused same-qubit single-qubit runs. *)
  fused_diag : int;  (** Coalesced diagonal-gate runs. *)
}
(** Gate-fusion pre-pass statistics ([docs/performance.md]). For a
    trajectory run the plan is compiled {e once} and executed per shot, so
    the counts are per compile, not per shot. *)

val no_fusion : fusion_stats
(** All counters zero: the report value when the pass did not run (noisy
    runs, non-engine backends). *)

type cache_stats = {
  cache_hits : int;
      (** Runs served whole from the job service's result cache. *)
  cache_shared : int;
      (** Runs that reused another job's compiled distribution
          (cross-request shot batching, [docs/service.md]). *)
}
(** Result-cache counters. Always {!no_cache} for direct engine runs; the
    job service ({!Qca_service.Service}) fills them in when it serves a run
    from cache or batches it against an identical in-flight circuit. *)

val no_cache : cache_stats

type run_report = {
  plan : plan;
  plan_reason : string;  (** Why this plan was chosen (decision-table row). *)
  shots : int;
  seed : int option;  (** The [?seed] argument, when one was given. *)
  qubit_count : int;
  instruction_count : int;
  gate_applies : (string * int) list;
      (** Logical gate applications by gate name, sorted by decreasing
          count. Trajectory and Clifford runs aggregate over all shots;
          sampled runs count the single pass. Counted statically: the
          compiled program's per-pass totals times the passes run, plus
          each conditional's firings. *)
  measurements : int;
      (** Measurement events: actual collapses for trajectory runs,
          [shots * measured qubits] for sampled runs. *)
  wall : phase_times;
  resilience : resilience;
      (** Fault/retry/degradation counters ({!no_resilience} when the run
          had no injector and no fallback). *)
  fusion : fusion_stats;
      (** Gate-fusion pre-pass statistics ({!no_fusion} when the pass did
          not run). *)
  cache : cache_stats;
      (** Result-cache / shot-batching counters ({!no_cache} for direct
          runs). *)
}

type result = {
  histogram : (string * int) list;
      (** Measured bitstrings (qubit 0 rightmost, '-' for unmeasured),
          sorted by decreasing count. *)
  report : run_report;
}

val analyse :
  ?noise:Noise.model -> ?shots:int -> Qca_circuit.Circuit.t -> plan * string
(** The run plan [run] would choose, with the reason. [noise] defaults to
    {!Noise.ideal}; [shots] (default 1024) feeds the Clifford-vs-sampled
    cost model. *)

val clifford_blocker :
  Qca_circuit.Circuit.t -> (string * int) option
(** The first gate the tableau cannot simulate — its name and instruction
    index — or [None] when the circuit is all-Clifford. Total
    classification via {!Qca_qec.Tableau.supports}; never raises. *)

val sv_max_qubits : int
(** Width ceiling of the state-vector layer (30): beyond it only the
    tableau plan can run the circuit. *)

val choose_plan :
  noisy:bool ->
  shots:int ->
  gates:int ->
  measures:int ->
  Qca_circuit.Circuit.t ->
  plan * string
(** The planner's decision table, the one copy shared by {!analyse} and the
    static estimator ({!Qca_analysis.Estimate}). Pure: [noisy] forces
    trajectories; otherwise the circuit's structure verdict
    (sampled-vs-trajectory) and Clifford verdict ({!clifford_blocker}) are
    read off the circuit, and for an all-Clifford circuit of sampled
    structure the tableau-vs-state-vector cost model over [n], [gates],
    [measures] and [shots] decides. [gates]/[measures] feed only the cost
    model, so the estimator passes exact symbolic totals alongside a
    truncated probe of a repeated program. [analyse] is [choose_plan] with
    the circuit's own counts. *)

val run :
  ?noise:Noise.model ->
  ?seed:int ->
  ?rng:Qca_util.Rng.t ->
  ?plan:plan ->
  ?shots:int ->
  ?faults:Qca_util.Fault.t ->
  ?policy:Qca_util.Resilience.policy ->
  ?fusion:bool ->
  Qca_circuit.Circuit.t ->
  result
(** Execute [shots] shots (default 1024). [plan] overrides the analysis:
    forcing [Trajectory] is always allowed (used to benchmark the paths
    against each other); forcing [Sampled] on a circuit that needs
    trajectories raises [Invalid_argument]; forcing [Clifford] on a
    non-Clifford circuit (or under a stochastic noise model) raises a
    structured {!Qca_util.Error.Error} whose context names the first
    offending gate and its instruction index.

    [faults] enables fault injection at the {!Qca_util.Fault.Backend_transient}
    site: each shot may transiently fail and is retried per [policy]
    (default {!Qca_util.Resilience.default_policy}); shots that exhaust
    their retries are dropped from the histogram and counted in
    [report.resilience.faulted_shots]. Without [faults] the run is
    bit-identical to the pre-resilience engine.

    [fusion] (default [true]) controls the gate-fusion pre-pass. Fused
    kernels are bit-identical to gate-by-gate application, so this only
    changes speed and the [report.fusion] counters, never results. *)

val run_checked :
  ?noise:Noise.model ->
  ?seed:int ->
  ?rng:Qca_util.Rng.t ->
  ?plan:plan ->
  ?shots:int ->
  ?faults:Qca_util.Fault.t ->
  ?policy:Qca_util.Resilience.policy ->
  ?fusion:bool ->
  Qca_circuit.Circuit.t ->
  (result, Qca_util.Error.t) Stdlib.result
(** [run] with structured errors instead of exceptions: raised
    {!Qca_util.Error.Error}, [Failure] and [Invalid_argument] become the
    [Error] case. *)

val success_probability : result -> accept:(int array -> bool) -> float
(** Fraction of histogram mass whose classical record (as in
    {!Sim.outcome}) satisfies [accept]. *)

val bitstring : int array -> string
(** Render a classical record ([-1] unmeasured) as a histogram key. *)

val classical_of_key : string -> int array
(** Inverse of {!bitstring}. *)

val report_json : run_report -> Qca_util.Json.t
(** The metrics object (schema documented in [docs/engine.md]). *)

val report_to_json : run_report -> string
(** {!report_json} printed on one line. *)

val default_rng : unit -> Qca_util.Rng.t
(** The process-wide default generator (see seed semantics above). *)

(** {2 Plumbing shared with the other execution surfaces} *)

val exec_shot :
  ?noise:Noise.model ->
  Qca_util.Rng.t ->
  Qca_circuit.Circuit.t ->
  State.t * int array
(** One per-shot trajectory: fresh |0...0> state, measurement collapse,
    classical feedback, per-gate stochastic noise. The circuit is compiled
    unfused and run by the same interpreter as the engine's trajectory plan;
    this is the executor behind {!Sim.run}. *)

val fold_trajectories :
  ?noise:Noise.model ->
  rng:Qca_util.Rng.t ->
  shots:int ->
  init:'a ->
  f:('a -> State.t -> int array -> 'a) ->
  Qca_circuit.Circuit.t ->
  'a
(** Run [shots] per-shot trajectories, folding over (final state, classical
    record): the building block for estimators that need more than counts
    (e.g. {!Sim.state_fidelity_vs_ideal}). Shots execute in
    memory-bounded windows across the domain pool, each on its own derived
    RNG stream, and the fold itself runs in shot order — results are
    bit-identical to a sequential run at any [QCA_DOMAINS]. *)

val terminal_split :
  Qca_circuit.Circuit.t -> (Qca_circuit.Gate.t list * bool array) option
(** When the circuit qualifies for the sampled plan: its unitary prefix and
    the measured-qubit mask. [None] when trajectories are required. *)

val sample_histogram :
  probabilities:float array ->
  measured:bool array ->
  rng:Qca_util.Rng.t ->
  shots:int ->
  (string * int) list
(** Draw [shots] bitstrings from an explicit distribution, masking
    unmeasured qubits to '-' (shared with {!Density.sample}). *)

type relabel = { width : int; active : int array }
(** A run on the active qubits only ({!Qca_circuit.Circuit.compact}):
    compact qubit [i] is qubit [active.(i)] of the declared [width]-qubit
    register. *)

type sampled_distribution = {
  probabilities : float array;
      (** Final-state distribution over the active qubits, length 2^active. *)
  dist_measured : bool array;  (** Measured-qubit mask, over the active qubits. *)
  dist_relabel : relabel option;
      (** How to widen keys to the declared register; [None] when every
          qubit is active. *)
  dist_fusion : fusion_stats;  (** Fusion stats of the one compile. *)
  dist_gate_applies : (string * int) list;
      (** Kernel invocations of the one simulation pass. *)
}
(** The reusable part of a sampled-plan run: simulate once, sample any
    number of independent shot batches from it with {!sample_histogram}.
    This is the unit of the job service's cross-request shot batching
    ([docs/service.md]): jobs whose circuits share a digest share one of
    these. *)

val sampled_distribution :
  ?fusion:bool -> Qca_circuit.Circuit.t -> sampled_distribution option
(** Simulate the circuit's unitary prefix once, on its active qubits, and
    return its final distribution, or [None] when the circuit needs
    trajectories. Sampling from the result with {!sample_distribution} and a
    seed-[s] generator is bit-identical to [run ~seed:s] on the same circuit
    (the simulate phase consumes no randomness). *)

val sample_distribution :
  sampled_distribution -> rng:Qca_util.Rng.t -> shots:int -> (string * int) list
(** Draw [shots] bitstrings from a shared distribution, with keys at the
    declared register width. *)

(** {2 The compiled kernel plan}

    Exposed for benchmarks and tests; [run] drives these internally. *)

type fused_kernel =
  | Single of Qca_circuit.Gate.unitary * int array * string
      (** One gate, one kernel sweep; the string is the cached gate name. *)
  | Fused_1q of int * State.fused1q_plan * string list
      (** A same-qubit single-qubit run: qubit, compiled run, gate names. *)
  | Fused_diag of State.diag_plan * string list
      (** A coalesced diagonal run (any operands): plan, gate names. *)

type plan_step =
  | Kernel of fused_kernel
  | Instr of Qca_circuit.Gate.t
      (** Non-unitary instruction (measure/prep/conditional/barrier),
          executed by the shot executor, never fused across. *)

val compile_steps :
  fusion:bool -> Qca_circuit.Gate.t list -> plan_step list * fusion_stats
(** The fusion pre-pass. With [fusion:false] every unitary becomes a
    [Single] kernel (so both settings run the same executor). *)

val apply_kernel : State.t -> fused_kernel -> unit
(** Apply one compiled kernel to a state (no tally, no tracing). *)

(** {2 The per-op step}

    The one per-op step of a state vector: the micro-architecture
    controller's quantum chip runs its programs as these micro-ops through
    {!micro_step}, and the engine's trajectory executor runs every op its
    noise schedule does not cover through it (docs/engine.md, "Noise
    schedule"). *)

type micro_op =
  | M_kernel of fused_kernel  (** Only a [Single] kernel draws gate noise. *)
  | M_cond of int * Qca_circuit.Gate.unitary * int array * int
      (** [(bit, gate, operands, slot)]: the gate when classical [bit] is 1. *)
  | M_prep of int  (** Reset a state qubit to |0>. *)
  | M_measure of int * int  (** [(qubit, bit)]: measure state [qubit] into [bit]. *)

val micro_step :
  Noise.model -> fired:int array -> State.t -> int array -> Qca_util.Rng.t -> micro_op -> unit
(** [micro_step noise ~fired state classical rng op] applies [op] to one
    shot. Under a stochastic [noise] a [Single] kernel and a fired [M_cond]
    draw {!Noise.after_gate}, a prep its prep error and a measurement
    {!Noise.flip_readout}; fused kernels draw nothing. A fired [M_cond]
    bumps [fired.(slot)]. Apply it to the model once: the gate channels
    ({!Noise.gate_noise}) are worked out then. *)
