(** Optimising pass pipeline: peephole rewriting, commutation-aware Rz
    accumulation, Euler resynthesis of single-qubit runs, and two-qubit
    block consolidation.

    {b Contract.} Every pass preserves the circuit's semantics: for
    measurement-free circuits the output is unitarily equivalent to the
    input up to a global phase (checkable with
    {!Decompose.check_equivalent}); for circuits with [Prep]/[Measure]
    the measurement-outcome distribution at every measurement point is
    unchanged (the only non-unitary rewrites are dropping a phase that
    is immediately reset by [Prep] and commuting an [Rz] past a Z-basis
    measurement, both of which are distribution-invariant). Passes never
    add qubits, never reorder instructions across a [Barrier], and never
    move anything across a classically-conditioned gate that shares a
    wire or its source bit.

    The catalog of rewrite rules, their soundness arguments, and tuning
    knobs are documented in [docs/compiler.md]. *)

type stats = {
  removed_pairs : int;  (** U·U† pairs cancelled (dependency-adjacent). *)
  merged_rotations : int;
      (** Same-axis rotation pairs folded into one, plus named-pair
          contractions such as [S·S → Z]. *)
  dropped_identities : int;  (** [I] gates and ~0-angle rotations removed. *)
  conjugations : int;  (** [H·B·H → B'] basis-change rewrites applied. *)
  euler_runs : int;  (** 1q runs resynthesised to a shorter Euler form. *)
  consolidations : int;  (** 2q blocks re-expressed with fewer entanglers. *)
  rounds : int;  (** Fixed-point rounds in which at least one pass fired. *)
  blocks_rendered : int;
      (** Distinct two-qubit blocks the [2q-blocks] pass rendered. *)
  blocks_reused : int;
      (** Blocks whose rendering was reused from earlier in the same
          {!pipeline} call instead of rendered again. *)
}

(** Target form for resynthesised single-qubit runs. *)
type basis =
  | Zyz  (** [Rz·Ry·Rz] — at most three rotations; logical circuits. *)
  | Pulse
      (** [Rz·X90·Rz·X90·Rz] — at most two real pulses framed by virtual
          Z rotations; pulse-level platforms such as superconducting_17. *)

type config = {
  basis : basis option;
      (** Euler resynthesis target; [None] disables the pass (used when
          the platform lacks x90/y90/rz primitives). *)
  platform : Platform.t option;
      (** When set, peephole contractions and consolidation candidates
          are restricted to the platform's native primitives, so the
          pipeline can run after decomposition/mapping without
          reintroducing non-primitive gates. *)
  consolidate : bool;  (** Enable two-qubit block consolidation. *)
  max_rounds : int;  (** Fixed-point iteration bound. *)
}

val logical_config : config
(** All passes on, [Zyz] basis, no platform restriction. *)

val physical_config : Platform.t -> config
(** Platform-restricted pipeline; picks [Pulse] basis when the platform
    natively supports x90/y90/rz, otherwise disables resynthesis. *)

(** Pipeline selector used by {!Compiler.compile}: [Basic] is the
    pre-pipeline single sweep (cancellation/merging only), [Full] the
    complete pass pipeline. *)
type level = Basic | Full

val pipeline :
  ?config:config ->
  ?on_pass:
    (round:int ->
    pass:string ->
    before:Qca_circuit.Circuit.t ->
    Qca_circuit.Circuit.t ->
    unit) ->
  ?trace:string ->
  Qca_circuit.Circuit.t ->
  Qca_circuit.Circuit.t * stats
(** Run the pass list to a fixed point (bounded by [config.max_rounds]):
    round after round until a round counts no rewrite. A pass is a
    function of its input, so the loop also stops as soon as every pass
    has returned the current circuit unchanged; the final round then runs
    only the passes that have not seen it (the result is the same).
    [on_pass] fires after every pass application that changed the
    circuit, with the round number, the pass name ([peephole], [rz-merge],
    [euler], [2q-blocks]) and the circuit before/after — this is how
    {!Compiler.compile} feeds each intermediate artifact to the
    {!Qca_analysis} pass-verifier. With [trace] set, every pass
    application runs in its own {!Qca_util.Trace} span
    named [trace ^ "/" ^ pass], annotated with [round], [dgates],
    [ddepth] and [changed]. Termination: every counted rewrite strictly
    reduces the (gate count, non-Rz gate count) pair, so the fixed point
    is reached in finitely many rounds even without the bound.

    The [2q-blocks] pass renders each distinct block (mapped onto wires
    0/1) once per call and reuses the decision when the block comes back,
    in a later round or elsewhere in the program; the [euler] pass, and
    the polishing of each rendered candidate, likewise resynthesise each
    distinct single-qubit run once. Both tables are dropped when the call
    returns. *)

val run : Qca_circuit.Circuit.t -> Qca_circuit.Circuit.t * stats
(** {!pipeline} with {!logical_config}. *)

val run_circuit : Qca_circuit.Circuit.t -> Qca_circuit.Circuit.t
(** [run] without the statistics. *)

val run_basic : Qca_circuit.Circuit.t -> Qca_circuit.Circuit.t * stats
(** The legacy single-sweep optimiser (inverse-pair cancellation,
    same-axis merging and identity removal between dependency-adjacent
    instructions only). With greedy routing it is the baseline
    [BENCH_optimizer.json] measures the full pipeline against, and the
    optimizer [test_microarch]'s "rz draws no noise" compiles with, since
    it keeps an [rz] that only precedes a measurement. *)

(**/**)

(* Exposed for white-box tests and the bench harness. *)

val normalize_angle : float -> float
val gates_zyz : int -> float * float * float -> Qca_circuit.Gate.t list
val gates_pulse : int -> float * float * float -> Qca_circuit.Gate.t list

(**/**)
