(** Static resource estimation — abstract interpretation over the circuit
    IR.

    Answers "what will this program cost?" without simulating it: per
    gate-class counts, logical depth (a per-qubit busy-until walk mirroring
    {!Qca_circuit.Circuit.depth} exactly), the run plan the simulation
    planner would choose (reproducing {!Qca_qx.Engine.analyse}'s decision
    table from symbolic totals), and the peak classical simulation cost
    (amplitudes, bytes, kernel nanoseconds calibrated from
    [BENCH_kernels.json]).

    Programs with repeated subcircuits ([.cycle(1000000)]) are evaluated
    {e symbolically}: counts scale linearly and the depth walk extrapolates
    once the per-qubit busy profile advances by a stable shift per
    iteration, so a QEC-cycle program estimates in O(body), not
    O(body * rounds). Model and calibration constants are documented in
    [docs/estimate.md]; the admission-control oracle built on this module
    lives in {!Qca_service} / [qxd]. *)

type classes = {
  t_count : int;  (** T and Tdag. *)
  toffoli : int;
  cnot : int;  (** Two-qubit Clifford: cnot, cz, swap. *)
  clifford_1q : int;  (** Other Clifford: i x y z h s sdag x90 mx90 y90 my90. *)
  rotations : int;  (** Non-Clifford rotations: rx ry rz cphase crk. *)
}

val classes_total : classes -> int

type t = {
  qubits : int;  (** Declared register width. *)
  qubits_used : int;  (** Qubits actually named by an operand. *)
  instructions : int;
      (** Total instructions after (symbolic) repetition. Every count and
          the depth saturate at [max_int] rather than wrap, so none is ever
          negative; [instructions = max_int] marks an overflowed estimate
          whose totals are lower bounds. *)
  gates : int;  (** Unitary + conditional applications ({!classes_total}). *)
  classes : classes;
  conditionals : int;  (** Subset of [gates] that is classically gated. *)
  measurements : int;
  preps : int;
  barriers : int;
  depth : int;  (** Logical depth; equals {!Qca_circuit.Circuit.depth}. *)
  depth_exact : bool;
      (** [false] only when a repeated body's busy profile never stabilised
          within the iteration cap and the depth is a linear extrapolation
          from the last observed shift (see [docs/estimate.md]). *)
  clifford_fraction : float;  (** Clifford gates / total gates; 1.0 if no gates. *)
  plan : Qca_qx.Engine.plan;  (** Predicted (or forced) run plan. *)
  plan_reason : string;
  shots : int;
  amplitudes : float;  (** State-vector amplitudes (2^n); 0 on the tableau plan. *)
  state_bytes : float;  (** Peak simulation state memory, bytes. *)
  sim_ns : float;  (** Estimated kernel time for all [shots], nanoseconds. *)
}

type calibration = {
  ns_1q : float;  (** ns per amplitude, general single-qubit kernel. *)
  ns_diag : float;  (** ns per amplitude, diagonal/phase kernels (T, Rz). *)
  ns_2q : float;  (** ns per amplitude, two-qubit kernels. *)
  ns_3q : float;  (** ns per amplitude, Toffoli. *)
  ns_sample : float;  (** ns per shot per qubit, sampled-plan readout. *)
  ns_measure : float;  (** ns per amplitude, trajectory-plan collapse. *)
  ns_row : float;  (** ns per tableau row element, Clifford plan. *)
}

val default_calibration : calibration
(** Constants measured on the reference container ([BENCH_kernels.json],
    fused kernels at n = 20); see [docs/estimate.md]. *)

val of_circuit :
  ?shots:int ->
  ?noisy:bool ->
  ?plan:Qca_qx.Engine.plan ->
  Qca_circuit.Circuit.t ->
  t
(** Estimate a flat circuit. [shots] defaults to 1024 (the planner's
    default); [noisy] (default false) marks that execution will run under a
    stochastic noise model, which forces the trajectory plan exactly as
    {!Qca_qx.Engine.analyse} does; [plan] forces the plan instead of
    predicting it (the cost model then prices the forced backend). *)

val of_program :
  ?shots:int ->
  ?noisy:bool ->
  ?plan:Qca_qx.Engine.plan ->
  Qca_circuit.Cqasm.program ->
  t
(** Estimate a parsed program {e without flattening it}: subcircuit
    iteration counts are handled symbolically. Agrees exactly with
    [of_circuit (Cqasm.flatten p)] on counts and (when [depth_exact]) on
    depth — the property pinned by the [@estimate] test suite. *)

val check : ?platform:Qca_compiler.Platform.t -> t -> Diagnostic.t list
(** Resource diagnostics (codes R01-R05, [docs/analysis.md]):

    - [R01] (error, needs [platform]): estimated width exceeds the
      platform's qubit count.
    - [R02] (warning, needs [platform] with finite T2): estimated depth at
      the platform cycle time exceeds the coherence time.
    - [R03] (error): estimated state memory exceeds
      {!host_bytes_default}.
    - [R04] (warning): estimated simulation time exceeds
      {!budget_ns_default}.
    - [R05] (error): the unrolled instruction count reached [max_int], so
      the totals saturated there (see {!t}). *)

val host_bytes_default : float
(** 8 GiB — the [R03] / admission-control default cap. *)

val budget_ns_default : float
(** 60 s in nanoseconds — the [R04] default budget. *)

val to_json : t -> Qca_util.Json.t
(** One stable JSON object (schema in [docs/estimate.md]); keys
    [qubits, qubits_used, instructions, gates, classes{...}, conditionals,
    measurements, preps, barriers, depth, depth_exact, clifford_fraction,
    plan, plan_reason, shots, amplitudes, state_bytes, sim_ns]. *)

val render : t -> string
(** Human-readable table, one [key: value] line per field group (the
    [qxc estimate] text output). *)
