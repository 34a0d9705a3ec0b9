(** Analytic error budgeting for compiled circuits.

    Sections 2.5-2.7 repeatedly ask which error source dominates a given
    design (gate errors vs decoherence vs readout, and how routing makes all
    three worse). This module produces the architect's first-order estimate
    from a compiled circuit and its platform error model — validated against
    full QX simulation in the test suite. *)

type estimate = {
  gate_survival : float;
      (** Product of per-operand depolarising survival over all gates. *)
  decoherence_survival : float;
      (** exp(-T (1/T1 + 1/Tphi)) accumulated over each used qubit's
          makespan exposure. *)
  readout_survival : float;  (** (1 - p_readout)^measurements. *)
  total : float;  (** Product of the three. *)
  dominant : string;  (** Which factor costs the most fidelity. *)
  makespan_ns : int;
  gate_count : int;
  measurement_count : int;
}

val of_output : Qca_compiler.Compiler.output -> estimate
(** Estimate for a compiled circuit, using the platform noise model and the
    schedule's makespan. *)

val of_circuit :
  platform:Qca_compiler.Platform.t -> Qca_circuit.Circuit.t -> estimate
(** Convenience: schedule with platform timing, then estimate. *)

val to_string : estimate -> string

(** {2 Fault-tolerant cost model}

    The forward-looking half of the resource question (section 2.1's
    fault-tolerance discussion): given a target logical error rate and the
    physical error rate, what surface-code distance does the program need,
    and what does that cost in physical qubits and syndrome cycles? Uses
    the standard threshold scaling [p_L(d) = A (p/p_th)^((d+1)/2)] with
    A = 0.1, p_th = 1% and the rotated-surface footprint
    ({!Qca_qec.Code.physical_qubits}, [2 d^2 - 1] per logical qubit).
    Driven by the static estimator via [qxc estimate]
    ([docs/estimate.md]). *)

type ft_estimate = {
  code : string;  (** Code family, ["rotated-surface"]. *)
  distance : int;  (** Smallest odd distance meeting [target]. *)
  logical_qubits : int;
  ft_physical_qubits : int;  (** [logical_qubits * (2 d^2 - 1)]. *)
  cycles : int;
      (** Syndrome-extraction cycles: [depth * distance], saturating at
          [max_int]. *)
  runtime_ns : float;  (** [depth * distance * cycle_ns], in floats. *)
  logical_error : float;
      (** Predicted total failure probability at [distance]:
          [logical_qubits * depth * p_L(d)]. *)
  target : float;
  physical_error : float;
  feasible : bool;
      (** [false] when no distance up to [max_distance] meets the target
          (in particular whenever [physical_error >= p_th]); the report
          then shows the best (largest) distance tried. *)
}

val fault_tolerant :
  ?max_distance:int ->
  ?cycle_ns:float ->
  target:float ->
  physical_error:float ->
  logical_qubits:int ->
  depth:int ->
  unit ->
  ft_estimate
(** [max_distance] defaults to 101; [cycle_ns] (default 1000) is the wall
    time of one syndrome-extraction cycle. *)

val ft_to_string : ft_estimate -> string
val ft_to_json : ft_estimate -> Qca_util.Json.t
