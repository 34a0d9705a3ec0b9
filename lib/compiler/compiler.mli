(** OpenQL-style pass manager (Figure 4).

    Compiles a logical circuit for one of the paper's three qubit models:

    - {b Perfect}: no decomposition to hardware primitives, no connectivity
      constraint; optimisation + unit-time scheduling only. The output runs
      on QX with ideal qubits (Figure 2b).
    - {b Realistic}: full pipeline — decompose, place & route, optimise,
      schedule with platform timing, lower to eQASM — executed on QX with
      the platform's error model.
    - {b Real}: same pipeline as Realistic; the eQASM output is what would
      be shipped to the physical device's micro-architecture (here the
      cycle-accurate model in [qca_microarch]). *)

type mode = Perfect | Realistic | Real

type pass_stat = {
  pass_name : string;
  gates : int;
  two_qubit_gates : int;
  depth : int;
  note : string;
}

type pass_artifact =
  | Circuit_stage of Qca_circuit.Circuit.t
  | Schedule_stage of Schedule.t
  | Eqasm_stage of Eqasm.program
      (** What a compiler pass produced, as handed to the [?observer] of
          {!compile}. Circuit-level passes emit [Circuit_stage]; the
          scheduler and eQASM lowering emit their own artifact kinds. *)

type output = {
  platform : Platform.t;
  mode : mode;
  logical : Qca_circuit.Circuit.t;  (** Input circuit. *)
  physical : Qca_circuit.Circuit.t;  (** After all circuit-level passes. *)
  schedule : Schedule.t;
  eqasm : Eqasm.program option;  (** [None] in Perfect mode. *)
  cqasm : string;  (** cQASM of the physical circuit. *)
  mapping : Mapping.result option;
  passes : pass_stat list;  (** One row per pass, in order. *)
}

val mode_to_string : mode -> string
(** The qubit model's name in [--mode] flags, spool headers, route
    fingerprints and reports: [perfect], [realistic] or [real]. *)

val mode_of_string : string -> (mode, string) result
(** The inverse of {!mode_to_string}; any other name is an error message. *)

val compile :
  ?strategy:Mapping.strategy ->
  ?optimizer:Optimize.level ->
  ?observer:(string -> pass_artifact -> unit) ->
  Platform.t ->
  mode ->
  Qca_circuit.Circuit.t ->
  output
(** Defaults: [strategy] is {!Mapping.default_strategy} (pass [Greedy]
    for the baseline router), [optimizer] is {!Optimize.Full} (the complete
    pass pipeline; [Basic] restores the pre-pipeline single sweep).
    Placement is always [Trivial] and scheduling always ASAP.

    [observer] (the pass-verifier hook) is called after every pass with the
    pass name (matching the {!pass_stat} rows: ["input"], ["pre-opt"],
    ["decompose"], ["map/route"], ["expand-swaps"], ["optimize"], plus
    ["schedule"] and ["eqasm"]) and the artifact it produced. With the
    [Full] optimizer, each individual optimizer pass that changed the
    circuit additionally reports as ["pre-opt/<pass>"] or
    ["optimize/<pass>"] (e.g. ["optimize/peephole"], ["optimize/euler"]),
    with per-pass gate/depth deltas in its pass_stat note — so
    [Qca_analysis.Verify] can blame a single rewrite pass and
    [qxc --metrics] can report per-pass deltas. When absent the pipeline
    pays one branch per pass. *)

val report : output -> string
(** Human-readable pass-by-pass compilation report (the E3 table rows). *)
