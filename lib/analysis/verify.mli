(** Pass-verifier: re-check the program after every compiler pass and blame
    the pass that introduced a violation.

    Drives {!Qca_compiler.Compiler.compile}'s [?observer] hook: after each
    pass the matching check suite runs on the pass's artifact
    ({!Circuit_checks.check_invariants} for circuit stages — plus
    {!Platform_checks.check_mapped} from ["map/route"] onwards — a linear
    qubit-exclusivity walk ([S01]) for the schedule, and
    {!Eqasm_checks.check} for the eQASM program). A check code is
    {e introduced} by the first pass whose artifact exhibits it. *)

type pass_report = {
  pass_name : string;
  diagnostics : Diagnostic.t list;
  introduced : string list;
      (** Check codes seen at this pass but at no earlier pass. *)
}

type report = {
  passes : pass_report list;  (** In pipeline order. *)
  final : Diagnostic.t list;
      (** Union of all diagnostics, deduplicated by (code, site, message). *)
}

val check_stage :
  mapped:bool ->
  allow_swap:bool ->
  Qca_compiler.Platform.t ->
  Qca_compiler.Compiler.pass_artifact ->
  Diagnostic.t list
(** The suite applied to one artifact. [mapped] enables the platform
    conformance checks (physical circuit stages only); [allow_swap] exempts
    routing-inserted swaps from P02. *)

val of_stages : (string * Diagnostic.t list) list -> report
(** Fold per-pass diagnostics (in pipeline order) into a report, computing
    [introduced] sets and the deduplicated final list. *)

val compile :
  ?strategy:Qca_compiler.Mapping.strategy ->
  ?optimizer:Qca_compiler.Optimize.level ->
  Qca_compiler.Platform.t ->
  Qca_compiler.Compiler.mode ->
  Qca_circuit.Circuit.t ->
  Qca_compiler.Compiler.output * report
(** Compile with the verifier observing every pass (including the [Full]
    optimizer's individual ["pre-opt/<pass>"]/["optimize/<pass>"] rewrite
    stages, so a single unsound rewrite is blamed by name). Never raises on
    diagnostics — inspect the report. *)

val source_check :
  ?platform:Qca_compiler.Platform.t ->
  Qca_circuit.Cqasm.program ->
  Diagnostic.t list
(** Pre-compilation source suite ({!Circuit_checks.check_program}), with the
    operand range taken from [platform] when given. *)

val blamed_pass : report -> string -> string option
(** [blamed_pass report code] names the pass that introduced [code]. *)

val render : report -> string
(** One block per pass with its verdict, then the deduplicated summary. *)
