(* qxc: compile and execute cQASM programs on the QX simulator through the
   OpenQL-style compiler and, optionally, the micro-architecture model.

   Every execution subcommand builds one Qca.Job_spec.t and dispatches it
   through Qca.Runner — the same path the qxd job service uses — so `run`,
   `exec` and `submit` share seed semantics, fault handling and the
   metrics schema. The flag vocabulary is likewise shared: the [common]
   record below is the one parser for --platform/--mode/--shots/--seed/
   --noise/--json/--metrics/--trace/--fault-* across check, run, compile,
   exec and submit. *)

module Circuit = Qca_circuit.Circuit
module Cqasm = Qca_circuit.Cqasm
module Engine = Qca_qx.Engine
module Compiler = Qca_compiler.Compiler
module Mapping = Qca_compiler.Mapping
module Eqasm = Qca_compiler.Eqasm
module Controller = Qca_microarch.Controller
module Rng = Qca_util.Rng
module Error = Qca_util.Error
module Trace = Qca_util.Trace
module Json = Qca_util.Json
module Diagnostic = Qca_analysis.Diagnostic
module Verify = Qca_analysis.Verify
module Estimate = Qca_analysis.Estimate
module Error_budget = Qca.Error_budget
module Platform = Qca_compiler.Platform
module Job_spec = Qca.Job_spec
module Runner = Qca.Runner
module Spool = Qca_service.Spool

open Cmdliner

let read_file path = In_channel.with_open_bin path In_channel.input_all

let loading path f =
  try Ok (f ()) with
  | Qca_util.Error.Error { kind = Qca_util.Error.Syntax { line; reason; _ }; _ } ->
      Error (Printf.sprintf "%s:%d: parse error: %s" path line reason)
  | Qca_util.Error.Error { kind = Qca_util.Error.Invalid reason; site = "Cqasm.flatten"; _ }
    ->
      Error (Printf.sprintf "%s: parse error: %s" path reason)
  | Sys_error msg -> Error msg
  | Invalid_argument msg -> Error (Printf.sprintf "%s: %s" path msg)

(* The parse alone: what estimate costs, so a repeat too long to unroll
   still estimates symbolically. *)
let load_program path = loading path (fun () -> Cqasm.parse (read_file path))

(* The file's text, its parse and its unrolled circuit: jobs carry the text
   as a [Source] payload, so program directives (error_model) reach
   Job_spec. A program that unrolls past Cqasm.max_instructions fails here
   like a parse error. *)
let load_source path =
  loading path (fun () ->
      let text = read_file path in
      let program = Cqasm.parse text in
      (text, program, Cqasm.flatten program))

let load_circuit path = Result.map (fun (_, _, circuit) -> circuit) (load_source path)

(* --- the shared flag spec (one parser for every subcommand) --- *)

type common = {
  shots : int;
  seed : int;
  noise : float option;
  platform : string option;
  mode : string;
  route : string;
  json : bool;
  metrics : string option;
  trace : string option;
  fault_rate : float option;
  fault_seed : int;
  max_retries : int;
}

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"cQASM source file.")

let shots_arg =
  Arg.(value & opt int 1024 & info [ "shots" ] ~docv:"N" ~doc:"Number of shots.")

let seed_arg =
  Arg.(value & opt int 0x5EED & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let noise_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "noise" ] ~docv:"P" ~doc:"Depolarising error rate for realistic qubits.")

let platform_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "platform" ] ~docv:"NAME"
        ~doc:"Target platform: superconducting, semiconducting or perfect.")

let mode_arg =
  Arg.(
    value
    & opt string (Compiler.mode_to_string Compiler.Realistic)
    & info [ "mode" ] ~docv:"MODE" ~doc:"Qubit model: perfect, realistic or real.")

let route_arg =
  Arg.(
    value
    & opt string (Mapping.strategy_to_string Mapping.default_strategy)
    & info [ "route" ] ~docv:"STRATEGY"
        ~doc:
          "Routing strategy for compiled (--platform) paths: sabre (the \
           SABRE lookahead router) or greedy (the in-order baseline). See \
           docs/compiler.md.")

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write the per-run metrics report as JSON to $(docv) ('-' for stdout).")

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Trace the run through every stack layer (compiler passes, engine \
           phases, micro-architecture). With no $(docv) (or '-') print a \
           span-tree summary after the results; with $(docv) write Chrome \
           trace_event JSON loadable in chrome://tracing or Perfetto. See \
           docs/observability.md.")

let fault_rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "fault-rate" ] ~docv:"P"
        ~doc:
          "Inject controller/backend faults with per-site probability $(docv) \
           (see docs/resilience.md). Off when absent.")

let fault_seed_arg =
  Arg.(
    value
    & opt int Qca_util.Fault.default_seed
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Seed for the fault injector's own RNG stream.")

let max_retries_arg =
  Arg.(
    value
    & opt int Qca_util.Resilience.default_policy.Qca_util.Resilience.max_retries
    & info [ "max-retries" ] ~docv:"N"
        ~doc:"Retries per shot before it counts as faulted.")

let common_term =
  let make shots seed noise platform mode route json metrics trace fault_rate
      fault_seed max_retries =
    {
      shots;
      seed;
      noise;
      platform;
      mode;
      route;
      json;
      metrics;
      trace;
      fault_rate;
      fault_seed;
      max_retries;
    }
  in
  Term.(
    const make $ shots_arg $ seed_arg $ noise_arg $ platform_arg $ mode_arg
    $ route_arg $ json_flag $ metrics_arg $ trace_arg $ fault_rate_arg
    $ fault_seed_arg $ max_retries_arg)

(* --route parsed once per command; a bad strategy is a usage error. *)
let router_of_common common = Mapping.strategy_of_string common.route

(* The canonical run-request: [payload] under the shared flags, on the
   route they name for [circuit] (the payload's parse: label and width). *)
let job_of_common common ~platform ~mode ~ladder ~plan circuit payload =
  Result.bind (router_of_common common) (fun router ->
      Job_spec.route_of_names ~router ~platform ~mode ~ladder
        ~qubits:(Circuit.qubit_count circuit) ())
  |> Result.map (fun route ->
         Job_spec.make ~label:(Circuit.name circuit) ~route ~shots:common.shots
           ~seed:common.seed ?noise:common.noise ?plan ?fault_rate:common.fault_rate
           ~fault_seed:common.fault_seed ~max_retries:common.max_retries payload)

(* What [run] and [submit] make of a source file: its text is the payload. *)
let source_job common ~file ~text circuit ~plan =
  job_of_common common ~platform:common.platform ~mode:common.mode ~ladder:true ~plan circuit
    (Job_spec.Source { name = file; text })

let print_json doc = print_endline (Json.to_string doc)

(* [text] to stdout for "-", else into the file [dest]; 1 when the file
   cannot be written. *)
let write_output ~what dest text =
  if dest = "-" then (print_string text; 0)
  else
    try
      let oc = open_out dest in
      output_string oc text;
      close_out oc;
      0
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" what msg;
      1

let write_json_line dest doc =
  match dest with
  | None -> 0
  | Some dest -> write_output ~what:"metrics" dest (Json.to_string doc ^ "\n")

(* --metrics with the static estimate of the same spec appended, so the
   observed counters and the predicted costs land in one document and can
   be diffed directly (docs/estimate.md). *)
let write_metrics_with_estimate dest spec report =
  match (dest, Engine.report_json report) with
  | Some _, Json.Obj fields ->
      let estimate =
        match Job_spec.estimate spec with
        | Ok est -> [ ("estimate", Estimate.to_json est) ]
        | Error _ -> []
      in
      write_json_line dest (Json.Obj (fields @ estimate))
  | _, doc -> write_json_line dest doc

(* Run [body] with a trace collector installed when --trace was given, then
   export: bare --trace prints the span tree, --trace=FILE writes Chrome
   JSON. The body's exit code wins over the export's. *)
let with_trace dest body =
  match dest with
  | None -> body ()
  | Some target ->
      let collector = Trace.make_collector () in
      let code = Trace.collecting collector body in
      let export_code =
        write_output ~what:"trace" target
          (if target = "-" then Trace.to_tree_string collector
           else Trace.to_chrome_json collector)
      in
      if code <> 0 then code else export_code

(* --- static checker (docs/analysis.md) --- *)

let lint_flag =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the static checker (docs/analysis.md) on the source before \
           proceeding. Diagnostics go to stderr; error-severity findings \
           abort with exit 2.")

let lint_json_flag =
  Arg.(
    value & flag
    & info [ "lint-json" ]
        ~doc:"Like $(b,--lint) but emit the diagnostics as a JSON array.")

(* Returns false when error-severity findings should abort the command. *)
let run_lint ~lint ~lint_json ?platform program =
  if not (lint || lint_json) then true
  else begin
    let diags = Verify.source_check ?platform program in
    if lint_json then
      prerr_endline (Json.to_string (Json.List (List.map Diagnostic.to_json diags)))
    else prerr_string (Diagnostic.render diags);
    Diagnostic.exit_code diags < 2
  end

let check_shots shots =
  if shots <= 0 then (
    Printf.eprintf "--shots must be positive (got %d)\n" shots;
    false)
  else true

let print_resilience gate report =
  if gate then begin
    let r = report.Engine.resilience in
    let fires =
      List.fold_left (fun acc (_, c) -> acc + c) 0 r.Engine.faults_injected
    in
    Printf.printf
      "# resilience: %d fault fires, %d retries, %d faulted shots, backoff %d ns%s\n"
      fires r.Engine.retries r.Engine.faulted_shots r.Engine.backoff_ns
      (match r.Engine.degraded with
      | None -> ""
      | Some msg -> Printf.sprintf " (degraded: %s)" msg)
  end

(* --- check --- *)

(* A finding about the command line itself: the X codes of docs/analysis.md. *)
let cli_error file ~code ~check msg =
  [ Diagnostic.make Diagnostic.Error ~code ~check ~site:file msg ]

let check_command common file no_verify =
  let json = common.json in
  let finish source report =
    let passes = match report with None -> [] | Some r -> r.Verify.passes in
    let all = source @ (match report with None -> [] | Some r -> r.Verify.final) in
    if json then
      let diagnostics ds = Json.List (List.map Diagnostic.to_json ds) in
      let pass_json (p : Verify.pass_report) =
        Json.Obj
          [ ("pass", Json.String p.Verify.pass_name);
            ("introduced", Json.List (List.map (fun c -> Json.String c) p.Verify.introduced));
            ("diagnostics", diagnostics p.Verify.diagnostics) ]
      in
      print_json
        (Json.Obj
           [ ("file", Json.String file); ("diagnostics", diagnostics all);
             ("passes", Json.List (List.map pass_json passes));
             ("summary", Json.String (Diagnostic.summary all)) ])
    else begin
      List.iter (fun d -> print_endline (Diagnostic.to_string d)) source;
      (match report with None -> () | Some r -> print_string (Verify.render r));
      Printf.printf "%s: %s\n" file (Diagnostic.summary all)
    end;
    Diagnostic.exit_code all
  in
  (* Bad flag values go through [finish] like any other finding (code X02)
     so --json always emits exactly one JSON document, on every exit
     path. *)
  let flag_error msg = finish (cli_error file ~code:"X02" ~check:"invalid-flag" msg) None in
  match load_source file with
  | Error msg -> finish (cli_error file ~code:"X01" ~check:"parse-error" msg) None
  | Ok (_, program, circuit) -> (
      let resources ?platform () =
        Estimate.check ?platform (Estimate.of_program ~shots:common.shots program)
      in
      match common.platform with
      | None -> finish (Verify.source_check program @ resources ()) None
      | Some pname -> (
          match
            ( Job_spec.platform_of_name pname (Circuit.qubit_count circuit),
              Compiler.mode_of_string common.mode )
          with
          | Error msg, _ | _, Error msg -> flag_error msg
          | Ok platform, Ok mode -> (
              match router_of_common common with
              | Error msg -> flag_error msg
              | Ok strategy ->
                  let source =
                    Verify.source_check ~platform program @ resources ~platform ()
                  in
                  (* Source errors (e.g. out-of-range operands) would make
                     the compiler itself raise; report them without
                     verifying. *)
                  if no_verify || Diagnostic.exit_code source = 2 then
                    finish source None
                  else
                    match
                      Error.protect ~site:"Compiler.compile" (fun () ->
                          Verify.compile ~strategy platform mode circuit)
                    with
                    | Ok (_out, report) -> finish source (Some report)
                    | Error e ->
                        let msg = Error.to_string e in
                        let compile_error = cli_error file ~code:"X03" ~check:"compile-error" msg in
                        finish (source @ compile_error) None)))

let no_verify_flag =
  Arg.(
    value & flag
    & info [ "no-verify" ]
        ~doc:"With $(b,--platform): skip the per-pass verifier, source checks only.")

let check_term = Term.(const check_command $ common_term $ file_arg $ no_verify_flag)

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically check a cQASM program (exit 0 clean / 1 warnings / 2 errors). \
          See docs/analysis.md for the check catalogue.")
    check_term

(* --- run --- *)

let plan_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", None);
             ("sampled", Some Engine.Sampled);
             ("trajectory", Some Engine.Trajectory);
             ("clifford", Some Engine.Clifford);
           ])
        None
    & info [ "plan" ] ~docv:"PLAN"
        ~doc:
          "Simulation plan: $(b,auto) (the planner picks the cheapest sound \
           backend; default), $(b,sampled) (single state-vector pass), \
           $(b,trajectory) (per-shot state-vector runs) or $(b,clifford) \
           (stabilizer tableau). Forcing a plan the circuit cannot soundly \
           use fails with a structured error.")

(* --- estimate (static resource estimator, docs/estimate.md) --- *)

let target_error_arg =
  Arg.(
    value
    & opt float 1e-9
    & info [ "target-error" ] ~docv:"P"
        ~doc:
          "Total logical failure probability the fault-tolerant projection \
           must meet (drives the surface-code distance search).")

let physical_error_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "physical-error" ] ~docv:"P"
        ~doc:
          "Physical error rate assumed by the fault-tolerant projection. \
           Defaults to the platform's worst gate error (with --platform) or \
           1e-3.")

let estimate_command common file plan target_error physical_error =
  let finish est_ft diags =
    if common.json then
      print_json
        (Json.Obj
           [ ("file", Json.String file);
             ("estimate", Json.option (fun (est, _) -> Estimate.to_json est) est_ft);
             ("ft", Json.option (fun (_, ft) -> Error_budget.ft_to_json ft) est_ft);
             ("diagnostics", Json.List (List.map Diagnostic.to_json diags));
             ("summary", Json.String (Diagnostic.summary diags)) ])
    else begin
      (match est_ft with
      | None -> ()
      | Some (est, ft) ->
          print_string (Estimate.render est);
          Printf.printf "fault-tolerant:    %s\n" (Error_budget.ft_to_string ft));
      List.iter (fun d -> print_endline (Diagnostic.to_string d)) diags;
      Printf.printf "%s: %s\n" file (Diagnostic.summary diags)
    end;
    Diagnostic.exit_code diags
  in
  let flag_error msg = finish None (cli_error file ~code:"X02" ~check:"invalid-flag" msg) in
  if common.shots <= 0 then
    flag_error (Printf.sprintf "--shots must be positive (got %d)" common.shots)
  else
    let loaded =
      Result.bind (load_program file) (fun program ->
          match Job_spec.program_noise ?noise:common.noise ~site:file program with
          | Ok noise -> Ok (program, noise)
          | Error e -> Error (Error.to_string e))
    in
    match loaded with
    | Error msg -> finish None (cli_error file ~code:"X01" ~check:"parse-error" msg)
    | Ok (program, noise) -> (
        match
          Job_spec.route_of_names ~platform:common.platform ~mode:common.mode ~ladder:false
            ~qubits:program.Cqasm.qubit_count ()
        with
        | Error msg -> flag_error msg
        | Ok route ->
            let platform =
              match route with
              | Job_spec.Compiled { platform; _ } -> Some platform
              | Job_spec.Direct -> None
            in
            (* The plan prediction is Job_spec.estimate's: the noise the
               job would run under on the route the flags name. *)
            let noisy = not (Qca_qx.Noise.is_ideal (Job_spec.route_noise route noise)) in
            let est =
              Estimate.of_program ~shots:common.shots ~noisy ?plan program
            in
            let physical_error =
              match physical_error with
              | Some p -> p
              | None -> (
                  match platform with
                  | Some p ->
                      let n = p.Platform.noise in
                      let worst =
                        Float.max n.Qca_qx.Noise.single_qubit_error
                          n.Qca_qx.Noise.two_qubit_error
                      in
                      if worst > 0. then worst else 1e-3
                  | None -> 1e-3)
            in
            let ft =
              Error_budget.fault_tolerant ~target:target_error ~physical_error
                ~logical_qubits:(max 1 est.Estimate.qubits_used)
                ~depth:est.Estimate.depth ()
            in
            finish (Some (est, ft)) (Estimate.check ?platform est))

let estimate_term =
  Term.(
    const estimate_command $ common_term $ file_arg $ plan_arg
    $ target_error_arg $ physical_error_arg)

let estimate_cmd =
  Cmd.v
    (Cmd.info "estimate"
       ~doc:
         "Statically estimate a program's resources without running it: gate \
          classes, logical depth, predicted simulation plan and cost, plus a \
          fault-tolerant (surface-code) projection. Repeated subcircuits are \
          costed symbolically, so a million-round QEC program estimates in \
          milliseconds. Exit follows the diagnostic ladder of $(b,check) \
          (codes R01-R04, docs/estimate.md).")
    estimate_term

let run_command common file plan lint lint_json =
  if not (check_shots common.shots) then 1
  else
    match load_source file with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok (_, program, _) when not (run_lint ~lint ~lint_json program) -> 2
    | Ok (text, _, circuit) -> (
        match source_job common ~file ~text circuit ~plan with
        | Error msg ->
            prerr_endline msg;
            1
        | Ok spec ->
            with_trace common.trace (fun () ->
                match Runner.run spec with
                | Error e ->
                    Printf.eprintf "qxc: error: %s\n" (Error.to_string e);
                    2
                | Ok o ->
                    let report = o.Runner.report in
                    if common.json then
                      print_json (Json.Obj (Runner.outcome_fields o))
                    else begin
                      Printf.printf "# %d qubits, %d instructions, %d shots\n"
                        (Circuit.qubit_count circuit) (Circuit.length circuit)
                        common.shots;
                      Printf.printf "# plan: %s (%s)\n"
                        (Engine.plan_to_string report.Engine.plan)
                        report.Engine.plan_reason;
                      print_resilience (common.fault_rate <> None) report;
                      List.iter
                        (fun (key, count) ->
                          Printf.printf "%s  %6d  %.4f\n" key count
                            (float_of_int count /. float_of_int common.shots))
                        o.Runner.histogram
                    end;
                    write_metrics_with_estimate common.metrics spec report))

let run_term =
  Term.(
    const run_command $ common_term $ file_arg $ plan_arg $ lint_flag
    $ lint_json_flag)

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a cQASM program on the QX simulator. With $(b,--platform), \
          compile first and execute through the full stack (with the \
          degradation ladder).")
    run_term

(* --- compile --- *)

(* Per-pass gate/depth deltas for --metrics: each row's counts describe the
   circuit after that pass, so the delta is simply row minus previous row
   (the Full optimizer's "pre-opt/<pass>"/"optimize/<pass>" rows land
   between their neighbours in pipeline order). *)
let compile_metrics_json (out : Compiler.output) =
  let rows_rev, _ =
    List.fold_left
      (fun (acc, prev) (p : Compiler.pass_stat) ->
        let d_gates, d_depth =
          match prev with
          | None -> (0, 0)
          | Some (g, d) -> (p.Compiler.gates - g, p.Compiler.depth - d)
        in
        ( Json.(
            Obj
              [ ("pass", String p.Compiler.pass_name); ("gates", Int p.Compiler.gates);
                ("two_qubit", Int p.Compiler.two_qubit_gates); ("depth", Int p.Compiler.depth);
                ("d_gates", Int d_gates); ("d_depth", Int d_depth);
                ("note", String p.Compiler.note) ])
          :: acc,
          Some (p.Compiler.gates, p.Compiler.depth) ))
      ([], None) out.Compiler.passes
  in
  let totals =
    match (out.Compiler.passes, List.rev out.Compiler.passes) with
    | first :: _, last :: _ ->
        Json.(
          Obj
            [ ("gates_in", Int first.Compiler.gates); ("gates_out", Int last.Compiler.gates);
              ("d_gates", Int (last.Compiler.gates - first.Compiler.gates));
              ("depth_in", Int first.Compiler.depth); ("depth_out", Int last.Compiler.depth);
              ("d_depth", Int (last.Compiler.depth - first.Compiler.depth)) ])
    | _ -> Json.Null
  in
  Json.Obj
    [ ("platform", Json.String out.Compiler.platform.Qca_compiler.Platform.name);
      ("mode", Json.String (Compiler.mode_to_string out.Compiler.mode));
      ("passes", Json.List (List.rev rows_rev)); ("total", totals) ]

(* A non-finite angle has no meaning on any backend: refuse the program, as
   a job would be refused, instead of compiling the rotation away. *)
let finite_angles circuit =
  match Job_spec.finite_angles ~site:"qxc compile" circuit with
  | Ok () -> true
  | Error e ->
      Printf.eprintf "qxc: error: %s\n" (Error.to_string e);
      false

let compile_command common file emit_eqasm lint lint_json =
  match load_source file with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok (_, program, circuit) -> (
      let platform_name = Option.value ~default:"superconducting" common.platform in
      match
        ( Job_spec.platform_of_name platform_name (Circuit.qubit_count circuit),
          Compiler.mode_of_string common.mode,
          router_of_common common )
      with
      | Error msg, _, _ | _, Error msg, _ | _, _, Error msg ->
          prerr_endline msg;
          1
      | Ok platform, Ok mode, Ok strategy ->
          if not (run_lint ~lint ~lint_json ~platform program) then 2
          else if not (finite_angles circuit) then 2
          else
            (* With linting on, compile under the pass-verifier so a pass
               that introduces a violation is named on stderr. *)
            with_trace common.trace (fun () ->
                match
                  Error.protect ~site:"Compiler.compile" (fun () ->
                      if lint || lint_json then
                        let out, report = Verify.compile ~strategy platform mode circuit in
                        (out, Some report)
                      else (Compiler.compile ~strategy platform mode circuit, None))
                with
                | Error e ->
                    Printf.eprintf "qxc: error: %s\n" (Error.to_string e);
                    2
                | Ok (out, verified) -> (
                    (match verified with
                    | Some r when r.Verify.final <> [] -> prerr_string (Verify.render r)
                    | _ -> ());
                    print_string (Compiler.report out);
                    print_newline ();
                    if emit_eqasm then begin
                      match out.Compiler.eqasm with
                      | Some program -> print_string (Eqasm.to_string program)
                      | None -> print_endline "# perfect mode: no eQASM emitted"
                    end
                    else print_string out.Compiler.cqasm;
                    let metrics_code =
                      write_json_line common.metrics (compile_metrics_json out)
                    in
                    match verified with
                    | Some r when Diagnostic.exit_code r.Verify.final = 2 -> 2
                    | _ -> metrics_code)))

let eqasm_flag =
  Arg.(value & flag & info [ "eqasm" ] ~doc:"Emit eQASM instead of cQASM.")

let compile_term =
  Term.(
    const compile_command $ common_term $ file_arg $ eqasm_flag $ lint_flag
    $ lint_json_flag)

let compile_cmd =
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a cQASM program for a platform and qubit model.")
    compile_term

(* --- exec (through the micro-architecture) --- *)

let exec_command common plan file =
  if not (check_shots common.shots) then 1
  else
    match load_circuit file with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok circuit -> (
        let platform = Some (Option.value ~default:"superconducting" common.platform) in
        match
          job_of_common common ~platform ~mode:(Compiler.mode_to_string Compiler.Real)
            ~ladder:false ~plan circuit (Job_spec.Circuit circuit)
        with
        | Error msg ->
            prerr_endline msg;
            1
        | Ok spec ->
            with_trace common.trace (fun () ->
                match Runner.run spec with
                | Error e ->
                    Printf.eprintf "%s\n" (Error.to_string e);
                    1
                | Ok o ->
                    if common.json then
                      print_json (Json.Obj (Runner.outcome_fields o))
                    else begin
                      (match o.Runner.microarch_stats with
                      | Some s ->
                          Printf.printf
                            "# microarch: %d bundles, %d micro-ops, %d ns, peak \
                             queue %d, %d violations\n"
                            s.Controller.bundles_issued s.Controller.micro_ops
                            s.Controller.total_ns s.Controller.peak_queue_depth
                            s.Controller.timing_violations
                      | None -> ());
                      print_resilience (common.fault_rate <> None) o.Runner.report;
                      List.iter
                        (fun (key, count) -> Printf.printf "%s  %6d\n" key count)
                        o.Runner.histogram
                    end;
                    write_json_line common.metrics (Engine.report_json o.Runner.report)))

let exec_term = Term.(const exec_command $ common_term $ plan_arg $ file_arg)

let exec_cmd =
  Cmd.v
    (Cmd.info "exec"
       ~doc:"Execute through the cycle-accurate micro-architecture (real qubits).")
    exec_term

(* --- submit / status / cancel (the qxd spool client) --- *)

let spool_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "spool" ] ~docv:"DIR" ~doc:"Spool directory shared with $(b,qxd serve).")

let tenant_arg =
  Arg.(
    value
    & opt string "default"
    & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant the job is accounted to.")

let priority_arg =
  Arg.(
    value
    & opt int 0
    & info [ "priority" ] ~docv:"P"
        ~doc:"Scheduling priority within the tenant (lower runs sooner).")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget: the job fails with a structured \
           deadline-exceeded error if it is still unfinished $(docv) \
           milliseconds after it starts (checked at scheduler slice \
           boundaries).")

let durable_flag =
  Arg.(
    value & flag
    & info [ "durable" ]
        ~doc:
          "fsync the job file and the spool directories around the atomic \
           rename, so the submission survives power loss.")

let submit_command common dir tenant priority deadline_ms durable file plan =
  if not (check_shots common.shots) then 1
  else
    match load_source file with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok (text, _, circuit) -> (
        match source_job common ~file ~text circuit ~plan with
        | Error msg ->
            prerr_endline msg;
            1
        | Ok spec -> (
            match Spool.submit ~durable ~dir ~tenant { spec with priority; deadline_ms } with
            | Error e ->
                Printf.eprintf "qxc: error: %s\n" (Error.to_string e);
                1
            | Ok id ->
                if common.json then
                  print_json (Json.Obj [ ("id", Json.String id); ("tenant", Json.String tenant) ])
                else Printf.printf "submitted %s\n" id;
                0))

let submit_term =
  Term.(
    const submit_command $ common_term $ spool_arg $ tenant_arg $ priority_arg
    $ deadline_arg $ durable_flag $ file_arg $ plan_arg)

let submit_cmd =
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Queue a cQASM program on a $(b,qxd) spool and print the job id. The \
          job carries the same flags as $(b,run); poll it with $(b,status).")
    submit_term

let id_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Job id.")

let id_opt_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"ID"
        ~doc:"Job id; omit it to report the daemon and queue depths instead.")

(* Spool-wide status: daemon liveness (from DIR/daemon.json) plus queue
   depths. This is the operator's `is my daemon up?` probe. *)
let spool_status json dir =
  let inbox = List.length (Spool.pending_ids ~dir) in
  let active = List.length (Spool.active ~dir) in
  let heartbeat =
    Option.map (fun hb -> (hb, Spool.pid_alive hb.Spool.hb_pid)) (Spool.read_heartbeat ~dir)
  in
  if json then
    print_json
      Json.(
        Obj
          [ ( "daemon",
              option
                (fun (hb, alive) ->
                  Obj
                    [ ("pid", Int hb.Spool.hb_pid); ("state", String hb.Spool.hb_state);
                      ("alive", Bool alive) ])
                heartbeat );
            ("inbox", Int inbox); ("active", Int active) ])
  else begin
    (match heartbeat with
    | None -> Printf.printf "daemon: none\n"
    | Some (hb, alive) ->
        Printf.printf "daemon: pid %d %s (%s)\n" hb.Spool.hb_pid hb.Spool.hb_state
          (if alive then "alive" else "dead"));
    Printf.printf "inbox:  %d queued, active: %d journaled\n" inbox active
  end;
  0

let status_command json dir id =
  match id with
  | None -> spool_status json dir
  | Some id -> (
      (* A job with no result yet: one JSON object, or an [id state] line. *)
      let pending status fields text =
        if json then
          print_json
            (Json.Obj ([ ("id", Json.String id); ("status", Json.String status) ] @ fields))
        else Printf.printf "%s %s\n" id text;
        0
      in
      match Spool.read_result ~dir id with
      | Some line ->
          print_string line;
          0
      | None -> (
          if Spool.in_inbox ~dir id then pending "queued" [] "queued"
          else
            match Spool.in_active ~dir id with
            | Some c ->
                pending "running"
                  [ ("attempt", Json.Int c.Spool.attempt); ("pid", Json.Int c.Spool.claim_pid) ]
                  (Printf.sprintf "running (attempt %d, pid %d)" c.Spool.attempt
                     c.Spool.claim_pid)
            | None ->
                if Spool.cancel_requested ~dir id then pending "cancelling" [] "cancelling"
                else begin
                  Printf.eprintf "unknown job %s\n" id;
                  1
                end))

let status_term = Term.(const status_command $ json_flag $ spool_arg $ id_opt_arg)

let status_cmd =
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Report a submitted job (queued, running, cancelling or its result) \
          — or, with no ID, the daemon heartbeat and queue depths.")
    status_term

let cancel_command dir id =
  if Spool.request_cancel ~dir id then begin
    Printf.printf "cancel requested for %s\n" id;
    0
  end
  else begin
    Printf.eprintf "%s already finished\n" id;
    1
  end

let cancel_term = Term.(const cancel_command $ spool_arg $ id_arg)

let cancel_cmd =
  Cmd.v
    (Cmd.info "cancel"
       ~doc:
         "Request cancellation of a queued or running job (fails once a result \
          is published).")
    cancel_term

(* --- qisa --- *)

let qisa_command common file qubits tech_name =
  match List.assoc_opt tech_name Job_spec.devices with
  | None ->
      Printf.eprintf "unknown technology '%s' (expected %s)\n" tech_name
        (String.concat " or " (List.map fst Job_spec.devices));
      1
  | Some (platform, technology) -> (
      match (try Ok (read_file file) with Sys_error m -> Error m) with
      | Error msg ->
          prerr_endline msg;
          1
      | Ok source -> (
          match
            Qca_microarch.Qisa.parse ~name:(Filename.basename file) ~qubit_count:qubits
              ~cycle_ns:platform.Platform.cycle_ns source
          with
          | exception Qca_microarch.Qisa.Parse_error (line, msg) ->
              Printf.eprintf "%s:%d: %s\n" file line msg;
              1
          | exception Invalid_argument msg ->
              prerr_endline msg;
              1
          | program ->
              let rng = Rng.create common.seed in
              let counts = Hashtbl.create 16 in
              let last = ref None in
              for _ = 1 to common.shots do
                let result = Qca_microarch.Qisa.execute ~rng technology program in
                last := Some result;
                let key =
                  String.concat ","
                    (List.map string_of_int
                       (Array.to_list (Array.sub result.Qca_microarch.Qisa.registers 0 8)))
                in
                Hashtbl.replace counts key
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
              done;
              (match !last with
              | Some result ->
                  Printf.printf "# %d classical instructions retired (last run)\n"
                    result.Qca_microarch.Qisa.executed
              | None -> ());
              print_endline "# register file r0..r7 -> count";
              Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
              |> List.sort (fun (_, a) (_, b) -> compare b a)
              |> List.iter (fun (key, count) -> Printf.printf "[%s]  %d\n" key count);
              0))

let qubits_arg =
  Arg.(value & opt int 2 & info [ "qubits" ] ~docv:"N" ~doc:"Qubit count for QISA programs.")

let tech_arg =
  Arg.(
    value
    & opt string "superconducting"
    & info [ "technology" ] ~docv:"TECH"
        ~doc:"Micro-architecture technology: superconducting or semiconducting.")

let qisa_term = Term.(const qisa_command $ common_term $ file_arg $ qubits_arg $ tech_arg)

let qisa_cmd =
  Cmd.v
    (Cmd.info "qisa"
       ~doc:"Assemble and execute a QISA program (classical + quantum ISA, Figure 5).")
    qisa_term

(* --- info --- *)

let info_command file =
  match load_circuit file with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok circuit ->
      Printf.printf "name:          %s\n" (Circuit.name circuit);
      Printf.printf "qubits:        %d\n" (Circuit.qubit_count circuit);
      Printf.printf "instructions:  %d\n" (Circuit.length circuit);
      Printf.printf "gates:         %d\n" (Circuit.gate_count circuit);
      Printf.printf "two-qubit:     %d\n" (Circuit.two_qubit_gate_count circuit);
      Printf.printf "depth:         %d\n" (Circuit.depth circuit);
      Printf.printf "qubits used:   %s\n"
        (String.concat ", " (List.map string_of_int (Circuit.qubits_used circuit)));
      0

let info_term = Term.(const info_command $ file_arg)
let info_cmd = Cmd.v (Cmd.info "info" ~doc:"Print circuit statistics.") info_term

let () =
  let doc = "full-stack quantum accelerator toolchain (cQASM/eQASM/QX)" in
  let main =
    Cmd.group (Cmd.info "qxc" ~version:"1.0" ~doc)
      [
        run_cmd; compile_cmd; check_cmd; estimate_cmd; exec_cmd; submit_cmd;
        status_cmd; cancel_cmd; qisa_cmd; info_cmd;
      ]
  in
  (* A command-line error (cmdliner's own message already on stderr) is an
     input error, exit 1. Structured errors escaping a subcommand become a
     one-line diagnostic rather than an OCaml backtrace. *)
  match Cmd.eval' ~catch:false main with
  | code when code = Cmd.Exit.cli_error -> exit 1
  | code -> exit code
  | exception Qca_util.Error.Error e ->
      Printf.eprintf "qxc: error: %s\n" (Qca_util.Error.to_string e);
      exit 2
  | exception Failure msg ->
      Printf.eprintf "qxc: error: %s\n" msg;
      exit 2
