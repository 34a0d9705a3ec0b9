(* compile-exec: the paper's cQASM -> eQASM -> micro-architecture path as a
   closed loop. Each round parses and checks every program and compiles it
   for the 17-qubit superconducting platform (Real mode, default SABRE
   router and Full optimizer); bell and teleport also execute every shot
   through the cycle-accurate controller by the `qxc exec` route. *)

module Circuit = Qca_circuit.Circuit
module Cqasm = Qca_circuit.Cqasm
module Library = Qca_circuit.Library
module Compiler = Qca_compiler.Compiler
module Platform = Qca_compiler.Platform
module Mapping = Qca_compiler.Mapping
module Schedule = Qca_compiler.Schedule
module Controller = Qca_microarch.Controller
module Verify = Qca_analysis.Verify
module Diagnostic = Qca_analysis.Diagnostic
module Job_spec = Qca.Job_spec
module Runner = Qca.Runner
module Error = Qca_util.Error
module Rng = Qca_util.Rng

let platform = Platform.superconducting_17
let technology = Controller.superconducting

let compile_counts (out : Compiler.output) =
  [
    ( "compiler.swaps",
      match out.Compiler.mapping with Some m -> m.Mapping.swaps_added | None -> 0 );
    ("compiler.gates_out", Circuit.gate_count out.Compiler.physical);
  ]

let compiled_out out =
  {
    Closed_loop.shots = 0;
    histogram = [];
    counts = compile_counts out;
    reported = [];
    compiled = Some out;
  }

let has_error diags = Diagnostic.max_severity diags = Some Diagnostic.Error

(* Compiler.compile with each pass booked to its own span: a pass runs from
   one observer call to the next. *)
let traced_compile spans ~job ?strategy circuit =
  Span.with_span spans "compiler.compile" ~job (fun () ->
      let mark = ref (Span.now ()) in
      let observer name _ =
        let t = Span.now () in
        Span.record spans (Closed_loop.pass_span name) ~job ~start:!mark ~stop:t;
        mark := t
      in
      Compiler.compile ?strategy ~observer platform Compiler.Real circuit)

let compile_only ~label text =
  let run ~parse ~verify ~compile =
    match parse () with
    | exception Error.Error e -> Error (Error.to_string e)
    | program ->
        let diags = verify program in
        if has_error diags then Error ("source check: " ^ Diagnostic.summary diags)
        else Ok (compiled_out (compile (Cqasm.flatten program)))
  in
  {
    Closed_loop.label;
    untraced =
      (fun _ ->
        run
          ~parse:(fun () -> Cqasm.parse text)
          ~verify:(Verify.source_check ~platform)
          ~compile:(Compiler.compile platform Compiler.Real));
    traced =
      (fun spans job ->
        run
          ~parse:(fun () -> Span.with_span spans "cqasm.parse" ~job (fun () -> Cqasm.parse text))
          ~verify:(fun p -> Span.with_span spans "verify" ~job (fun () -> Verify.source_check ~platform p))
          ~compile:(traced_compile spans ~job));
  }

let exec_out (spec : Job_spec.t) histogram compiled (stats : Controller.run_stats) =
  {
    Closed_loop.shots = spec.Job_spec.shots;
    histogram;
    counts =
      compile_counts compiled
      @ [
          ("microarch.bundles", stats.Controller.bundles_issued);
          ("microarch.micro_ops", stats.Controller.micro_ops);
          ("microarch.sim_ns", stats.Controller.total_ns);
        ];
    reported = [];
    compiled = Some compiled;
  }

(* The calls Runner.run makes on the `qxc exec` route, each in a span. *)
let traced_exec spans ~job (spec : Job_spec.t) =
  Span.with_span spans "runner.run" ~job (fun () ->
      match Span.with_span spans "cqasm.parse" ~job (fun () -> Job_spec.resolve spec) with
      | Error e -> Error (Error.to_string e)
      | Ok circuit -> (
          let out = traced_compile spans ~job ~strategy:(Job_spec.route_router spec.Job_spec.route) circuit in
          match out.Compiler.eqasm with
          | None -> Error "compiler produced no eQASM"
          | Some program -> (
              match
                Span.with_span spans "microarch.run" ~job (fun () ->
                    Controller.run_shots ~noise:platform.Platform.noise ?seed:spec.Job_spec.seed
                      ~shots:spec.Job_spec.shots ~policy:(Job_spec.retry_policy spec) technology
                      program)
              with
              | exception Error.Error e -> Error (Error.to_string e)
              | r ->
                  Ok
                    (exec_out spec r.Controller.histogram out r.Controller.last.Controller.stats))))

let exec_job ~label make_spec =
  {
    Closed_loop.label;
    untraced =
      (fun i ->
        let spec = make_spec i in
        match Runner.run spec with
        | Error e -> Error (Error.to_string e)
        | Ok { Runner.histogram; compiled = Some c; microarch_stats = Some s; _ } ->
            Ok (exec_out spec histogram c s)
        | Ok _ -> Error "no compiled output or micro-architecture stats");
    traced = (fun spans i -> traced_exec spans ~job:i (make_spec i));
  }

(* Every compiled program of the first round passes the verifier's checks
   on its physical circuit and eQASM. Bell's shots read the correlated
   outcomes 00 or 11 on its two measured qubits, except for the few the
   platform's error model flips (about 5%); at least 80% must. *)
let output_checks (round : Closed_loop.job array) (phase : Closed_loop.phase) =
  let compiled_ok =
    List.for_all
      (fun (o : Closed_loop.out) ->
        match o.Closed_loop.compiled with
        | None -> false
        | Some out ->
            let stage a = Verify.check_stage ~mapped:true ~allow_swap:true platform a in
            let eqasm =
              match out.Compiler.eqasm with
              | Some e -> stage (Compiler.Eqasm_stage e)
              | None -> []
            in
            not (has_error (stage (Compiler.Circuit_stage out.Compiler.physical) @ eqasm)))
      phase.Closed_loop.first_round
  in
  let correlated, total =
    Hashtbl.fold
      (fun i (o : Closed_loop.out) acc ->
        if round.(i mod Array.length round).Closed_loop.label <> "bell" then acc
        else
          List.fold_left
            (fun (c, t) (key, n) ->
              match String.concat "" (String.split_on_char '-' key) with
              | "00" | "11" -> (c + n, t + n)
              | _ -> (c, t + n))
            acc o.Closed_loop.histogram)
      phase.Closed_loop.outputs (0, 0)
  in
  [
    ("every compiled program has no error-severity verifier finding", compiled_ok);
    ( Printf.sprintf "bell's micro-architecture shots read 00 or 11 (%d of %d)" correlated total,
      total > 0 && 5 * correlated >= 4 * total );
  ]

(* Physical gates, two-qubit gates, depth and scheduled cycles, summed. *)
let physical_counts outs =
  List.fold_left
    (fun (g, t, d, c) (out : Compiler.output) ->
      let p = out.Compiler.physical in
      ( g + Circuit.gate_count p,
        t + Circuit.two_qubit_gate_count p,
        d + Circuit.depth p,
        c + out.Compiler.schedule.Schedule.makespan ))
    (0, 0, 0, 0) outs

(* A random circuit of the shape that compiles. Some hit a known lowering
   limit ("Eqasm: mask registers exhausted"); those draws are skipped, so
   every job of the workload compiles. *)
let rec compilable rng ~qubits ~gates =
  let text = Engine_loops.random_source rng ~qubits ~gates in
  match Compiler.compile platform Compiler.Real (Cqasm.parse_circuit text) with
  | out -> (text, out)
  | exception Invalid_argument _ -> compilable rng ~qubits ~gates

(* Eight variants of each random shape: with four, one seed's draw moved
   the round's compile time by 9%. *)
let variants = 8

let workload ~fixture ~seed ~smoke =
  let rng = Rng.create seed in
  let shapes = if smoke then [ (6, 30) ] else [ (10, 60); (12, 120) ] in
  let random (qubits, gates) =
    List.init variants (fun k ->
        (Printf.sprintf "random-%dx%d-%d" qubits gates k, fst (compilable rng ~qubits ~gates)))
  in
  let compile_only_programs =
    (if smoke then [ ("ghz5", fixture "ghz5") ]
     else
       [
         ("qft8", Cqasm.emit_circuit (Library.qft 8) ^ "  measure_all\n");
         ("ghz5", fixture "ghz5");
         ("qft4", fixture "qft4");
       ])
    @ List.concat_map random shapes
  in
  (* compiled_* also sums 8 more circuits of each random shape, compiled
     after the run: with only four executed, one seed's draw moved the sum
     by 9%. *)
  let extra () =
    let rng = Rng.create (seed + 1) in
    List.concat_map
      (fun (qubits, gates) ->
        List.init (16 - variants) (fun _ -> snd (compilable rng ~qubits ~gates)))
      shapes
  in
  let shots = if smoke then 4 else 2 in
  let exec_programs = if smoke then [ "bell" ] else [ "bell"; "teleport" ] in
  let route =
    Job_spec.Compiled
      {
        platform;
        mode = Compiler.Real;
        technology = Some technology;
        ladder = false;
        router = Mapping.Sabre;
      }
  in
  let exec_spec name =
    let text = fixture name in
    fun i ->
      Job_spec.make ~label:name ~route ~shots ~seed:(Closed_loop.job_seed ~seed i)
        (Job_spec.Source { name; text })
  in
  let round =
    Array.of_list
      (List.map (fun (label, text) -> compile_only ~label text) compile_only_programs
      @ List.map (fun name -> exec_job ~label:name (exec_spec name)) exec_programs)
  in
  {
    Closed_loop.round;
    (* Every program but the later variants of each random shape. *)
    kinds =
      Array.of_list
        (List.filter
           (fun (j : Closed_loop.job) ->
             not (String.starts_with ~prefix:"random-" j.Closed_loop.label)
             || String.ends_with ~suffix:"-0" j.Closed_loop.label)
           (Array.to_list round));
    quality =
      (fun outs ->
        physical_counts
          (List.filter_map (fun (o : Closed_loop.out) -> o.Closed_loop.compiled) outs @ extra ()));
    checks = output_checks round;
  }
