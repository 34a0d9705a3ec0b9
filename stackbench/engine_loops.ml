(* qec-clifford and noisy-trajectory: Direct-route jobs through
   Qca.Runner.run, timed as a closed loop. The two share the engine's
   per-shot micro-op loop on different backends (the stabilizer tableau,
   the state vector), so a change to that loop shows on both. *)

module Circuit = Qca_circuit.Circuit
module Cqasm = Qca_circuit.Cqasm
module Gate = Qca_circuit.Gate
module Library = Qca_circuit.Library
module Code = Qca_qec.Code
module Engine = Qca_qx.Engine
module Density = Qca_qx.Density
module Compiler = Qca_compiler.Compiler
module Platform = Qca_compiler.Platform
module Schedule = Qca_compiler.Schedule
module Job_spec = Qca.Job_spec
module Runner = Qca.Runner
module Error = Qca_util.Error
module Rng = Qca_util.Rng

let engine_out (spec : Job_spec.t) histogram (r : Engine.run_report) =
  let w = r.Engine.wall in
  {
    Closed_loop.shots = spec.Job_spec.shots;
    histogram;
    counts =
      [
        ("engine.gate_applies", List.fold_left (fun acc (_, c) -> acc + c) 0 r.Engine.gate_applies);
        ("engine.measurements", r.Engine.measurements);
      ];
    reported =
      [
        ("engine.simulate_s", w.Engine.simulate_s);
        ("engine.sample_s", w.Engine.sample_s);
        ("engine.reported_s", w.Engine.analyse_s +. w.Engine.simulate_s +. w.Engine.sample_s);
      ];
    compiled = None;
  }

(* The calls Runner.run makes for a Direct spec, each in a span. The
   planner call is the one addition: Engine.run makes the same decision
   inside, where no span can reach it. *)
let traced_direct spans ~job (spec : Job_spec.t) =
  Span.with_span spans "runner.run" ~job (fun () ->
      match Span.with_span spans "cqasm.parse" ~job (fun () -> Job_spec.resolve spec) with
      | Error e -> Error (Error.to_string e)
      | Ok circuit -> (
          let noise = Job_spec.noise_model spec and shots = spec.Job_spec.shots in
          ignore
            (Span.with_span spans "engine.analyse" ~job (fun () ->
                 Engine.analyse ~noise ~shots circuit));
          match
            Span.with_span spans "engine.run" ~job (fun () ->
                Engine.run_checked ~noise ?seed:spec.Job_spec.seed ?plan:spec.Job_spec.plan
                  ~shots ~policy:(Job_spec.retry_policy spec) ~fusion:spec.Job_spec.fusion
                  circuit)
          with
          | Error e -> Error (Error.to_string e)
          | Ok r -> Ok (engine_out spec r.Engine.histogram r.Engine.report)))

let direct_job ~label make_spec =
  {
    Closed_loop.label;
    untraced =
      (fun i ->
        let spec = make_spec i in
        match Runner.run spec with
        | Ok o -> Ok (engine_out spec o.Runner.histogram o.Runner.report)
        | Error e -> Error (Error.to_string e));
    traced = (fun spans i -> traced_direct spans ~job:i (make_spec i));
  }

(* compiled_* for a workload that runs on ideal qubits without a device:
   its circuits through Compiler.compile for the Perfect model. *)
let perfect_quality circuits =
  List.fold_left
    (fun (g, t, d, c) circuit ->
      let out =
        Compiler.compile (Platform.perfect (Circuit.qubit_count circuit)) Compiler.Perfect circuit
      in
      let p = out.Compiler.physical in
      ( g + Circuit.gate_count p,
        t + Circuit.two_qubit_gate_count p,
        d + Circuit.depth p,
        c + out.Compiler.schedule.Schedule.makespan ))
    (0, 0, 0, 0) circuits

let source label text = Job_spec.Source { name = label; text }

(* --- qec-clifford ------------------------------------------------------------ *)

(* An ideal memory experiment as cQASM: the syndrome-extraction round as a
   repeated subcircuit, then every data qubit read out. *)
let memory_source code ~rounds =
  let round = Code.syndrome_circuit code in
  let n = Circuit.qubit_count round in
  let readout = Circuit.of_list n (List.init code.Code.n (fun q -> Gate.Measure q)) in
  Cqasm.emit
    {
      Cqasm.qubit_count = n;
      error_model = None;
      subcircuits = [ ("round", rounds, round); ("readout", 1, readout) ];
    }

let qec ~seed ~smoke =
  let experiments =
    if smoke then
      [ ("surface-d3-r2", Code.rotated_surface 3, 2, 64); ("surface17-r2", Code.surface_17, 2, 64) ]
    else
      [
        ("surface-d5-r5", Code.rotated_surface 5, 5, 256);
        ("surface17-r10", Code.surface_17, 10, 256);
      ]
  in
  let specs =
    List.map
      (fun (label, code, rounds, shots) ->
        let text = memory_source code ~rounds in
        (label, fun i -> Job_spec.make ~label ~shots ~seed:(Closed_loop.job_seed ~seed i) (source label text)))
      experiments
  in
  let s17_label, s17 = List.nth specs 1 in
  let round = Array.of_list (List.map (fun (label, f) -> direct_job ~label f) specs) in
  {
    Closed_loop.round;
    kinds = round;
    quality =
      (fun _ ->
        perfect_quality
          (List.map (fun (_, f) -> Result.get_ok (Job_spec.resolve (f 0))) specs));
    checks =
      (fun _ ->
        (* The planner sends the surface-17 experiment to the tableau; at a
           few shots it must match the forced state-vector plan exactly. *)
        let spec = { (s17 0) with Job_spec.shots = 8 } in
        let forced = { spec with Job_spec.plan = Some Engine.Trajectory } in
        let ok =
          match (Runner.run spec, Runner.run forced) with
          | Ok a, Ok b ->
              a.Runner.report.Engine.plan = Engine.Clifford
              && List.sort compare a.Runner.histogram = List.sort compare b.Runner.histogram
          | _ -> false
        in
        [ (s17_label ^ " on the tableau equals the forced trajectory plan", ok) ]);
  }

(* --- noisy-trajectory -------------------------------------------------------- *)

let noise = 0.001

(* A seeded random circuit ending in measure_all, as cQASM text. *)
let random_source rng ~qubits ~gates =
  Cqasm.emit_circuit (Library.random_circuit rng ~qubits ~gates) ^ "  measure_all\n"

(* Random circuits of one shape differ in their gate mix, and so in cost
   and compiled size; a round runs [variants] circuits of each shape so
   that one seed's draw moves the figures less. *)
let variants = 4

let noisy ~seed ~smoke =
  let rng = Rng.create seed in
  let shapes = if smoke then [ (6, 40, 200); (10, 30, 16) ] else [ (8, 200, 500); (14, 80, 24) ] in
  let jobs =
    List.concat
      (List.init variants (fun k ->
           List.map
             (fun (qubits, gates, shots) ->
               let label = Printf.sprintf "random-%dx%d-%d" qubits gates k in
               let text = random_source rng ~qubits ~gates in
               ( label,
                 fun i ->
                   Job_spec.make ~label ~shots ~noise ~seed:(Closed_loop.job_seed ~seed i)
                     (source label text) ))
             shapes))
  in
  (* Density multiplies dense 2^n x 2^n matrices for every gate and Kraus
     operator, so the exact distribution of an 8-qubit job takes minutes;
     the check runs a 6-qubit circuit from the same seed the same way. *)
  let check_label = "random-6x60" in
  let check_text = random_source rng ~qubits:6 ~gates:60 in
  let check_shots = if smoke then 200 else 2000 in
  let round = Array.of_list (List.map (fun (label, f) -> direct_job ~label f) jobs) in
  (* compiled_* sums 16 circuits of each shape, the executed ones first:
     with only the four executed, one seed's draw moved the sum by 6%. *)
  let extra =
    let rng = Rng.create (seed + 1) in
    List.concat_map
      (fun (qubits, gates, _) ->
        List.init (16 - variants) (fun _ -> Library.random_circuit rng ~qubits ~gates))
      shapes
  in
  {
    Closed_loop.round;
    kinds = Array.sub round 0 (List.length shapes);
    quality =
      (fun _ ->
        perfect_quality
          (List.map (fun (_, f) -> Result.get_ok (Job_spec.resolve (f 0))) jobs @ extra));
    checks =
      (fun _ ->
        (* The sampled histogram against the exact density-matrix
           distribution under the same noise: its total-variation distance
           must stay within 3x of what sampling error alone gives. One seed
           in ten read 1.5-1.7x at 2000 and at 50000 shots alike. *)
        let spec =
          Job_spec.make ~label:check_label ~shots:check_shots ~noise ~seed
            (source check_label check_text)
        in
        let circuit = Result.get_ok (Job_spec.resolve spec) in
        let unitary =
          Circuit.of_list (Circuit.qubit_count circuit)
            (List.filter
               (function Gate.Measure _ -> false | _ -> true)
               (Circuit.instructions circuit))
        in
        let exact = Density.probabilities (Density.run ~noise:(Job_spec.noise_model spec) unitary) in
        let shots = float_of_int spec.Job_spec.shots in
        let tv, expected =
          match Runner.run spec with
          | Error _ -> (infinity, 0.0)
          | Ok o ->
              let sampled = Array.make (Array.length exact) 0.0 in
              List.iter
                (fun (key, c) ->
                  let bits = Engine.classical_of_key key in
                  let index = ref 0 in
                  Array.iteri (fun q b -> if b = 1 then index := !index lor (1 lsl q)) bits;
                  sampled.(!index) <- float_of_int c /. shots)
                o.Runner.histogram;
              let tv = ref 0.0 and expected = ref 0.0 in
              Array.iteri
                (fun k p ->
                  tv := !tv +. (0.5 *. Float.abs (sampled.(k) -. p));
                  expected := !expected +. sqrt (p *. (1.0 -. p) /. (2.0 *. Float.pi *. shots)))
                exact;
              (!tv, !expected)
        in
        [
          ( Printf.sprintf
              "%s within sampling error of the exact density-matrix distribution (TV %.4f, \
               sampling alone %.4f)"
              check_label tv expected,
            tv <= 3.0 *. expected );
        ]);
  }
