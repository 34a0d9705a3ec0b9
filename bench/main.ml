(* Benchmark harness: `dune exec bench/main.exe` prints every experiment
   table (E1-E13, one per paper figure/claim) and then runs the Bechamel
   micro-benchmarks (one Test.make per experiment family).

   `dune exec bench/main.exe -- e9` runs a single experiment;
   `dune exec bench/main.exe -- micro` runs only the micro-benchmarks;
   `dune exec bench/main.exe -- engine` compares the engine's sampled and
   trajectory plans on 1000-shot GHZ histograms and writes
   BENCH_engine.json;
   `dune exec bench/main.exe -- resilience` measures the cost of the fault
   injection hooks when injection is disabled and writes
   BENCH_resilience.json;
   `dune exec bench/main.exe -- kernels` measures the seed state-vector
   kernels against the mask-specialised, fused and parallel ones and
   writes BENCH_kernels.json;
   `dune exec bench/main.exe -- plan` measures the simulation planner's
   Clifford tableau fast path against forced state-vector trajectories and
   the batched-trajectory scaling curve, and writes BENCH_plan.json;
   `dune exec bench/main.exe -- lint` measures static-checker throughput
   and the pass-verifier's compile-time overhead and writes
   BENCH_lint.json;
   `dune exec bench/main.exe -- service` measures multi-tenant job-service
   throughput (distinct vs digest-shared vs cache-hit workloads) and
   writes BENCH_service.json;
   `dune exec bench/main.exe -- estimate` measures static-estimator
   throughput (flat and symbolic) and the admission oracle's overhead on
   cache-hot submissions, and writes BENCH_estimate.json. *)

open Bechamel

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module Sim = Qca_qx.Sim
module Platform = Qca_compiler.Platform
module Compiler = Qca_compiler.Compiler
module Code = Qca_qec.Code
module Decoder = Qca_qec.Decoder
module Tableau = Qca_qec.Tableau
module Pauli = Qca_qec.Pauli
module Json = Qca_util.Json
module Sa = Qca_anneal.Sa
module Chimera = Qca_anneal.Chimera
module Embedding = Qca_anneal.Embedding
module Qaoa = Qca_qaoa.Qaoa
module Ising = Qca_anneal.Ising
module Grover = Qca_genome.Grover
module Tsp = Qca_tsp.Tsp
module Exact = Qca_tsp.Exact
module Encode = Qca_tsp.Encode
module Rng = Qca_util.Rng

(* Every BENCH_*.json artifact is one Json document on one line. Numbers
   are rounded to the precision the tables print: [secs] to the
   microsecond, [fixed d] to [d] decimals. *)
let write_bench file doc =
  let oc = open_out file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  print_endline ("wrote " ^ file)

let fixed digits x = Json.Float (Json.round digits x)
let secs = fixed 6

(* Timers (process CPU time): one call, or the best of [reps] calls. *)
let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Float.max 1e-9 (Sys.time () -. t0))

let time_best ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (snd (time (fun () -> ignore (Sys.opaque_identity (f ())))))
  done;
  !best

let measured = Experiments.measured_circuit

(* Service.submit, failing the bench on a refusal. *)
let submit_ok svc ~tenant spec =
  match Qca_service.Service.submit svc ~tenant spec with
  | Ok _ -> ()
  | Error e -> failwith (Qca_util.Error.to_string e)

(* Bell + measure compiled for the 17-qubit superconducting platform. *)
let bell_eqasm () =
  match
    (Compiler.compile Platform.superconducting_17 Compiler.Real (measured (Library.bell ())))
      .Compiler.eqasm
  with
  | Some p -> p
  | None -> assert false

(* --- one Bechamel test per experiment family --- *)

let micro_tests () =
  let rng = Rng.create 9 in
  let park = Qca.Accelerator.default_park () in
  let tasks = [ Qca.Host.Classical ("c", 10.0); Qca.Host.Offload ("gpu0", "k", 50.0, "") ] in
  let t_e1 =
    Test.make ~name:"e1-host-offload"
      (Staged.stage (fun () -> Qca.Host.run ~accelerators:park tasks))
  in
  let t_e5 =
    Test.make ~name:"e5-ghz16-statevector" (Staged.stage (fun () -> Sim.run (Library.ghz 16)))
  in
  let qft5 = Library.qft 5 in
  let t_e3 =
    Test.make ~name:"e3-compile-qft5-realistic"
      (Staged.stage (fun () ->
           Compiler.compile Platform.superconducting_17 Compiler.Realistic qft5))
  in
  let bell_eqasm = bell_eqasm () in
  let t_e4 =
    Test.make ~name:"e4-microarch-bell"
      (Staged.stage (fun () ->
           (Qca_microarch.Controller.run_shots ~shots:1
              Qca_microarch.Controller.superconducting bell_eqasm)
             .Qca_microarch.Controller.last))
  in
  let noisy = Qca_qx.Noise.depolarizing 0.001 in
  let ghz5 = Library.ghz 5 in
  let t_e6 =
    Test.make ~name:"e6-noisy-ghz5-shot"
      (Staged.stage (fun () -> Sim.run ~noise:noisy ~rng ghz5))
  in
  let surface = Code.surface_17 in
  let decoder = Decoder.build surface in
  let t_e7_decode =
    Test.make ~name:"e7-surface17-decode"
      (Staged.stage (fun () ->
           let e = Pauli.depolarizing_error rng 9 0.01 in
           Decoder.decode_outcome surface decoder e))
  in
  let prepared = Qca_qec.Qec_experiment.prepare_logical_zero surface (Rng.create 3) in
  let t_e7_tableau =
    Test.make ~name:"e7-tableau-syndrome-round"
      (Staged.stage (fun () ->
           let t = Tableau.copy prepared in
           Qca_qec.Qec_experiment.extract_syndrome surface t rng))
  in
  let t_e8 =
    Test.make ~name:"e8-grover-10q"
      (Staged.stage (fun () -> Grover.success_after ~n_qubits:10 ~oracle:(fun k -> k = 37) 3))
  in
  let tsp_qubo = Encode.to_qubo (Tsp.netherlands ()) in
  let sa_params = { Sa.default_params with Sa.sweeps = 200; restarts = 1 } in
  let t_e9_sa =
    Test.make ~name:"e9-sa-tsp16"
      (Staged.stage (fun () -> Sa.minimize_qubo ~params:sa_params ~rng tsp_qubo))
  in
  let model, _ = Ising.of_qubo tsp_qubo in
  let params = { Qaoa.gammas = [| 0.4 |]; betas = [| 0.3 |] } in
  let t_e9_qaoa =
    Test.make ~name:"e9-qaoa-expectation-16q"
      (Staged.stage (fun () -> Qaoa.expectation model params))
  in
  let k6 = Qca_util.Graph.complete 6 (fun _ _ -> 1.0) in
  let c4 = Chimera.graph 4 in
  let t_e10 =
    Test.make ~name:"e10-embed-k6-c4"
      (Staged.stage (fun () -> Embedding.embed ~tries:4 ~rng ~logical:k6 c4))
  in
  let tsp12 = Tsp.random (Rng.create 5) 12 in
  let t_e11 =
    Test.make ~name:"e11-held-karp-12" (Staged.stage (fun () -> Exact.held_karp tsp12))
  in
  let t_e12 =
    Test.make ~name:"e12-rb-seq16"
      (Staged.stage (fun () ->
           Sim.run ~noise:noisy ~rng
             (Qca.Rb.sequence_circuit rng ~qubit:0 ~total_qubits:1 ~length:16)))
  in
  let routed_input =
    Qca_compiler.Decompose.run
      {
        Platform.superconducting_17 with
        Platform.primitives = "swap" :: Platform.superconducting_17.Platform.primitives;
      }
      (Circuit.of_list 17
         (Circuit.instructions (Library.random_circuit (Rng.create 404) ~qubits:10 ~gates:60)))
  in
  let t_e13 =
    Test.make ~name:"e13-route-random10x60"
      (Staged.stage (fun () ->
           Qca_compiler.Mapping.run ~strategy:Qca_compiler.Mapping.Greedy
             Platform.superconducting_17 routed_input))
  in
  [
    t_e1; t_e3; t_e4; t_e5; t_e6; t_e7_decode; t_e7_tableau; t_e8; t_e9_sa; t_e9_qaoa;
    t_e10; t_e11; t_e12; t_e13;
  ]

let run_micro () =
  print_endline "\n=== Bechamel micro-benchmarks (time per run, OLS fit) ===";
  let tests = micro_tests () in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let grouped = Test.make_grouped ~name:"qca" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with Some [ e ] -> e | Some _ | None -> nan
      in
      rows := (name, estimate) :: !rows)
    results;
  Printf.printf "%-40s %16s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-40s %16s\n" name human)
    (List.sort compare !rows)

(* --- engine shot-sampling benchmark (BENCH_engine.json) --- *)

let run_engine () =
  let module Engine = Qca_qx.Engine in
  print_endline "=== Engine shot sampling: sampled vs trajectory plan (GHZ + measure) ===";
  (* Trajectory shots shrink with n (each shot is a full state-vector
     evolution); rates are per-shot, so the speedup column still compares
     like with like. *)
  let rows =
    List.map
      (fun (n, shots, traj_shots) ->
        let circuit = measured (Library.ghz n) in
        let result, sampled_s = time (fun () -> Qca_qx.Engine.run ~seed:42 ~shots circuit) in
        let _, traj_s =
          time (fun () ->
              Qca_qx.Engine.run ~seed:42 ~plan:Engine.Trajectory ~shots:traj_shots circuit)
        in
        let sampled_rate = float_of_int shots /. sampled_s in
        let traj_rate = float_of_int traj_shots /. traj_s in
        let speedup = sampled_rate /. traj_rate in
        Printf.printf
          "n=%-3d plan=%-8s sampled %d shots in %.4fs (%.0f sh/s) | trajectory %d shots \
           in %.4fs (%.0f sh/s) | speedup %.1fx\n"
          n
          (Engine.plan_to_string result.Engine.report.Engine.plan)
          shots sampled_s sampled_rate traj_shots traj_s traj_rate speedup;
        Json.(
          Obj
            [ ("n", Int n); ("shots", Int shots); ("sampled_s", secs sampled_s);
              ("sampled_shots_per_s", fixed 1 sampled_rate); ("trajectory_shots", Int traj_shots);
              ("trajectory_s", secs traj_s); ("trajectory_shots_per_s", fixed 1 traj_rate);
              ("speedup", fixed 2 speedup) ]))
      [ (10, 1000, 200); (16, 1000, 50); (20, 1000, 10) ]
  in
  write_bench "BENCH_engine.json"
    Json.(
      Obj
        [ ("benchmark", String "engine-shot-sampling"); ("circuit", String "ghz+measure");
          ("entries", List rows) ])

(* --- resilience overhead benchmark (BENCH_resilience.json) --- *)

let run_resilience () =
  let module Engine = Qca_qx.Engine in
  let module Fault = Qca_util.Fault in
  let module Controller = Qca_microarch.Controller in
  print_endline "=== Resilience: fault-hook overhead with injection disabled ===";
  (* Best-of-N wall times: the comparison is absent hooks (no [?faults])
     vs attached-but-silent hooks (an injector with every rate 0.0). *)
  let time_best f = time_best ~reps:7 f in
  let bell_program = bell_eqasm () in
  let shots = 400 in
  let micro_base =
    time_best (fun () ->
        Controller.run_shots ~seed:7 ~shots Controller.superconducting bell_program)
  in
  let micro_off =
    time_best (fun () ->
        Controller.run_shots ~seed:7 ~shots ~faults:(Fault.make Fault.off)
          Controller.superconducting bell_program)
  in
  let ghz = measured (Library.ghz 10) in
  let engine_base =
    time_best (fun () -> Engine.run ~seed:7 ~plan:Engine.Trajectory ~shots:100 ghz)
  in
  let engine_off =
    time_best (fun () ->
        Engine.run ~seed:7 ~plan:Engine.Trajectory ~shots:100
          ~faults:(Fault.make Fault.off) ghz)
  in
  let pct base off = 100.0 *. ((off -. base) /. base) in
  let report name base off =
    Printf.printf "%-28s baseline %.4fs | hooks-off %.4fs | overhead %+.2f%%\n" name base
      off (pct base off);
    Json.(
      Obj
        [ ("name", String name); ("baseline_s", secs base); ("hooks_off_s", secs off);
          ("overhead_pct", fixed 2 (pct base off)) ])
  in
  let entries =
    [ report "microarch-bell-400shots" micro_base micro_off;
      report "engine-trajectory-ghz10" engine_base engine_off ]
  in
  write_bench "BENCH_resilience.json"
    Json.(
      Obj
        [ ("benchmark", String "resilience-disabled-overhead"); ("threshold_pct", Float 5.0);
          ("entries", List entries) ])

(* --- tracing overhead benchmark (BENCH_trace.json) --- *)

let run_trace () =
  let module Engine = Qca_qx.Engine in
  let module Controller = Qca_microarch.Controller in
  let module Trace = Qca_util.Trace in
  print_endline "=== Trace: span/counter hook overhead (disabled vs collecting) ===";
  let time_best f = time_best ~reps:7 f in
  (* The disabled hooks are compiled in unconditionally, so their cost can't
     be timed by diffing two workload runs (it is below timer noise). Instead
     measure the disabled-path primitive directly — [with_span] +
     [add_counter] with no sink, [iters] times against an empty loop — and
     scale by the number of hook operations the workload actually performs
     (the collector's [event_count] from an enabled run). *)
  let hook_ns =
    let iters = 5_000_000 in
    let empty =
      time_best (fun () ->
          for _ = 1 to iters do
            ignore (Sys.opaque_identity ())
          done)
    in
    let hooks =
      time_best (fun () ->
          for _ = 1 to iters do
            Trace.with_span "bench.hook" (fun sp ->
                Trace.annotate sp (fun () -> [ ("k", Trace.Int 1) ]);
                Trace.add_counter "bench.counter" 1)
          done)
    in
    Float.max 0.0 (hooks -. empty) /. float_of_int iters *. 1e9
  in
  Printf.printf "disabled hook primitive: %.1f ns per span+counter op\n" hook_ns;
  let bell_program = bell_eqasm () in
  let ghz = measured (Library.ghz 10) in
  let qft5 = Library.qft 5 in
  let workloads =
    [
      ( "microarch-bell-400shots",
        fun () ->
          ignore (Controller.run_shots ~seed:7 ~shots:400 Controller.superconducting
                    bell_program) );
      ( "engine-trajectory-ghz10",
        fun () -> ignore (Engine.run ~seed:7 ~plan:Engine.Trajectory ~shots:100 ghz) );
      ( "engine-sampled-ghz10",
        fun () -> ignore (Engine.run ~seed:7 ~shots:1000 ghz) );
      ( "compile-qft5-real",
        fun () ->
          ignore (Compiler.compile Platform.superconducting_17 Compiler.Real qft5) );
    ]
  in
  let rows =
    List.map
      (fun (name, work) ->
        let disabled_s = time_best work in
        let enabled_s =
          time_best (fun () -> Trace.collecting (Trace.make_collector ()) work)
        in
        let trace_ops =
          let c = Trace.make_collector () in
          Trace.collecting c work;
          Trace.event_count c
        in
        let enabled_pct = 100.0 *. ((enabled_s -. disabled_s) /. disabled_s) in
        (* Cost of the compiled-in hooks when no sink is installed, as a
           fraction of the untraced run: ops x per-op disabled cost. *)
        let disabled_pct =
          float_of_int trace_ops *. hook_ns /. (disabled_s *. 1e9) *. 100.0
        in
        Printf.printf
          "%-26s untraced %.4fs | collecting %.4fs (%+.1f%%) | %d hook ops -> \
           disabled overhead %.3f%%\n"
          name disabled_s enabled_s enabled_pct trace_ops disabled_pct;
        ( disabled_pct,
          Json.(
            Obj
              [ ("name", String name); ("disabled_s", secs disabled_s);
                ("enabled_s", secs enabled_s); ("enabled_overhead_pct", fixed 2 enabled_pct);
                ("trace_ops", Int trace_ops);
                ("disabled_overhead_pct", fixed 4 disabled_pct) ]) ))
      workloads
  in
  let worst = List.fold_left (fun acc (pct, _) -> Float.max acc pct) 0.0 rows in
  Printf.printf "worst disabled overhead: %.3f%% (threshold 3%%)\n" worst;
  write_bench "BENCH_trace.json"
    Json.(
      Obj
        [ ("benchmark", String "trace-disabled-overhead"); ("threshold_pct", Float 3.0);
          ("hook_ns", fixed 2 hook_ns); ("worst_disabled_overhead_pct", fixed 4 worst);
          ("entries", List (List.map snd rows)) ])

(* --- state-vector kernel benchmark (BENCH_kernels.json) --- *)

let run_kernels () =
  let module State = Qca_qx.State in
  let module Engine = Qca_qx.Engine in
  let module Parallel = Qca_util.Parallel in
  print_endline
    "=== Kernels: seed vs specialised vs fused vs parallel (ns per amplitude per run) ===";
  let time_best f = time_best ~reps:5 f in
  let prepared n =
    let s = State.create n in
    for q = 0 to n - 1 do
      State.apply s Gate.H [| q |]
    done;
    s
  in
  (* Each gate class is a run of 8 gates; the timed unit applies the whole
     run [inner] times so the smallest states still get past timer
     resolution. ns/amp is per one application of the run, so a fused
     single-sweep execution shows up directly against 8 seed sweeps. *)
  let classes =
    [
      ("h8", List.init 8 (fun _ -> (Gate.H, [| 0 |])));
      ("t8", List.init 8 (fun _ -> (Gate.T, [| 0 |])));
      ("rz8", List.init 8 (fun i -> (Gate.Rz (0.1 *. float_of_int (i + 1)), [| 0 |])));
      ("cnot8", List.init 8 (fun i -> (Gate.Cnot, [| i mod 2; 2 |])));
      ( "diag8",
        [
          (Gate.T, [| 0 |]); (Gate.Rz 0.3, [| 0 |]); (Gate.Cz, [| 0; 1 |]);
          (Gate.Cphase 0.7, [| 1; 2 |]); (Gate.Tdag, [| 1 |]); (Gate.Rz 0.5, [| 2 |]);
          (Gate.Cz, [| 0; 2 |]); (Gate.S, [| 0 |]);
        ] );
    ]
  in
  let saved_threshold = Parallel.threshold_qubits () in
  let diag_n20_speedup = ref 0.0 in
  let rows =
    List.concat_map
      (fun n ->
        let dim = 1 lsl n in
        let inner = max 1 ((1 lsl 23) / dim) in
        let per_amp seconds = seconds /. float_of_int (inner * dim) *. 1e9 in
        List.map
          (fun (name, run) ->
            let steps, _ =
              Engine.compile_steps ~fusion:true
                (List.map (fun (u, ops) -> Gate.Unitary (u, ops)) run)
            in
            let kernels =
              List.filter_map
                (function Engine.Kernel k -> Some k | Engine.Instr _ -> None)
                steps
            in
            let s = prepared n in
            let loop apply_run () =
              for _ = 1 to inner do
                apply_run ()
              done
            in
            let seed_s =
              time_best
                (loop (fun () ->
                     List.iter (fun (u, ops) -> State.Reference.apply s u ops) run))
            in
            let spec_s =
              time_best
                (loop (fun () -> List.iter (fun (u, ops) -> State.apply s u ops) run))
            in
            let fused_run () = List.iter (Engine.apply_kernel s) kernels in
            let fused_s = time_best (loop fused_run) in
            Parallel.set_threshold_qubits 0;
            let par_s = time_best (loop fused_run) in
            Parallel.set_threshold_qubits saved_threshold;
            let speedup = per_amp seed_s /. per_amp fused_s in
            if name = "diag8" && n = 20 then diag_n20_speedup := speedup;
            Printf.printf
              "n=%-3d %-6s seed %7.2f | specialised %7.2f | fused %7.2f | parallel \
               %7.2f ns/amp | fused speedup %.2fx\n"
              n name (per_amp seed_s) (per_amp spec_s) (per_amp fused_s)
              (per_amp par_s) speedup;
            Json.(
              Obj
                [ ("name", String name); ("n", Int n); ("seed", fixed 3 (per_amp seed_s));
                  ("specialised", fixed 3 (per_amp spec_s)); ("fused", fixed 3 (per_amp fused_s));
                  ("parallel", fixed 3 (per_amp par_s)); ("speedup_fused_vs_seed", fixed 2 speedup)
                ]))
          classes)
      [ 10; 16; 20; 22 ]
  in
  (* End-to-end: full circuits through the seed kernels vs the compiled
     fused plan (state allocation included on both sides). *)
  let end_to_end =
    List.map
      (fun (name, circuit) ->
        let unitaries =
          List.filter_map
            (function Gate.Unitary (u, ops) -> Some (u, ops) | _ -> None)
            (Circuit.instructions circuit)
        in
        let steps, _ =
          Engine.compile_steps ~fusion:true (Circuit.instructions circuit)
        in
        let kernels =
          List.filter_map
            (function Engine.Kernel k -> Some k | Engine.Instr _ -> None)
            steps
        in
        let n = Circuit.qubit_count circuit in
        let seed_s =
          time_best (fun () ->
              let s = State.create n in
              List.iter (fun (u, ops) -> State.Reference.apply s u ops) unitaries)
        in
        let fused_s =
          time_best (fun () ->
              let s = State.create n in
              List.iter (Engine.apply_kernel s) kernels)
        in
        let speedup = seed_s /. fused_s in
        Printf.printf "%-8s seed %.4fs | fused plan %.4fs | speedup %.2fx\n" name
          seed_s fused_s speedup;
        Json.(
          Obj
            [ ("name", String name); ("seed_s", secs seed_s); ("fused_s", secs fused_s);
              ("speedup", fixed 2 speedup) ]))
      [ ("ghz-20", Library.ghz 20); ("qft-16", Library.qft 16) ]
  in
  Printf.printf "diag-heavy n=20 fused-vs-seed speedup: %.2fx (target 2x)\n"
    !diag_n20_speedup;
  write_bench "BENCH_kernels.json"
    Json.(
      Obj
        [ ("benchmark", String "state-vector-kernels"); ("unit", String "ns_per_amplitude_per_run");
          ("domains", Int (Parallel.domain_count ())); ("threshold_qubits", Int saved_threshold);
          ("diag_n20_speedup_fused_vs_seed", fixed 2 !diag_n20_speedup);
          ("gate_classes", List rows); ("end_to_end", List end_to_end) ])

(* --- simulation-planner benchmark (BENCH_plan.json) --- *)

let run_plan () =
  let module Engine = Qca_qx.Engine in
  let module Parallel = Qca_util.Parallel in
  print_endline
    "=== Simulation planner: Clifford tableau fast path + batched trajectories ===";
  let canon h = List.sort compare h in
  (* Clifford-heavy suites: the planner's automatic choice (tableau) against
     the forced single-threaded state-vector trajectory plan — the
     pre-planner path for these feedback/mid-measurement shapes. Trajectory
     shots shrink with n (each shot is a full state-vector evolution); rates
     are per shot, so the speedup column compares like with like. The
     bit-identity column re-runs the auto plan at the trajectory arm's shot
     count and seed and demands the identical histogram. *)
  let suites =
    [
      (* |+> payload keeps the chain all-Clifford (the library default
         teleports an Ry-prepared state). *)
      ( "teleport-x64",
        Circuit.repeat 64 (Library.teleport ~prepare:Gate.H ()),
        1024, 512 );
      ("qec-surface17-r2", Qca.Qec_run.cycle_circuit ~rounds:2 Code.surface_17, 1024, 8);
      ("ghz-22", measured (Library.ghz 22), 1024, 4);
    ]
  in
  let saved_domains = Parallel.domain_count () in
  let clifford_rows =
    List.map
      (fun (name, circuit, shots, traj_shots) ->
        let n = Circuit.qubit_count circuit in
        let auto, auto_s = time (fun () -> Engine.run ~seed:42 ~shots circuit) in
        let plan = auto.Engine.report.Engine.plan in
        if plan <> Engine.Clifford then
          failwith
            (Printf.sprintf "bench plan: %s misclassified as %s" name
               (Engine.plan_to_string plan));
        Parallel.set_domain_count 1;
        let traj, traj_s =
          time (fun () ->
              Engine.run ~seed:42 ~plan:Engine.Trajectory ~shots:traj_shots circuit)
        in
        Parallel.set_domain_count saved_domains;
        let check = Engine.run ~seed:42 ~shots:traj_shots circuit in
        let identical =
          canon check.Engine.histogram = canon traj.Engine.histogram
        in
        if not identical then
          failwith
            (Printf.sprintf
               "bench plan: %s tableau histogram diverges from the state vector"
               name);
        let auto_rate = float_of_int shots /. auto_s in
        let traj_rate = float_of_int traj_shots /. traj_s in
        let speedup = auto_rate /. traj_rate in
        Printf.printf
          "%-18s n=%-3d auto=%s %d shots in %.4fs (%.0f sh/s) | trajectory %d \
           shots in %.4fs (%.1f sh/s) | speedup %.1fx | bit-identical %b\n"
          name n
          (Engine.plan_to_string plan)
          shots auto_s auto_rate traj_shots traj_s traj_rate speedup identical;
        Json.(
          Obj
            [ ("name", String name); ("n", Int n); ("plan", String "clifford");
              ("shots", Int shots); ("clifford_s", secs auto_s);
              ("clifford_shots_per_s", fixed 1 auto_rate);
              ("trajectory_shots", Int traj_shots); ("trajectory_s", secs traj_s);
              ("trajectory_shots_per_s", fixed 2 traj_rate); ("speedup", fixed 2 speedup);
              ("bit_identical", Bool true) ]))
      suites
  in
  (* Trajectory scaling: a non-Clifford circuit forced onto the per-shot
     state-vector plan at several domain-pool sizes. Histograms must be
     bit-identical at every size (per-shot derived RNG streams); the curve
     is honest about the machine — on a single-core container every point
     sits near 1x. *)
  let scaling_circuit =
    measured (Library.random_circuit (Rng.create 77) ~qubits:14 ~gates:80)
  in
  let scaling_shots = 96 in
  Parallel.set_domain_count 1;
  let base_run, base_s =
    time (fun () ->
        Engine.run ~seed:42 ~plan:Qca_qx.Engine.Trajectory ~shots:scaling_shots
          scaling_circuit)
  in
  let scaling_rows =
    List.map
      (fun domains ->
        Parallel.set_domain_count domains;
        let r, dt =
          if domains = 1 then (base_run, base_s)
          else
            time (fun () ->
                Engine.run ~seed:42 ~plan:Qca_qx.Engine.Trajectory
                  ~shots:scaling_shots scaling_circuit)
        in
        let identical = canon r.Engine.histogram = canon base_run.Engine.histogram in
        if not identical then
          failwith
            (Printf.sprintf
               "bench plan: trajectory histogram diverges at %d domains" domains);
        let speedup = base_s /. dt in
        Printf.printf
          "trajectory-scaling random14x80 domains=%-2d %d shots in %.4fs \
           (%.1f sh/s) | speedup vs 1 domain %.2fx | bit-identical %b\n"
          domains scaling_shots dt
          (float_of_int scaling_shots /. dt)
          speedup identical;
        Json.(
          Obj
            [ ("domains", Int domains); ("elapsed_s", secs dt); ("speedup_vs_1", fixed 2 speedup);
              ("bit_identical", Bool true) ]))
      [ 1; 2; 4; 8 ]
  in
  Parallel.set_domain_count saved_domains;
  write_bench "BENCH_plan.json"
    Json.(
      Obj
        [ ("benchmark", String "simulation-planner");
          ("cores", Int (Domain.recommended_domain_count ()));
          ("default_domains", Int saved_domains);
          ("clifford_suites", List clifford_rows);
          ( "trajectory_scaling",
            Obj
              [ ("circuit", String "random14x80"); ("shots", Int scaling_shots);
                ("entries", List scaling_rows) ] ) ])

(* --- job-service throughput benchmark (BENCH_service.json) --- *)

let run_service () =
  let module Service = Qca_service.Service in
  let module Job_spec = Qca.Job_spec in
  print_endline "=== Job service: multi-tenant throughput (jobs/s) ===";
  let tenants = [ "alice"; "bob"; "carol" ] in
  (* Jobs arrive in rounds of one per tenant, with the service drained
     between rounds — so later rounds can be served from the result cache
     when they repeat earlier work. *)
  let submit_rounds svc specs =
    List.iteri
      (fun i spec ->
        let tenant = List.nth tenants (i mod List.length tenants) in
        submit_ok svc ~tenant spec;
        if i mod List.length tenants = List.length tenants - 1 then
          Service.drain svc)
      specs
  in
  (* Three workloads over the same 3-tenant mix:
     - distinct: every job is a different circuit (no sharing possible);
     - batched: every job is the same circuit under a different seed, so
       one state-vector analysis feeds all of them;
     - cached: every job is literally identical, so after the first run
       the rest are result-cache hits. *)
  let jobs = 60 in
  let shots = 2000 in
  let workloads =
    [
      ( "distinct-circuits",
        List.init jobs (fun i ->
            {
              (Job_spec.of_circuit (measured (Library.random_circuit (Rng.create (100 + i)) ~qubits:8 ~gates:40)))
              with
              Job_spec.shots;
              seed = Some i;
            }) );
      ( "shared-digest",
        List.init jobs (fun i ->
            { (Job_spec.of_circuit (measured (Library.ghz 12))) with Job_spec.shots; seed = Some i }) );
      ( "cache-hits",
        List.init jobs (fun _ ->
            { (Job_spec.of_circuit (measured (Library.ghz 12))) with Job_spec.shots; seed = Some 7 }) );
    ]
  in
  let config =
    {
      Service.default_config with
      Service.max_queue = jobs + 1;
      degrade_above = jobs + 1;
      default_quota = { Service.default_quota with Service.max_queued = jobs };
    }
  in
  let rows =
    List.map
      (fun (name, specs) ->
        let svc = Service.create ~config () in
        let (), dt =
          time (fun () ->
              submit_rounds svc specs;
              Service.drain svc)
        in
        let s = Service.stats svc in
        let rate = float_of_int s.Service.completed /. dt in
        Printf.printf
          "%-18s %d jobs x %d shots in %.4fs -> %7.1f jobs/s (shared %d, cache hits %d, slices %d)\n"
          name s.Service.completed shots dt rate s.Service.shared_analyses
          s.Service.cache_hits s.Service.slices;
        Json.(
          Obj
            [ ("name", String name); ("completed", Int s.Service.completed); ("elapsed_s", secs dt);
              ("jobs_per_s", fixed 1 rate); ("shared_analyses", Int s.Service.shared_analyses);
              ("cache_hits", Int s.Service.cache_hits); ("slices", Int s.Service.slices) ]))
      workloads
  in
  (* --- durability scenarios (docs/service.md, docs/resilience.md) --- *)
  let module Spool = Qca_service.Spool in
  let module Fault = Qca_util.Fault in
  let temp_spool name =
    let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
    List.iter
      (fun sub ->
        let d = Filename.concat dir sub in
        if Sys.file_exists d && Sys.is_directory d then
          Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d))
      [ "inbox"; "active"; "results"; "failed"; "cancel"; "tmp" ];
    Spool.init dir;
    dir
  in
  (* One durability scenario: [jobs] handled in [dt] seconds. *)
  let scenario name what jobs dt =
    let rate = float_of_int jobs /. dt in
    Printf.printf "%-19s %d %s in %.4fs -> %7.1f jobs/s\n" name jobs what dt rate;
    Json.(Obj [ ("jobs", Int jobs); ("elapsed_s", secs dt); ("jobs_per_s", fixed 1 rate) ])
  in
  (* Recovery replay: K journaled jobs orphaned by a dead daemon are
     reclaimed and re-executed. The rate is the crash-recovery cost an
     operator pays per journaled job at daemon restart. *)
  let recovery_jobs = 30 in
  let recovery =
    let dir = temp_spool "qca-bench-recovery" in
    let dead_pid = 999_999_999 in
    let s =
      {
        (Job_spec.of_circuit (measured (Library.ghz 10))) with
        Job_spec.shots = 500;
      }
    in
    List.iter
      (fun i ->
        let id =
          match Spool.submit ~dir ~tenant:"bench" { s with Job_spec.seed = Some i } with
          | Ok id -> id
          | Error e -> failwith (Qca_util.Error.to_string e)
        in
        ignore (Spool.claim ~dir ~pid:dead_pid id))
      (List.init recovery_jobs Fun.id);
    let replayed, dt =
      time (fun () ->
          Spool.recover ~dir ~pid:(Unix.getpid ()) ~max_attempts:3
          |> List.filter_map (function
               | Spool.Replay { id; entry = Ok entry; _ } -> (
                   match Qca.Runner.run entry.Spool.spec with
                   | Ok _ ->
                       Spool.write_result ~dir ~id
                         (Json.to_string (Json.Obj [ ("status", Json.String "done") ]));
                       Spool.complete ~dir id;
                       Some id
                   | Error e -> failwith (Qca_util.Error.to_string e))
               | _ -> None))
    in
    assert (List.length replayed = recovery_jobs);
    scenario "recovery-replay" "journaled jobs reclaimed+replayed" recovery_jobs dt
  in
  (* Deadline enforcement: jobs with an exhausted budget must fail fast at
     their first slice boundary, without simulating anything. *)
  let deadline_jobs = 200 in
  let deadline =
    let svc =
      Service.create
        ~config:
          {
            config with
            Service.max_queue = deadline_jobs + 1;
            default_quota =
              { Service.default_quota with Service.max_queued = deadline_jobs };
          }
        ()
    in
    let s =
      {
        (Job_spec.of_circuit (measured (Library.ghz 12))) with
        Job_spec.shots = 2000;
        deadline_ms = Some 0;
      }
    in
    let (), dt =
      time (fun () ->
          List.iter
            (fun i -> submit_ok svc ~tenant:"bench" { s with Job_spec.seed = Some i })
            (List.init deadline_jobs Fun.id);
          Service.drain svc)
    in
    assert ((Service.stats svc).Service.deadline_exceeded = deadline_jobs);
    scenario "deadline-exceeded" "exhausted-budget jobs failed fast" deadline_jobs dt
  in
  (* Disabled kill points must be ~free: their per-call cost against the
     cache-hot per-job cost is the chaos harness's dormant overhead. *)
  Fault.set_crash_at None;
  let calls = 1_000_000 in
  let (), hook_dt =
    time (fun () ->
        for _ = 1 to calls do
          Fault.crash_point "slice"
        done)
  in
  let hook_ns = hook_dt /. float_of_int calls *. 1e9 in
  let hot_ns =
    let svc = Service.create ~config () in
    let s =
      {
        (Job_spec.of_circuit (measured (Library.ghz 12))) with
        Job_spec.shots = 2000;
        seed = Some 7;
      }
    in
    let run_one () =
      submit_ok svc ~tenant:"bench" s;
      Service.drain svc
    in
    run_one ();
    let n = 200 in
    let (), dt =
      time (fun () ->
          for _ = 1 to n do
            run_one ()
          done)
    in
    dt /. float_of_int n *. 1e9
  in
  let hook_pct = 100.0 *. hook_ns /. hot_ns in
  Printf.printf
    "chaos-hooks-off     %.1f ns/kill-point vs %.0f ns cache-hot job -> %.3f%% dormant overhead (target < 5%%)\n"
    hook_ns hot_ns hook_pct;
  write_bench "BENCH_service.json"
    Json.(
      Obj
        [ ("benchmark", String "service-throughput"); ("jobs", Int jobs); ("shots", Int shots);
          ("tenants", Int (List.length tenants));
          ("entries", List rows);
          ( "durability",
            Obj
              [ ("recovery_replay", recovery); ("deadline_enforcement", deadline);
                ( "chaos_hooks_disabled",
                  Obj
                    [ ("ns_per_call", fixed 2 hook_ns); ("cache_hot_job_ns", fixed 0 hot_ns);
                      ("overhead_pct", fixed 4 hook_pct); ("target_pct", Float 5.0) ] ) ] ) ])

(* --- optimizing-compiler benchmark (BENCH_optimizer.json) --- *)

let run_optimizer () =
  let module Mapping = Qca_compiler.Mapping in
  let module Optimize = Qca_compiler.Optimize in
  print_endline
    "=== Optimizer: greedy route + basic sweep vs SABRE + full pipeline ===";
  (* A ring-plus-chords Ising instance: QAOA's cost layers then stress both
     the router (non-local ZZ terms) and the 1q-run resynthesis (each ZZ
     term decomposes through CNOT/Rz sandwiches). *)
  let qaoa n seed =
    let rng = Rng.create seed in
    let ring = List.init n (fun i -> (i, (i + 1) mod n)) in
    let chords = List.init (n / 2) (fun i -> (i, i + (n / 2))) in
    let couplings =
      List.map
        (fun (i, j) ->
          let i, j = if i < j then (i, j) else (j, i) in
          (i, j, Rng.float rng 2.0 -. 1.0))
        (ring @ chords)
    in
    let model =
      { Ising.n; h = Array.init n (fun _ -> Rng.float rng 2.0 -. 1.0); couplings }
    in
    Qaoa.full_circuit model
      { Qaoa.gammas = [| 0.4; 0.7 |]; betas = [| 0.3; 0.2 |] }
  in
  (* The cram-fixture programs (test/fixtures/) rebuilt from the library,
     plus the QFT and QAOA families and routing-heavy random circuits. *)
  let corpus =
    [
      ("bell", measured (Library.bell ()));
      ("ghz5", measured (Library.ghz 5));
      ("teleport", Library.teleport ());
      ("qft4", measured (Library.qft 4));
      ("qft6", Library.qft 6);
      ("qft8", Library.qft 8);
      ("qaoa6-p2", qaoa 6 21);
      ("qaoa8-p2", qaoa 8 22);
      ("random8x40", Library.random_circuit (Rng.create 303) ~qubits:8 ~gates:40);
      ("random10x60", Library.random_circuit (Rng.create 404) ~qubits:10 ~gates:60);
    ]
  in
  let platform = Platform.superconducting_17 in
  let rows =
    List.map
      (fun (name, circuit) ->
        let base =
          Compiler.compile ~strategy:Mapping.Greedy ~optimizer:Optimize.Basic
            platform Compiler.Realistic circuit
        in
        let opt = Compiler.compile platform Compiler.Realistic circuit in
        let bg = Circuit.gate_count base.Compiler.physical in
        let og = Circuit.gate_count opt.Compiler.physical in
        let bd = Circuit.depth base.Compiler.physical in
        let od = Circuit.depth opt.Compiler.physical in
        let b2 = Circuit.two_qubit_gate_count base.Compiler.physical in
        let o2 = Circuit.two_qubit_gate_count opt.Compiler.physical in
        Printf.printf
          "%-12s gates %4d -> %4d (%+5.1f%%) | 2q %3d -> %3d | depth %4d -> %4d \
           (%+5.1f%%)\n"
          name bg og
          (100.0 *. float_of_int (og - bg) /. float_of_int (max 1 bg))
          b2 o2 bd od
          (100.0 *. float_of_int (od - bd) /. float_of_int (max 1 bd));
        ( (bg, og, bd, od),
          Json.(
            Obj
              [ ("name", String name); ("base_gates", Int bg); ("opt_gates", Int og);
                ("base_2q", Int b2); ("opt_2q", Int o2); ("base_depth", Int bd);
                ("opt_depth", Int od) ]) ))
      corpus
  in
  let sum f = List.fold_left (fun acc (counts, _) -> acc + f counts) 0 rows in
  let total_bg = sum (fun (bg, _, _, _) -> bg) in
  let total_og = sum (fun (_, og, _, _) -> og) in
  let total_bd = sum (fun (_, _, bd, _) -> bd) in
  let total_od = sum (fun (_, _, _, od) -> od) in
  let gate_cut = 100.0 *. float_of_int (total_bg - total_og) /. float_of_int total_bg in
  let depth_cut = 100.0 *. float_of_int (total_bd - total_od) /. float_of_int total_bd in
  Printf.printf
    "total        gates %4d -> %4d (-%.1f%%, target 20%%) | depth %4d -> %4d \
     (-%.1f%%, target 15%%)\n"
    total_bg total_og gate_cut total_bd total_od depth_cut;
  write_bench "BENCH_optimizer.json"
    Json.(
      Obj
        [ ("benchmark", String "optimizing-compiler"); ("baseline", String "greedy+basic");
          ("optimized", String "sabre+full"); ("platform", String platform.Platform.name);
          ("mode", String "realistic"); ("gate_cut_pct", fixed 2 gate_cut);
          ("depth_cut_pct", fixed 2 depth_cut); ("target_gate_pct", Float 20.0);
          ("target_depth_pct", Float 15.0);
          ("entries", List (List.map snd rows)) ])

(* --- static checker benchmark (BENCH_lint.json) --- *)

let run_lint () =
  let module Checks = Qca_analysis.Circuit_checks in
  let module Verify = Qca_analysis.Verify in
  print_endline "=== Static checker throughput and pass-verifier overhead ===";
  (* Throughput: the full circuit suite over large random circuits. *)
  let gates = 20_000 in
  let throughput =
    List.map
      (fun n ->
        let c = Library.random_circuit (Rng.create 11) ~qubits:n ~gates in
        let findings = List.length (Checks.check_circuit c) in
        let dt = time_best ~reps:3 (fun () -> Checks.check_circuit c) in
        let rate = float_of_int gates /. dt in
        Printf.printf "n=%-3d %d gates checked in %.4fs (%.0f gates/s, %d findings)\n"
          n gates dt rate findings;
        Json.(Obj [ ("n", Int n); ("check_s", secs dt); ("gates_per_s", fixed 1 rate) ]))
      [ 10; 16; 20 ]
  in
  (* Overhead: the same program compiled with and without the verifier
     observing every pass. Two plain timings bracket the verified one so
     the hook-off noise floor is visible. *)
  let circuit = Library.random_circuit (Rng.create 12) ~qubits:10 ~gates:2_000 in
  let platform = Platform.superconducting_17 in
  (* Warm up allocator and caches so neither arm pays one-time costs, then
     interleave the arms so clock drift hits both equally; min-of-k is the
     robust CPU-time estimator. The two alternating plain minima double as
     the hook-off noise floor. *)
  ignore (Sys.opaque_identity (Compiler.compile platform Compiler.Real circuit));
  ignore (Sys.opaque_identity (Verify.compile platform Compiler.Real circuit));
  let plain_a = ref infinity and plain_b = ref infinity in
  let verified = ref infinity in
  for t = 1 to 12 do
    let tp = time_best ~reps:1 (fun () -> Compiler.compile platform Compiler.Real circuit) in
    let tv = time_best ~reps:1 (fun () -> Verify.compile platform Compiler.Real circuit) in
    let slot = if t land 1 = 0 then plain_a else plain_b in
    if tp < !slot then slot := tp;
    if tv < !verified then verified := tv
  done;
  let plain_a = !plain_a and plain_b = !plain_b and verified = !verified in
  let plain = Float.min plain_a plain_b in
  let on_pct = 100.0 *. (verified -. plain) /. plain in
  let off_pct = 100.0 *. Float.abs (plain_a -. plain_b) /. plain in
  Printf.printf
    "pass-verifier: plain %.4fs, verified %.4fs -> %.1f%% overhead enabled (target < \
     5%%), %.1f%% hook-off noise floor (target ~ 0%%)\n"
    plain verified on_pct off_pct;
  write_bench "BENCH_lint.json"
    Json.(
      Obj
        [ ("benchmark", String "static-checker"); ("circuit", String "random");
          ("gates", Int gates);
          ("throughput", List throughput);
          ( "verifier",
            Obj
              [ ("compile_gates", Int 2000); ("plain_s", secs plain); ("verified_s", secs verified);
                ("overhead_enabled_pct", fixed 2 on_pct);
                ("overhead_disabled_pct", fixed 2 off_pct);
                ("target_enabled_pct", Float 5.0) ] ) ])

(* --- static estimator benchmark (BENCH_estimate.json) --- *)

let run_estimate () =
  let module Estimate = Qca_analysis.Estimate in
  let module Cqasm = Qca_circuit.Cqasm in
  let module Service = Qca_service.Service in
  let module Job_spec = Qca.Job_spec in
  print_endline "=== Static estimator throughput and admission overhead ===";
  (* Throughput over flat circuits: abstract interpretation is one walk,
     so the rate should be flat in n and linear in gates. *)
  let gates = 20_000 in
  let throughput =
    List.map
      (fun n ->
        let c = Library.random_circuit (Rng.create 21) ~qubits:n ~gates in
        let dt = time_best ~reps:5 (fun () -> Estimate.of_circuit c) in
        let rate = float_of_int gates /. dt in
        Printf.printf "n=%-3d %d gates estimated in %.5fs (%.2e gates/s)\n" n
          gates dt rate;
        Json.(Obj [ ("n", Int n); ("estimate_s", secs dt); ("gates_per_s", fixed 1 rate) ]))
      [ 10; 16; 20 ]
  in
  (* The symbolic path: a million-round surface-17 cycle program. The
     interesting number is the effective rate over the gates the unrolled
     circuit would have had. *)
  let rounds = 1_000_000 in
  let round = Qca.Qec_run.cycle_circuit ~rounds:1 Code.surface_17 in
  let program =
    { Cqasm.qubit_count = 17; error_model = None;
      subcircuits = [ ("cycle", rounds, round) ] }
  in
  let sym_s = time_best ~reps:5 (fun () -> Estimate.of_program program) in
  let est = Estimate.of_program program in
  let sym_rate = float_of_int est.Estimate.gates /. sym_s in
  Printf.printf
    "symbolic: surface-17 x %d rounds (%d unrolled gates) in %.2f ms (%.2e gates/s equivalent)\n"
    rounds est.Estimate.gates (sym_s *. 1e3) sym_rate;
  (* Admission-oracle overhead on the service's hot path: a cache-hot
     workload (identical seeded jobs) submitted with the oracle configured
     on vs off. Cache hits consult the cache before the oracle, so the cap
     should cost nothing once the entry is hot — the guard is < 5%. *)
  let spec =
    { (Job_spec.of_circuit (measured (Library.ghz 12))) with Job_spec.shots = 500; seed = Some 7 }
  in
  let hot_jobs = 400 in
  let run_hot config =
    let svc = Service.create ~config () in
    (* Populate the cache, then time the hot submits. *)
    submit_ok svc ~tenant:"alice" spec;
    Service.drain svc;
    time_best ~reps:3 (fun () ->
        for _ = 1 to hot_jobs do
          submit_ok svc ~tenant:"alice" spec
        done;
        Service.drain svc)
  in
  let quota = { Service.default_quota with Service.max_queued = hot_jobs + 1 } in
  let base =
    {
      Service.default_config with
      Service.max_queue = hot_jobs + 1;
      degrade_above = hot_jobs + 1;
      default_quota = quota;
    }
  in
  let oracle_off =
    run_hot { base with Service.admission_max_bytes = 0.0; admission_max_ns = 0.0 }
  in
  let oracle_on =
    run_hot
      { base with Service.admission_max_ns = Estimate.budget_ns_default }
  in
  let overhead_pct = 100.0 *. (oracle_on -. oracle_off) /. oracle_off in
  Printf.printf
    "admission oracle on cache-hot submits: off %.4fs, on %.4fs -> %.1f%% overhead (target < 5%%)\n"
    oracle_off oracle_on overhead_pct;
  write_bench "BENCH_estimate.json"
    Json.(
      Obj
        [ ("benchmark", String "static-estimator"); ("gates", Int gates);
          ("throughput", List throughput);
          ( "symbolic",
            Obj
              [ ("rounds", Int rounds); ("unrolled_gates", Int est.Estimate.gates);
                ("estimate_s", secs sym_s); ("equivalent_gates_per_s", fixed 1 sym_rate) ] );
          ( "admission",
            Obj
              [ ("hot_jobs", Int hot_jobs); ("oracle_off_s", secs oracle_off);
                ("oracle_on_s", secs oracle_on); ("overhead_pct", fixed 2 overhead_pct);
                ("target_pct", Float 5.0) ] ) ])

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] ->
      List.iter (fun e -> e ()) Experiments.all;
      run_micro ()
  | [ "micro" ] -> run_micro ()
  | [ "engine" ] -> run_engine ()
  | [ "resilience" ] -> run_resilience ()
  | [ "trace" ] -> run_trace ()
  | [ "kernels" ] -> run_kernels ()
  | [ "plan" ] -> run_plan ()
  | [ "lint" ] -> run_lint ()
  | [ "optimizer" ] -> run_optimizer ()
  | [ "service" ] -> run_service ()
  | [ "estimate" ] -> run_estimate ()
  | ids ->
      List.iter
        (fun id ->
          match List.assoc_opt (String.lowercase_ascii id) Experiments.by_id with
          | Some e -> e ()
          | None ->
              Printf.eprintf
                "unknown experiment '%s' (use e1..e13, micro, engine, resilience, \
                 trace, kernels, plan, lint, optimizer, service or estimate)\n"
                id;
              exit 1)
        ids
