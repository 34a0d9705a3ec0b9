(* Benchmark harness for the bounds stackbench does not check (the
   end-to-end, per-layer timings live in stackbench/).

   `dune exec bench/main.exe` prints every experiment table (E1-E13, one
   per paper figure/claim); `dune exec bench/main.exe -- e9` runs one.
   The other ids each measure one bound and write BENCH_<id>.json:
   `resilience`: the cost of the fault-injection hooks when injection is
   disabled;
   `trace`: the cost of the tracing hooks when no collector is installed;
   `kernels`: the seed state-vector kernels against the mask-specialised,
   fused and parallel ones;
   `optimizer`: the gate and depth cut of SABRE + the full optimizer
   against greedy routing + the basic sweep;
   `lint`: static-checker throughput and the pass-verifier's compile-time
   overhead;
   `estimate`: static-estimator throughput (flat and symbolic) and the
   admission oracle's overhead on cache-hot submissions.

   Every timer reads Qca_util.Clock, a monotonic wall clock. *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module Platform = Qca_compiler.Platform
module Compiler = Qca_compiler.Compiler
module Code = Qca_qec.Code
module Json = Qca_util.Json
module Qaoa = Qca_qaoa.Qaoa
module Ising = Qca_anneal.Ising
module Rng = Qca_util.Rng
module Clock = Qca_util.Clock

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

(* The best of [reps] timed calls, in seconds, after one untimed call:
   without it the first arm of a comparison paid the cold caches and lazy
   set-up (the resilience bench's first arm read 1.6x slower than the
   second on the same bell). *)
let time_best ~reps f =
  ignore (Sys.opaque_identity (f ()));
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Clock.now () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Float.max 1e-9 (Clock.now () -. t0))
  done;
  !best

(* Linear interpolation between closest ranks. *)
let percentile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let r = p /. 100.0 *. float_of_int (Array.length a - 1) in
  let lo = int_of_float r in
  let hi = Int.min (Array.length a - 1) (lo + 1) in
  a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* Two arms of a comparison timed in turn, one call of each per pair, the
   arm that goes first alternating, after one untimed call of each: both
   arms then share whatever state the process is in. A best-of-N per arm,
   timed one arm after the other, let a 400-shot bell land in a ~3 ms mode
   for one arm and a ~5 ms mode for the other and read +63%. Returns the
   [(base, other)] seconds of every pair. *)
let time_pairs ~pairs base other =
  let time f =
    let t0 = Clock.now () in
    ignore (Sys.opaque_identity (f ()));
    Float.max 1e-9 (Clock.now () -. t0)
  in
  ignore (Sys.opaque_identity (base ()));
  ignore (Sys.opaque_identity (other ()));
  Array.init pairs (fun i ->
      if i land 1 = 0 then
        let b = time base in
        (b, time other)
      else
        let o = time other in
        (time base, o))

(* The per-pair overhead of [other] over [base] in percent: median, p10
   and p90, with the median seconds of each arm. *)
type overhead = { base_s : float; other_s : float; pct : float; p10 : float; p90 : float }

let overhead_of samples =
  let pcts = Array.map (fun (b, o) -> 100.0 *. ((o -. b) /. b)) samples in
  {
    base_s = percentile (Array.map fst samples) 50.0;
    other_s = percentile (Array.map snd samples) 50.0;
    pct = percentile pcts 50.0;
    p10 = percentile pcts 10.0;
    p90 = percentile pcts 90.0;
  }

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

(* --- resilience overhead benchmark (BENCH_resilience.json) --- *)

let run_resilience () =
  let module Engine = Qca_qx.Engine in
  let module Fault = Qca_util.Fault in
  let module Controller = Qca_microarch.Controller in
  print_endline "=== Resilience: fault-hook overhead with injection disabled ===";
  (* Paired wall times: the comparison is absent hooks (no [?faults]) vs
     attached-but-silent hooks (an injector with every rate 0.0). *)
  let pairs = 101 in
  let bell_program = bell_eqasm () in
  let shots = 400 in
  let micro =
    time_pairs ~pairs
      (fun () -> Controller.run_shots ~seed:7 ~shots Controller.superconducting bell_program)
      (fun () ->
        Controller.run_shots ~seed:7 ~shots ~faults:(Fault.make Fault.off)
          Controller.superconducting bell_program)
  in
  let ghz = measured (Library.ghz 10) in
  let engine =
    time_pairs ~pairs
      (fun () -> Engine.run ~seed:7 ~plan:Engine.Trajectory ~shots:100 ghz)
      (fun () ->
        Engine.run ~seed:7 ~plan:Engine.Trajectory ~shots:100
          ~faults:(Fault.make Fault.off) ghz)
  in
  let report name samples =
    let o = overhead_of samples in
    Printf.printf
      "%-28s baseline %.4fs | hooks-off %.4fs | overhead %+.2f%% (p10 %+.2f%%, p90 %+.2f%%)\n"
      name o.base_s o.other_s o.pct o.p10 o.p90;
    Json.(
      Obj
        [ ("name", String name); ("baseline_s", secs o.base_s); ("hooks_off_s", secs o.other_s);
          ("overhead_pct", fixed 2 o.pct); ("overhead_p10_pct", fixed 2 o.p10);
          ("overhead_p90_pct", fixed 2 o.p90) ])
  in
  let entries =
    [ report "microarch-bell-400shots" micro; report "engine-trajectory-ghz10" engine ]
  in
  write_bench "BENCH_resilience.json"
    Json.(
      Obj
        [ ("benchmark", String "resilience-disabled-overhead"); ("threshold_pct", Float 5.0);
          ("pairs", Int pairs); ("entries", List entries) ])

(* --- tracing overhead benchmark (BENCH_trace.json) --- *)

let run_trace () =
  let module Engine = Qca_qx.Engine in
  let module Controller = Qca_microarch.Controller in
  let module Trace = Qca_util.Trace in
  print_endline "=== Trace: span/counter hook overhead (disabled vs collecting) ===";
  let pairs = 41 in
  (* The disabled hooks are compiled in unconditionally, so their cost can't
     be timed by diffing two workload runs (it is below timer noise). Instead
     measure the disabled-path primitive directly — [with_span] +
     [add_counter] with no sink, [iters] times against an empty loop — and
     scale by the number of hook operations the workload actually performs
     (the collector's [event_count] from an enabled run). *)
  let hook_ns =
    let iters = 5_000_000 in
    let samples =
      time_pairs ~pairs:7
        (fun () ->
          for _ = 1 to iters do
            ignore (Sys.opaque_identity ())
          done)
        (fun () ->
          for _ = 1 to iters do
            Trace.with_span "bench.hook" (fun sp ->
                Trace.annotate sp (fun () -> [ ("k", Trace.Int 1) ]);
                Trace.add_counter "bench.counter" 1)
          done)
    in
    let per_op = Array.map (fun (empty, hooks) -> (hooks -. empty) /. float_of_int iters *. 1e9) samples in
    Float.max 0.0 (percentile per_op 50.0)
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
        let o =
          overhead_of
            (time_pairs ~pairs work (fun () -> Trace.collecting (Trace.make_collector ()) work))
        in
        let disabled_s = o.base_s and enabled_s = o.other_s and enabled_pct = o.pct in
        let trace_ops =
          let c = Trace.make_collector () in
          Trace.collecting c work;
          Trace.event_count c
        in
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
          ("pairs", Int pairs);
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
  (* The seed, specialised and fused arms run on one domain, so the fused
     speedup is single-domain on the wall clock too; only the parallel
     arm gets the pool (with the threshold lowered so every n uses it). *)
  let domains = Parallel.domain_count () in
  Parallel.set_domain_count 1;
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
            Parallel.set_domain_count domains;
            Parallel.set_threshold_qubits 0;
            let par_s = time_best (loop fused_run) in
            Parallel.set_threshold_qubits saved_threshold;
            Parallel.set_domain_count 1;
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
  Parallel.set_domain_count domains;
  Printf.printf "diag-heavy n=20 fused-vs-seed speedup: %.2fx (target 2x)\n"
    !diag_n20_speedup;
  write_bench "BENCH_kernels.json"
    Json.(
      Obj
        [ ("benchmark", String "state-vector-kernels"); ("unit", String "ns_per_amplitude_per_run");
          ("domains", Int (Parallel.domain_count ())); ("threshold_qubits", Int saved_threshold);
          ("diag_n20_speedup_fused_vs_seed", fixed 2 !diag_n20_speedup);
          ("gate_classes", List rows); ("end_to_end", List end_to_end) ])

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
  | [] -> List.iter (fun e -> e ()) Experiments.all
  | [ "resilience" ] -> run_resilience ()
  | [ "trace" ] -> run_trace ()
  | [ "kernels" ] -> run_kernels ()
  | [ "lint" ] -> run_lint ()
  | [ "optimizer" ] -> run_optimizer ()
  | [ "estimate" ] -> run_estimate ()
  | ids ->
      List.iter
        (fun id ->
          match List.assoc_opt (String.lowercase_ascii id) Experiments.by_id with
          | Some e -> e ()
          | None ->
              Printf.eprintf
                "unknown experiment '%s' (use e1..e13, resilience, trace, kernels, \
                 optimizer, lint or estimate)\n"
                id;
              exit 1)
        ids
