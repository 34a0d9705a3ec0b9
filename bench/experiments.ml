(* One experiment per figure / quantitative claim of the paper; each prints
   the table or series the paper reports. See DESIGN.md's per-experiment
   index and EXPERIMENTS.md for paper-vs-measured. *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module State = Qca_qx.State
module Sim = Qca_qx.Sim
module Engine = Qca_qx.Engine
module Noise = Qca_qx.Noise
module Platform = Qca_compiler.Platform
module Compiler = Qca_compiler.Compiler
module Schedule = Qca_compiler.Schedule
module Mapping = Qca_compiler.Mapping
module Decompose = Qca_compiler.Decompose
module Eqasm = Qca_compiler.Eqasm
module Controller = Qca_microarch.Controller
module Code = Qca_qec.Code
module Decoder = Qca_qec.Decoder
module Qec_experiment = Qca_qec.Qec_experiment
module Qubo = Qca_anneal.Qubo
module Ising = Qca_anneal.Ising
module Sa = Qca_anneal.Sa
module Sqa = Qca_anneal.Sqa
module Chimera = Qca_anneal.Chimera
module Embedding = Qca_anneal.Embedding
module Digital_annealer = Qca_anneal.Digital_annealer
module Qaoa = Qca_qaoa.Qaoa
module Dna = Qca_genome.Dna
module Reference_db = Qca_genome.Reference_db
module Classical_align = Qca_genome.Classical_align
module Grover = Qca_genome.Grover
module Align = Qca_genome.Align
module Tsp = Qca_tsp.Tsp
module Exact = Qca_tsp.Exact
module Heuristic = Qca_tsp.Heuristic
module Encode = Qca_tsp.Encode
module Amdahl = Qca.Amdahl
module Accelerator = Qca.Accelerator
module Host = Qca.Host
module Rb = Qca.Rb
module Stack = Qca.Stack
module Runner = Qca.Runner
module Trl = Qca.Trl
module Rng = Qca_util.Rng
module Clock = Qca_util.Clock

let header id title =
  Printf.printf "\n=== %s: %s ===\n" id title

let measured_circuit base =
  let n = Circuit.qubit_count base in
  Circuit.append base (Circuit.of_list n (List.init n (fun q -> Gate.Measure q)))

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1 + Amdahl's law *)

let e1 () =
  header "E1" "Figure 1 / Amdahl's law: speedup from heterogeneous accelerators";
  Printf.printf "%-10s" "fraction";
  List.iter (fun s -> Printf.printf " s=%-8.0f" s) [ 10.; 100.; 1000. ];
  Printf.printf " s=inf\n";
  List.iter
    (fun f ->
      Printf.printf "%-10.2f" f;
      List.iter
        (fun s -> Printf.printf " %-10.2f" (Amdahl.speedup ~fraction:f ~factor:s))
        [ 10.; 100.; 1000. ];
      Printf.printf " %-10.2f\n" (Amdahl.limit ~fraction:f))
    [ 0.5; 0.75; 0.9; 0.95; 0.99 ];
  (* Host runtime simulation vs the analytic model. *)
  let accelerators = Accelerator.default_park () in
  let tasks =
    [
      Host.Classical ("pre", 10.0);
      Host.Offload ("gpu0", "dense-kernel", 60.0, "");
      Host.Offload ("qpu0", "quantum-kernel", 25.0, "");
      Host.Classical ("post", 5.0);
    ]
  in
  let exec = Host.run ~accelerators tasks in
  Printf.printf
    "host-runtime simulation: host-only %.1f, accelerated %.2f, speedup %.2fx (analytic \
     %.2fx)\n"
    exec.Host.host_only_time exec.Host.total_time exec.Host.speedup
    (Host.amdahl_prediction ~accelerators tasks)

(* ------------------------------------------------------------------ *)
(* E2 — Figures 2 & 3: the two stacks on the same logic *)

let e2 () =
  header "E2" "Figures 2-3: the same quantum logic on the perfect and real stacks";
  let logic = measured_circuit (Library.ghz 3) in
  let ghz_accept key =
    let n = String.length key in
    let bit i = key.[n - 1 - i] in
    bit 0 <> '-' && bit 0 = bit 1 && bit 1 = bit 2
  in
  Printf.printf "%-36s %-10s %-12s %-10s\n" "stack" "qubits" "P(GHZ)" "microarch";
  List.iter
    (fun stack ->
      let run =
        match Runner.run ~rng:(Rng.create 42) (Stack.spec ~shots:400 stack logic) with
        | Ok o -> o
        | Error e -> failwith (Qca_util.Error.to_string e)
      in
      let p = Runner.success_probability run ~accept:ghz_accept in
      Printf.printf "%-36s %-10d %-12.3f %-10s\n" stack.Stack.stack_name
        stack.Stack.platform.Platform.qubit_count p
        (match run.Runner.microarch_stats with Some _ -> "yes" | None -> "no"))
    [
      Stack.genome ~qubits:3 ();
      Stack.realistic_of (Stack.genome ~qubits:3 ());
      Stack.superconducting ();
    ];
  print_endline "(perfect stack verifies the logic; the real stack adds noise + timing)"

(* ------------------------------------------------------------------ *)
(* E3 — Figure 4: compiler infrastructure, pass-by-pass *)

let e3 () =
  header "E3" "Figure 4: OpenQL-style compiler, pass-by-pass statistics";
  let kernels =
    [
      Library.bell ();
      Library.ghz 8;
      Library.qft 5;
      Library.cuccaro_adder 3;
      Grover.circuit ~n_qubits:4 ~pattern:11;
    ]
  in
  List.iter
    (fun circuit ->
      let out = Compiler.compile Platform.superconducting_17 Compiler.Realistic circuit in
      print_string (Compiler.report out))
    kernels;
  (* Scheduling-policy ablation. *)
  print_endline "scheduling ablation (qft-5 on superconducting-17):";
  let qft = Decompose.run Platform.superconducting_17
      (Circuit.of_list 17 (Circuit.instructions (Library.qft 5)))
  in
  List.iter
    (fun (name, policy, limit) ->
      let s = Schedule.run ~policy ?max_parallel_two_qubit:limit Platform.superconducting_17 qft in
      Printf.printf "  %-22s makespan %-6d parallelism %-6.2f peak %d\n" name
        s.Schedule.makespan (Schedule.parallelism s) (Schedule.max_concurrency s))
    [
      ("asap", Schedule.Asap, None);
      ("alap", Schedule.Alap, None);
      ("asap, max 1x 2q gate", Schedule.Asap, Some 1);
      ("asap, max 2x 2q gate", Schedule.Asap, Some 2);
    ]

(* ------------------------------------------------------------------ *)
(* E4 — Figures 5-6: micro-architecture execution + retargeting *)

let e4 () =
  header "E4" "Figures 5-6: cycle-accurate micro-architecture, retargeting by config";
  let rb_circuit length =
    Rb.sequence_circuit (Rng.create 5) ~qubit:0 ~total_qubits:1 ~length
  in
  Printf.printf "%-16s %-8s %-9s %-10s %-11s %-10s %-11s\n" "technology" "rb-len" "bundles"
    "micro-ops" "total-ns" "peak-queue" "violations";
  List.iter
    (fun (name, (platform, technology)) ->
      List.iter
        (fun length ->
          let circuit =
            Circuit.of_list platform.Platform.qubit_count
              (Circuit.instructions (rb_circuit length))
          in
          let out = Compiler.compile platform Compiler.Real circuit in
          match out.Compiler.eqasm with
          | None -> ()
          | Some program ->
              let result =
                (Controller.run_shots ~shots:1 technology program).Controller.last
              in
              let s = result.Controller.stats in
              Printf.printf "%-16s %-8d %-9d %-10d %-11d %-10d %-11d\n" name length
                s.Controller.bundles_issued s.Controller.micro_ops s.Controller.total_ns
                s.Controller.peak_queue_depth s.Controller.timing_violations)
        [ 4; 16; 64 ])
    Qca.Job_spec.devices;
  print_endline
    "(same logic, same micro-architecture; only the configuration file and micro-code \
     table changed — the paper's retargeting claim)";
  (* Power-budget view (section 2.5 mentions power consumption): integrated
     pulse energy per technology for the same RB-64 run. *)
  Printf.printf "%-16s %-16s %-18s\n" "technology" "pulses-emitted" "pulse-energy (a.u.)";
  List.iter
    (fun (name, (platform, technology)) ->
      let circuit =
        Circuit.of_list platform.Platform.qubit_count
          (Circuit.instructions (rb_circuit 64))
      in
      let out = Compiler.compile platform Compiler.Real circuit in
      match out.Compiler.eqasm with
      | None -> ()
      | Some program ->
          let result =
            (Controller.run_shots ~shots:1 technology program).Controller.last
          in
          let energy =
            List.fold_left
              (fun acc e ->
                match Qca_microarch.Adi.find technology.Controller.pulses e.Controller.pulse_name with
                | Some p -> acc +. Qca_microarch.Adi.energy p
                | None -> acc)
              0.0 result.Controller.trace
          in
          Printf.printf "%-16s %-16d %-18.1f\n" name (List.length result.Controller.trace)
            energy)
    Qca.Job_spec.devices

(* ------------------------------------------------------------------ *)
(* E5 — Section 2.7: QX scaling, "35 fully-entangled qubits on a laptop" *)

let e5 () =
  header "E5" "Section 2.7: QX state-vector scaling (GHZ, fully entangled)";
  Printf.printf "%-8s %-14s %-14s %-12s\n" "qubits" "memory" "time-s" "gates/s";
  let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0) in
  List.iter
    (fun n ->
      let t0 = Clock.now () in
      let result = Sim.run (Library.ghz n) in
      let dt = Clock.now () -. t0 in
      ignore (State.probability_of result.Sim.state 0);
      Printf.printf "%-8d %-14s %-14.4f %-12.0f\n" n
        (Printf.sprintf "%.1f MiB" (mib (State.memory_bytes n)))
        dt
        (float_of_int n /. Float.max 1e-9 dt))
    [ 8; 12; 16; 18; 20; 22; 24 ];
  Printf.printf "extrapolation: 35 qubits needs %.0f GiB of amplitudes "
    (float_of_int (State.memory_bytes 35) /. (1024.0 ** 3.0));
  print_endline "(the paper's laptop figure assumes single precision + compression;";
  print_endline " our double-precision engine reaches ~26-28 qubits per 16 GiB, same shape)";
  (* Shot batching: terminal measurements simulate once and sample, so a
     1000-shot histogram no longer costs 1000 state-vector evolutions. *)
  let circuit = measured_circuit (Library.ghz 16) in
  let result = Engine.run ~seed:42 ~shots:1000 circuit in
  let report = result.Engine.report in
  Printf.printf
    "engine: ghz-16 x 1000 shots -> plan=%s, simulate %.4fs + sample %.4fs, %d gate applies\n"
    (Engine.plan_to_string report.Engine.plan)
    report.Engine.wall.Engine.simulate_s report.Engine.wall.Engine.sample_s
    (List.fold_left (fun acc (_, c) -> acc + c) 0 report.Engine.gate_applies);
  print_endline "(one evolution feeds all 1000 shots; per-shot trajectories would apply every gate 1000 times)"

(* ------------------------------------------------------------------ *)
(* E6 — Section 2.7: error-rate sweep 1e-2 .. 1e-6 *)

let e6 () =
  header "E6" "Section 2.7: success probability vs error rate (1e-2 .. 1e-6)";
  let circuits =
    [ ("ghz-5", measured_circuit (Library.ghz 5), fun bits -> Array.for_all (fun b -> b = bits.(0)) bits);
      ("qft+iqft-4", measured_circuit (Circuit.append (Library.qft 4) (Library.qft_inverse 4)),
       fun bits -> Array.for_all (fun b -> b = 0) bits);
    ]
  in
  Printf.printf "%-12s" "rate";
  List.iter (fun (name, _, _) -> Printf.printf " %-12s" name) circuits;
  print_newline ();
  List.iter
    (fun p ->
      Printf.printf "%-12.0e" p;
      List.iter
        (fun (_, circuit, accept) ->
          let rng = Rng.create 11 in
          let success =
            Engine.success_probability
              (Engine.run ~noise:(Noise.depolarizing p) ~rng ~shots:1200 circuit)
              ~accept
          in
          Printf.printf " %-12.4f" success)
        circuits;
      print_newline ())
    [ 1e-2; 3e-3; 1e-3; 1e-4; 1e-5; 1e-6 ];
  print_endline "(current hardware sits at the 1e-2/1e-3 rows; the paper asks what 1e-5/1e-6 buys)"

(* ------------------------------------------------------------------ *)
(* E7 — QEC: logical error rates and the >90% overhead claim *)

let e7 () =
  header "E7" "Sections 2.1/2.4: QEC — small codes vs Surface-17, overhead";
  let codes =
    [
      Code.bit_flip_repetition 3; Code.bit_flip_repetition 5; Code.steane;
      Code.surface_17; Code.rotated_surface 5;
    ]
  in
  let decoders = List.map (fun c -> (c, Decoder.build ~max_weight:(min 2 c.Code.distance) c)) codes in
  Printf.printf "%-12s" "p_physical";
  List.iter (fun c -> Printf.printf " %-16s" c.Code.name) codes;
  print_newline ();
  List.iter
    (fun p ->
      Printf.printf "%-12.0e" p;
      List.iter
        (fun (code, decoder) ->
          let rng = Rng.create 1301 in
          let rate = Decoder.logical_error_rate ~trials:20000 ~rng code decoder ~physical_error:p in
          Printf.printf " %-16.5f" rate)
        decoders;
      print_newline ())
    [ 3e-2; 1e-2; 3e-3; 1e-3; 3e-4 ];
  (* Circuit-level noise: faults inside the extraction circuit itself. *)
  print_endline "circuit-level (faulty CNOTs/preps/measurements, d rounds) vs code capacity:";
  Printf.printf "%-12s %-18s %-18s\n" "p" "surface17-capacity" "surface17-circuit";
  List.iter
    (fun p ->
      let code = Code.surface_17 in
      let decoder = Decoder.build code in
      let rng = Rng.create 4242 in
      let capacity =
        Decoder.logical_error_rate ~trials:12000 ~rng code decoder ~physical_error:p
      in
      let circuit =
        Qca_qec.Pauli_frame.logical_error_rate ~trials:12000 ~rng code decoder
          ~gate_error:p ~measurement_error:p
      in
      Printf.printf "%-12.0e %-18.5f %-18.5f\n" p capacity circuit)
    [ 1e-2; 3e-3; 1e-3; 3e-4 ];
  (* Faulty measurements: repeated extraction with majority vote. *)
  print_endline "with measurement errors (repetition-3, p=1e-2, majority over rounds):";
  List.iter
    (fun rounds ->
      let code = Code.bit_flip_repetition 3 in
      let decoder = Decoder.build code in
      let rng = Rng.create 7107 in
      let rate =
        Decoder.logical_error_rate_with_measurement ~trials:8000 ~rounds ~rng code decoder
          ~physical_error:0.01 ~measurement_error:0.05
      in
      Printf.printf "  rounds=%d  logical=%.5f\n" rounds rate)
    [ 1; 3; 5; 7 ];
  (* Overhead accounting. *)
  List.iter
    (fun (code, rounds) ->
      let o = Qec_experiment.overhead_of ~rounds_per_logical_op:rounds code in
      Printf.printf
        "%s: %d physical qubits/logical, %d QEC ops per round x%d, QEC share %.1f%%\n"
        code.Code.name o.Qec_experiment.physical_qubits o.Qec_experiment.qec_ops_per_round
        rounds
        (100.0 *. o.Qec_experiment.qec_fraction))
    [ (Code.bit_flip_repetition 3, 1); (Code.surface_17, 1); (Code.surface_17, 3) ];
  print_endline "(paper: guaranteeing fault tolerance \"can easily consume more than 90%\")"

(* ------------------------------------------------------------------ *)
(* E8 — Figure 7 / section 3.2: genome accelerator *)

let e8 () =
  header "E8" "Figure 7 / section 3.2: Grover read alignment vs classical scan";
  let rng = Rng.create 2020 in
  let reference = Dna.markov (Rng.create 7) 512 in
  let width = 12 in
  let db = Reference_db.build reference ~width in
  Printf.printf "reference %d bp -> %d entries, %d index qubits (+%d content)\n"
    (Dna.length reference) (Reference_db.size db) (Reference_db.index_qubits db)
    (Reference_db.content_qubits db);
  (* Alignment accuracy with read errors. *)
  List.iter
    (fun error_rate ->
      let reads =
        List.init 20 (fun i ->
            Dna.mutate rng ~rate:error_rate (Reference_db.entry db ((i * 23) mod Reference_db.size db)))
      in
      let reports, accuracy = Align.align_many ~rng db reads in
      let mean_success =
        List.fold_left (fun acc r -> acc +. r.Align.grover.Grover.success_probability) 0.0 reports
        /. float_of_int (List.length reports)
      in
      Printf.printf "read error %.2f: alignment accuracy %.2f, mean Grover success %.3f\n"
        error_rate accuracy mean_success)
    [ 0.0; 0.05; 0.10 ];
  (* Quadratic speedup shape. *)
  Printf.printf "\n%-10s %-14s %-14s %-10s\n" "entries" "classical" "grover" "speedup";
  List.iter
    (fun bits ->
      let n = 1 lsl bits in
      let classical = Classical_align.expected_queries_classical n in
      let grover = Grover.optimal_iterations ~matches:1 ~size:n in
      Printf.printf "%-10d %-14.0f %-14d %-10.1f\n" n classical grover
        (classical /. float_of_int grover))
    [ 8; 10; 12; 14; 16; 18; 20 ];
  Printf.printf "human-genome logical-qubit estimate: %d (paper: ~150)\n"
    (Align.human_genome_logical_qubit_estimate ());
  (* The other reconstruction mode of section 3.2: de novo assembly as
     graph-based combinatorial optimisation. *)
  print_endline "\nde novo assembly (shotgun reads, no reference):";
  Printf.printf "%-8s %-8s %-14s %-14s %-14s %-10s\n" "reads" "qubits" "greedy-overlap"
    "exact-overlap" "anneal-overlap" "recovered";
  List.iter
    (fun seed ->
      let reference = Qca_genome.Dna.markov (Rng.create (700 + seed)) 48 in
      let reads =
        Qca_genome.Assembly.shotgun (Rng.create (800 + seed)) ~reference ~read_length:14
          ~coverage:2.0
      in
      let g = Qca_genome.Assembly.greedy reads in
      let e = Qca_genome.Assembly.exact reads in
      let a = Qca_genome.Assembly.anneal ~rng:(Rng.create (900 + seed)) reads in
      let recovered =
        Qca_genome.Dna.to_string g.Qca_genome.Assembly.assembled
        = Qca_genome.Dna.to_string reference
        || Qca_genome.Dna.to_string e.Qca_genome.Assembly.assembled
           = Qca_genome.Dna.to_string reference
      in
      Printf.printf "%-8d %-8d %-14d %-14d %-14d %-10s\n" (Array.length reads)
        (Qca_genome.Assembly.qubits_needed (Array.length reads))
        g.Qca_genome.Assembly.total_overlap e.Qca_genome.Assembly.total_overlap
        a.Qca_genome.Assembly.total_overlap
        (if recovered then "yes" else "partial"))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* E9 — Figure 9: four-city TSP on every backend *)

let e9 () =
  header "E9" "Figure 9: 4-city Dutch TSP, 16-qubit QUBO, all backends";
  let t = Tsp.netherlands () in
  let tour_str tour =
    tour |> Array.to_list |> List.map (fun c -> t.Tsp.cities.(c)) |> String.concat "->"
  in
  let optimal_tour, optimal_cost = Exact.enumerate t in
  Printf.printf "exact optimum %.4f (paper: 1.42): %s\n" optimal_cost (tour_str optimal_tour);
  let q = Encode.to_qubo t in
  Printf.printf "QUBO: %d variables (paper: 16)\n" (Qubo.size q);
  Printf.printf "%-22s %-10s %-8s\n" "backend" "cost" "optimal?";
  let record name bits =
    let tour =
      match Encode.decode t bits with
      | Some tour -> tour
      | None -> Encode.decode_with_repair t bits
    in
    let cost = Tsp.tour_cost t tour in
    Printf.printf "%-22s %-10.4f %-8s\n" name cost
      (if Float.abs (cost -. optimal_cost) < 1e-9 then "yes" else "no")
  in
  let rng = Rng.create 1234 in
  let sa_bits, _ =
    Sa.minimize_qubo ~params:{ Sa.default_params with Sa.restarts = 8 } ~rng q
  in
  record "simulated annealing" sa_bits;
  let sa_geo_bits, _ =
    Sa.minimize_qubo
      ~params:{ Sa.sweeps = 1500; schedule = Sa.Geometric (0.05, 1.005); restarts = 6 }
      ~rng q
  in
  record "SA (geometric)" sa_geo_bits;
  let sqa_bits, _ =
    Sqa.minimize_qubo ~params:{ Sqa.default_params with Sqa.sweeps = 1200; restarts = 4 } ~rng q
  in
  record "simulated quantum" sqa_bits;
  let da = Digital_annealer.minimize ~steps:4000 ~rng q in
  record "digital annealer" da.Digital_annealer.bits;
  let qaoa_bits, _ = Qaoa.solve_qubo ~layers:2 ~restarts:3 ~shots:4096 ~rng q in
  record "QAOA p=2 (gate)" qaoa_bits;
  let _, nn_cost = Heuristic.nearest_neighbour_two_opt t in
  Printf.printf "%-22s %-10.4f %-8s\n" "NN + 2-opt (classic)" nn_cost
    (if Float.abs (nn_cost -. optimal_cost) < 1e-9 then "yes" else "no");
  (* Annealing-budget ablation: probability of hitting the optimum vs sweeps
     (the time-to-solution view of the same 16-qubit QUBO). *)
  print_endline "success probability vs annealing budget (20 runs each):";
  Printf.printf "%-10s %-12s %-12s\n" "sweeps" "SA-linear" "SA-geometric";
  List.iter
    (fun sweeps ->
      let hit schedule seed =
        let params = { Sa.sweeps; schedule; restarts = 1 } in
        let bits, _ = Sa.minimize_qubo ~params ~rng:(Rng.create seed) q in
        match Encode.decode t bits with
        | Some tour -> Float.abs (Tsp.tour_cost t tour -. optimal_cost) < 1e-9
        | None -> false
      in
      let rate schedule =
        let hits = ref 0 in
        for seed = 1 to 20 do
          if hit schedule (1000 + (seed * 17) + sweeps) then incr hits
        done;
        float_of_int !hits /. 20.0
      in
      Printf.printf "%-10d %-12.2f %-12.2f\n" sweeps
        (rate (Sa.Linear (0.1, 5.0)))
        (rate (Sa.Geometric (0.05, 1.01))))
    [ 20; 50; 100; 300; 1000 ]

(* ------------------------------------------------------------------ *)
(* E10 — Section 3.3: capacity comparison (9 / 90 / 85900, n^2 growth) *)

let e10 () =
  header "E10" "Section 3.3: annealer capacity (qubits grow as n^2)";
  Printf.printf "%-8s %-10s %-22s %-18s\n" "cities" "qubits" "2000Q-embedding" "chain-stats";
  let max_embedded = ref 0 in
  List.iter
    (fun cities ->
      let qubits = Encode.qubits_needed cities in
      let t = Tsp.random (Rng.create (50 + cities)) cities in
      let q = Encode.to_qubo t in
      let logical = Qubo.interaction_graph q in
      let rng = Rng.create (900 + cities) in
      match Embedding.embed_in_chimera ~tries:4 ~rng ~m:16 logical with
      | Some (e, method_used) ->
          max_embedded := cities;
          Printf.printf "%-8d %-10d %-22s used=%d max-chain=%d\n" cities qubits
            (match method_used with
            | Embedding.Heuristic -> "yes (heuristic)"
            | Embedding.Clique -> "yes (clique)")
            e.Embedding.physical_used e.Embedding.max_chain_length
      | None -> Printf.printf "%-8d %-10d %-22s\n" cities qubits "no (embedding failed)")
    [ 4; 5; 6; 7; 8; 9; 10; 11 ];
  Printf.printf
    "largest embeddable on ideal C16: %d cities (paper: 9 with minorminer, fails at 10)\n"
    !max_embedded;
  Printf.printf "clique-embedding guarantee on C16: K%d -> %d cities\n"
    (Chimera.max_clique_minor 16 - 1)
    (Embedding.max_clique_cities ~m:16);
  Printf.printf "Fujitsu DA (8192 fully connected): %d cities (paper: 90)\n"
    (Digital_annealer.max_tsp_cities ());
  print_endline "classical exact record cited by the paper (branch and bound): 85900 cities"

(* ------------------------------------------------------------------ *)
(* E11 — Figure 10: TRL projections *)

let e11 () =
  header "E11" "Figure 10: TRL development projections, both tracks";
  Printf.printf "%-6s %-14s %-12s %s\n" "year" "accelerator" "chip" "phase";
  List.iter
    (fun (year, a, c, phase) ->
      Printf.printf "%-6d %-14.2f %-12.2f %s\n" year a c (Trl.phase_to_string phase))
    (Trl.table ~first_year:2019 ~last_year:2035);
  Printf.printf "accelerator track reaches TRL %.0f in %.1f; chip track in %.1f\n"
    Trl.adoption_threshold
    (Trl.year_reaching Trl.Accelerator_logic ~level:Trl.adoption_threshold)
    (Trl.year_reaching Trl.Quantum_chip ~level:Trl.adoption_threshold)

(* ------------------------------------------------------------------ *)
(* E12 — Section 3.1: randomised benchmarking *)

let e12 () =
  header "E12" "Section 3.1: randomised benchmarking decay";
  List.iter
    (fun (name, noise) ->
      let rng = Rng.create 77 in
      let decay =
        Rb.run ~lengths:[ 1; 2; 4; 8; 16; 32; 64 ] ~sequences:6 ~shots:128 ~noise ~rng ()
      in
      Printf.printf "%s:\n  m:        " name;
      List.iter (fun p -> Printf.printf "%8d" p.Rb.sequence_length) decay.Rb.points;
      Printf.printf "\n  survival: ";
      List.iter (fun p -> Printf.printf "%8.3f" p.Rb.survival) decay.Rb.points;
      Printf.printf "\n  fit p = %.5f -> error/Clifford = %.5f\n" decay.Rb.p
        decay.Rb.error_per_clifford)
    [
      ("depolarizing 1e-3 (paper's ~0.1% rate)", Noise.depolarizing 0.001);
      ("superconducting model (gates + T1/T2 + readout)", Noise.superconducting);
    ];
  (* Two-qubit RB (the paper benchmarks "one or two qubits"). *)
  let rng = Rng.create 78 in
  let decay2 =
    Qca.Rb2.run ~lengths:[ 1; 2; 4; 8; 16 ] ~sequences:4 ~shots:64
      ~noise:(Noise.depolarizing 0.002) ~rng ()
  in
  Printf.printf "two-qubit RB (11520-element Clifford group, depolarizing 2e-3):\n  m:        ";
  List.iter (fun (m, _) -> Printf.printf "%8d" m) decay2.Qca.Rb2.points;
  Printf.printf "\n  survival: ";
  List.iter (fun (_, s) -> Printf.printf "%8.3f" s) decay2.Qca.Rb2.points;
  Printf.printf "\n  fit p = %.5f -> error/2q-Clifford = %.5f (avg %.1f gates per Clifford)\n"
    decay2.Qca.Rb2.p decay2.Qca.Rb2.error_per_clifford
    (Qca.Rb2.average_gate_count ())

(* ------------------------------------------------------------------ *)
(* E13 — Section 2.6: mapping and routing overhead *)

let e13 () =
  header "E13" "Section 2.6: placement & routing overhead (NN topology vs all-to-all)";
  let grid17 = Platform.superconducting_17 in
  let benchmarks =
    [
      ("ghz-8", Library.ghz 8);
      ("qft-5", Library.qft 5);
      ("adder-3", Library.cuccaro_adder 3);
      ("random-10x60", Library.random_circuit (Rng.create 404) ~qubits:10 ~gates:60);
    ]
  in
  Printf.printf "%-14s %-10s %-12s %-12s %-12s %-12s\n" "kernel" "2q-gates" "swaps-greedy"
    "swaps-sabre" "gate-ovh" "latency-ovh";
  List.iter
    (fun (name, circuit) ->
      let widened = Circuit.of_list 17 (Circuit.instructions circuit) in
      let lowered = Decompose.run { grid17 with Platform.primitives = "swap" :: grid17.Platform.primitives } widened in
      let greedy = Mapping.run ~strategy:Mapping.Greedy grid17 lowered in
      let sabre = Mapping.run ~strategy:Mapping.Sabre grid17 lowered in
      let gate_ovh, latency_ovh = Mapping.overhead grid17 greedy ~original:lowered in
      Printf.printf "%-14s %-10d %-12d %-12d %-12.2f %-12.2f\n" name
        (Circuit.two_qubit_gate_count lowered)
        greedy.Mapping.swaps_added sabre.Mapping.swaps_added gate_ovh latency_ovh)
    benchmarks;
  (* Placement ablation. *)
  print_endline "placement ablation (random-10x60):";
  let circuit = Library.random_circuit (Rng.create 404) ~qubits:10 ~gates:60 in
  let widened = Circuit.of_list 17 (Circuit.instructions circuit) in
  let lowered =
    Decompose.run { grid17 with Platform.primitives = "swap" :: grid17.Platform.primitives } widened
  in
  List.iter
    (fun (name, placement) ->
      let r = Mapping.run ~strategy:Mapping.Greedy ~placement grid17 lowered in
      Printf.printf "  %-12s swaps=%d\n" name r.Mapping.swaps_added)
    [ ("trivial", Mapping.Trivial); ("by-degree", Mapping.By_degree) ];
  print_endline "(all-to-all / perfect qubits need 0 swaps by definition)";
  (* Section 5: qubit routing as in-memory computing. *)
  print_endline "section 5: data movements per architecture (qft-5 workload on the 17q grid):";
  let pressure = Qca.In_memory.measure_routing grid17 (Library.qft 5) in
  let workload =
    {
      Qca.In_memory.operations = pressure.Qca.In_memory.two_qubit_gates;
      operands_per_op = 2;
      locality = pressure.Qca.In_memory.locality_measured;
    }
  in
  List.iter
    (fun (name, moves) -> Printf.printf "  %-28s %8.1f movements\n" name moves)
    (Qca.In_memory.comparison_table workload
       ~movement_per_distant_op:pressure.Qca.In_memory.swaps_per_interaction);
  Printf.printf
    "  measured: %d 2q interactions, %d swaps, locality %.2f, %.2f swaps/interaction\n"
    pressure.Qca.In_memory.two_qubit_gates pressure.Qca.In_memory.swaps_inserted
    pressure.Qca.In_memory.locality_measured pressure.Qca.In_memory.swaps_per_interaction

let all = [ e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13 ]

let by_id =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7);
    ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13);
  ]
