(* Tests for the qca core: qubit models, Amdahl, host runtime, RB and the
   three full-stack instances. *)

module Qubit_model = Qca.Qubit_model
module Amdahl = Qca.Amdahl
module Accelerator = Qca.Accelerator
module Host = Qca.Host
module Rb = Qca.Rb
module Stack = Qca.Stack
module Runner = Qca.Runner
module Trl = Qca.Trl
module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module Noise = Qca_qx.Noise
module Rng = Qca_util.Rng
module Platform = Qca_compiler.Platform
module Compiler = Qca_compiler.Compiler

let check_float = Alcotest.(check (float 1e-9))

(* --- qubit models --- *)

let test_qubit_models () =
  Alcotest.(check int) "three models" 3 (List.length Qubit_model.all);
  Alcotest.(check bool) "perfect is ideal" true
    (Noise.is_ideal (Qubit_model.noise Qubit_model.Perfect Qca_compiler.Platform.superconducting_17));
  Alcotest.(check bool) "real uses platform noise" false
    (Noise.is_ideal (Qubit_model.noise Qubit_model.Real Qca_compiler.Platform.superconducting_17));
  Alcotest.(check bool) "perfect ignores topology" false
    (Qubit_model.respects_connectivity Qubit_model.Perfect);
  Alcotest.(check bool) "real respects topology" true
    (Qubit_model.respects_connectivity Qubit_model.Real)

(* --- Amdahl --- *)

let test_amdahl_basic () =
  check_float "f=0.5 s=inf -> 2" 2.0 (Amdahl.speedup ~fraction:0.5 ~factor:1e12);
  check_float "f=0 -> 1" 1.0 (Amdahl.speedup ~fraction:0.0 ~factor:100.0);
  check_float "f=0.9 s=10" (1.0 /. (0.1 +. 0.09)) (Amdahl.speedup ~fraction:0.9 ~factor:10.0)

let test_amdahl_limit () =
  check_float "limit f=0.95" 20.0 (Amdahl.limit ~fraction:0.95);
  Alcotest.(check bool) "f=1 unbounded" true (Amdahl.limit ~fraction:1.0 = infinity)

let test_amdahl_overhead () =
  let plain = Amdahl.speedup ~fraction:0.8 ~factor:100.0 in
  let loaded = Amdahl.speedup_with_overhead ~fraction:0.8 ~factor:100.0 ~overhead:0.1 in
  Alcotest.(check bool) "overhead reduces speedup" true (loaded < plain)

let test_amdahl_multi () =
  let single = Amdahl.speedup ~fraction:0.5 ~factor:10.0 in
  let multi = Amdahl.multi_accelerator [ (0.5, 10.0) ] in
  check_float "multi generalises single" single multi;
  let two = Amdahl.multi_accelerator [ (0.4, 10.0); (0.4, 100.0) ] in
  Alcotest.(check bool) "two accelerators help more" true (two > single)

let test_amdahl_break_even () =
  Alcotest.(check bool) "overhead >= fraction -> never" true
    (Amdahl.break_even_factor ~fraction:0.1 ~overhead:0.2 = infinity);
  let s = Amdahl.break_even_factor ~fraction:0.5 ~overhead:0.1 in
  check_float "break even" 1.25 s;
  (* Exactly at break-even, speedup = 1. *)
  check_float "speedup 1 at break-even" 1.0
    (Amdahl.speedup_with_overhead ~fraction:0.5 ~factor:s ~overhead:0.1)

let test_amdahl_validation () =
  (match Amdahl.speedup ~fraction:1.5 ~factor:2.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fraction > 1 accepted");
  match Amdahl.multi_accelerator [ (0.7, 2.0); (0.7, 2.0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fractions > 1 accepted"

(* --- host runtime --- *)

let test_host_runs_tasks () =
  let accelerators = Accelerator.default_park () in
  let tasks =
    [
      Host.Classical ("setup", 10.0);
      Host.Offload ("gpu0", "matmul", 100.0, "data");
      Host.Classical ("teardown", 5.0);
    ]
  in
  let exec = Host.run ~accelerators tasks in
  Alcotest.(check int) "three events" 3 (List.length exec.Host.timeline);
  check_float "host-only time" 115.0 exec.Host.host_only_time;
  (* 10 + (0.2 + 100/50) + 5 = 17.2 *)
  check_float "accelerated time" 17.2 exec.Host.total_time;
  Alcotest.(check bool) "speedup > 6" true (exec.Host.speedup > 6.0)

let test_host_matches_amdahl () =
  let accelerators = Accelerator.default_park () in
  let tasks =
    [ Host.Classical ("c", 50.0); Host.Offload ("fpga0", "k", 50.0, "x") ]
  in
  let exec = Host.run ~accelerators tasks in
  let predicted = Host.amdahl_prediction ~accelerators tasks in
  check_float "simulation = analytic model" predicted exec.Host.speedup

let test_host_unknown_accelerator () =
  (* Degrades to host execution instead of aborting. *)
  let exec = Host.run ~accelerators:[] [ Host.Offload ("nope", "k", 1.0, "") ] in
  Alcotest.(check int) "one warning" 1 (List.length exec.Host.warnings);
  check_float "ran at host speed" 1.0 exec.Host.total_time;
  check_float "no speedup" 1.0 exec.Host.speedup;
  (match exec.Host.timeline with
  | [ ev ] ->
      Alcotest.(check string) "ran on host" "host" ev.Host.resource;
      Alcotest.(check bool) "event carries warning" true (ev.Host.warning <> None)
  | _ -> Alcotest.fail "expected one event");
  check_float "amdahl consistent" (Host.amdahl_prediction ~accelerators:[]
    [ Host.Offload ("nope", "k", 1.0, "") ]) exec.Host.speedup

let test_host_payload_output () =
  let quantum =
    Accelerator.make
      ~payload:(fun arg -> "result:" ^ arg)
      ~name:"qpu" ~kind:Accelerator.Quantum_gate ~speed_factor:100.0 ~offload_overhead:1.0 ()
  in
  let exec = Host.run ~accelerators:[ quantum ] [ Host.Offload ("qpu", "grover", 10.0, "db") ] in
  Alcotest.(check (list (pair string string))) "output captured" [ ("grover", "result:db") ]
    exec.Host.outputs

let test_host_quantum_kernel_payload () =
  (* A quantum accelerator's payload is an ordinary job: the kernel argument
     is cQASM, submitted as a [Source] payload to [Runner.run], and the
     histogram comes back as space-separated "bits:count" pairs. *)
  let payload text =
    let spec =
      Qca.Job_spec.make ~shots:300 ~seed:5
        (Qca.Job_spec.Source { name = "kernel"; text })
    in
    match Runner.run spec with
    | Ok o ->
        o.Runner.histogram
        |> List.map (fun (key, count) -> Printf.sprintf "%s:%d" key count)
        |> String.concat " "
    | Error e -> Alcotest.fail (Qca_util.Error.to_string e)
  in
  let qpu =
    Accelerator.make ~payload ~name:"qpu0" ~kind:Accelerator.Quantum_gate
      ~speed_factor:1000.0 ~offload_overhead:2.0 ()
  in
  let source =
    "version 1.0\nqubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure q[0]\nmeasure q[1]\n"
  in
  let exec = Host.run ~accelerators:[ qpu ] [ Host.Offload ("qpu0", "bell", 10.0, source) ] in
  let output =
    match exec.Host.outputs with
    | [ ("bell", output) ] -> output
    | _ -> Alcotest.fail "expected one kernel output"
  in
  let entries =
    List.map
      (fun entry ->
        match String.split_on_char ':' entry with
        | [ bits; count ] -> (bits, int_of_string count)
        | _ -> Alcotest.fail ("unparseable payload entry: " ^ entry))
      (String.split_on_char ' ' output)
  in
  Alcotest.(check int) "payload counts sum to shots" 300
    (List.fold_left (fun acc (_, c) -> acc + c) 0 entries);
  List.iter
    (fun (bits, _) ->
      Alcotest.(check bool) ("correlated outcome " ^ bits) true (bits = "00" || bits = "11"))
    entries

(* --- RB --- *)

let test_clifford_group_size () =
  Alcotest.(check int) "24 elements" 24 (Array.length (Rb.group ()))

let test_clifford_inverse () =
  let g = Rb.group () in
  Array.iter
    (fun c ->
      let inv = Rb.inverse c in
      let m =
        List.fold_left
          (fun acc u -> Qca_util.Matrix.mul (Gate.matrix u) acc)
          (Qca_util.Matrix.identity 2)
          (Rb.gates c @ Rb.gates inv)
      in
      Alcotest.(check bool) "c * c^-1 = I" true
        (Qca_util.Matrix.equal_up_to_phase m (Qca_util.Matrix.identity 2)))
    g

let test_rb_sequence_is_identity_ideal () =
  (* Without noise every RB sequence must return |0> with certainty. *)
  let rng = Rng.create 3 in
  for length = 1 to 8 do
    let circuit = Rb.sequence_circuit rng ~qubit:0 ~total_qubits:1 ~length in
    let result = Qca_qx.Sim.run ~rng circuit in
    Alcotest.(check int) (Printf.sprintf "m=%d survives" length) 0 result.Qca_qx.Sim.classical.(0)
  done

let test_rb_decay_with_noise () =
  let rng = Rng.create 5 in
  let decay =
    Rb.run ~lengths:[ 1; 4; 16 ] ~sequences:4 ~shots:64 ~noise:(Noise.depolarizing 0.02) ~rng ()
  in
  (match decay.Rb.points with
  | [ p1; _; p3 ] ->
      Alcotest.(check bool) "longer sequences decay" true (p3.Rb.survival < p1.Rb.survival);
      Alcotest.(check bool) "short sequences survive" true (p1.Rb.survival > 0.8)
  | _ -> Alcotest.fail "expected three points");
  Alcotest.(check bool) "p < 1" true (decay.Rb.p < 1.0);
  Alcotest.(check bool) "error per clifford positive" true (decay.Rb.error_per_clifford > 0.0)

let test_rb_ideal_no_decay () =
  let rng = Rng.create 7 in
  let decay = Rb.run ~lengths:[ 1; 8 ] ~sequences:2 ~shots:32 ~noise:Noise.ideal ~rng () in
  List.iter
    (fun p -> check_float "survival 1" 1.0 p.Rb.survival)
    decay.Rb.points

let test_interleaved_rb () =
  let rng = Rng.create 9 in
  let result =
    Rb.run_interleaved ~lengths:[ 1; 4; 16 ] ~sequences:4 ~shots:64 ~gate:Qca_circuit.Gate.X
      ~noise:(Noise.depolarizing 0.01) ~rng ()
  in
  (* interleaving adds error: p_int <= p_ref *)
  Alcotest.(check bool) "interleaved decays faster" true
    (result.Rb.interleaved.Rb.p <= result.Rb.reference.Rb.p +. 0.01);
  Alcotest.(check bool) "gate error in [0, 0.05]" true
    (result.Rb.gate_error >= 0.0 && result.Rb.gate_error < 0.05)

let test_interleaved_rejects_nonclifford () =
  let rng = Rng.create 10 in
  match
    Rb.run_interleaved ~lengths:[ 1 ] ~sequences:1 ~shots:4 ~gate:Qca_circuit.Gate.T
      ~noise:Noise.ideal ~rng ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "T gate accepted"

(* --- characterisation --- *)

module Characterize = Qca.Characterize

let test_characterize_ideal_device () =
  let rng = Rng.create 21 in
  let c = Characterize.run ~shots:64 ~sequences:2 ~device:Noise.ideal ~rng () in
  check_float "no readout error" 0.0 c.Characterize.readout_error;
  Alcotest.(check bool) "tiny gate error" true (c.Characterize.gate_error < 1e-3)

let test_characterize_recovers_parameters () =
  let rng = Rng.create 23 in
  let true_gate_error = 0.004 and true_readout = 0.03 in
  let device = { (Noise.depolarizing true_gate_error) with Qca_qx.Noise.readout_error = true_readout } in
  let c =
    Characterize.run ~rb_lengths:[ 1; 2; 4; 8; 16; 32; 64 ] ~sequences:8 ~shots:256
      ~device ~rng ()
  in
  (* within a factor ~2 of truth *)
  Alcotest.(check bool)
    (Printf.sprintf "gate error %.5f ~ %.5f" c.Characterize.gate_error true_gate_error)
    true
    (c.Characterize.gate_error > true_gate_error /. 2.5
    && c.Characterize.gate_error < true_gate_error *. 2.5);
  Alcotest.(check bool)
    (Printf.sprintf "readout %.4f ~ %.4f" c.Characterize.readout_error true_readout)
    true
    (Float.abs (c.Characterize.readout_error -. true_readout) < 0.02)

let test_characterize_model_usable () =
  let rng = Rng.create 25 in
  let c = Characterize.run ~shots:64 ~sequences:2 ~device:Noise.superconducting ~rng () in
  Alcotest.(check bool) "model not ideal" false (Noise.is_ideal c.Characterize.model);
  Alcotest.(check bool) "renders" true (String.length (Characterize.to_string c) > 20)

(* --- two-qubit RB --- *)

module Rb2 = Qca.Rb2

let test_rb2_group_order () =
  Alcotest.(check int) "11520 elements" 11520 (Array.length (Rb2.group ()))

let test_rb2_inverses () =
  let g = Rb2.group () in
  let rng = Rng.create 12 in
  (* spot-check 50 random elements *)
  for _ = 1 to 50 do
    let c = g.(Rng.int rng (Array.length g)) in
    let inv = Rb2.inverse c in
    let m gates =
      Qca_circuit.Circuit.unitary_matrix
        (Circuit.of_list 2 (List.map (fun (u, ops) -> Gate.Unitary (u, ops)) gates))
    in
    let product = Qca_util.Matrix.mul (m (Rb2.gates inv)) (m (Rb2.gates c)) in
    Alcotest.(check bool) "inverse composes to identity" true
      (Qca_util.Matrix.equal_up_to_phase product (Qca_util.Matrix.identity 4))
  done

let test_rb2_sequence_ideal () =
  let rng = Rng.create 14 in
  for length = 1 to 5 do
    let circuit = Rb2.sequence_circuit rng ~length in
    let result = Qca_qx.Sim.run ~rng circuit in
    Alcotest.(check int) "q0 survives" 0 result.Qca_qx.Sim.classical.(0);
    Alcotest.(check int) "q1 survives" 0 result.Qca_qx.Sim.classical.(1)
  done

let test_rb2_noisy_decay () =
  let rng = Rng.create 15 in
  let decay =
    Rb2.run ~lengths:[ 1; 4; 8 ] ~sequences:3 ~shots:32 ~noise:(Noise.depolarizing 0.005)
      ~rng ()
  in
  (match decay.Rb2.points with
  | [ (_, s1); _; (_, s8) ] ->
      Alcotest.(check bool) "decays" true (s8 < s1)
  | _ -> Alcotest.fail "expected three points");
  Alcotest.(check bool) "error per clifford > single-gate error" true
    (decay.Rb2.error_per_clifford > 0.005)

(* --- stacks --- *)

let bell_measured () =
  Circuit.append (Library.bell ()) (Circuit.of_list 2 [ Gate.Measure 0; Gate.Measure 1 ])

let test_stack_descriptions () =
  List.iter
    (fun stack ->
      Alcotest.(check bool) (Stack.describe stack) true (String.length (Stack.describe stack) > 10))
    [ Stack.superconducting (); Stack.semiconducting (); Stack.genome (); Stack.optimisation () ]

(* A stack denotes a job; Runner.run is the one path that executes it. *)
let execute ?shots ?seed ?faults stack circuit =
  match Runner.run ?faults (Stack.spec ?shots ?seed stack circuit) with
  | Ok o -> o
  | Error e -> Alcotest.fail (Qca_util.Error.to_string e)

let test_genome_stack_perfect_bell () =
  let stack = Stack.genome ~qubits:2 () in
  let run = execute ~shots:300 stack (bell_measured ()) in
  let p =
    Runner.success_probability run ~accept:(fun key ->
        key = "00" || key = "11")
  in
  check_float "perfect correlations" 1.0 p;
  Alcotest.(check bool) "no microarch" true (run.Runner.microarch_stats = None)

let test_superconducting_stack_runs_microarch () =
  let stack = Stack.superconducting () in
  let run = execute ~shots:60 stack (bell_measured ()) in
  Alcotest.(check bool) "microarch engaged" true (run.Runner.microarch_stats <> None);
  let p =
    Runner.success_probability run ~accept:(fun key ->
        let n = String.length key in
        key.[n - 1] = key.[n - 2] && key.[n - 1] <> '-')
  in
  Alcotest.(check bool) "correlated despite noise" true (p > 0.8)

let test_realistic_of_degrades () =
  let perfect_stack = Stack.genome ~qubits:2 () in
  let realistic = Stack.realistic_of perfect_stack in
  Alcotest.(check bool) "model changed" true (realistic.Stack.model = Qca.Qubit_model.Realistic)

let test_stack_engine_report () =
  let module Engine = Qca_qx.Engine in
  (* Direct-QX perfect stack: terminal measurements take the sampled plan. *)
  let run = execute ~shots:100 ~seed:8 (Stack.genome ~qubits:2 ()) (bell_measured ()) in
  Alcotest.(check bool) "perfect stack samples" true
    (run.Runner.report.Engine.plan = Engine.Sampled);
  Alcotest.(check int) "shots recorded" 100 run.Runner.report.Engine.shots;
  (* Micro-architecture stack: inherently per-shot. *)
  let run_sc = execute ~shots:20 ~seed:8 (Stack.superconducting ()) (bell_measured ()) in
  Alcotest.(check bool) "microarch stack is trajectory" true
    (run_sc.Runner.report.Engine.plan = Engine.Trajectory);
  Alcotest.(check bool) "gate applies counted" true
    (run_sc.Runner.report.Engine.gate_applies <> [])

let test_stack_degrades_to_sim () =
  let module Engine = Qca_qx.Engine in
  let module Fault = Qca_util.Fault in
  (* A saturating injector: every shot faults past its retry budget, so the
     micro-architecture run must fall back to direct realistic QX. *)
  let stack = Stack.superconducting () in
  let faults = Fault.make ~seed:4 { Fault.off with Fault.backend = 1.0 } in
  let run = execute ~shots:80 ~seed:12 ~faults stack (bell_measured ()) in
  let res = run.Runner.report.Engine.resilience in
  Alcotest.(check bool) "degradation recorded" true (res.Engine.degraded <> None);
  Alcotest.(check bool) "no microarch stats after fallback" true
    (run.Runner.microarch_stats = None);
  (* The fallback executes the already-compiled program, so histogram keys
     keep the 17-qubit platform width. *)
  List.iter
    (fun (key, _) ->
      Alcotest.(check int) "platform-width key" 17 (String.length key))
    run.Runner.histogram;
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 run.Runner.histogram in
  Alcotest.(check int) "all shots delivered by fallback" 80 total;
  (* Without the ladder the same load fails fast with the structured error
     instead of degrading (the [qxc exec] semantics). *)
  let spec = Stack.spec ~shots:80 ~seed:12 stack (bell_measured ()) in
  let no_ladder =
    match spec.Qca.Job_spec.route with
    | Qca.Job_spec.Compiled r ->
        { spec with Qca.Job_spec.route = Qca.Job_spec.Compiled { r with ladder = false } }
    | Qca.Job_spec.Direct -> Alcotest.fail "stack spec must be compiled"
  in
  let faults = Fault.make ~seed:4 { Fault.off with Fault.backend = 1.0 } in
  match Runner.run ~faults no_ladder with
  | Ok _ -> Alcotest.fail "no-ladder route degraded instead of failing"
  | Error e ->
      Alcotest.(check bool) "permanent error" false e.Qca_util.Error.transient

let test_ladder_passthrough () =
  let module Engine = Qca_qx.Engine in
  (* A healthy micro-architecture run passes through the ladder untouched:
     the same histogram as the fail-fast route, and no degradation. *)
  let spec = Stack.spec ~shots:60 ~seed:11 (Stack.superconducting ()) (bell_measured ()) in
  let no_ladder =
    match spec.Qca.Job_spec.route with
    | Qca.Job_spec.Compiled r ->
        { spec with Qca.Job_spec.route = Qca.Job_spec.Compiled { r with ladder = false } }
    | Qca.Job_spec.Direct -> Alcotest.fail "stack spec must be compiled"
  in
  match (Runner.run spec, Runner.run no_ladder) with
  | Ok laddered, Ok direct ->
      Alcotest.(check (list (pair string int))) "same histogram"
        direct.Runner.histogram laddered.Runner.histogram;
      Alcotest.(check bool) "not degraded" true
        (laddered.Runner.report.Engine.resilience.Engine.degraded = None);
      Alcotest.(check bool) "microarch engaged" true
        (laddered.Runner.microarch_stats <> None)
  | Error e, _ | _, Error e -> Alcotest.fail (Qca_util.Error.to_string e)

let test_ladder_tolerates_faults_under_threshold () =
  let module Engine = Qca_qx.Engine in
  let module Fault = Qca_util.Fault in
  (* Faulted shots under the policy threshold keep the micro-architecture
     result: the ladder degrades only past [degrade_threshold]. *)
  let faults = Fault.make ~seed:4 { Fault.off with Fault.backend = 0.5 } in
  let run = execute ~shots:80 ~seed:12 ~faults (Stack.superconducting ()) (bell_measured ()) in
  let res = run.Runner.report.Engine.resilience in
  Alcotest.(check bool) "some shots faulted" true (res.Engine.faulted_shots > 0);
  Alcotest.(check bool) "not degraded" true (res.Engine.degraded = None);
  Alcotest.(check bool) "microarch kept" true (run.Runner.microarch_stats <> None);
  Alcotest.(check bool) "under threshold" true
    (float_of_int res.Engine.faulted_shots /. 80.0
     <= Qca_util.Resilience.default_policy.Qca_util.Resilience.degrade_threshold)

let test_stack_runner_errors () =
  let stack = Stack.genome ~qubits:2 () in
  (match Runner.run (Stack.spec ~shots:50 ~seed:3 stack (bell_measured ())) with
  | Ok run ->
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 run.Runner.histogram in
      Alcotest.(check int) "shots" 50 total
  | Error e -> Alcotest.fail (Qca_util.Error.to_string e));
  (* A gate the platform cannot express surfaces as a structured error, not
     an exception. Perfect mode skips decomposition, so use a realistic
     stack whose platform only offers cz. *)
  let tiny =
    {
      Stack.stack_name = "tiny";
      platform = { Platform.superconducting_17 with Platform.primitives = [ "cz" ] };
      model = Qca.Qubit_model.Realistic;
      technology = None;
    }
  in
  match Runner.run (Stack.spec ~shots:10 tiny (bell_measured ())) with
  | Ok _ -> Alcotest.fail "unsupported gate accepted"
  | Error e ->
      Alcotest.(check bool) "unsupported-gate kind" true
        (match e.Qca_util.Error.kind with
        | Qca_util.Error.Unsupported_gate _ -> true
        | _ -> false)

(* --- backend swapping: one Job_spec, only the route changes --- *)

let test_backend_swap () =
  let module Engine = Qca_qx.Engine in
  let module Job_spec = Qca.Job_spec in
  let bell = bell_measured () in
  let spec = Job_spec.make ~shots:200 ~seed:13 (Job_spec.Circuit bell) in
  let microarch =
    Job_spec.Compiled
      {
        platform = Platform.semiconducting_4;
        mode = Compiler.Real;
        technology = Some Qca_microarch.Controller.semiconducting;
        ladder = false;
        router = Qca_compiler.Mapping.Sabre;
      }
  in
  let on_route route =
    let spec = { spec with Job_spec.route } in
    match Runner.run spec with
    | Ok o -> (Job_spec.route_description spec, o.Runner.histogram)
    | Error e -> Alcotest.fail (Qca_util.Error.to_string e)
  in
  let oracle = Qca_qx.Density.sample ~shots:200 ~seed:13 bell in
  List.iter
    (fun (name, histogram) ->
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 histogram in
      Alcotest.(check int) (name ^ ": histogram mass") 200 total;
      (* The mapper may relocate qubits and noise may leak, but the Bell
         correlation must dominate on every target. *)
      let correlated =
        List.fold_left
          (fun acc (key, c) ->
            let bits = List.filter (fun ch -> ch = '0' || ch = '1') (List.init (String.length key) (String.get key)) in
            match bits with
            | [ a; b ] when a = b -> acc + c
            | _ -> acc)
          0 histogram
      in
      Alcotest.(check bool)
        (name ^ ": correlated mass dominates")
        true
        (float_of_int correlated /. float_of_int total > 0.8))
    [
      on_route Job_spec.Direct;
      ("density oracle", oracle.Engine.histogram);
      on_route microarch;
    ]

(* --- in-memory (section 5) --- *)

module In_memory = Qca.In_memory

let test_in_memory_ordering () =
  let w = { In_memory.operations = 1000; operands_per_op = 2; locality = 0.8 } in
  let vn = In_memory.data_movements In_memory.Von_neumann w ~movement_per_distant_op:3.0 in
  let im = In_memory.data_movements In_memory.In_memory w ~movement_per_distant_op:3.0 in
  check_float "von neumann moves everything" 2000.0 vn;
  check_float "in-memory moves the non-local 20%" 400.0 im;
  Alcotest.(check bool) "in-memory wins" true (im < vn)

let test_in_memory_full_locality () =
  let w = { In_memory.operations = 100; operands_per_op = 2; locality = 1.0 } in
  check_float "local quantum workload moves nothing" 0.0
    (In_memory.data_movements In_memory.Quantum_nearest_neighbour w
       ~movement_per_distant_op:2.0)

let test_measure_routing () =
  let platform = Platform.superconducting_17 in
  let pressure = In_memory.measure_routing platform (Library.qft 5) in
  Alcotest.(check bool) "some swaps" true (pressure.In_memory.swaps_inserted > 0);
  Alcotest.(check bool) "locality in [0,1]" true
    (pressure.In_memory.locality_measured >= 0.0 && pressure.In_memory.locality_measured <= 1.0);
  (* all-to-all platform: perfect locality *)
  let free = In_memory.measure_routing (Platform.perfect 5) (Library.qft 5) in
  check_float "all-to-all locality 1" 1.0 free.In_memory.locality_measured;
  Alcotest.(check int) "no swaps" 0 free.In_memory.swaps_inserted

let test_comparison_table () =
  let w = { In_memory.operations = 10; operands_per_op = 2; locality = 0.5 } in
  let rows = In_memory.comparison_table w ~movement_per_distant_op:2.0 in
  Alcotest.(check int) "three architectures" 3 (List.length rows)

(* --- error budget --- *)

module Error_budget = Qca.Error_budget

let test_budget_perfect_platform_is_one () =
  let e = Error_budget.of_circuit ~platform:(Platform.perfect 4) (Library.ghz 4) in
  check_float "no loss" 1.0 e.Error_budget.total;
  Alcotest.(check int) "gate count" 4 e.Error_budget.gate_count

let test_budget_decreases_with_depth () =
  let platform = Platform.superconducting_17 in
  let shallow = Compiler.compile platform Compiler.Realistic (Library.ghz 3) in
  let deep = Compiler.compile platform Compiler.Realistic (Library.qft 5) in
  let e_shallow = Error_budget.of_output shallow in
  let e_deep = Error_budget.of_output deep in
  Alcotest.(check bool) "deeper circuit survives less" true
    (e_deep.Error_budget.total < e_shallow.Error_budget.total)

let test_budget_predicts_simulation () =
  (* The analytic estimate should be within a few points of the measured
     state fidelity for a modest circuit. *)
  let platform = Platform.superconducting_17 in
  let out = Compiler.compile platform Compiler.Realistic (Library.ghz 3) in
  let e = Error_budget.of_output out in
  let rng = Rng.create 2024 in
  let measured =
    Qca_qx.Sim.state_fidelity_vs_ideal ~noise:platform.Platform.noise ~rng ~shots:200
      out.Compiler.physical
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.3f within 0.08 of measured %.3f" e.Error_budget.total measured)
    true
    (Float.abs (e.Error_budget.total -. measured) < 0.08)

let test_budget_dominant_readout () =
  (* With coherence switched off, an all-measurement circuit is
     readout-dominated. *)
  let base = Platform.superconducting_17 in
  let platform =
    {
      base with
      Platform.noise =
        { base.Platform.noise with Qca_qx.Noise.t1_ns = infinity; t2_ns = infinity };
    }
  in
  let c = Circuit.of_list 17 (List.init 8 (fun q -> Gate.Measure q)) in
  let e = Error_budget.of_circuit ~platform c in
  Alcotest.(check string) "dominant" "readout" e.Error_budget.dominant;
  Alcotest.(check int) "8 measurements" 8 e.Error_budget.measurement_count

let test_budget_to_string () =
  let e = Error_budget.of_circuit ~platform:Platform.superconducting_17 (Library.bell ()) in
  Alcotest.(check bool) "renders" true (String.length (Error_budget.to_string e) > 40)

(* --- Shor --- *)

module Shor = Qca.Shor

let test_shor_helpers () =
  Alcotest.(check int) "gcd" 6 (Shor.gcd 54 24);
  Alcotest.(check int) "mod_pow" 1 (Shor.mod_pow 7 4 15);
  Alcotest.(check int) "mod_pow 2^10 mod 1000" 24 (Shor.mod_pow 2 10 1000);
  Alcotest.(check int) "order of 7 mod 15" 4 (Shor.classical_order 7 15);
  Alcotest.(check int) "order of 2 mod 21" 6 (Shor.classical_order 2 21)

let test_continued_fractions () =
  (* 192/256 = 3/4: denominators 1, 4 appear *)
  let dens = Shor.continued_fraction_denominator ~numerator:192 ~denominator:256 ~limit:15 in
  Alcotest.(check bool) "contains 4" true (List.mem 4 dens);
  (* 85/256 ~ 1/3 *)
  let dens2 = Shor.continued_fraction_denominator ~numerator:85 ~denominator:256 ~limit:15 in
  Alcotest.(check bool) "contains 3" true (List.mem 3 dens2)

let test_shor_order_finding_15 () =
  let rng = Rng.create 1234 in
  List.iter
    (fun (a, expected) ->
      let result = Shor.find_order ~rng ~a ~modulus:15 () in
      Alcotest.(check (option int)) (Printf.sprintf "order of %d mod 15" a) (Some expected)
        result.Shor.order)
    [ (7, 4); (2, 4); (4, 2); (11, 2); (13, 4) ]

let test_shor_order_matches_classical () =
  let rng = Rng.create 4321 in
  List.iter
    (fun (a, modulus) ->
      let result = Shor.find_order ~rng ~a ~modulus () in
      match result.Shor.order with
      | Some r ->
          Alcotest.(check int)
            (Printf.sprintf "a=%d N=%d" a modulus)
            (Shor.classical_order a modulus) r
      | None -> Alcotest.fail "order finding failed")
    [ (3, 7); (2, 9); (5, 13) ]

let test_shor_factors_15 () =
  let rng = Rng.create 31415 in
  let result = Shor.factor ~rng 15 in
  match result.Shor.factors with
  | Some (p, q) ->
      Alcotest.(check int) "product" 15 (p * q);
      Alcotest.(check bool) "nontrivial" true (p > 1 && q > 1)
  | None -> Alcotest.fail "Shor failed to factor 15"

let test_shor_rejects_bad_input () =
  let rng = Rng.create 1 in
  (match Shor.factor ~rng 16 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "even n accepted");
  match Shor.find_order ~rng ~a:5 ~modulus:15 () with
  | exception Invalid_argument _ -> () (* gcd(5,15) = 5 *)
  | _ -> Alcotest.fail "non-coprime base accepted"

(* --- TRL --- *)

let test_trl_monotone () =
  let years = List.init 30 (fun k -> 2019.0 +. float_of_int k) in
  let rec check_pairs = function
    | [] | [ _ ] -> ()
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "accelerator monotone" true
          (Trl.trl Trl.Accelerator_logic ~year:b >= Trl.trl Trl.Accelerator_logic ~year:a);
        Alcotest.(check bool) "chip monotone" true
          (Trl.trl Trl.Quantum_chip ~year:b >= Trl.trl Trl.Quantum_chip ~year:a);
        check_pairs rest
  in
  check_pairs years

let test_trl_accelerator_leads () =
  let y_acc = Trl.year_reaching Trl.Accelerator_logic ~level:Trl.adoption_threshold in
  let y_chip = Trl.year_reaching Trl.Quantum_chip ~level:Trl.adoption_threshold in
  Alcotest.(check bool) "accelerator matures first" true (y_acc < y_chip);
  Alcotest.(check bool) "roughly a decade apart (paper)" true
    (y_chip -. y_acc > 3.0 && y_chip -. y_acc < 15.0)

let test_trl_bounds () =
  Alcotest.(check bool) "floor" true (Trl.trl Trl.Quantum_chip ~year:1990.0 >= 1.0);
  Alcotest.(check bool) "ceiling" true (Trl.trl Trl.Accelerator_logic ~year:2100.0 <= 9.0)

let test_trl_phases_progress () =
  let p2019 = Trl.phase_of ~year:2019.0 in
  let p2060 = Trl.phase_of ~year:2060.0 in
  Alcotest.(check bool) "starts early-phase" true
    (p2019 = Trl.Reflection || p2019 = Trl.Prototyping);
  Alcotest.(check bool) "ends converged" true (p2060 = Trl.Converged)

let test_trl_table_shape () =
  let rows = Trl.table ~first_year:2019 ~last_year:2035 in
  Alcotest.(check int) "17 rows" 17 (List.length rows);
  match rows with
  | (y, a, c, _) :: _ ->
      Alcotest.(check int) "first year" 2019 y;
      Alcotest.(check bool) "accelerator above chip" true (a >= c)
  | [] -> Alcotest.fail "empty table"

let test_year_reaching_inverse () =
  let y = Trl.year_reaching Trl.Accelerator_logic ~level:5.0 in
  check_float "inverse" 5.0 (Trl.trl Trl.Accelerator_logic ~year:y)

let () =
  Alcotest.run "qca_core"
    [
      ( "qubit-model",
        [ Alcotest.test_case "three models" `Quick test_qubit_models ] );
      ( "amdahl",
        [
          Alcotest.test_case "basic" `Quick test_amdahl_basic;
          Alcotest.test_case "limit" `Quick test_amdahl_limit;
          Alcotest.test_case "overhead" `Quick test_amdahl_overhead;
          Alcotest.test_case "multi" `Quick test_amdahl_multi;
          Alcotest.test_case "break even" `Quick test_amdahl_break_even;
          Alcotest.test_case "validation" `Quick test_amdahl_validation;
        ] );
      ( "host",
        [
          Alcotest.test_case "runs tasks" `Quick test_host_runs_tasks;
          Alcotest.test_case "matches amdahl" `Quick test_host_matches_amdahl;
          Alcotest.test_case "unknown accelerator" `Quick test_host_unknown_accelerator;
          Alcotest.test_case "payload output" `Quick test_host_payload_output;
          Alcotest.test_case "quantum kernel payload" `Quick test_host_quantum_kernel_payload;
        ] );
      ( "rb",
        [
          Alcotest.test_case "group size 24" `Quick test_clifford_group_size;
          Alcotest.test_case "inverses" `Quick test_clifford_inverse;
          Alcotest.test_case "ideal identity" `Quick test_rb_sequence_is_identity_ideal;
          Alcotest.test_case "noisy decay" `Quick test_rb_decay_with_noise;
          Alcotest.test_case "ideal no decay" `Quick test_rb_ideal_no_decay;
          Alcotest.test_case "interleaved" `Quick test_interleaved_rb;
          Alcotest.test_case "interleaved rejects T" `Quick test_interleaved_rejects_nonclifford;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "ideal device" `Quick test_characterize_ideal_device;
          Alcotest.test_case "recovers parameters" `Quick test_characterize_recovers_parameters;
          Alcotest.test_case "model usable" `Quick test_characterize_model_usable;
        ] );
      ( "rb2",
        [
          Alcotest.test_case "group order 11520" `Quick test_rb2_group_order;
          Alcotest.test_case "inverses" `Quick test_rb2_inverses;
          Alcotest.test_case "ideal sequences" `Quick test_rb2_sequence_ideal;
          Alcotest.test_case "noisy decay" `Quick test_rb2_noisy_decay;
        ] );
      ( "stack",
        [
          Alcotest.test_case "descriptions" `Quick test_stack_descriptions;
          Alcotest.test_case "genome stack bell" `Quick test_genome_stack_perfect_bell;
          Alcotest.test_case "superconducting microarch" `Quick test_superconducting_stack_runs_microarch;
          Alcotest.test_case "realistic_of" `Quick test_realistic_of_degrades;
          Alcotest.test_case "engine report" `Quick test_stack_engine_report;
          Alcotest.test_case "degrades to sim" `Quick test_stack_degrades_to_sim;
          Alcotest.test_case "ladder passthrough" `Quick test_ladder_passthrough;
          Alcotest.test_case "ladder tolerates faults" `Quick
            test_ladder_tolerates_faults_under_threshold;
          Alcotest.test_case "runner errors" `Quick test_stack_runner_errors;
          Alcotest.test_case "backend swap" `Quick test_backend_swap;
        ] );
      ( "in-memory",
        [
          Alcotest.test_case "ordering" `Quick test_in_memory_ordering;
          Alcotest.test_case "full locality" `Quick test_in_memory_full_locality;
          Alcotest.test_case "measure routing" `Quick test_measure_routing;
          Alcotest.test_case "comparison table" `Quick test_comparison_table;
        ] );
      ( "error-budget",
        [
          Alcotest.test_case "perfect is one" `Quick test_budget_perfect_platform_is_one;
          Alcotest.test_case "decreases with depth" `Quick test_budget_decreases_with_depth;
          Alcotest.test_case "predicts simulation" `Quick test_budget_predicts_simulation;
          Alcotest.test_case "dominant readout" `Quick test_budget_dominant_readout;
          Alcotest.test_case "to_string" `Quick test_budget_to_string;
        ] );
      ( "shor",
        [
          Alcotest.test_case "helpers" `Quick test_shor_helpers;
          Alcotest.test_case "continued fractions" `Quick test_continued_fractions;
          Alcotest.test_case "order finding mod 15" `Quick test_shor_order_finding_15;
          Alcotest.test_case "matches classical" `Quick test_shor_order_matches_classical;
          Alcotest.test_case "factors 15" `Quick test_shor_factors_15;
          Alcotest.test_case "rejects bad input" `Quick test_shor_rejects_bad_input;
        ] );
      ( "trl",
        [
          Alcotest.test_case "monotone" `Quick test_trl_monotone;
          Alcotest.test_case "accelerator leads" `Quick test_trl_accelerator_leads;
          Alcotest.test_case "bounds" `Quick test_trl_bounds;
          Alcotest.test_case "phases" `Quick test_trl_phases_progress;
          Alcotest.test_case "table" `Quick test_trl_table_shape;
          Alcotest.test_case "inverse" `Quick test_year_reaching_inverse;
        ] );
    ]
