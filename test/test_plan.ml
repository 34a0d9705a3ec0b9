(* Simulation-planner suite (`dune build @plan`): classification guards on
   the fixture corpus, forced-plan error surfaces, tableau-vs-state-vector
   seed identity, parallel-vs-sequential trajectory identity, and the
   auto-planner overhead guard. *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module Engine = Qca_qx.Engine
module Noise = Qca_qx.Noise
module Parallel = Qca_util.Parallel
module Error = Qca_util.Error
module Rng = Qca_util.Rng
module Code = Qca_qec.Code
module Trace = Qca_util.Trace
module Fault = Qca_util.Fault

let canon h = List.sort compare h
let hist = Alcotest.(list (pair string int))

let measured n base =
  Circuit.append base (Circuit.of_list n (List.init n (fun q -> Gate.Measure q)))

(* The cram-fixture shapes (test/fixtures/) rebuilt from the library, plus
   planner-sensitive extremes: all-Clifford feedback chains (one teleport
   and 64 in a row) and a wide QEC cycle. *)
let corpus () =
  [
    ("bell", measured 2 (Library.bell ()));
    ("ghz5", measured 5 (Library.ghz 5));
    ("teleport", Library.teleport ());
    ("teleport-clifford", Library.teleport ~prepare:Gate.H ());
    ("teleport-x64", Circuit.repeat 64 (Library.teleport ~prepare:Gate.H ()));
    ("qft4", measured 4 (Library.qft 4));
    ( "random8x40",
      measured 8 (Library.random_circuit (Rng.create 303) ~qubits:8 ~gates:40)
    );
    ("qec-surface17-r2", Code.cycle_circuit ~rounds:2 Code.surface_17);
  ]

(* --- classification soundness: misclassification is impossible --- *)

(* The planner may only pick Clifford when the tableau can actually execute
   every gate, must never pick it under stochastic noise, and may only pick
   Sampled when a single-pass distribution exists. *)
let test_no_misclassification () =
  List.iter
    (fun (name, circuit) ->
      List.iter
        (fun shots ->
          let plan, reason = Engine.analyse ~shots circuit in
          (match plan with
          | Engine.Clifford ->
              Alcotest.(check (option (pair string int)))
                (name ^ ": clifford plan only on all-Clifford circuits")
                None
                (Engine.clifford_blocker circuit)
          | Engine.Sampled ->
              if Engine.terminal_split circuit = None then
                Alcotest.failf "%s: sampled plan without a distribution" name
          | Engine.Trajectory -> ());
          if String.length reason = 0 then
            Alcotest.failf "%s: empty plan reason" name)
        [ 16; 1024; 100_000 ];
      let noisy_plan, _ =
        Engine.analyse ~noise:(Noise.depolarizing 0.01) circuit
      in
      Alcotest.(check bool)
        (name ^ ": stochastic noise forces trajectories")
        true
        (noisy_plan = Engine.Trajectory))
    (corpus ());
  (* Where the tableau pays off, the planner must take it at 1024 shots:
     long feedback chains, QEC cycles and a GHZ state wide enough that
     sampling from the state vector costs more than the tableau. *)
  List.iter
    (fun (name, circuit) ->
      Alcotest.(check string)
        (name ^ ": clifford at 1024 shots")
        "clifford"
        (Engine.plan_to_string (fst (Engine.analyse ~shots:1024 circuit))))
    [
      ("teleport-x64", List.assoc "teleport-x64" (corpus ()));
      ("qec-surface17-r2", List.assoc "qec-surface17-r2" (corpus ()));
      ("ghz-22", measured 22 (Library.ghz 22));
    ]

(* Wherever the planner picks the tableau, its histogram must be the forced
   single-threaded state-vector trajectory histogram, seed for seed. *)
let test_auto_clifford_matches_state_vector () =
  List.iter
    (fun (name, circuit) ->
      match Engine.analyse circuit with
      | Engine.Clifford, _ ->
          let shots = 16 in
          let auto = Engine.run ~seed:42 ~shots circuit in
          Alcotest.(check bool)
            (name ^ ": auto took the tableau")
            true
            (auto.Engine.report.Engine.plan = Engine.Clifford);
          let saved = Parallel.domain_count () in
          Parallel.set_domain_count 1;
          let sv =
            Engine.run ~seed:42 ~plan:Engine.Trajectory ~shots circuit
          in
          Parallel.set_domain_count saved;
          Alcotest.check hist
            (name ^ ": tableau histogram = state-vector histogram")
            (canon sv.Engine.histogram)
            (canon auto.Engine.histogram)
      | (Engine.Sampled | Engine.Trajectory), _ -> ())
    (corpus ())

(* --- forcing semantics --- *)

let test_forced_clifford_names_blocker () =
  let circuit =
    Circuit.of_list 2
      [
        Gate.Unitary (Gate.H, [| 0 |]);
        Gate.Unitary (Gate.T, [| 0 |]);
        Gate.Measure 0;
      ]
  in
  match Engine.run_checked ~seed:1 ~plan:Engine.Clifford ~shots:8 circuit with
  | Ok _ -> Alcotest.fail "forcing clifford on a T gate must fail"
  | Error e ->
      Alcotest.(check (option string))
        "error names the gate"
        (Some (Gate.name Gate.T))
        (List.assoc_opt "gate" e.Error.context);
      Alcotest.(check (option string))
        "error names the instruction index" (Some "1")
        (List.assoc_opt "index" e.Error.context)

let test_forced_clifford_rejects_noise () =
  let circuit = measured 2 (Library.bell ()) in
  match
    Engine.run_checked ~seed:1 ~noise:(Noise.depolarizing 0.01)
      ~plan:Engine.Clifford ~shots:8 circuit
  with
  | Ok _ -> Alcotest.fail "forcing clifford under noise must fail"
  | Error _ -> ()

let test_forced_clifford_accepted_when_sound () =
  let circuit = measured 3 (Library.ghz 3) in
  let r = Engine.run ~seed:5 ~plan:Engine.Clifford ~shots:128 circuit in
  Alcotest.(check bool)
    "plan is clifford" true
    (r.Engine.report.Engine.plan = Engine.Clifford);
  let sv = Engine.run ~seed:5 ~plan:Engine.Trajectory ~shots:128 circuit in
  Alcotest.check hist "ghz3 histograms agree"
    (canon sv.Engine.histogram)
    (canon r.Engine.histogram)

(* --- random Clifford circuits: tableau == state vector, seed for seed --- *)

let clifford_unitaries_1q =
  [| Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdag |]

(* [~wide:true] widens the mix with mid-circuit preps, Y conditionals and,
   in half the circuits, conditional H/S/CNOT (which the Clifford plan runs
   per shot), and adds a burst of up to 150 H+measure pairs on one or two
   qubits: every pair is a random outcome, so the symbolic executor's forms
   run past one and two 62-bit words. Without it the circuits are the ones
   this generator always made. *)
let random_clifford_circuit ?(wide = false) seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 4 in
  let gates = 1 + Rng.int rng 40 in
  let feedback_cliffords = wide && Rng.bool rng in
  let burst_at = if wide then Rng.int rng gates else -1 in
  let burst = if wide then Rng.int rng 151 else 0 in
  let instrs = ref [] in
  let emit i = instrs := i :: !instrs in
  for g = 1 to gates do
    if g - 1 = burst_at then begin
      let a = Rng.int rng n and b = Rng.int rng n in
      for k = 1 to burst do
        let q = if k land 1 = 0 then a else b in
        emit (Gate.Unitary (Gate.H, [| q |]));
        emit (Gate.Measure q)
      done
    end;
    let r = Rng.float rng 1.0 in
    if r < 0.15 then emit (Gate.Measure (Rng.int rng n))
    else if r < 0.25 then begin
      let bit = Rng.int rng n in
      let target = Rng.int rng n in
      let u =
        if wide then [| Gate.X; Gate.Y; Gate.Z |].(Rng.int rng 3)
        else if Rng.bool rng then Gate.X
        else Gate.Z
      in
      emit (Gate.Conditional (bit, u, [| target |]))
    end
    else if r < 0.55 then begin
      let a = Rng.int rng n in
      let b = (a + 1 + Rng.int rng (n - 1)) mod n in
      let u = if Rng.bool rng then Gate.Cnot else Gate.Cz in
      emit (Gate.Unitary (u, [| a; b |]))
    end
    else if wide && r < 0.62 then emit (Gate.Prep (Rng.int rng n))
    else if feedback_cliffords && r < 0.68 then begin
      let bit = Rng.int rng n and a = Rng.int rng n in
      match Rng.int rng 3 with
      | 0 -> emit (Gate.Conditional (bit, Gate.H, [| a |]))
      | 1 -> emit (Gate.Conditional (bit, Gate.S, [| a |]))
      | _ ->
          let b = (a + 1 + Rng.int rng (n - 1)) mod n in
          emit (Gate.Conditional (bit, Gate.Cnot, [| a; b |]))
    end
    else
      emit
        (Gate.Unitary
           ( clifford_unitaries_1q.(Rng.int rng (Array.length clifford_unitaries_1q)),
             [| Rng.int rng n |] ))
  done;
  List.iter (fun q -> emit (Gate.Measure q)) (List.init n Fun.id);
  Circuit.of_list ~name:(Printf.sprintf "clifford-%d" seed) n (List.rev !instrs)

let prop_clifford_plan_matches_trajectory =
  QCheck.Test.make ~name:"random Clifford circuits: tableau = state vector"
    ~count:25
    QCheck.(int_range 0 9999)
    (fun seed ->
      let circuit = random_clifford_circuit seed in
      assert (Engine.clifford_blocker circuit = None);
      let tab = Engine.run ~seed ~plan:Engine.Clifford ~shots:64 circuit in
      let sv = Engine.run ~seed ~plan:Engine.Trajectory ~shots:64 circuit in
      canon tab.Engine.histogram = canon sv.Engine.histogram
      (* The static tally: same gate applies (conditionals included) and
         measurements on both executors. *)
      && tab.Engine.report.Engine.gate_applies = sv.Engine.report.Engine.gate_applies
      && tab.Engine.report.Engine.measurements = sv.Engine.report.Engine.measurements)

(* The same identity on the widened circuits, whichever Clifford executor
   runs them: the symbolic one (one tableau pass, then coins per shot) or,
   with a conditional H/S/CNOT, the per-shot one. *)
let prop_feedback_clifford_matches_trajectory =
  QCheck.Test.make ~name:"random feedback Clifford circuits: tableau = state vector"
    ~count:40
    QCheck.(int_range 0 9999)
    (fun seed ->
      let circuit = random_clifford_circuit ~wide:true seed in
      assert (Engine.clifford_blocker circuit = None);
      let tab = Engine.run ~seed ~plan:Engine.Clifford ~shots:64 circuit in
      let sv = Engine.run ~seed ~plan:Engine.Trajectory ~shots:64 circuit in
      tab.Engine.histogram = sv.Engine.histogram
      && tab.Engine.report.Engine.gate_applies = sv.Engine.report.Engine.gate_applies
      && tab.Engine.report.Engine.measurements = sv.Engine.report.Engine.measurements)

let simulate_attrs circuit run =
  let c = Trace.make_collector () in
  let result = Trace.collecting c run in
  let rec find nodes =
    List.find_map
      (fun n -> if n.Trace.span_name = "engine.simulate" then Some n else find n.Trace.children)
      nodes
  in
  match find (Trace.roots c) with
  | Some n -> (result, n.Trace.attrs)
  | None -> Alcotest.failf "%s: no engine.simulate span" (Circuit.name circuit)

(* 130 H+measure pairs on two qubits, each a random outcome, then
   conditional Paulis on the last ones: three form words. The symbolic
   executor must take it and match the state vector, sequentially, across
   the pool and under fault retries; a conditional H sends the same
   program to the per-shot executor. At 1 shot the budget
   ([Engine.symbolic_budget]) is 248 random outcomes: 247 pairs (plus the
   last measurement) stay symbolic, also with 20 more sites that are
   deterministic re-measurements, while 300 pairs run per shot. *)
let test_multiword_forms () =
  let feedback ?(pairs = 130) ?(again = 0) u =
    Circuit.of_list ~name:(Printf.sprintf "multiword-%d-%d-%s" pairs again (Gate.name u)) 3
      (List.concat
         (List.init pairs (fun k ->
              let q = k land 1 in
              [ Gate.Unitary (Gate.H, [| q |]); Gate.Measure q ]))
      @ List.init again (fun _ -> Gate.Measure 0)
      @ [
          Gate.Unitary (Gate.H, [| 2 |]);
          Gate.Conditional (0, u, [| 2 |]);
          Gate.Conditional (1, Gate.Y, [| 2 |]);
          Gate.Measure 2;
        ])
  in
  let check_run ?(shots = 96) circuit ~executor ~outcomes =
    let run faults plan () = Engine.run ~seed:5 ~plan ~shots ?faults circuit in
    let tab, attrs = simulate_attrs circuit (run None Engine.Clifford) in
    Alcotest.(check (option string))
      (Circuit.name circuit ^ ": executor")
      (Some executor)
      (Option.map Trace.value_to_string (List.assoc_opt "executor" attrs));
    Alcotest.(check (option string))
      (Circuit.name circuit ^ ": random outcomes")
      (Option.map string_of_int outcomes)
      (Option.map Trace.value_to_string (List.assoc_opt "random_outcomes" attrs));
    let saved = Parallel.domain_count () in
    Fun.protect
      ~finally:(fun () -> Parallel.set_domain_count saved)
      (fun () ->
        Parallel.set_domain_count 1;
        let sv = run None Engine.Trajectory () in
        Alcotest.check hist (Circuit.name circuit ^ ": = state vector") sv.Engine.histogram
          tab.Engine.histogram;
        Alcotest.(check (list (pair string int)))
          (Circuit.name circuit ^ ": gate applies")
          sv.Engine.report.Engine.gate_applies tab.Engine.report.Engine.gate_applies;
        Parallel.set_domain_count 4;
        Alcotest.check hist (Circuit.name circuit ^ ": 4 domains") sv.Engine.histogram
          (run None Engine.Clifford ()).Engine.histogram;
        let faults () = Some (Fault.make ~seed:4 { Fault.off with Fault.backend = 0.3 }) in
        let sv_f = run (faults ()) Engine.Trajectory () in
        let tab_f = run (faults ()) Engine.Clifford () in
        Alcotest.check hist (Circuit.name circuit ^ ": fault retries") sv_f.Engine.histogram
          tab_f.Engine.histogram;
        Alcotest.(check int)
          (Circuit.name circuit ^ ": faulted shots")
          sv_f.Engine.report.Engine.resilience.Engine.faulted_shots
          tab_f.Engine.report.Engine.resilience.Engine.faulted_shots)
  in
  (* The burst's 130 outcomes plus the final measurement of qubit 2. *)
  check_run (feedback Gate.X) ~executor:"symbolic" ~outcomes:(Some 131);
  check_run (feedback Gate.H) ~executor:"per-shot" ~outcomes:None;
  Alcotest.(check int) "budget at 1 shot" 248 (Engine.symbolic_budget ~shots:1);
  check_run ~shots:1 (feedback ~pairs:247 Gate.X) ~executor:"symbolic" ~outcomes:(Some 248);
  check_run ~shots:1 (feedback ~pairs:247 ~again:20 Gate.X) ~executor:"symbolic"
    ~outcomes:(Some 248);
  check_run ~shots:1 (feedback ~pairs:300 Gate.X) ~executor:"per-shot" ~outcomes:None

(* --- surface memory: seed-pinned histograms --- *)

(* The rotated surface code's stabilizers in [Code.rotated_surface]'s
   order, as qubit lists: [Code] packs Paulis into one int, so it stops at
   distance 7, and d = 9 is built here. *)
let rotated_surface_stabilizers d =
  let q r c = (r * d) + c in
  let stabs = ref [] in
  let add is_x qs = stabs := (is_x, List.sort compare qs) :: !stabs in
  for r = 0 to d - 2 do
    for c = 0 to d - 2 do
      add ((r + c) mod 2 <> 0) [ q r c; q r (c + 1); q (r + 1) c; q (r + 1) (c + 1) ]
    done
  done;
  for c = 0 to d - 2 do
    if (-1 + c) mod 2 <> 0 then add true [ q 0 c; q 0 (c + 1) ];
    if (d - 1 + c) mod 2 = 1 then add true [ q (d - 1) c; q (d - 1) (c + 1) ]
  done;
  for r = 0 to d - 2 do
    if (r - 1) mod 2 = 0 then add false [ q r 0; q (r + 1) 0 ];
    if (r + d - 1) mod 2 = 0 then add false [ q r (d - 1); q (r + 1) (d - 1) ]
  done;
  List.rev !stabs

(* [rounds] copies of [Code.syndrome_circuit], then every data qubit read
   out: the memory experiment stackbench's qec-clifford runs. *)
let surface_memory d ~rounds =
  let data = d * d and stabs = rotated_surface_stabilizers d in
  let round =
    List.concat
      (List.mapi
         (fun i (is_x, support) ->
           let a = data + i in
           let cnot c t = Gate.Unitary (Gate.Cnot, [| c; t |]) in
           let h = Gate.Unitary (Gate.H, [| a |]) in
           (Gate.Prep a
           :: (if is_x then (h :: List.map (cnot a) support) @ [ h ]
               else List.map (fun q -> cnot q a) support))
           @ [ Gate.Measure a ])
         stabs)
  in
  Circuit.of_list (data + List.length stabs)
    (List.concat (List.init rounds (fun _ -> round)) @ List.init data (fun q -> Gate.Measure q))

let code_memory code ~rounds =
  let round = Code.syndrome_circuit code in
  Circuit.append (Circuit.repeat rounds round)
    (Circuit.of_list (Circuit.qubit_count round)
       (List.init code.Code.n (fun q -> Gate.Measure q)))

(* MD5 of each histogram as listed ("key:count" joined by ';', in the
   report's order), with the run's measurements and gate applies, from the
   per-shot tableau executor at 256 shots, seeds 1-5. *)
let memory_pins =
  [
    ( "surface-d5-r5", (fun () -> surface_memory 5 ~rounds:5), 37120, 133120,
      [ "578aeed6a1e893f2335fb0e3309d4362"; "48d58c340f06d127cede513d29466abe";
        "84100e0e942c41f9bb36c8a3db881a6f"; "d6f2f784292cebf6c4f0759ed3463dcc";
        "f1e262f2cf9a1e3ff5deec16593be322" ] );
    ( "surface-d7-r7", (fun () -> surface_memory 7 ~rounds:7), 98560, 387072,
      [ "7a30e957b914d8e8b44700d861cd6d0b"; "063fe04f86d19294e1ab8e8ae3f1600e";
        "bc9fc3b9485227a537034cbc3a225270"; "b06a49eb63ca5ab3d2efed6e8229b00c";
        "dc8bc57b79302261f9c85cc29f40308e" ] );
    ( "surface-d9-r3", (fun () -> surface_memory 9 ~rounds:3), 82176, 282624,
      [ "1781fadb1b542054471227e2da886c7a"; "3fb86743c83401e211b5ed1ed230c2e4";
        "630926a7d62cdf645d3b9f43dd2e8f43"; "29af4459eed7de24ad10dbeb1547a6b1";
        "9f9f80fb863a0cc167d67018931e4a8b" ] );
    ( "surface17-r10", (fun () -> code_memory Code.surface_17 ~rounds:10), 22784, 81920,
      [ "a96aa1cb2da7c2d414e9cdf17b352884"; "a8d47a01bb42ff8e03eaa9b6757e0558";
        "7e0c9c2b9b17e0a83685e824c7685224"; "1dc8547ce464b3489918d7a5c302a8cc";
        "e147cac5b4041752b0ee4d8f2d8c88f5" ] );
  ]

let test_memory_pins () =
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "d=%d layout = Code.rotated_surface" d)
        true
        (Circuit.instructions (surface_memory d ~rounds:2)
        = Circuit.instructions (code_memory (Code.rotated_surface d) ~rounds:2)))
    [ 3; 5; 7 ];
  List.iter
    (fun (name, circuit, measurements, applies, digests) ->
      let circuit = circuit () in
      List.iteri
        (fun i digest ->
          let seed = i + 1 in
          let r = Engine.run ~seed ~shots:256 circuit in
          let label = Printf.sprintf "%s seed %d" name seed in
          Alcotest.(check string) (label ^ ": plan") "clifford"
            (Engine.plan_to_string r.Engine.report.Engine.plan);
          Alcotest.(check string) (label ^ ": histogram digest") digest
            (Digest.to_hex
               (Digest.string
                  (String.concat ";"
                     (List.map (fun (k, c) -> k ^ ":" ^ string_of_int c) r.Engine.histogram))));
          Alcotest.(check int) (label ^ ": measurements") measurements
            r.Engine.report.Engine.measurements;
          Alcotest.(check int) (label ^ ": gate applies") applies
            (List.fold_left (fun acc (_, c) -> acc + c) 0 r.Engine.report.Engine.gate_applies))
        digests)
    memory_pins

(* --- no forced minor collection on a job path --- *)

(* OCaml's array constructor forces a minor collection when it fills an
   array longer than 256 words with a young block. With a minor heap large
   enough for everything a call allocates, a collection during the call is
   such a forced one, unless a major cycle ends inside the call: that
   empties every minor heap too. So the measured call starts right after a
   finished cycle ([Gc.full_major]), and a call in which a cycle still
   ended is measured again, up to five times. The call is deterministic,
   so a forced collection shows in every attempt. One domain, so no
   worker's heap is involved. *)
let minor_collections_in f =
  let saved_gc = Gc.get () and saved_domains = Parallel.domain_count () in
  Fun.protect
    ~finally:(fun () ->
      Gc.set saved_gc;
      Parallel.set_domain_count saved_domains)
    (fun () ->
      Parallel.set_domain_count 1;
      Gc.set { saved_gc with Gc.minor_heap_size = 1 lsl 20 };
      ignore (Sys.opaque_identity (f ()));
      let rec attempt left =
        Gc.full_major ();
        let before = Gc.quick_stat () and words_before = Gc.minor_words () in
        ignore (Sys.opaque_identity (f ()));
        let words = Gc.minor_words () -. words_before and after = Gc.quick_stat () in
        if words >= float_of_int (1 lsl 20) then
          Alcotest.failf "the call allocated %.0f words, more than the minor heap" words;
        if after.Gc.major_collections > before.Gc.major_collections && left > 1 then
          attempt (left - 1)
        else after.Gc.minor_collections - before.Gc.minor_collections
      in
      attempt 5)

let test_no_forced_minor_collection () =
  let memory = surface_memory 5 ~rounds:5 in
  Alcotest.(check int) "ideal d=5x5 memory, 256 shots" 0
    (minor_collections_in (fun () -> Engine.run ~seed:3 ~shots:256 memory));
  Alcotest.(check int) "Rng.streams of 500 from a fresh generator" 0
    (minor_collections_in (fun () -> Rng.streams (Rng.create 11) 500));
  (* Noisy trajectories: a 400-gate schedule prefix, then a 400-step tail
     behind a leading measurement. *)
  let gates = Library.random_circuit (Rng.create 5) ~qubits:6 ~gates:400 in
  let measure_all c =
    Circuit.append c (Circuit.of_list 6 (List.init 6 (fun q -> Gate.Measure q)))
  in
  let noise = Noise.depolarizing 0.01 in
  List.iter
    (fun (label, circuit) ->
      Alcotest.(check int) label 0
        (minor_collections_in (fun () -> Engine.run ~noise ~seed:3 ~shots:8 circuit)))
    [
      ("noisy 6x400, 8 shots", measure_all gates);
      ( "noisy 6x400 behind a measurement, 8 shots",
        measure_all (Circuit.append (Circuit.of_list 6 [ Gate.Measure 0 ]) gates) );
    ]

(* --- parallel batching: bit-identical at every domain-pool size --- *)

let test_parallel_bit_identity () =
  let saved = Parallel.domain_count () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_domain_count saved)
    (fun () ->
      let workloads =
        [
          ( "trajectory-random10x40",
            Engine.Trajectory,
            measured 10
              (Library.random_circuit (Rng.create 505) ~qubits:10 ~gates:40) );
          ( "clifford-teleport-x8",
            Engine.Clifford,
            Circuit.repeat 8 (Library.teleport ~prepare:Gate.H ()) );
        ]
      in
      List.iter
        (fun (name, plan, circuit) ->
          Parallel.set_domain_count 1;
          let reference =
            Engine.run ~seed:9 ~plan ~shots:200 circuit
          in
          List.iter
            (fun domains ->
              Parallel.set_domain_count domains;
              let r = Engine.run ~seed:9 ~plan ~shots:200 circuit in
              Alcotest.check hist
                (Printf.sprintf "%s: %d domains = sequential" name domains)
                (canon reference.Engine.histogram)
                (canon r.Engine.histogram))
            [ 2; 4; 8 ])
        workloads)

(* --- the planner must not tax non-Clifford fixtures --- *)

(* Auto runs the same sampled path plus one O(circuit) classification scan;
   best-of-9 wall clocks keep the guard robust to scheduler noise, and a
   small absolute slack absorbs timer granularity on sub-millisecond runs. *)
let test_auto_overhead_guard () =
  let time_best f =
    let best = ref infinity in
    for _ = 1 to 9 do
      let t0 = Sys.time () in
      ignore (Sys.opaque_identity (f ()));
      let dt = Sys.time () -. t0 in
      if dt < !best then best := dt
    done;
    Float.max 1e-9 !best
  in
  List.iter
    (fun (name, circuit) ->
      let forced_s =
        time_best (fun () ->
            Engine.run ~seed:3 ~plan:Engine.Sampled ~shots:2000 circuit)
      in
      let auto_s =
        time_best (fun () -> Engine.run ~seed:3 ~shots:2000 circuit)
      in
      if auto_s > (forced_s *. 1.05) +. 0.002 then
        Alcotest.failf "%s: auto %.6fs vs forced sampled %.6fs (> 5%%)" name
          auto_s forced_s)
    [
      ("qft8", measured 8 (Library.qft 8));
      ( "random8x40",
        measured 8 (Library.random_circuit (Rng.create 303) ~qubits:8 ~gates:40)
      );
    ]

(* --- the planner-driven QEC cycle runner --- *)

(* A QEC cycle is an ordinary job: [cycle_circuit] on a [Direct] route. *)
let run_cycles ?noise ~rounds ~shots code =
  let circuit = Code.cycle_circuit ~rounds code in
  let spec = Qca.Job_spec.make ~shots ~seed:11 ?noise (Qca.Job_spec.Circuit circuit) in
  match Qca.Runner.run spec with
  | Error e -> Alcotest.failf "qec run failed: %s" (Error.to_string e)
  | Ok o -> o

(* Fraction of shots whose final-round syndrome is trivial: histogram keys
   put qubit 0 rightmost, so the ancillas lead each key. *)
let quiet_fraction code (o : Qca.Runner.outcome) =
  let ancillas = Code.ancilla_count code in
  let quiet, total =
    List.fold_left
      (fun (quiet, total) (key, count) ->
        let trivial = not (String.contains (String.sub key 0 ancillas) '1') in
        ((if trivial then quiet + count else quiet), total + count))
      (0, 0) o.Qca.Runner.histogram
  in
  float_of_int quiet /. float_of_int total

let test_qec_run_ideal_takes_tableau () =
  let code = Code.bit_flip_repetition 3 in
  let o = run_cycles ~rounds:3 ~shots:256 code in
  Alcotest.(check bool)
    "ideal cycles take the tableau" true
    (o.Qca.Runner.report.Engine.plan = Engine.Clifford);
  (* |000> is a codeword of the repetition code: every syndrome is
     trivial under ideal noise. *)
  Alcotest.(check (float 1e-9)) "quiet" 1.0 (quiet_fraction code o)

let test_qec_run_noisy_takes_trajectories () =
  let o = run_cycles ~noise:0.05 ~rounds:2 ~shots:64 (Code.bit_flip_repetition 3) in
  Alcotest.(check bool)
    "noisy cycles take trajectories" true
    (o.Qca.Runner.report.Engine.plan = Engine.Trajectory)

let () =
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "qca_plan"
    [
      ( "classification",
        [
          Alcotest.test_case "no misclassification on corpus" `Quick
            test_no_misclassification;
          Alcotest.test_case "auto clifford = state vector" `Quick
            test_auto_clifford_matches_state_vector;
        ] );
      ( "forcing",
        [
          Alcotest.test_case "clifford blocker named" `Quick
            test_forced_clifford_names_blocker;
          Alcotest.test_case "clifford rejects noise" `Quick
            test_forced_clifford_rejects_noise;
          Alcotest.test_case "clifford accepted when sound" `Quick
            test_forced_clifford_accepted_when_sound;
        ] );
      ( "identity",
        [
          qtest prop_clifford_plan_matches_trajectory;
          qtest prop_feedback_clifford_matches_trajectory;
          Alcotest.test_case "multi-word forms: symbolic = state vector" `Quick
            test_multiword_forms;
          Alcotest.test_case "surface memory digests" `Quick test_memory_pins;
          Alcotest.test_case "parallel = sequential at 2/4/8 domains" `Quick
            test_parallel_bit_identity;
        ] );
      ( "performance",
        [
          Alcotest.test_case "auto overhead under 5%" `Quick
            test_auto_overhead_guard;
          Alcotest.test_case "no forced minor collection" `Quick
            test_no_forced_minor_collection;
        ] );
      ( "qec-run",
        [
          Alcotest.test_case "ideal takes tableau" `Quick
            test_qec_run_ideal_takes_tableau;
          Alcotest.test_case "noisy takes trajectories" `Quick
            test_qec_run_noisy_takes_trajectories;
        ] );
    ]
