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
    ("qec-surface17-r2", Qca.Qec_run.cycle_circuit ~rounds:2 Code.surface_17);
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
              if Engine.sampled_distribution circuit = None then
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

let random_clifford_circuit seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 4 in
  let gates = 1 + Rng.int rng 40 in
  let instrs = ref [] in
  for _ = 1 to gates do
    let r = Rng.float rng 1.0 in
    if r < 0.15 then instrs := Gate.Measure (Rng.int rng n) :: !instrs
    else if r < 0.25 then begin
      let bit = Rng.int rng n in
      let target = Rng.int rng n in
      let u = if Rng.bool rng then Gate.X else Gate.Z in
      instrs := Gate.Conditional (bit, u, [| target |]) :: !instrs
    end
    else if r < 0.55 then begin
      let a = Rng.int rng n in
      let b = (a + 1 + Rng.int rng (n - 1)) mod n in
      let u = if Rng.bool rng then Gate.Cnot else Gate.Cz in
      instrs := Gate.Unitary (u, [| a; b |]) :: !instrs
    end
    else
      instrs :=
        Gate.Unitary
          ( clifford_unitaries_1q.(Rng.int rng (Array.length clifford_unitaries_1q)),
            [| Rng.int rng n |] )
        :: !instrs
  done;
  List.iter (fun q -> instrs := Gate.Measure q :: !instrs) (List.init n Fun.id);
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
  let circuit = Qca.Qec_run.cycle_circuit ~rounds code in
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
          Alcotest.test_case "parallel = sequential at 2/4/8 domains" `Quick
            test_parallel_bit_identity;
        ] );
      ( "performance",
        [
          Alcotest.test_case "auto overhead under 5%" `Quick
            test_auto_overhead_guard;
        ] );
      ( "qec-run",
        [
          Alcotest.test_case "ideal takes tableau" `Quick
            test_qec_run_ideal_takes_tableau;
          Alcotest.test_case "noisy takes trajectories" `Quick
            test_qec_run_noisy_takes_trajectories;
        ] );
    ]
