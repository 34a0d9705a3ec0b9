(* Static-estimator suite (`dune build @estimate`): the abstract
   interpretation must agree with the concrete artefacts it predicts —
   circuit accessors for counts and depth, instrumented engine runs for
   gate applications, the planner for plan choice — and the symbolic
   repeated-subcircuit path must agree with the unrolled ground truth.
   The admission-oracle behaviour built on top lives in test_service.ml. *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Cqasm = Qca_circuit.Cqasm
module Library = Qca_circuit.Library
module Engine = Qca_qx.Engine
module Noise = Qca_qx.Noise
module Estimate = Qca_analysis.Estimate
module Error_budget = Qca.Error_budget
module Code = Qca_qec.Code
module Rng = Qca_util.Rng

(* --- random circuits with every instruction kind the estimator tallies --- *)

let unitary_pool =
  [|
    Gate.I; Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdag; Gate.T;
    Gate.Tdag; Gate.X90; Gate.Xm90; Gate.Y90; Gate.Ym90; Gate.Rx 0.3;
    Gate.Ry 0.7; Gate.Rz 1.1; Gate.Cnot; Gate.Cz; Gate.Swap;
    Gate.Cphase 0.5; Gate.Crk 2; Gate.Toffoli;
  |]

let random_operands rng n arity =
  let ops = Array.make arity 0 in
  let rec pick i =
    if i < arity then begin
      let q = Rng.int rng n in
      if Array.exists (fun o -> o = q) (Array.sub ops 0 i) then pick i
      else begin
        ops.(i) <- q;
        pick (i + 1)
      end
    end
  in
  pick 0;
  ops

let random_instr rng n =
  match Rng.int rng 10 with
  | 0 -> Gate.Prep (Rng.int rng n)
  | 1 -> Gate.Measure (Rng.int rng n)
  | 2 -> Gate.Barrier (random_operands rng n (1 + Rng.int rng n))
  | 3 ->
      let u = unitary_pool.(Rng.int rng (Array.length unitary_pool)) in
      Gate.Conditional (Rng.int rng n, u, random_operands rng n (Gate.arity u))
  | _ ->
      let u = unitary_pool.(Rng.int rng (Array.length unitary_pool)) in
      Gate.Unitary (u, random_operands rng n (Gate.arity u))

let random_mixed_circuit seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 6 in
  let len = Rng.int rng 60 in
  Circuit.of_list n (List.init len (fun _ -> random_instr rng n))

(* --- counts and depth against the circuit's own accessors --- *)

let prop_counts_match_circuit =
  QCheck.Test.make ~name:"static counts/depth = circuit accessors" ~count:200
    QCheck.(int_range 0 99_999)
    (fun seed ->
      let c = random_mixed_circuit seed in
      let est = Estimate.of_circuit c in
      est.Estimate.instructions = Circuit.length c
      && est.Estimate.gates = Circuit.gate_count c
      && Estimate.classes_total est.Estimate.classes = est.Estimate.gates
      && est.Estimate.depth = Circuit.depth c
      && est.Estimate.depth_exact
      && est.Estimate.qubits_used = List.length (Circuit.qubits_used c))

(* --- gate applications against an instrumented trajectory run --- *)

let prop_counts_match_engine =
  QCheck.Test.make ~name:"static gates/measures = engine counters (1 shot)"
    ~count:60
    QCheck.(int_range 0 99_999)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 5 in
      let base = Library.random_circuit rng ~qubits:n ~gates:(Rng.int rng 40) in
      let c =
        Circuit.append base
          (Circuit.of_list n (List.init n (fun q -> Gate.Measure q)))
      in
      let est = Estimate.of_circuit c in
      let r = Engine.run ~seed:7 ~plan:Engine.Trajectory ~shots:1 c in
      let applied =
        List.fold_left (fun acc (_, k) -> acc + k) 0
          r.Engine.report.Engine.gate_applies
      in
      applied = est.Estimate.gates
      && r.Engine.report.Engine.measurements = est.Estimate.measurements)

(* --- symbolic repetition = unrolled ground truth --- *)

let program_of subcircuits qubit_count =
  { Cqasm.qubit_count; error_model = None; subcircuits }

let prop_symbolic_equals_unrolled =
  (* Iteration counts straddle the direct-iteration cap (256) so both the
     concrete walk and the converge-and-extrapolate path are exercised. *)
  QCheck.Test.make ~name:"repeat-symbolic estimate = unrolled estimate"
    ~count:120
    QCheck.(pair (int_range 0 99_999) (oneofl [ 1; 2; 7; 63; 256; 300; 977 ]))
    (fun (seed, iters) ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 4 in
      let body _ =
        Circuit.of_list n
          (List.init (1 + Rng.int rng 12) (fun _ -> random_instr rng n))
      in
      let program =
        program_of
          [ ("init", 1, body ()); ("cycle", iters, body ()); ("tail", 1, body ()) ]
          n
      in
      let sym = Estimate.of_program program in
      let unrolled = Estimate.of_circuit (Cqasm.flatten program) in
      sym.Estimate.instructions = unrolled.Estimate.instructions
      && sym.Estimate.gates = unrolled.Estimate.gates
      && sym.Estimate.classes = unrolled.Estimate.classes
      && sym.Estimate.conditionals = unrolled.Estimate.conditionals
      && sym.Estimate.measurements = unrolled.Estimate.measurements
      && sym.Estimate.preps = unrolled.Estimate.preps
      && sym.Estimate.barriers = unrolled.Estimate.barriers
      && sym.Estimate.qubits_used = unrolled.Estimate.qubits_used
      && (not sym.Estimate.depth_exact)
         || sym.Estimate.depth = unrolled.Estimate.depth)

(* --- plan prediction = the planner's actual choice --- *)

let corpus () =
  let measured n base =
    Circuit.append base
      (Circuit.of_list n (List.init n (fun q -> Gate.Measure q)))
  in
  [
    ("bell", measured 2 (Library.bell ()));
    ("ghz5", measured 5 (Library.ghz 5));
    ("teleport", Library.teleport ());
    ("teleport-clifford", Library.teleport ~prepare:Gate.H ());
    ("qft4", measured 4 (Library.qft 4));
    ( "random8x40",
      measured 8 (Library.random_circuit (Rng.create 303) ~qubits:8 ~gates:40)
    );
    ("qec-surface17-r2", Qca.Qec_run.cycle_circuit ~rounds:2 Code.surface_17);
  ]

let test_plan_prediction () =
  List.iter
    (fun (name, circuit) ->
      List.iter
        (fun shots ->
          let predicted = (Estimate.of_circuit ~shots circuit).Estimate.plan in
          let actual, _ = Engine.analyse ~shots circuit in
          Alcotest.(check string)
            (Printf.sprintf "%s @ %d shots" name shots)
            (Engine.plan_to_string actual)
            (Engine.plan_to_string predicted))
        [ 16; 1024; 100_000 ];
      let noisy = Estimate.of_circuit ~noisy:true circuit in
      Alcotest.(check string)
        (name ^ ": noise forces trajectories") "trajectory"
        (Engine.plan_to_string noisy.Estimate.plan))
    (corpus ())

let prop_plan_prediction_random =
  QCheck.Test.make ~name:"plan prediction = Engine.analyse (random)" ~count:100
    QCheck.(int_range 0 99_999)
    (fun seed ->
      let c = random_mixed_circuit seed in
      let shots = 1 + (seed mod 4096) in
      let predicted = (Estimate.of_circuit ~shots c).Estimate.plan in
      let actual, _ = Engine.analyse ~shots c in
      predicted = actual)

(* --- the acceptance benchmark: a million-round QEC program, symbolically --- *)

let test_symbolic_qec_million_rounds () =
  let rounds = 1_000_000 in
  let round = Qca.Qec_run.cycle_circuit ~rounds:1 Code.surface_17 in
  let program = program_of [ ("cycle", rounds, round) ] 17 in
  let t0 = Unix.gettimeofday () in
  let est = Estimate.of_program program in
  let elapsed = Unix.gettimeofday () -. t0 in
  let per_round = Estimate.of_circuit round in
  Alcotest.(check int)
    "instructions scale linearly"
    (rounds * per_round.Estimate.instructions)
    est.Estimate.instructions;
  Alcotest.(check int)
    "gates scale linearly"
    (rounds * per_round.Estimate.gates)
    est.Estimate.gates;
  Alcotest.(check int)
    "measurements scale linearly"
    (rounds * per_round.Estimate.measurements)
    est.Estimate.measurements;
  Alcotest.(check bool) "depth is exact" true est.Estimate.depth_exact;
  (* The depth recurrence is linear once the busy profile stabilises:
     flattening k and k+1 rounds pins the per-round increment the symbolic
     walk must reproduce at a million rounds. *)
  let depth_at k =
    Circuit.depth (Cqasm.flatten (program_of [ ("cycle", k, round) ] 17))
  in
  let d4 = depth_at 4 and d5 = depth_at 5 in
  Alcotest.(check int)
    "depth extrapolates the concrete recurrence"
    (d4 + ((rounds - 4) * (d5 - d4)))
    est.Estimate.depth;
  (* The point of the symbolic path: O(body), not O(body * rounds). The
     bound is generous (the acceptance target is 50ms) to stay robust on
     loaded CI machines. *)
  Alcotest.(check bool)
    (Printf.sprintf "estimated in %.1f ms" (elapsed *. 1e3))
    true (elapsed < 1.0)

(* --- the fault-tolerant projection --- *)

let test_ft_footprint_matches_code () =
  List.iter
    (fun d ->
      Alcotest.(check int)
        (Printf.sprintf "rotated surface d=%d physical qubits" d)
        ((2 * d * d) - 1)
        (Code.physical_qubits (Code.rotated_surface d)))
    [ 3; 5 ];
  let ft =
    Error_budget.fault_tolerant ~target:1e-9 ~physical_error:1e-3
      ~logical_qubits:5 ~depth:100 ()
  in
  Alcotest.(check bool) "feasible at p=1e-3" true ft.Error_budget.feasible;
  Alcotest.(check int) "footprint = logical * (2d^2 - 1)"
    (5 * ((2 * ft.Error_budget.distance * ft.Error_budget.distance) - 1))
    ft.Error_budget.ft_physical_qubits;
  Alcotest.(check int) "cycles = depth * d"
    (100 * ft.Error_budget.distance)
    ft.Error_budget.cycles;
  Alcotest.(check bool) "meets the target" true
    (ft.Error_budget.logical_error <= 1e-9)

let test_ft_distance_monotone () =
  let distance target =
    (Error_budget.fault_tolerant ~target ~physical_error:1e-3
       ~logical_qubits:3 ~depth:50 ())
      .Error_budget.distance
  in
  let ds = List.map distance [ 1e-3; 1e-6; 1e-9; 1e-12 ] in
  Alcotest.(check bool)
    "tighter targets need larger distances" true
    (List.sort compare ds = ds);
  List.iter
    (fun d -> Alcotest.(check bool) "odd distance" true (d mod 2 = 1))
    ds

let test_ft_above_threshold_infeasible () =
  let ft =
    Error_budget.fault_tolerant ~target:1e-9 ~physical_error:0.02
      ~logical_qubits:1 ~depth:1 ()
  in
  Alcotest.(check bool) "above threshold: no distance helps" false
    ft.Error_budget.feasible

(* --- resource diagnostics --- *)

let test_check_memory_and_runtime () =
  (* 40 measured qubits and a T gate: no Clifford escape hatch, 2^40
     amplitudes, 16 TiB — the R03 admission wall. *)
  let big =
    Circuit.of_list 40
      (Gate.Unitary (Gate.T, [| 0 |]) :: List.init 40 (fun q -> Gate.Measure q))
  in
  let est = Estimate.of_circuit big in
  let codes ds = List.map (fun d -> d.Qca_analysis.Diagnostic.code) ds in
  let ds = Estimate.check est in
  Alcotest.(check bool) "R03 fires" true (List.mem "R03" (codes ds));
  Alcotest.(check int) "R03 is an error" 2
    (Qca_analysis.Diagnostic.exit_code ds);
  (* The same register with one active qubit is priced at that qubit. *)
  let narrow =
    Estimate.of_circuit
      (Circuit.of_list 40 [ Gate.Unitary (Gate.T, [| 0 |]); Gate.Measure 0 ])
  in
  Alcotest.(check (float 0.0)) "active width priced" 2.0 narrow.Estimate.amplitudes;
  Alcotest.(check (list string)) "narrow is clean" [] (codes (Estimate.check narrow));
  let small = Estimate.of_circuit (Library.bell ()) in
  Alcotest.(check (list string)) "bell is clean" [] (codes (Estimate.check small))

let () =
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "qca_estimate"
    [
      ( "abstract-interpretation",
        [
          qtest prop_counts_match_circuit;
          qtest prop_counts_match_engine;
          qtest prop_symbolic_equals_unrolled;
        ] );
      ( "plan-prediction",
        [
          Alcotest.test_case "corpus plans match the planner" `Quick
            test_plan_prediction;
          qtest prop_plan_prediction_random;
        ] );
      ( "symbolic-qec",
        [
          Alcotest.test_case "surface-17 at a million rounds" `Quick
            test_symbolic_qec_million_rounds;
        ] );
      ( "fault-tolerant",
        [
          Alcotest.test_case "footprint matches Qca_qec.Code" `Quick
            test_ft_footprint_matches_code;
          Alcotest.test_case "distance monotone in target" `Quick
            test_ft_distance_monotone;
          Alcotest.test_case "above threshold is infeasible" `Quick
            test_ft_above_threshold_infeasible;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "R03 memory wall" `Quick
            test_check_memory_and_runtime;
        ] );
    ]
