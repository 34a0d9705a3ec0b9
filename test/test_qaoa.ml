(* Tests for the QAOA hybrid optimiser. *)

module Qaoa = Qca_qaoa.Qaoa
module Ising = Qca_anneal.Ising
module Qubo = Qca_anneal.Qubo
module State = Qca_qx.State
module Sim = Qca_qx.Sim
module Circuit = Qca_circuit.Circuit
module Rng = Qca_util.Rng

let check_float = Alcotest.(check (float 1e-9))

let antiferro_pair () =
  (* J = +1 on one pair: ground states |01>, |10> with energy -1. *)
  { Ising.n = 2; h = [| 0.0; 0.0 |]; couplings = [ (0, 1, 1.0) ] }

let field_only () = { Ising.n = 2; h = [| 0.5; -0.8 |]; couplings = [] }

let test_spin_energy_of_basis () =
  let m = antiferro_pair () in
  check_float "00 -> ++ = +1" 1.0 (Qaoa.spin_energy_of_basis m 3);
  check_float "01 -> -+ = -1" (-1.0) (Qaoa.spin_energy_of_basis m 1);
  let f = field_only () in
  (* basis 0: both spins -1: E = -0.5 + 0.8 *)
  check_float "fields" 0.3 (Qaoa.spin_energy_of_basis f 0)

let test_zero_params_uniform () =
  let m = antiferro_pair () in
  let p = { Qaoa.gammas = [| 0.0 |]; betas = [| 0.0 |] } in
  let state = Qaoa.evolve m p in
  for k = 0 to 3 do
    check_float "uniform" 0.25 (State.probability_of state k)
  done;
  (* <H> over uniform distribution: (1 - 1 - 1 + 1)/4 = 0 *)
  check_float "expectation 0" 0.0 (Qaoa.expectation m p)

let test_expectation_bounded_by_ground () =
  let m = antiferro_pair () in
  let rng = Rng.create 1 in
  for _ = 1 to 20 do
    let p =
      { Qaoa.gammas = [| Rng.float rng Float.pi |]; betas = [| Rng.float rng Float.pi |] }
    in
    let e = Qaoa.expectation m p in
    Alcotest.(check bool) "above ground energy" true (e >= -1.0 -. 1e-9);
    Alcotest.(check bool) "below max energy" true (e <= 1.0 +. 1e-9)
  done

let test_cost_circuit_matches_diagonal () =
  (* The gate-level cost layer must equal the diagonal evolution up to
     global phase: compare QAOA states built both ways. *)
  let m = { Ising.n = 3; h = [| 0.3; -0.2; 0.0 |]; couplings = [ (0, 1, 0.7); (1, 2, -0.4) ] } in
  let gamma = 0.613 in
  (* way 1: direct diagonal *)
  let s1 = State.create 3 in
  for q = 0 to 2 do
    Qca_qx.State.apply s1 Qca_circuit.Gate.H [| q |]
  done;
  let energies = Array.init 8 (Qaoa.spin_energy_of_basis m) in
  State.apply_diagonal_phase s1 (fun k -> -.gamma *. energies.(k));
  (* way 2: circuit *)
  let c = Qaoa.cost_circuit m gamma in
  let s2 = State.create 3 in
  for q = 0 to 2 do
    Qca_qx.State.apply s2 Qca_circuit.Gate.H [| q |]
  done;
  List.iter
    (fun instr ->
      match instr with
      | Qca_circuit.Gate.Unitary (u, ops) -> State.apply s2 u ops
      | Qca_circuit.Gate.Conditional _ | Qca_circuit.Gate.Prep _
      | Qca_circuit.Gate.Measure _ | Qca_circuit.Gate.Barrier _ -> ())
    (Circuit.instructions c);
  Alcotest.(check (float 1e-9)) "fidelity 1 (phase-insensitive)" 1.0 (State.fidelity s1 s2)

let test_full_circuit_matches_evolve () =
  let m = antiferro_pair () in
  let p = { Qaoa.gammas = [| 0.4; 0.9 |]; betas = [| 0.7; 0.2 |] } in
  let direct = Qaoa.evolve m p in
  let circuit = Qaoa.full_circuit m p in
  let via_circuit = (Sim.run circuit).Sim.state in
  Alcotest.(check (float 1e-9)) "fidelity 1" 1.0 (State.fidelity direct via_circuit)

let test_optimize_antiferro () =
  let rng = Rng.create 7 in
  let result = Qaoa.optimize ~layers:1 ~rng (antiferro_pair ()) in
  (* p=1 QAOA solves a single antiferromagnetic pair exactly. *)
  Alcotest.(check (float 1e-9)) "ground energy found" (-1.0) result.Qaoa.best_energy;
  Alcotest.(check bool) "expectation below 0" true (result.Qaoa.expectation_value < -0.5)

let test_optimize_finds_field_ground () =
  let rng = Rng.create 11 in
  let m = field_only () in
  let result = Qaoa.optimize ~layers:2 ~rng m in
  (* ground: s0 = -1 (h>0), s1 = +1 (h<0): E = -0.5 - 0.8 = -1.3 *)
  Alcotest.(check (float 1e-9)) "ground" (-1.3) result.Qaoa.best_energy

let test_more_layers_no_worse () =
  let rng1 = Rng.create 13 and rng2 = Rng.create 13 in
  let m =
    { Ising.n = 4; h = [| 0.1; -0.3; 0.2; 0.0 |];
      couplings = [ (0, 1, 1.0); (1, 2, -0.5); (2, 3, 0.8); (0, 3, 0.4) ] }
  in
  let r1 = Qaoa.optimize ~layers:1 ~restarts:4 ~rng:rng1 m in
  let r2 = Qaoa.optimize ~layers:2 ~restarts:4 ~rng:rng2 m in
  Alcotest.(check bool) "deeper circuit at least as good (expectation)" true
    (r2.Qaoa.expectation_value <= r1.Qaoa.expectation_value +. 0.05)

let test_solve_qubo_small () =
  let q = Qubo.create 3 in
  Qubo.add q 0 0 (-1.0);
  Qubo.add q 1 1 2.0;
  Qubo.add q 0 2 (-2.0);
  Qubo.add q 2 2 0.5;
  let _, exact = Qubo.brute_force q in
  let rng = Rng.create 17 in
  let _, found = Qaoa.solve_qubo ~layers:2 ~shots:512 ~rng q in
  Alcotest.(check (float 1e-6)) "qaoa finds qubo optimum" exact found

let test_qaoa_through_realistic_stack () =
  (* The full_circuit lowered through the superconducting compiler and run
     with noise must still concentrate probability on the two ground states
     of the antiferromagnetic pair. *)
  let m = antiferro_pair () in
  let rng = Rng.create 808 in
  let tuned = Qaoa.optimize ~layers:1 ~restarts:2 ~rng m in
  let circuit = Qaoa.full_circuit m tuned.Qaoa.params in
  let with_meas =
    Circuit.append circuit
      (Circuit.of_list 2 [ Qca_circuit.Gate.Measure 0; Qca_circuit.Gate.Measure 1 ])
  in
  let out =
    Qca_compiler.Compiler.compile Qca_compiler.Platform.superconducting_17
      Qca_compiler.Compiler.Realistic with_meas
  in
  let hist =
    (Qca_qx.Engine.run ~noise:Qca_compiler.Platform.superconducting_17.Qca_compiler.Platform.noise
       ~rng ~shots:400 out.Qca_compiler.Compiler.physical)
      .Qca_qx.Engine.histogram
  in
  let ground_mass =
    List.fold_left
      (fun acc (key, count) ->
        let n = String.length key in
        let b0 = key.[n - 1] and b1 = key.[n - 2] in
        if (b0 = '0' && b1 = '1') || (b0 = '1' && b1 = '0') then acc + count else acc)
      0 hist
  in
  Alcotest.(check bool) "ground states dominate through the stack" true
    (float_of_int ground_mass /. 400.0 > 0.75)

let test_evaluations_counted () =
  let rng = Rng.create 19 in
  let result = Qaoa.optimize ~layers:1 ~restarts:1 ~rng (antiferro_pair ()) in
  Alcotest.(check bool) "evaluations > 10" true (result.Qaoa.evaluations > 10)

let () =
  Alcotest.run "qca_qaoa"
    [
      ( "qaoa",
        [
          Alcotest.test_case "spin energy of basis" `Quick test_spin_energy_of_basis;
          Alcotest.test_case "zero params uniform" `Quick test_zero_params_uniform;
          Alcotest.test_case "expectation bounds" `Quick test_expectation_bounded_by_ground;
          Alcotest.test_case "cost circuit diagonal" `Quick test_cost_circuit_matches_diagonal;
          Alcotest.test_case "full circuit = evolve" `Quick test_full_circuit_matches_evolve;
          Alcotest.test_case "optimize antiferro" `Quick test_optimize_antiferro;
          Alcotest.test_case "optimize fields" `Quick test_optimize_finds_field_ground;
          Alcotest.test_case "layers monotone-ish" `Quick test_more_layers_no_worse;
          Alcotest.test_case "solve qubo" `Quick test_solve_qubo_small;
          Alcotest.test_case "evaluations counted" `Quick test_evaluations_counted;
          Alcotest.test_case "through realistic stack" `Quick test_qaoa_through_realistic_stack;
        ] );
    ]
