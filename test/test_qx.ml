(* Tests for the QX simulator: state vector, noise channels, executor. *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module State = Qca_qx.State
module Noise = Qca_qx.Noise
module Sim = Qca_qx.Sim
module Rng = Qca_util.Rng
module Cplx = Qca_util.Cplx
module Matrix = Qca_util.Matrix

let check_float = Alcotest.(check (float 1e-9))
let check_loose = Alcotest.(check (float 0.03))

(* --- state basics --- *)

let test_initial_state () =
  let s = State.create 3 in
  check_float "amp 0" 1.0 (State.probability_of s 0);
  check_float "norm" 1.0 (State.norm s);
  Alcotest.(check int) "dim" 8 (State.dimension s)

let test_x_flips () =
  let s = State.create 2 in
  State.apply s Gate.X [| 1 |];
  check_float "now |10>" 1.0 (State.probability_of s 0b10)

let test_h_superposition () =
  let s = State.create 1 in
  State.apply s Gate.H [| 0 |];
  check_float "p0" 0.5 (State.probability_of s 0);
  check_float "p1" 0.5 (State.probability_of s 1)

let test_bell_state () =
  let s = State.create 2 in
  State.apply s Gate.H [| 0 |];
  State.apply s Gate.Cnot [| 0; 1 |];
  check_float "p00" 0.5 (State.probability_of s 0);
  check_float "p11" 0.5 (State.probability_of s 3);
  check_float "p01" 0.0 (State.probability_of s 1)

let test_cnot_control_required () =
  let s = State.create 2 in
  State.apply s Gate.Cnot [| 0; 1 |];
  check_float "|00> unchanged" 1.0 (State.probability_of s 0)

let test_swap () =
  let s = State.create 2 in
  State.apply s Gate.X [| 0 |];
  State.apply s Gate.Swap [| 0; 1 |];
  check_float "now |10>" 1.0 (State.probability_of s 0b10)

let test_toffoli () =
  let s = State.create 3 in
  State.apply s Gate.X [| 0 |];
  State.apply s Gate.X [| 1 |];
  State.apply s Gate.Toffoli [| 0; 1; 2 |];
  check_float "target flipped" 1.0 (State.probability_of s 0b111)

let test_cz_phase () =
  let s = State.create 2 in
  State.apply s Gate.X [| 0 |];
  State.apply s Gate.X [| 1 |];
  State.apply s Gate.Cz [| 0; 1 |];
  Alcotest.(check bool) "phase -1" true
    (Cplx.approx_equal (State.amplitude s 3) (Cplx.make (-1.0) 0.0))

(* Each named gate must act exactly like its matrix (via apply_generic). *)
let test_fast_paths_match_generic () =
  let gates1 = [ Gate.X; Gate.Z; Gate.S; Gate.Sdag; Gate.T; Gate.Tdag; Gate.Rz 0.7 ] in
  let rng = Rng.create 99 in
  List.iter
    (fun u ->
      (* random 2-qubit state, compare fast path against dense embedding *)
      let amps = Array.init 4 (fun _ -> Cplx.make (Rng.gaussian rng) (Rng.gaussian rng)) in
      let s1 = State.of_amplitudes amps in
      let s2 = State.copy s1 in
      State.apply s1 u [| 1 |];
      let c = Circuit.of_list 2 [ Gate.Unitary (u, [| 1 |]) ] in
      let m = Circuit.unitary_matrix c in
      let expected = Matrix.apply m (Array.init 4 (State.amplitude s2)) in
      Array.iteri
        (fun k e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s amp %d" (Gate.name u) k)
            true
            (Cplx.approx_equal ~eps:1e-9 e (State.amplitude s1 k)))
        expected)
    gates1

let test_two_qubit_fast_paths_match () =
  let gates = [ Gate.Cnot; Gate.Cz; Gate.Swap; Gate.Cphase 0.9; Gate.Crk 2 ] in
  let rng = Rng.create 123 in
  List.iter
    (fun u ->
      let amps = Array.init 8 (fun _ -> Cplx.make (Rng.gaussian rng) (Rng.gaussian rng)) in
      let s1 = State.of_amplitudes amps in
      let s2 = State.copy s1 in
      State.apply s1 u [| 2; 0 |];
      let c = Circuit.of_list 3 [ Gate.Unitary (u, [| 2; 0 |]) ] in
      let m = Circuit.unitary_matrix c in
      let expected = Matrix.apply m (Array.init 8 (State.amplitude s2)) in
      Array.iteri
        (fun k e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s amp %d" (Gate.name u) k)
            true
            (Cplx.approx_equal ~eps:1e-9 e (State.amplitude s1 k)))
        expected)
    gates

let test_measure_deterministic () =
  let s = State.create 2 in
  State.apply s Gate.X [| 1 |];
  let rng = Rng.create 1 in
  Alcotest.(check int) "q1 is 1" 1 (State.measure s rng 1);
  Alcotest.(check int) "q0 is 0" 0 (State.measure s rng 0)

let test_measure_collapses_entanglement () =
  let rng = Rng.create 4 in
  for _ = 1 to 20 do
    let s = State.create 2 in
    State.apply s Gate.H [| 0 |];
    State.apply s Gate.Cnot [| 0; 1 |];
    let m0 = State.measure s rng 0 in
    let m1 = State.measure s rng 1 in
    Alcotest.(check int) "correlated" m0 m1
  done

let test_measure_statistics () =
  let rng = Rng.create 5 in
  let shots = 5000 in
  (* Ry(2*asin(sqrt(0.3))) gives P(1)=0.3. *)
  let theta = 2.0 *. asin (sqrt 0.3) in
  let hits = ref 0 in
  for _ = 1 to shots do
    let s = State.create 1 in
    State.apply s (Gate.Ry theta) [| 0 |];
    if State.measure s rng 0 = 1 then incr hits
  done;
  check_loose "P(1)=0.3" 0.3 (float_of_int !hits /. float_of_int shots)

let test_sample_index_distribution () =
  let s = State.create 2 in
  State.apply s Gate.H [| 0 |];
  let rng = Rng.create 6 in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    let k = State.sample_index s rng in
    counts.(k) <- counts.(k) + 1
  done;
  check_loose "p0" 0.5 (float_of_int counts.(0) /. 4000.0);
  check_loose "p1" 0.5 (float_of_int counts.(1) /. 4000.0);
  Alcotest.(check int) "p2 zero" 0 counts.(2)

let test_overlap_fidelity () =
  let a = State.create 1 in
  let b = State.create 1 in
  State.apply b Gate.H [| 0 |];
  check_float "fidelity" 0.5 (State.fidelity a b);
  check_float "self" 1.0 (State.fidelity a a)

let test_expectation_diag () =
  let s = State.create 1 in
  State.apply s Gate.H [| 0 |];
  let z = State.expectation_diag s (fun k -> if k = 0 then 1.0 else -1.0) in
  check_float "<Z> = 0" 0.0 z

let test_expectation_pauli () =
  (* Bell state: <XX> = <ZZ> = 1, <XI> = <ZI> = 0, <YY> = -1 *)
  let s = State.create 2 in
  State.apply s Gate.H [| 0 |];
  State.apply s Gate.Cnot [| 0; 1 |];
  check_float "<ZZ>" 1.0 (State.expectation_pauli s [ (0, 'Z'); (1, 'Z') ]);
  check_float "<XX>" 1.0 (State.expectation_pauli s [ (0, 'X'); (1, 'X') ]);
  check_float "<YY>" (-1.0) (State.expectation_pauli s [ (0, 'Y'); (1, 'Y') ]);
  check_float "<ZI>" 0.0 (State.expectation_pauli s [ (0, 'Z') ]);
  (* probe must not disturb the state *)
  check_float "state intact" 0.5 (State.probability_of s 0);
  (* |+> single qubit: <X> = 1, <Y> = <Z> = 0 *)
  let plus = State.create 1 in
  State.apply plus Gate.H [| 0 |];
  check_float "<X>" 1.0 (State.expectation_pauli plus [ (0, 'X') ]);
  check_float "<Y>" 0.0 (State.expectation_pauli plus [ (0, 'Y') ]);
  (* |+i> = S|+>: <Y> = 1 *)
  State.apply plus Gate.S [| 0 |];
  check_float "<Y> of +i" 1.0 (State.expectation_pauli plus [ (0, 'Y') ]);
  match State.expectation_pauli plus [ (0, 'X'); (0, 'Z') ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "repeated qubit accepted"

let test_memory_bytes () =
  Alcotest.(check int) "20 qubits = 16 MiB" (16 * 1024 * 1024) (State.memory_bytes 20)

(* --- ghz scaling sanity (the E5 experiment in miniature) --- *)

let test_ghz_12 () =
  let result = Sim.run (Library.ghz 12) in
  check_float "p(0...0)" 0.5 (State.probability_of result.Sim.state 0);
  check_float "p(1...1)" 0.5 (State.probability_of result.Sim.state ((1 lsl 12) - 1))

(* --- noise --- *)

let test_bit_flip_channel_rate () =
  let rng = Rng.create 21 in
  let flips = ref 0 in
  let shots = 20_000 in
  for _ = 1 to shots do
    let s = State.create 1 in
    Noise.apply (Noise.Bit_flip 0.25) s rng 0;
    if State.prob_one s 0 > 0.5 then incr flips
  done;
  check_loose "flip rate" 0.25 (float_of_int !flips /. float_of_int shots)

let test_amplitude_damping_decays () =
  let rng = Rng.create 31 in
  let shots = 20_000 in
  let excited = ref 0 in
  for _ = 1 to shots do
    let s = State.create 1 in
    State.apply s Gate.X [| 0 |];
    Noise.apply (Noise.Amplitude_damping 0.4) s rng 0;
    if State.prob_one s 0 > 0.5 then incr excited
  done;
  check_loose "survival 0.6" 0.6 (float_of_int !excited /. float_of_int shots)

let test_amplitude_damping_preserves_ground () =
  let rng = Rng.create 32 in
  let s = State.create 1 in
  Noise.apply (Noise.Amplitude_damping 0.9) s rng 0;
  check_float "ground stays" 0.0 (State.prob_one s 0)

let test_depolarizing_mixes () =
  let rng = Rng.create 41 in
  let shots = 30_000 in
  let ones = ref 0 in
  for _ = 1 to shots do
    let s = State.create 1 in
    Noise.apply (Noise.Depolarizing 0.3) s rng 0;
    if State.measure s rng 0 = 1 then incr ones
  done;
  (* X or Y with prob 0.3 * 2/3 = 0.2 flips |0> to |1> *)
  check_loose "P(1) = 0.2" 0.2 (float_of_int !ones /. float_of_int shots)

let test_ideal_model_detected () =
  Alcotest.(check bool) "ideal" true (Noise.is_ideal Noise.ideal);
  Alcotest.(check bool) "depolarizing not ideal" false (Noise.is_ideal (Noise.depolarizing 0.01));
  Alcotest.(check bool) "superconducting not ideal" false (Noise.is_ideal Noise.superconducting)

let test_readout_flip () =
  let rng = Rng.create 51 in
  let m = Noise.depolarizing 0.5 in
  let flips = ref 0 in
  for _ = 1 to 10_000 do
    if Noise.flip_readout m rng 0 = 1 then incr flips
  done;
  check_loose "half flipped" 0.5 (float_of_int !flips /. 10_000.0)

(* --- executor --- *)

let test_run_bell_histogram () =
  let circuit =
    Circuit.append (Library.bell ())
      (Circuit.of_list 2 [ Gate.Measure 0; Gate.Measure 1 ])
  in
  let hist = (Qca_qx.Engine.run ~shots:2000 circuit).Qca_qx.Engine.histogram in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 hist in
  Alcotest.(check int) "all shots" 2000 total;
  List.iter
    (fun (key, count) ->
      Alcotest.(check bool) ("only correlated keys: " ^ key) true (key = "00" || key = "11");
      check_loose "balanced" 0.5 (float_of_int count /. 2000.0))
    hist

let test_run_prep_resets () =
  let circuit =
    Circuit.of_list 1
      [ Gate.Unitary (Gate.X, [| 0 |]); Gate.Prep 0; Gate.Measure 0 ]
  in
  let result = Sim.run circuit in
  Alcotest.(check int) "reset to 0" 0 result.Sim.classical.(0)

let test_unmeasured_is_minus_one () =
  let result = Sim.run (Library.bell ()) in
  Alcotest.(check int) "no measurement" (-1) result.Sim.classical.(0)

(* The cQASM [error_model] directive is job-level: Job_spec folds it into
   the spec's noise, so every consumer of Runner.run sees it. *)
let ghz3_source ?(directive = "error_model depolarizing_channel, 0.2\n") () =
  "version 1.0\nqubits 3\n" ^ directive
  ^ "h q[0]\ncnot q[0], q[1]\ncnot q[1], q[2]\nmeasure_all\n"

let run_source ?noise src =
  let spec =
    { (Qca.Job_spec.of_source ~label:"ghz3" src) with
      Qca.Job_spec.shots = 300; seed = Some 2025; noise }
  in
  Qca.Runner.run spec

let test_source_error_model () =
  (* the embedded error model must be picked up: GHZ with heavy noise shows
     uncorrelated outcomes sometimes *)
  match run_source (ghz3_source ()) with
  | Error e -> Alcotest.fail (Qca_util.Error.to_string e)
  | Ok o ->
      let mismatched =
        List.fold_left
          (fun acc (key, c) -> if key = "000" || key = "111" then acc else acc + c)
          0 o.Qca.Runner.histogram
      in
      Alcotest.(check bool) "noise applied from directive" true (mismatched > 10);
      Alcotest.(check string) "trajectory plan" "stochastic noise model"
        o.Qca.Runner.report.Qca_qx.Engine.plan_reason;
      (* An explicit rate wins over the directive. *)
      (match run_source ~noise:0.0 (ghz3_source ()) with
      | Ok o0 ->
          List.iter
            (fun (key, _) ->
              Alcotest.(check bool) ("explicit noise wins: " ^ key) true
                (key = "000" || key = "111"))
            o0.Qca.Runner.histogram
      | Error e -> Alcotest.fail (Qca_util.Error.to_string e));
      (* An unknown model is a structured error naming it. *)
      match run_source (ghz3_source ~directive:"error_model amplitude_soup, 0.1\n" ()) with
      | Ok _ -> Alcotest.fail "unknown error model accepted"
      | Error e ->
          Alcotest.(check bool) "invalid kind" true
            (match e.Qca_util.Error.kind with Qca_util.Error.Invalid _ -> true | _ -> false);
          Alcotest.(check (option string)) "model named" (Some "amplitude_soup")
            (List.assoc_opt "model" e.Qca_util.Error.context)

let test_source_spec () =
  let src = "version 1.0\nqubits 2\nh q[0]\ncnot q[0], q[1]\nmeasure_all\n" in
  match run_source src with
  | Error e -> Alcotest.fail (Qca_util.Error.to_string e)
  | Ok o ->
      List.iter
        (fun (key, _) -> Alcotest.(check bool) ("correlated: " ^ key) true (key = "00" || key = "11"))
        o.Qca.Runner.histogram

let test_success_probability_ghz () =
  let circuit =
    Circuit.append (Library.ghz 3)
      (Circuit.of_list 3 [ Gate.Measure 0; Gate.Measure 1; Gate.Measure 2 ])
  in
  let accept bits = bits.(0) = bits.(1) && bits.(1) = bits.(2) in
  let p = Qca_qx.Engine.(success_probability (run ~shots:500 circuit) ~accept) in
  check_float "always correlated" 1.0 p

let test_noisy_ghz_degrades () =
  let circuit =
    Circuit.append (Library.ghz 3)
      (Circuit.of_list 3 [ Gate.Measure 0; Gate.Measure 1; Gate.Measure 2 ])
  in
  let accept bits = bits.(0) = bits.(1) && bits.(1) = bits.(2) in
  let rng = Rng.create 88 in
  let p =
    Qca_qx.Engine.(
      success_probability (run ~noise:(Noise.depolarizing 0.05) ~rng ~shots:800 circuit) ~accept)
  in
  Alcotest.(check bool) "degraded below perfect" true (p < 1.0);
  Alcotest.(check bool) "still better than chance" true (p > 0.5)

let test_expectation_z_plus_state () =
  let c = Circuit.of_list 1 [ Gate.Unitary (Gate.X, [| 0 |]) ] in
  check_float "<Z>|1> = -1" (-1.0) (Sim.expectation_z c 0)

let test_fidelity_decreases_with_noise () =
  let circuit = Library.ghz 4 in
  let rng = Rng.create 90 in
  let f_low =
    Sim.state_fidelity_vs_ideal ~noise:(Noise.depolarizing 0.001) ~rng ~shots:30 circuit
  in
  let f_high =
    Sim.state_fidelity_vs_ideal ~noise:(Noise.depolarizing 0.2) ~rng ~shots:30 circuit
  in
  Alcotest.(check bool) "ordering" true (f_low > f_high)

(* --- textbook oracle algorithms --- *)

let test_bernstein_vazirani_recovers_secret () =
  let rng = Rng.create 6 in
  List.iter
    (fun (n, secret) ->
      let circuit = Library.bernstein_vazirani ~secret n in
      let result = Sim.run ~rng circuit in
      let recovered = ref 0 in
      for q = 0 to n - 1 do
        if result.Sim.classical.(q) = 1 then recovered := !recovered lor (1 lsl q)
      done;
      Alcotest.(check int) (Printf.sprintf "secret %d on %d qubits" secret n) secret !recovered)
    [ (3, 0b101); (4, 0b1111); (5, 0b00000); (6, 0b101010) ]

let test_deutsch_jozsa_decides () =
  let rng = Rng.create 8 in
  let all_zero result n =
    let rec go q = q = n || (result.Sim.classical.(q) = 0 && go (q + 1)) in
    go 0
  in
  let constant = Sim.run ~rng (Library.deutsch_jozsa ~balanced:None 4) in
  Alcotest.(check bool) "constant reads all-zero" true (all_zero constant 4);
  let balanced = Sim.run ~rng (Library.deutsch_jozsa ~balanced:(Some 0b0110) 4) in
  Alcotest.(check bool) "balanced reads nonzero" false (all_zero balanced 4)

(* --- density matrix --- *)

module Density = Qca_qx.Density

let test_density_initial () =
  let d = Density.create 2 in
  check_float "trace" 1.0 (Density.trace d);
  check_float "purity" 1.0 (Density.purity d);
  check_float "p00" 1.0 (Density.probabilities d).(0)

let test_density_matches_statevector () =
  let rng = Rng.create 313 in
  for seed = 0 to 9 do
    let circuit = Library.random_circuit (Rng.create seed) ~qubits:3 ~gates:15 in
    let state = (Sim.run circuit).Sim.state in
    let d = Density.run circuit in
    Alcotest.(check (float 1e-9)) "pure evolution agrees" 1.0
      (Density.fidelity_with_state d state);
    check_float "purity 1" 1.0 (Density.purity d)
  done;
  ignore rng

let test_density_of_state () =
  let s = State.create 2 in
  State.apply s Gate.H [| 0 |];
  let d = Density.of_state s in
  check_float "fidelity with itself" 1.0 (Density.fidelity_with_state d s)

let test_depolarizing_exact () =
  (* Full depolarising (p=1 leaves I/2 mixture on Paulis... p chosen so the
     analytic single-qubit result is simple): after Depolarizing p on |0>,
     P(1) = 2p/3. *)
  let d = Density.create 1 in
  Density.apply_channel d (Qca_qx.Noise.Depolarizing 0.3) 0;
  check_float "P(1) = 0.2" 0.2 (Density.prob_one d 0);
  check_float "trace preserved" 1.0 (Density.trace d);
  Alcotest.(check bool) "mixed now" true (Density.purity d < 1.0)

let test_amplitude_damping_exact () =
  let d = Density.create 1 in
  Density.apply_unitary d Gate.X [| 0 |];
  Density.apply_channel d (Qca_qx.Noise.Amplitude_damping 0.4) 0;
  check_float "survival" 0.6 (Density.prob_one d 0);
  check_float "trace" 1.0 (Density.trace d)

let test_phase_damping_kills_coherence () =
  let d = Density.create 1 in
  Density.apply_unitary d Gate.H [| 0 |];
  let coherence_before = Qca_util.Cplx.abs (Density.get d 0 1) in
  Density.apply_channel d (Qca_qx.Noise.Phase_damping 0.75) 0;
  let coherence_after = Qca_util.Cplx.abs (Density.get d 0 1) in
  Alcotest.(check bool) "off-diagonal decays" true (coherence_after < coherence_before);
  (* populations untouched *)
  check_float "P(1) still 0.5" 0.5 (Density.prob_one d 0)

(* The key validation: Monte-Carlo trajectories must reproduce the exact
   density-matrix marginals. *)
let test_trajectories_match_density () =
  let circuit = Library.ghz 3 in
  let noise = Noise.depolarizing 0.05 in
  let exact = Density.run ~noise circuit in
  let rng = Rng.create 999 in
  let shots = 3000 in
  let ones = Array.make 3 0 in
  for _ = 1 to shots do
    let result = Sim.run ~noise ~rng circuit in
    for q = 0 to 2 do
      (* sample each qubit without collapsing correlations across qubits:
         use probabilities of the final state *)
      if Rng.bernoulli rng (State.prob_one result.Sim.state q) then
        ones.(q) <- ones.(q) + 1
    done
  done;
  for q = 0 to 2 do
    let sampled = float_of_int ones.(q) /. float_of_int shots in
    Alcotest.(check (float 0.04))
      (Printf.sprintf "qubit %d marginal" q)
      (Density.prob_one exact q) sampled
  done

let test_density_rejects_measurement () =
  let c = Circuit.of_list 1 [ Gate.Measure 0 ] in
  match Density.run c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "measurement accepted"

(* --- conditionals / teleportation --- *)

let test_conditional_fires_on_one () =
  let c =
    Circuit.of_list 2
      [
        Gate.Unitary (Gate.X, [| 0 |]);
        Gate.Measure 0;
        Gate.Conditional (0, Gate.X, [| 1 |]);
        Gate.Measure 1;
      ]
  in
  let result = Sim.run c in
  Alcotest.(check int) "conditional fired" 1 result.Sim.classical.(1)

let test_conditional_skips_on_zero () =
  let c =
    Circuit.of_list 2
      [ Gate.Measure 0; Gate.Conditional (0, Gate.X, [| 1 |]); Gate.Measure 1 ]
  in
  let result = Sim.run c in
  Alcotest.(check int) "conditional skipped" 0 result.Sim.classical.(1)

let test_teleportation_preserves_state () =
  (* Teleport Ry(theta)|0>: P(q2 = 1) must be sin^2(theta/2) regardless of
     the Bell-measurement outcomes. *)
  let theta = 1.234 in
  let expected = sin (theta /. 2.0) ** 2.0 in
  let circuit =
    Circuit.append
      (Library.teleport ~prepare:(Gate.Ry theta) ())
      (Circuit.of_list 3 [ Gate.Measure 2 ])
  in
  let rng = Rng.create 1717 in
  let shots = 4000 in
  let ones = ref 0 in
  for _ = 1 to shots do
    let result = Sim.run ~rng circuit in
    if result.Sim.classical.(2) = 1 then incr ones
  done;
  check_loose "teleported amplitude" expected (float_of_int !ones /. float_of_int shots)

let test_teleportation_exact_state () =
  (* Without the final measurement, Bob's qubit must carry exactly the
     payload state for every measurement branch. *)
  let theta = 0.789 in
  let rng = Rng.create 55 in
  for _ = 1 to 20 do
    let result = Sim.run ~rng (Library.teleport ~prepare:(Gate.Ry theta) ()) in
    let p1 = State.prob_one result.Sim.state 2 in
    Alcotest.(check (float 1e-9)) "P(1) exact" (sin (theta /. 2.0) ** 2.0) p1
  done

(* --- engine: run plans, shot sampling, backends --- *)

module Engine = Qca_qx.Engine

let measured_all n base =
  Circuit.append base (Circuit.of_list n (List.init n (fun q -> Gate.Measure q)))

let test_plan_classification () =
  let check name expected circuit =
    let plan, _ = Engine.analyse circuit in
    Alcotest.(check string) name expected (Engine.plan_to_string plan)
  in
  check "terminal measurements sample" "sampled" (measured_all 3 (Library.ghz 3));
  check "no measurement still samples" "sampled" (Library.ghz 3);
  check "leading prep is harmless" "sampled"
    (Circuit.of_list 2 [ Gate.Prep 0; Gate.Unitary (Gate.H, [| 0 |]); Gate.Measure 0 ]);
  (* All-Clifford circuits whose structure forces per-shot execution now go
     to the tableau; the same shapes with a non-Clifford gate still take
     state-vector trajectories. *)
  check "all-Clifford conditional goes to the tableau" "clifford"
    (Circuit.of_list 2
       [ Gate.Measure 0; Gate.Conditional (0, Gate.X, [| 1 |]); Gate.Measure 1 ]);
  check "non-Clifford conditional forces trajectories" "trajectory"
    (Circuit.of_list 2
       [ Gate.Measure 0; Gate.Conditional (0, Gate.T, [| 1 |]); Gate.Measure 1 ]);
  check "all-Clifford mid-circuit measurement goes to the tableau" "clifford"
    (Circuit.of_list 1 [ Gate.Measure 0; Gate.Unitary (Gate.X, [| 0 |]); Gate.Measure 0 ]);
  check "non-Clifford mid-circuit measurement forces trajectories" "trajectory"
    (Circuit.of_list 1 [ Gate.Measure 0; Gate.Unitary (Gate.T, [| 0 |]); Gate.Measure 0 ]);
  check "all-Clifford mid-circuit reset goes to the tableau" "clifford"
    (Circuit.of_list 1 [ Gate.Unitary (Gate.H, [| 0 |]); Gate.Prep 0; Gate.Measure 0 ]);
  check "non-Clifford mid-circuit reset forces trajectories" "trajectory"
    (Circuit.of_list 1 [ Gate.Unitary (Gate.T, [| 0 |]); Gate.Prep 0; Gate.Measure 0 ]);
  let plan, reason =
    Engine.analyse ~noise:(Noise.depolarizing 0.01) (measured_all 2 (Library.bell ()))
  in
  Alcotest.(check string) "noise forces trajectories" "trajectory" (Engine.plan_to_string plan);
  Alcotest.(check string) "noise reason" "stochastic noise model" reason

let test_forced_sampled_rejected () =
  let c = Circuit.of_list 2 [ Gate.Measure 0; Gate.Conditional (0, Gate.X, [| 1 |]) ] in
  match Engine.run ~plan:Engine.Sampled ~shots:10 c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "forced sampled plan accepted on a feedback circuit"

let test_conditional_takes_trajectory_path () =
  (* Feedback must still execute per shot with unchanged results: X, measure,
     conditional X always ends in |11>. *)
  let c =
    Circuit.of_list 2
      [
        Gate.Unitary (Gate.X, [| 0 |]);
        Gate.Measure 0;
        Gate.Conditional (0, Gate.X, [| 1 |]);
        Gate.Measure 1;
      ]
  in
  let result = Engine.run ~seed:4 ~shots:64 c in
  Alcotest.(check bool) "per-shot plan (tableau: the circuit is Clifford)" true
    (result.Engine.report.Engine.plan = Engine.Clifford);
  Alcotest.(check (list (pair string int))) "always 11" [ ("11", 64) ] result.Engine.histogram;
  (* Forcing the state-vector trajectory path must agree. *)
  let forced = Engine.run ~seed:4 ~plan:Engine.Trajectory ~shots:64 c in
  Alcotest.(check (list (pair string int)))
    "forced trajectory agrees" [ ("11", 64) ] forced.Engine.histogram

let test_report_metrics () =
  let result = Engine.run ~seed:3 ~shots:100 (measured_all 2 (Library.bell ())) in
  let report = result.Engine.report in
  Alcotest.(check int) "shots" 100 report.Engine.shots;
  Alcotest.(check (option int)) "seed recorded" (Some 3) report.Engine.seed;
  Alcotest.(check int) "measurements = shots x qubits" 200 report.Engine.measurements;
  Alcotest.(check (list (pair string int)))
    "gate applies counted once (single simulation pass)"
    [ ("cnot", 1); ("h", 1) ]
    (List.sort compare report.Engine.gate_applies);
  Alcotest.(check int) "histogram mass" 100
    (List.fold_left (fun acc (_, c) -> acc + c) 0 result.Engine.histogram);
  let module Json = Qca_util.Json in
  match Json.parse (Engine.report_to_json report) with
  | Error msg -> Alcotest.fail msg
  | Ok json ->
      let field path =
        List.fold_left (fun v key -> Option.bind v (Json.member key)) (Some json) path
      in
      Alcotest.(check bool) "json has plan" true (field [ "plan" ] = Some (Json.String "sampled"));
      Alcotest.(check bool) "json has seed" true (field [ "seed" ] = Some (Json.Int 3));
      Alcotest.(check bool) "json has gate applies" true
        (field [ "gate_applies"; "cnot" ] = Some (Json.Int 1))

(* Per-shot plans spend their time simulating, not sampling: the phase
   clock must be read after the shots run, not before. *)
let test_per_shot_phase_times () =
  let check name result =
    let w = result.Engine.report.Engine.wall in
    Alcotest.(check bool)
      (Printf.sprintf "%s: simulate_s %.6f >= sample_s %.6f" name w.Engine.simulate_s
         w.Engine.sample_s)
      true
      (w.Engine.simulate_s > 0.0 && w.Engine.simulate_s >= w.Engine.sample_s)
  in
  let qft = measured_all 10 (Library.qft 10) in
  check "forced trajectory" (Engine.run ~seed:4 ~plan:Engine.Trajectory ~shots:400 qft);
  check "noisy trajectory"
    (Engine.run ~seed:4 ~noise:(Noise.depolarizing 0.01) ~shots:400 qft);
  check "clifford"
    (Engine.run ~seed:4 ~plan:Engine.Clifford ~shots:4000 (measured_all 40 (Library.ghz 40)))

let test_plans_agree_deterministic () =
  (* A deterministic circuit must give the identical histogram on both
     plans, whatever the seed. *)
  List.iter
    (fun (n, secret) ->
      let circuit = Library.bernstein_vazirani ~secret n in
      let sampled = Engine.run ~seed:5 ~shots:200 circuit in
      let traj = Engine.run ~seed:99 ~plan:Engine.Trajectory ~shots:200 circuit in
      Alcotest.(check bool) "sampled plan chosen" true
        (sampled.Engine.report.Engine.plan = Engine.Sampled);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "identical histograms n=%d" n)
        (List.sort compare traj.Engine.histogram)
        (List.sort compare sampled.Engine.histogram))
    [ (3, 0b101); (5, 0b10110) ]

let test_same_seed_reproducible () =
  let circuit = measured_all 3 (Library.ghz 3) in
  let a = Engine.run ~seed:21 ~shots:500 circuit in
  let b = Engine.run ~seed:21 ~shots:500 circuit in
  Alcotest.(check (list (pair string int))) "same seed, same histogram"
    a.Engine.histogram b.Engine.histogram;
  Alcotest.(check bool) "default rng is one shared stream" true
    (Engine.default_rng () == Engine.default_rng ())

let test_backends_agree () =
  (* The state-vector engine and the density-matrix oracle sample the same
     distribution with the same generator, so with one seed they agree bit
     for bit. *)
  let bell = measured_all 2 (Library.bell ()) in
  let sv = Engine.run ~shots:2000 ~seed:7 bell in
  let dm = Density.sample ~shots:2000 ~seed:7 bell in
  Alcotest.(check (list (pair string int))) "identical histograms"
    sv.Engine.histogram dm.Engine.histogram

let test_density_backend_rejects_feedback () =
  let c = Circuit.of_list 2 [ Gate.Measure 0; Gate.Conditional (0, Gate.X, [| 1 |]) ] in
  match Density.sample ~shots:8 c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "density sampler accepted a feedback circuit"

let test_density_sample_under_noise () =
  (* Under gate noise the oracle applies the exact channels: with enough
     shots its histogram and the engine's noisy trajectories agree in
     distribution, and the oracle shows the noise as odd-parity mass. The
     oracle models gate channels only, not readout or preparation errors,
     so those stay off here. *)
  let bell = measured_all 2 (Library.bell ()) in
  let noise = { (Noise.depolarizing 0.05) with Noise.readout_error = 0.0; prep_error = 0.0 } in
  let shots = 4000 in
  let dm = Density.sample ~noise ~shots ~seed:7 bell in
  let sv = Engine.run ~noise ~shots ~seed:7 bell in
  let freq h key =
    float_of_int (try List.assoc key h with Not_found -> 0) /. float_of_int shots
  in
  let mass h = List.fold_left (fun acc (_, c) -> acc + c) 0 h in
  Alcotest.(check int) "oracle mass" shots (mass dm.Engine.histogram);
  let keys = [ "00"; "01"; "10"; "11" ] in
  let tv =
    0.5
    *. List.fold_left
         (fun acc k ->
           acc +. Float.abs (freq dm.Engine.histogram k -. freq sv.Engine.histogram k))
         0.0 keys
  in
  Alcotest.(check bool) (Printf.sprintf "tv distance %.3f < 0.05" tv) true (tv < 0.05);
  let odd h = freq h "01" +. freq h "10" in
  Alcotest.(check bool) "oracle shows the noise" true (odd dm.Engine.histogram > 0.0)

(* --- resilience --- *)

module Fault = Qca_util.Fault
module Resilience = Qca_util.Resilience

let test_fault_rate_zero_bit_identical () =
  (* An attached all-zero injector must not perturb anything: it has its own
     RNG stream and zero-rate sites draw nothing from it. *)
  let bell = measured_all 2 (Library.bell ()) in
  List.iter
    (fun plan ->
      let base = Engine.run ~seed:123 ?plan ~shots:500 bell in
      let off =
        Engine.run ~seed:123 ?plan ~shots:500 ~faults:(Fault.make Fault.off) bell
      in
      Alcotest.(check (list (pair string int))) "identical histograms"
        base.Engine.histogram off.Engine.histogram;
      Alcotest.(check int) "no faulted shots" 0
        off.Engine.report.Engine.resilience.Engine.faulted_shots)
    [ None; Some Engine.Trajectory ]

let test_transient_faults_retry_to_completion () =
  (* At a 0.2 backend fault rate with 8 retries, the chance any of 400 shots
     exhausts its budget is ~400 * 0.2^9 ~ 2e-4: every shot completes. *)
  let bell = measured_all 2 (Library.bell ()) in
  let faults = Fault.make ~seed:5 { Fault.off with Fault.backend = 0.2 } in
  let policy = { Resilience.default_policy with Resilience.max_retries = 8 } in
  let r = Engine.run ~seed:9 ~shots:400 ~faults ~policy bell in
  let res = r.Engine.report.Engine.resilience in
  Alcotest.(check int) "no shot lost" 0 res.Engine.faulted_shots;
  Alcotest.(check bool) "faults actually fired" true (res.Engine.retries > 0);
  Alcotest.(check bool) "backoff recorded" true (res.Engine.backoff_ns > 0);
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 r.Engine.histogram in
  Alcotest.(check int) "full histogram" 400 total

let prop_faulted_shots_accounting =
  QCheck.Test.make ~name:"faulted + histogram total = shots" ~count:30
    QCheck.(pair (int_range 0 9999) (float_range 0.0 0.6))
    (fun (seed, rate) ->
      let bell = measured_all 2 (Library.bell ()) in
      let faults = Fault.make ~seed (Fault.uniform rate) in
      let r = Engine.run ~seed ~shots:100 ~faults bell in
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 r.Engine.histogram in
      r.Engine.report.Engine.resilience.Engine.faulted_shots + total = 100)

(* --- properties --- *)

(* [QCheck.int_range lo hi] with a shrinker that stays in [lo, hi]:
   QCheck's own heads for 0, so a failing property over
   [Library.random_circuit] would report the generator's [qubits >= 2]
   assertion on a shrunk input instead of its real counterexample. *)
let int_in lo hi =
  QCheck.make ~print:string_of_int
    ~shrink:(fun x yield -> QCheck.Shrink.int (x - lo) (fun d -> if d >= 0 then yield (lo + d)))
    (QCheck.Gen.int_range lo hi)

let arb_seeded_circuit =
  QCheck.set_print
    (fun (seed, qubits, gates) -> Printf.sprintf "seed=%d q=%d g=%d" seed qubits gates)
    QCheck.(triple (int_in 0 9999) (int_in 2 6) (int_in 1 40))

let prop_norm_preserved =
  QCheck.Test.make ~name:"unitary evolution preserves norm" ~count:100 arb_seeded_circuit
    (fun (seed, qubits, gates) ->
      let circuit = Library.random_circuit (Rng.create seed) ~qubits ~gates in
      let result = Sim.run circuit in
      Float.abs (State.norm result.Sim.state -. 1.0) < 1e-9)

let prop_matrix_agrees_with_simulation =
  QCheck.Test.make ~name:"simulator agrees with dense unitary" ~count:50
    arb_seeded_circuit (fun (seed, qubits, gates) ->
      let circuit = Library.random_circuit (Rng.create seed) ~qubits ~gates in
      let result = Sim.run circuit in
      let m = Circuit.unitary_matrix circuit in
      let dim = 1 lsl qubits in
      let v0 = Array.init dim (fun k -> if k = 0 then Cplx.one else Cplx.zero) in
      let expected = Qca_util.Matrix.apply m v0 in
      let ok = ref true in
      Array.iteri
        (fun k e ->
          if not (Cplx.approx_equal ~eps:1e-7 e (State.amplitude result.Sim.state k)) then
            ok := false)
        expected;
      !ok)

let prop_measurement_collapse_consistent =
  QCheck.Test.make ~name:"measurement then remeasure is stable" ~count:50
    arb_seeded_circuit (fun (seed, qubits, gates) ->
      let rng = Rng.create (seed + 1) in
      let circuit = Library.random_circuit (Rng.create seed) ~qubits ~gates in
      let result = Sim.run ~rng circuit in
      let q = seed mod qubits in
      let first = State.measure result.Sim.state rng q in
      let second = State.measure result.Sim.state rng q in
      first = second)

let prop_plans_agree_statistically =
  QCheck.Test.make ~name:"sampled and trajectory plans draw the same distribution"
    ~count:25 arb_seeded_circuit (fun (seed, qubits, gates) ->
      let base = Library.random_circuit (Rng.create seed) ~qubits ~gates in
      let circuit =
        Circuit.append base
          (Circuit.of_list qubits (List.init qubits (fun q -> Gate.Measure q)))
      in
      let shots = 400 in
      let a = (Engine.run ~seed:(seed + 1) ~shots circuit).Engine.histogram in
      let b =
        (Engine.run ~seed:(seed + 2) ~plan:Engine.Trajectory ~shots circuit).Engine.histogram
      in
      (* Two-sample chi-square over the union of keys; the threshold is
         generous (mean + ~8 sigma) so only a genuinely different
         distribution fails, not sampling luck. *)
      let table : (string, int * int) Hashtbl.t = Hashtbl.create 32 in
      List.iter (fun (k, c) -> Hashtbl.replace table k (c, 0)) a;
      List.iter
        (fun (k, c) ->
          let x, _ = Option.value ~default:(0, 0) (Hashtbl.find_opt table k) in
          Hashtbl.replace table k (x, c))
        b;
      let keys = float_of_int (Hashtbl.length table) in
      let stat =
        Hashtbl.fold
          (fun _ (x, y) acc ->
            acc +. (float_of_int ((x - y) * (x - y)) /. float_of_int (x + y)))
          table 0.0
      in
      stat < keys +. (8.0 *. sqrt (2.0 *. keys)) +. 10.0)

(* --- tracing --- *)

module Trace = Qca_util.Trace

let measured_ghz n =
  Circuit.append (Library.ghz n)
    (Circuit.of_list n (List.init n (fun q -> Gate.Measure q)))

let test_trace_bit_identical () =
  (* Collecting a trace must not touch the RNG stream: histograms of traced
     and untraced runs with the same seed are bit-identical, for both plans. *)
  List.iter
    (fun plan ->
      let run () = (Engine.run ~seed:99 ?plan ~shots:300 (measured_ghz 4)).Engine.histogram in
      let plain = run () in
      let traced = Trace.collecting (Trace.make_collector ()) run in
      Alcotest.(check (list (pair string int))) "identical histograms" plain traced)
    [ None; Some Engine.Trajectory ]

let test_trace_counters_match_report () =
  (* The qx.apply.* counters agree with the engine report's own gate tally,
     and qx.measure with its measurements, on both per-shot executors. *)
  List.iter
    (fun plan ->
      let c = Trace.make_collector () in
      let result =
        Trace.collecting c (fun () -> Engine.run ~seed:5 ~plan ~shots:20 (measured_ghz 3))
      in
      let report = result.Engine.report in
      let name = Engine.plan_to_string plan in
      List.iter
        (fun (gate, count) ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s: counter qx.apply.%s" name gate)
            (Some count)
            (List.assoc_opt ("qx.apply." ^ gate) (Trace.counters c)))
        report.Engine.gate_applies;
      Alcotest.(check (option int))
        (name ^ ": qx.measure matches report")
        (Some report.Engine.measurements)
        (List.assoc_opt "qx.measure" (Trace.counters c)))
    [ Engine.Trajectory; Engine.Clifford ]

let test_trace_span_phases () =
  (* A sampled run produces the engine.run > analyse/simulate/sample
     tree. *)
  let c = Trace.make_collector () in
  ignore (Trace.collecting c (fun () -> Engine.run ~seed:7 ~shots:100 (measured_ghz 3)));
  match Trace.roots c with
  | [ root ] ->
      Alcotest.(check string) "root" "engine.run" root.Trace.span_name;
      Alcotest.(check (list string)) "phases"
        [ "engine.analyse"; "engine.simulate"; "engine.sample" ]
        (List.map (fun n -> n.Trace.span_name) root.Trace.children)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* --- kernels: the engine's gate kernels and the parallel path --- *)

module Parallel = Qca_util.Parallel

let with_pool ~domains f =
  let d0 = Parallel.domain_count () and t0 = Parallel.threshold_qubits () in
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_domain_count d0;
      Parallel.set_threshold_qubits t0)
    (fun () ->
      Parallel.set_domain_count domains;
      f ())

let apply_unitaries s instrs =
  List.iter
    (function Gate.Unitary (u, ops) -> State.apply s u ops | _ -> ())
    instrs

let states_bit_identical a b =
  let dim = State.dimension a in
  let same = ref (dim = State.dimension b) in
  for k = 0 to dim - 1 do
    let x = State.amplitude a k and y = State.amplitude b k in
    if
      Int64.bits_of_float (Cplx.re x) <> Int64.bits_of_float (Cplx.re y)
      || Int64.bits_of_float (Cplx.im x) <> Int64.bits_of_float (Cplx.im y)
    then same := false
  done;
  !same

(* --- the noise schedule --- *)

(* A silent injector (every rate zero) must not cost the domain pool: its
   run takes the batched path and equals the no-injector run, counters
   included. *)
let test_silent_injector_keeps_pool () =
  let ghz = measured_all 10 (Library.ghz 10) in
  with_pool ~domains:2 (fun () ->
      let base = Engine.run ~seed:7 ~plan:Engine.Trajectory ~shots:100 ghz in
      let dispatches = Parallel.dispatch_count () in
      let silent =
        Engine.run ~seed:7 ~plan:Engine.Trajectory ~shots:100 ~faults:(Fault.make Fault.off) ghz
      in
      Alcotest.(check bool) "ran on the pool" true (Parallel.dispatch_count () > dispatches);
      Alcotest.(check (list (pair string int))) "histogram" base.Engine.histogram
        silent.Engine.histogram;
      Alcotest.(check bool) "resilience counters" true
        (base.Engine.report.Engine.resilience = silent.Engine.report.Engine.resilience))

(* A random circuit with every op that shapes the schedule prefix: a
   leading prep_z, a mid-circuit measurement followed by a c-x on its bit,
   and a terminal measure_all. *)
let schedule_circuit seed qubits gates =
  let rng = Rng.create seed in
  let body = Circuit.instructions (Library.random_circuit rng ~qubits ~gates) in
  let cut = Rng.int rng (List.length body + 1) in
  let m = Rng.int rng qubits and t = Rng.int rng qubits in
  let before = List.filteri (fun i _ -> i < cut) body
  and after = List.filteri (fun i _ -> i >= cut) body in
  Circuit.of_list qubits
    ((Gate.Prep (Rng.int rng qubits) :: before)
    @ [ Gate.Measure m; Gate.Conditional (m, Gate.X, [| t |]) ]
    @ after
    @ List.init qubits (fun q -> Gate.Measure q))

(* The oracle: every shot steps the unfused program op by op through
   [Engine.micro_step] on a fresh state, one [Rng.streams] stream per shot
   — the executor without a schedule, a checkpoint or a measurement run. *)
let stepped_histogram ~noise ~seed ~shots circuit =
  let n = Circuit.qubit_count circuit in
  let slots = ref 0 in
  let ops =
    List.filter_map
      (function
        | Gate.Unitary (u, o) -> Some (Engine.M_gate (u, o))
        | Gate.Conditional (bit, u, o) ->
            incr slots;
            Some (Engine.M_cond (bit, u, o, !slots - 1))
        | Gate.Prep q -> Some (Engine.M_prep q)
        | Gate.Measure q -> Some (Engine.M_measure (q, q))
        | Gate.Barrier _ -> None)
      (Circuit.instructions circuit)
  in
  let step = Engine.micro_step noise in
  let fired = Array.make !slots 0 in
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun rng ->
      let state = State.create n and classical = Array.make n (-1) in
      List.iter (step ~fired state classical rng) ops;
      let key = Engine.bitstring classical in
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    (Rng.streams (Rng.create seed) shots);
  List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) counts [])

let schedule_models =
  [
    ("depolarizing 0.05", Noise.depolarizing 0.05);
    ("readout only", { Noise.ideal with Noise.readout_error = 0.1 });
    ("superconducting", Noise.superconducting);
  ]

let prop_schedule_matches_stepped =
  QCheck.Test.make ~name:"scheduled trajectories = op-by-op oracle at 1 and 2 domains"
    ~count:25
    QCheck.(triple (int_in 0 9999) (int_in 2 5) (int_in 1 30))
    (fun (seed, qubits, gates) ->
      let circuit = schedule_circuit seed qubits gates in
      List.for_all
        (fun (_, noise) ->
          let oracle = stepped_histogram ~noise ~seed ~shots:40 circuit in
          List.for_all
            (fun domains ->
              with_pool ~domains (fun () ->
                  let r = Engine.run ~noise ~seed ~plan:Engine.Trajectory ~shots:40 circuit in
                  List.sort compare r.Engine.histogram = oracle))
            [ 1; 2 ])
        schedule_models)

(* [State.measure_run] against successive [State.measure] calls, with a
   readout-style draw after each outcome, on random states and qubit runs
   that may repeat a qubit. *)
let prop_measure_run_matches_measure =
  QCheck.Test.make ~name:"measure_run = successive measure, bit for bit" ~count:200
    QCheck.(triple (int_in 0 9999) (int_in 1 6) (int_in 0 30))
    (fun (seed, qubits, gates) ->
      let rng = Rng.create seed in
      let s = State.create qubits in
      if qubits >= 2 then
        apply_unitaries s (Circuit.instructions (Library.random_circuit rng ~qubits ~gates))
      else State.apply s (Gate.Ry (Rng.float rng 3.0)) [| 0 |];
      let run =
        let fresh = Array.init (1 + Rng.int rng qubits) (fun _ -> Rng.int rng qubits) in
        (* Half the runs measure their first qubit again at the end. *)
        if Rng.bool rng then Array.append fresh [| fresh.(0) |] else fresh
      in
      let expected = State.copy s and got = State.copy s in
      let draws_a = Rng.create (seed + 1) and draws_b = Rng.create (seed + 1) in
      let outcomes_a =
        Array.map
          (fun q ->
            let b = State.measure expected draws_a q in
            ignore (Rng.bernoulli draws_a 0.1);
            b)
          run
      in
      let outcomes_b = Array.make (Array.length run) (-1) in
      State.measure_run got draws_b run (fun i b ->
          outcomes_b.(i) <- b;
          ignore (Rng.bernoulli draws_b 0.1));
      outcomes_a = outcomes_b
      && states_bit_identical expected got
      && Rng.bits64 draws_a = Rng.bits64 draws_b)

(* [State.measure_tree] against [State.measure_run] on a fresh copy, shot
   after shot over one tree: outcomes, a readout-style draw after each,
   the generator's position, and the zero-vector error. Runs may repeat a
   qubit. A third of the states are squeezed by a non-unitary [0; c]
   matrix on one qubit, so P(0) there is an exact zero below a total
   short of 1: a draw above the total picks the empty branch, which both
   must refuse. *)
let prop_measure_tree_matches_run =
  QCheck.Test.make ~name:"outcome tree = measure_run on a copy, shot by shot" ~count:200
    QCheck.(triple (int_in 0 9999) (int_in 1 6) (int_in 0 30))
    (fun (seed, qubits, gates) ->
      let rng = Rng.create seed in
      let s = State.create qubits in
      if qubits >= 2 then
        apply_unitaries s (Circuit.instructions (Library.random_circuit rng ~qubits ~gates))
      else State.apply s (Gate.Ry (Rng.float rng 3.0)) [| 0 |];
      if Rng.int rng 3 = 0 then begin
        let c = 0.1 +. Rng.float rng 0.8 in
        let squeeze =
          Matrix.of_arrays [| [| Cplx.zero; Cplx.zero |]; [| Cplx.zero; Cplx.make c 0.0 |] |]
        in
        let q = Rng.int rng qubits in
        State.apply s Gate.H [| q |];
        State.apply_matrix1 s squeeze q
      end;
      let run =
        let fresh = Array.init (1 + Rng.int rng (2 * qubits)) (fun _ -> Rng.int rng qubits) in
        if Rng.bool rng then Array.append fresh [| fresh.(0) |] else fresh
      in
      let tree = State.outcome_tree s run in
      let shot f draws =
        let outcomes = Array.make (Array.length run) (-1) in
        let result =
          match
            f draws (fun i b ->
                outcomes.(i) <- b;
                ignore (Rng.bernoulli draws 0.1))
          with
          | () -> Ok outcomes
          | exception Invalid_argument msg -> Error msg
        in
        (result, Rng.bits64 draws)
      in
      List.for_all
        (fun k ->
          let expected = shot (fun d f -> State.measure_run (State.copy s) d run f) (Rng.create k)
          and got = shot (State.measure_tree tree) (Rng.create k) in
          expected = got)
        (List.init 40 (fun k -> seed + k)))

(* Past its node cap a tree stops linking children and computes them per
   shot: 13 qubits spread over thousands of outcome paths need more nodes
   than the cap, and every shot still equals [measure_run] on a copy. *)
let test_measure_tree_past_cap () =
  let qubits = 13 in
  let s = State.create qubits in
  for q = 0 to qubits - 1 do
    State.apply s Gate.H [| q |]
  done;
  apply_unitaries s
    (Circuit.instructions (Library.random_circuit (Rng.create 5) ~qubits ~gates:60));
  let run = Array.init qubits Fun.id in
  let tree = State.outcome_tree s run in
  let a = Rng.create 9 and b = Rng.create 9 in
  for shot = 1 to 3000 do
    let expected = Array.make qubits (-1) and got = Array.make qubits (-1) in
    State.measure_run (State.copy s) a run (fun i o -> expected.(i) <- o);
    State.measure_tree tree b (fun i o -> got.(i) <- o);
    if expected <> got || Rng.bits64 a <> Rng.bits64 b then
      Alcotest.failf "shot %d differs" shot
  done

(* Trajectory runs whose tail is one terminal measurement run walk the
   outcome tree for their clean shots; each chunk builds its own. At 1, 2
   and 4 domains the histograms equal the op-by-op oracle. *)
let prop_tree_trajectories_match_stepped =
  QCheck.Test.make ~name:"terminal-run trajectories = op-by-op oracle at 1, 2 and 4 domains"
    ~count:20
    QCheck.(triple (int_in 0 9999) (int_in 2 5) (int_in 1 30))
    (fun (seed, qubits, gates) ->
      let rng = Rng.create seed in
      let circuit =
        measured_all qubits
          (Circuit.of_list qubits
             (Gate.Prep (Rng.int rng qubits)
             :: Circuit.instructions (Library.random_circuit rng ~qubits ~gates)))
      in
      List.for_all
        (fun (_, noise) ->
          let oracle = stepped_histogram ~noise ~seed ~shots:60 circuit in
          List.for_all
            (fun domains ->
              with_pool ~domains (fun () ->
                  let r = Engine.run ~noise ~seed ~plan:Engine.Trajectory ~shots:60 circuit in
                  List.sort compare r.Engine.histogram = oracle))
            [ 1; 2; 4 ])
        (("ideal", Noise.ideal) :: schedule_models))

(* The draws before the draw table, kept as its oracle: one [Rng.below]
   per gate operand and an [Rng.int 3] after each that fires; at a prep
   site the ignored measurement draw, then the prep-error draw on a noisy
   model. *)
let schedule_oracle m sites rng =
  let noisy = not (Noise.is_ideal m) in
  let th1 = Rng.threshold m.Noise.single_qubit_error
  and th2 = Rng.threshold m.Noise.two_qubit_error
  and th_prep = Rng.threshold m.Noise.prep_error in
  let paulis = [| Gate.X; Gate.Y; Gate.Z |] in
  let events = ref [] in
  Array.iteri
    (fun site -> function
      | Noise.Gate_site (u, ops) ->
          if noisy then begin
            let th = if Gate.arity u >= 2 then th2 else th1 in
            Array.iter
              (fun qubit ->
                if Rng.below rng th then
                  events := { Noise.site; qubit; pauli = paulis.(Rng.int rng 3) } :: !events)
              ops
          end
      | Noise.Prep_site qubit ->
          Rng.skip rng 1;
          if noisy && Rng.below rng th_prep then
            events := { Noise.site; qubit; pauli = Gate.X } :: !events)
    sites;
  Array.of_list (List.rev !events)

let prop_draw_table_matches_oracle =
  QCheck.Test.make ~name:"draw table = per-draw schedule, generator state included" ~count:300
    QCheck.(pair (int_range 0 99999) (int_range 0 80))
    (fun (seed, length) ->
      let rng = Rng.create seed in
      let sites =
        Array.init length (fun _ ->
            match Rng.int rng 5 with
            | 0 -> Noise.Prep_site (Rng.int rng 6)
            | _ ->
                let u = Gate.kinds.(Rng.int rng (Array.length Gate.kinds)) in
                Noise.Gate_site (u, Array.init (Gate.arity u) (fun _ -> Rng.int rng 6)))
      in
      List.for_all
        (fun m ->
          let d = Noise.draws m sites in
          List.for_all
            (fun k ->
              let a = Rng.create (seed + k) and b = Rng.create (seed + k) in
              schedule_oracle m sites a = Noise.shot_events d b && Rng.bits64 a = Rng.bits64 b)
            (List.init 20 Fun.id))
        [
          Noise.ideal;
          { Noise.ideal with Noise.readout_error = 0.1 };
          Noise.depolarizing 0.05;
          Noise.depolarizing 0.3;
          { (Noise.depolarizing 0.0) with Noise.two_qubit_error = 0.2; prep_error = 0.5 };
        ])

(* Gate [u] on distinct random qubits of [pool]. *)
let on_pool rng pool u =
  let pool = Array.copy pool in
  Rng.shuffle rng pool;
  Gate.Unitary (u, Array.sub pool 0 (Gate.arity u))

(* A random gate of any [Gate.unitary] kind. *)
let any_unitary rng =
  match Gate.kinds.(Rng.int rng (Array.length Gate.kinds)) with
  | Gate.Rx _ -> Gate.Rx (Rng.float rng 6.0)
  | Gate.Ry _ -> Gate.Ry (Rng.float rng 6.0)
  | Gate.Rz _ -> Gate.Rz (Rng.float rng 6.0)
  | Gate.Cphase _ -> Gate.Cphase (Rng.float rng 6.0)
  | Gate.Crk _ -> Gate.Crk (1 + Rng.int rng 5)
  | u -> u

(* A prefix over every gate kind, mostly Cliffords, so that error frames
   both stop at each rule and survive to the end: a leading prep, gates
   that leave qubit 0 alone, a prep of qubit 0 (untouched so far), more
   gates, and a terminal measurement of some qubits. *)
let frame_circuit seed qubits gates =
  (* At least four qubits, so that a Toffoli fits beside qubit 0; shrunk
     cases may ask for fewer. *)
  let qubits = max 4 qubits and gates = max 0 gates in
  let rng = Rng.create seed in
  let all = Array.init qubits Fun.id and rest = Array.init (qubits - 1) (fun q -> q + 1) in
  let cliffords =
    [| Gate.H; Gate.S; Gate.Sdag; Gate.X; Gate.Y; Gate.Z; Gate.Cnot; Gate.Cz; Gate.Swap |]
  in
  let gate pool =
    on_pool rng pool
      (if Rng.int rng 3 = 0 then any_unitary rng
       else cliffords.(Rng.int rng (Array.length cliffords)))
  in
  let half = gates / 2 in
  let measured = List.filter (fun _ -> Rng.bool rng) (List.init qubits Fun.id) in
  Circuit.of_list qubits
    ((Gate.Prep (1 + Rng.int rng (qubits - 1)) :: List.init half (fun _ -> gate rest))
    @ (Gate.Prep 0 :: List.init (gates - half) (fun _ -> gate all))
    @ List.map (fun q -> Gate.Measure q) (if measured = [] then [ 0 ] else measured))

(* One shot stepped op by op through [Engine.micro_step] on a fresh
   state: [Sim.run]'s oracle. *)
let stepped_shot ~noise rng circuit =
  let n = Circuit.qubit_count circuit in
  let state = State.create n and classical = Array.make n (-1) in
  let step = Engine.micro_step noise in
  List.iter
    (function
      | Gate.Unitary (u, o) ->
          step ~fired:[||] state classical rng (Engine.M_gate (u, o))
      | Gate.Prep q -> step ~fired:[||] state classical rng (Engine.M_prep q)
      | Gate.Measure q -> step ~fired:[||] state classical rng (Engine.M_measure (q, q))
      | Gate.Conditional _ | Gate.Barrier _ -> assert false)
    (Circuit.instructions circuit);
  (state, classical)

(* [a] is [b] or [-b], amplitude by amplitude with float [=] (so the sign
   of an exact zero is free), with one sign for the whole state. *)
let equal_up_to_sign a b =
  let same sign =
    let ok = ref true in
    for k = 0 to State.dimension a - 1 do
      let x = State.amplitude a k and y = State.amplitude b k in
      if Cplx.re x <> sign *. Cplx.re y || Cplx.im x <> sign *. Cplx.im y then ok := false
    done;
    !ok
  in
  same 1.0 || same (-1.0)

(* Error shots start where their Pauli frame stops: histograms equal the
   op-by-op oracle at 1 and 2 domains, and every [Sim.run] state equals
   the oracle's up to a sign. *)
let prop_frame_matches_stepped =
  QCheck.Test.make ~name:"Pauli-frame shots = op-by-op oracle, states up to a sign" ~count:40
    QCheck.(triple (int_in 0 9999) (int_in 4 6) (int_in 2 40))
    (fun (seed, qubits, gates) ->
      let circuit = frame_circuit seed qubits gates in
      List.for_all
        (fun p ->
          let noise = Noise.depolarizing p in
          let oracle = stepped_histogram ~noise ~seed ~shots:60 circuit in
          List.for_all
            (fun domains ->
              with_pool ~domains (fun () ->
                  let r = Engine.run ~noise ~seed ~plan:Engine.Trajectory ~shots:60 circuit in
                  List.sort compare r.Engine.histogram = oracle))
            [ 1; 2 ]
          && List.for_all
               (fun k ->
                 let got = Sim.run ~noise ~rng:(Rng.create (seed + k)) circuit in
                 let state, classical = stepped_shot ~noise (Rng.create (seed + k)) circuit in
                 got.Sim.classical = classical && equal_up_to_sign got.Sim.state state)
               (List.init 30 Fun.id))
        [ 0.05; 0.2 ])

(* Under ideal noise nothing is drawn before the first measurement, so
   every trajectory shot starts from the shared ideal state. *)
let test_clean_shots_attribute () =
  let c = Trace.make_collector () in
  ignore
    (Trace.collecting c (fun () ->
         Engine.run ~seed:3 ~plan:Engine.Trajectory ~shots:50 (measured_all 4 (Library.ghz 4))));
  let rec find name nodes =
    List.find_map
      (fun n -> if n.Trace.span_name = name then Some n else find name n.Trace.children)
      nodes
  in
  match find "engine.simulate" (Trace.roots c) with
  | Some n ->
      Alcotest.(check bool) "clean_shots=50" true
        (List.assoc_opt "clean_shots" n.Trace.attrs = Some (Trace.Int 50))
  | None -> Alcotest.fail "no engine.simulate span"

(* Phase times are elapsed wall time: a trajectory batch spread over two
   domains reports no more time than passed around the call, not the CPU
   seconds the domains summed. *)
let test_phase_times_are_elapsed () =
  let circuit =
    measured_all 14 (Library.random_circuit (Rng.create 77) ~qubits:14 ~gates:80)
  in
  with_pool ~domains:2 (fun () ->
      let t0 = Qca_util.Clock.now () in
      let r = Engine.run ~seed:42 ~plan:Engine.Trajectory ~shots:64 circuit in
      let elapsed = Qca_util.Clock.now () -. t0 in
      let w = r.Engine.report.Engine.wall in
      let phases = w.Engine.analyse_s +. w.Engine.simulate_s +. w.Engine.sample_s in
      if phases > elapsed then
        Alcotest.failf "phase times sum to %.6f s, but the run took %.6f s" phases elapsed)

let test_parallel_threshold_guard () =
  (* The parallel path must never engage below the qubit threshold, and
     must engage at it (given enough domains and a big enough sweep). *)
  with_pool ~domains:4 (fun () ->
      let sweep16 () =
        let s = State.create 16 in
        State.apply s (Gate.Rz 0.3) [| 0 |];
        State.apply s Gate.H [| 0 |]
      in
      Parallel.set_threshold_qubits 18;
      let before = Parallel.dispatch_count () in
      sweep16 ();
      Alcotest.(check int) "no dispatch below threshold" before
        (Parallel.dispatch_count ());
      Parallel.set_threshold_qubits 16;
      sweep16 ();
      Alcotest.(check bool) "dispatches at threshold" true
        (Parallel.dispatch_count () > before))

(* The engine's compiled program applies each gate with [State.apply]:
   an ideal shot's state is bit-identical to applying the circuit gate by
   gate. *)
let prop_engine_kernels_bit_identical =
  QCheck.Test.make ~name:"engine shot = State.apply gate by gate, bit for bit" ~count:30
    arb_seeded_circuit (fun (seed, qubits, gates) ->
      let base = Library.random_circuit (Rng.create seed) ~qubits ~gates in
      let s_engine, _ = Engine.exec_shot (Rng.create seed) base in
      let s_ref = State.create qubits in
      apply_unitaries s_ref (Circuit.instructions base);
      states_bit_identical s_engine s_ref)

let prop_parallel_bit_identical =
  QCheck.Test.make ~name:"parallel kernels bit-identical to sequential" ~count:5
    QCheck.(int_range 0 9999)
    (fun seed ->
      (* 16 qubits puts full sweeps (and 1q pair sweeps) at or above the
         2-chunk dispatch floor, so the pool really runs. *)
      let n = 16 in
      let instrs =
        Circuit.instructions (Library.random_circuit (Rng.create seed) ~qubits:n ~gates:30)
      in
      let sequential = State.create n in
      apply_unitaries sequential instrs;
      let parallel =
        with_pool ~domains:3 (fun () ->
            Parallel.set_threshold_qubits n;
            let s = State.create n in
            apply_unitaries s instrs;
            s)
      in
      states_bit_identical sequential parallel)

let () =
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "qca_qx"
    [
      ( "state",
        [
          Alcotest.test_case "initial" `Quick test_initial_state;
          Alcotest.test_case "x flips" `Quick test_x_flips;
          Alcotest.test_case "h superposition" `Quick test_h_superposition;
          Alcotest.test_case "bell" `Quick test_bell_state;
          Alcotest.test_case "cnot control" `Quick test_cnot_control_required;
          Alcotest.test_case "swap" `Quick test_swap;
          Alcotest.test_case "toffoli" `Quick test_toffoli;
          Alcotest.test_case "cz phase" `Quick test_cz_phase;
          Alcotest.test_case "fast paths 1q" `Quick test_fast_paths_match_generic;
          Alcotest.test_case "fast paths 2q" `Quick test_two_qubit_fast_paths_match;
          Alcotest.test_case "ghz 12" `Quick test_ghz_12;
          Alcotest.test_case "expectation pauli" `Quick test_expectation_pauli;
          Alcotest.test_case "memory bytes" `Quick test_memory_bytes;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "collapse entanglement" `Quick test_measure_collapses_entanglement;
          Alcotest.test_case "statistics" `Quick test_measure_statistics;
          Alcotest.test_case "sample distribution" `Quick test_sample_index_distribution;
          Alcotest.test_case "overlap fidelity" `Quick test_overlap_fidelity;
          Alcotest.test_case "expectation diag" `Quick test_expectation_diag;
        ] );
      ( "noise",
        [
          Alcotest.test_case "bit flip rate" `Quick test_bit_flip_channel_rate;
          Alcotest.test_case "amplitude damping" `Quick test_amplitude_damping_decays;
          Alcotest.test_case "damping ground" `Quick test_amplitude_damping_preserves_ground;
          Alcotest.test_case "depolarizing" `Quick test_depolarizing_mixes;
          Alcotest.test_case "ideal detection" `Quick test_ideal_model_detected;
          Alcotest.test_case "readout flip" `Quick test_readout_flip;
        ] );
      ( "executor",
        [
          Alcotest.test_case "bell histogram" `Quick test_run_bell_histogram;
          Alcotest.test_case "prep resets" `Quick test_run_prep_resets;
          Alcotest.test_case "unmeasured -1" `Quick test_unmeasured_is_minus_one;
          Alcotest.test_case "run cqasm" `Quick test_source_spec;
          Alcotest.test_case "cqasm error_model" `Quick test_source_error_model;
          Alcotest.test_case "ghz success" `Quick test_success_probability_ghz;
          Alcotest.test_case "noisy ghz degrades" `Quick test_noisy_ghz_degrades;
          Alcotest.test_case "expectation z" `Quick test_expectation_z_plus_state;
          Alcotest.test_case "fidelity ordering" `Quick test_fidelity_decreases_with_noise;
        ] );
      ( "oracle-algorithms",
        [
          Alcotest.test_case "bernstein-vazirani" `Quick test_bernstein_vazirani_recovers_secret;
          Alcotest.test_case "deutsch-jozsa" `Quick test_deutsch_jozsa_decides;
        ] );
      ( "density",
        [
          Alcotest.test_case "initial" `Quick test_density_initial;
          Alcotest.test_case "matches state vector" `Quick test_density_matches_statevector;
          Alcotest.test_case "of_state" `Quick test_density_of_state;
          Alcotest.test_case "depolarizing exact" `Quick test_depolarizing_exact;
          Alcotest.test_case "amplitude damping exact" `Quick test_amplitude_damping_exact;
          Alcotest.test_case "phase damping coherence" `Quick test_phase_damping_kills_coherence;
          Alcotest.test_case "trajectories match density" `Quick test_trajectories_match_density;
          Alcotest.test_case "rejects measurement" `Quick test_density_rejects_measurement;
        ] );
      ( "conditional",
        [
          Alcotest.test_case "fires on 1" `Quick test_conditional_fires_on_one;
          Alcotest.test_case "skips on 0" `Quick test_conditional_skips_on_zero;
          Alcotest.test_case "teleportation statistics" `Quick test_teleportation_preserves_state;
          Alcotest.test_case "teleportation exact" `Quick test_teleportation_exact_state;
        ] );
      ( "engine",
        [
          Alcotest.test_case "plan classification" `Quick test_plan_classification;
          Alcotest.test_case "forced sampled rejected" `Quick test_forced_sampled_rejected;
          Alcotest.test_case "conditional stays per-shot" `Quick
            test_conditional_takes_trajectory_path;
          Alcotest.test_case "report metrics" `Quick test_report_metrics;
          Alcotest.test_case "plans agree (deterministic)" `Quick
            test_plans_agree_deterministic;
          Alcotest.test_case "seed reproducibility" `Quick test_same_seed_reproducible;
          Alcotest.test_case "backends agree" `Quick test_backends_agree;
          Alcotest.test_case "density backend domain" `Quick
            test_density_backend_rejects_feedback;
          Alcotest.test_case "density sample under noise" `Quick
            test_density_sample_under_noise;
          Alcotest.test_case "per-shot phase times" `Quick test_per_shot_phase_times;
          Alcotest.test_case "phase times are elapsed" `Quick test_phase_times_are_elapsed;
        ] );
      ( "trace",
        [
          Alcotest.test_case "traced run bit-identical" `Quick test_trace_bit_identical;
          Alcotest.test_case "counters match report" `Quick
            test_trace_counters_match_report;
          Alcotest.test_case "span phases" `Quick test_trace_span_phases;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "rate 0.0 bit-identical" `Quick
            test_fault_rate_zero_bit_identical;
          Alcotest.test_case "transients retry to completion" `Quick
            test_transient_faults_retry_to_completion;
          qtest prop_faulted_shots_accounting;
          Alcotest.test_case "silent injector keeps the pool" `Quick
            test_silent_injector_keeps_pool;
        ] );
      ( "schedule",
        [
          qtest prop_schedule_matches_stepped;
          qtest prop_measure_run_matches_measure;
          qtest prop_measure_tree_matches_run;
          Alcotest.test_case "outcome tree past its node cap" `Quick test_measure_tree_past_cap;
          qtest prop_tree_trajectories_match_stepped;
          qtest prop_draw_table_matches_oracle;
          qtest prop_frame_matches_stepped;
          Alcotest.test_case "clean_shots attribute" `Quick test_clean_shots_attribute;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "parallel threshold guard" `Quick
            test_parallel_threshold_guard;
          qtest prop_engine_kernels_bit_identical;
          qtest prop_parallel_bit_identical;
        ] );
      ( "properties",
        [
          qtest prop_norm_preserved;
          qtest prop_matrix_agrees_with_simulation;
          qtest prop_measurement_collapse_consistent;
          qtest prop_plans_agree_statistically;
        ] );
    ]
