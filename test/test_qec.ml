(* Tests for the QEC substrate: Pauli algebra, stabilizer tableau (validated
   against the state vector), codes, decoder and experiments. *)

module Pauli = Qca_qec.Pauli
module Tableau = Qca_qec.Tableau
module Code = Qca_qec.Code
module Decoder = Qca_qec.Decoder
module Qec_experiment = Qca_qec.Qec_experiment
module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module State = Qca_qx.State
module Rng = Qca_util.Rng

(* --- Pauli --- *)

let test_pauli_strings () =
  let p = Pauli.of_string "XIZY" in
  Alcotest.(check string) "roundtrip" "XIZY" (Pauli.to_string ~width:4 p);
  Alcotest.(check int) "weight" 3 (Pauli.weight p)

let test_pauli_mul () =
  let x = Pauli.single 0 'X' and z = Pauli.single 0 'Z' in
  let y = Pauli.mul x z in
  Alcotest.(check string) "X*Z = Y (mod phase)" "Y" (Pauli.to_string ~width:1 y);
  Alcotest.(check bool) "self-inverse" true (Pauli.is_identity (Pauli.mul x x))

let test_pauli_commutation () =
  let x0 = Pauli.single 0 'X' and z0 = Pauli.single 0 'Z' and z1 = Pauli.single 1 'Z' in
  Alcotest.(check bool) "X0 Z0 anticommute" false (Pauli.commutes x0 z0);
  Alcotest.(check bool) "X0 Z1 commute" true (Pauli.commutes x0 z1);
  let xx = Pauli.of_string "XX" and zz = Pauli.of_string "ZZ" in
  Alcotest.(check bool) "XX ZZ commute" true (Pauli.commutes xx zz)

let test_pauli_support () =
  Alcotest.(check (list int)) "support" [ 0; 2; 3 ] (Pauli.support (Pauli.of_string "XIZY"))

let test_error_sampling_rate () =
  let rng = Rng.create 1 in
  let n = 10 and p = 0.1 and trials = 5000 in
  let total = ref 0 in
  for _ = 1 to trials do
    total := !total + Pauli.weight (Pauli.depolarizing_error rng n p)
  done;
  let rate = float_of_int !total /. float_of_int (n * trials) in
  Alcotest.(check (float 0.01)) "error rate" p rate

(* --- tableau vs state vector --- *)

let clifford_gates =
  [
    (Gate.H, 1); (Gate.S, 1); (Gate.Sdag, 1); (Gate.X, 1); (Gate.Y, 1); (Gate.Z, 1);
    (Gate.X90, 1); (Gate.Xm90, 1); (Gate.Y90, 1); (Gate.Ym90, 1);
    (Gate.Cnot, 2); (Gate.Cz, 2); (Gate.Swap, 2);
  ]

(* Run a random Clifford circuit on both simulators and compare Z-measurement
   determinism/outcomes on each qubit, then measure every qubit (in a random
   order) on the same draws, using the engine's rule for the tableau: one
   uniform draw per measurement, a random outcome is 1 iff the draw is
   below 1/2. Finally every stabilizer generator the tableau reports must
   stabilise the state vector. [embed] relabels the compact circuit's
   qubits onto a [width]-qubit tableau while the state vector stays
   compact; the other tableau qubits stay |0>. *)
let compare_simulators ?embed ?width seed qubits gates =
  let embed = match embed with Some e -> e | None -> Array.init qubits Fun.id in
  let width = match width with Some w -> w | None -> 1 + Array.fold_left max 0 embed in
  let rng = Rng.create seed in
  let tab = Tableau.create width in
  let vec = State.create qubits in
  let usable =
    List.filter (fun (_, arity) -> arity <= qubits) clifford_gates
  in
  for _ = 1 to gates do
    let u, arity = List.nth usable (Rng.int rng (List.length usable)) in
    let q1 = Rng.int rng qubits in
    let ops =
      if arity = 1 then [| q1 |]
      else
        let q2 = (q1 + 1 + Rng.int rng (qubits - 1)) mod qubits in
        [| q1; q2 |]
    in
    Tableau.apply_gate tab u (Array.map (fun q -> embed.(q)) ops);
    State.apply vec u ops
  done;
  let ok = ref true in
  for q = 0 to qubits - 1 do
    let p1 = State.prob_one vec q in
    (match Tableau.expectation_z tab embed.(q) with
    | Some 0 -> if p1 > 1e-9 then ok := false
    | Some 1 -> if p1 < 1.0 -. 1e-9 then ok := false
    | Some _ -> assert false
    | None -> if Float.abs (p1 -. 0.5) > 1e-9 then ok := false)
  done;
  for q = 0 to width - 1 do
    if (not (Array.mem q embed)) && Tableau.expectation_z tab q <> Some 0 then ok := false
  done;
  let order = Array.init qubits Fun.id in
  Rng.shuffle rng order;
  let draws_vec = Rng.create (seed + 1) and draws_tab = Rng.create (seed + 1) in
  Array.iter
    (fun q ->
      let a = State.measure vec draws_vec q in
      let random_outcome = if Rng.float draws_tab 1.0 < 0.5 then 1 else 0 in
      if Tableau.measure_with tab embed.(q) ~random_outcome <> a then ok := false)
    order;
  List.iter
    (fun g ->
      let terms = ref [] in
      String.iteri
        (fun i c ->
          let q = i - 1 in
          if i > 0 && c <> 'I' then
            match Array.find_index (( = ) q) embed with
            | Some compact -> terms := (compact, c) :: !terms
            | None -> if c <> 'Z' then ok := false)
        g;
      let sign = if g.[0] = '-' then -1.0 else 1.0 in
      if Float.abs (State.expectation_pauli vec !terms -. sign) > 1e-9 then ok := false)
    (Tableau.stabilizer_strings tab);
  !ok

let prop_tableau_matches_statevector =
  QCheck.Test.make ~name:"tableau matches state vector" ~count:100
    (QCheck.make
       ~print:(fun (s, q, g) -> Printf.sprintf "seed=%d q=%d g=%d" s q g)
       QCheck.Gen.(triple (int_range 0 99999) (int_range 1 5) (int_range 1 60)))
    (fun (seed, qubits, gates) -> compare_simulators seed qubits gates)

(* The same check with the circuit's qubits spread over the word boundaries
   of a 130-qubit tableau (62 qubits per word): rows span three words, and
   products and collapses must carry across them. *)
let prop_tableau_multiword_matches_statevector =
  QCheck.Test.make ~name:"tableau across word boundaries matches state vector" ~count:100
    (QCheck.make
       ~print:(fun (s, q, g) -> Printf.sprintf "seed=%d q=%d g=%d" s q g)
       QCheck.Gen.(triple (int_range 0 99999) (int_range 1 5) (int_range 1 60)))
    (fun (seed, qubits, gates) ->
      let slots = [| 61; 62; 63; 124; 125 |] in
      Rng.shuffle (Rng.create seed) slots;
      compare_simulators ~embed:(Array.sub slots 0 qubits) ~width:130 seed qubits gates)

let test_tableau_bell () =
  let tab = Tableau.create 2 in
  Tableau.h tab 0;
  Tableau.cnot tab 0 1;
  let rng = Rng.create 3 in
  for _ = 1 to 10 do
    let t = Tableau.copy tab in
    let a = Tableau.measure t rng 0 in
    let b = Tableau.measure t rng 1 in
    Alcotest.(check int) "correlated" a b
  done

let test_tableau_ghz_stabilizers () =
  let n = 4 in
  let tab = Tableau.create n in
  Tableau.h tab 0;
  for q = 1 to n - 1 do
    Tableau.cnot tab (q - 1) q
  done;
  (* All Z measurements random, but parity fixed: measuring all gives equal bits. *)
  let rng = Rng.create 7 in
  let t = Tableau.copy tab in
  let first = Tableau.measure t rng 0 in
  for q = 1 to n - 1 do
    Alcotest.(check int) "ghz bit" first (Tableau.measure t rng q)
  done

let test_tableau_deterministic_measure () =
  let tab = Tableau.create 1 in
  Tableau.x tab 0;
  Alcotest.(check (option int)) "deterministic 1" (Some 1) (Tableau.expectation_z tab 0);
  let rng = Rng.create 11 in
  Alcotest.(check int) "measure" 1 (Tableau.measure tab rng 0)

let test_tableau_measure_collapses () =
  let tab = Tableau.create 1 in
  Tableau.h tab 0;
  Alcotest.(check (option int)) "random" None (Tableau.expectation_z tab 0);
  let rng = Rng.create 13 in
  let m = Tableau.measure tab rng 0 in
  Alcotest.(check (option int)) "collapsed" (Some m) (Tableau.expectation_z tab 0)

let test_tableau_stabilizer_strings () =
  let tab = Tableau.create 2 in
  Tableau.h tab 0;
  Tableau.cnot tab 0 1;
  let stabs = Tableau.stabilizer_strings tab in
  Alcotest.(check int) "two generators" 2 (List.length stabs);
  Alcotest.(check bool) "contains +XX" true (List.mem "+XX" stabs);
  Alcotest.(check bool) "contains +ZZ" true (List.mem "+ZZ" stabs)

let test_tableau_rejects_nonclifford () =
  let tab = Tableau.create 1 in
  match Tableau.apply_gate tab Gate.T [| 0 |] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected rejection"

(* The planner's Clifford classification is Gate.is_clifford: for every
   gate kind, the tableau accepts the gate exactly when it holds. *)
let test_tableau_accepts_exactly_clifford () =
  Array.iter
    (fun u ->
      let accepted =
        match Tableau.apply_gate (Tableau.create 3) u (Array.init (Gate.arity u) Fun.id) with
        | () -> true
        | exception Invalid_argument _ -> false
      in
      Alcotest.(check bool) (Gate.name u) (Gate.is_clifford u) accepted)
    Gate.kinds

(* --- codes --- *)

let test_codes_valid () =
  List.iter
    (fun code ->
      Alcotest.(check bool) (code.Code.name ^ " valid") true (Code.is_valid code))
    [
      Code.bit_flip_repetition 3; Code.bit_flip_repetition 5; Code.phase_flip_repetition 3;
      Code.surface_17; Code.rotated_surface 3; Code.rotated_surface 5; Code.steane;
    ]

let test_rotated_surface_3_is_surface_17 () =
  let a = Code.surface_17 and b = Code.rotated_surface 3 in
  Alcotest.(check int) "same n" a.Code.n b.Code.n;
  Alcotest.(check bool) "same logical z" true (Pauli.equal a.Code.logical_z b.Code.logical_z);
  Alcotest.(check bool) "same logical x" true (Pauli.equal a.Code.logical_x b.Code.logical_x);
  (* same stabilizer sets, regardless of order *)
  let sort c = List.sort compare (Array.to_list (Array.map (Pauli.to_string ~width:9) c.Code.stabilizers)) in
  Alcotest.(check (list string)) "same stabilizers" (sort a) (sort b)

let test_rotated_surface_5_structure () =
  let code = Code.rotated_surface 5 in
  Alcotest.(check int) "25 data" 25 code.Code.n;
  Alcotest.(check int) "24 stabilizers" 24 (Array.length code.Code.stabilizers);
  Alcotest.(check int) "distance" 5 code.Code.distance

let test_steane_structure () =
  let code = Code.steane in
  Alcotest.(check int) "7 data" 7 code.Code.n;
  Alcotest.(check int) "6 stabilizers" 6 (Array.length code.Code.stabilizers);
  (* every single-qubit error detected and corrected *)
  let decoder = Decoder.build code in
  for q = 0 to 6 do
    List.iter
      (fun letter ->
        Alcotest.(check bool)
          (Printf.sprintf "steane corrects %c%d" letter q)
          true
          (Decoder.decode_outcome code decoder (Pauli.single q letter) = `None))
      [ 'X'; 'Y'; 'Z' ]
  done

let test_surface5_beats_surface3 () =
  let rng = Rng.create 8191 in
  let rate code p trials =
    let decoder = Decoder.build ~max_weight:2 code in
    Decoder.logical_error_rate ~trials ~rng code decoder ~physical_error:p
  in
  let r3 = rate (Code.rotated_surface 3) 0.005 6000 in
  let r5 = rate (Code.rotated_surface 5) 0.005 6000 in
  Alcotest.(check bool)
    (Printf.sprintf "d=5 (%.5f) <= d=3 (%.5f) below threshold" r5 r3)
    true (r5 <= r3)

let test_repetition_syndromes () =
  let code = Code.bit_flip_repetition 3 in
  Alcotest.(check int) "no error" 0 (Code.syndrome code Pauli.identity);
  Alcotest.(check int) "X0" 0b01 (Code.syndrome code (Pauli.single 0 'X'));
  Alcotest.(check int) "X1" 0b11 (Code.syndrome code (Pauli.single 1 'X'));
  Alcotest.(check int) "X2" 0b10 (Code.syndrome code (Pauli.single 2 'X'));
  (* Z errors are invisible to the bit-flip code *)
  Alcotest.(check int) "Z0 invisible" 0 (Code.syndrome code (Pauli.single 0 'Z'))

let test_surface17_distance () =
  let code = Code.surface_17 in
  Alcotest.(check int) "9 data" 9 code.Code.n;
  Alcotest.(check int) "8 stabilizers" 8 (Array.length code.Code.stabilizers);
  (* every weight-1 and weight-2 error has nonzero syndrome or is benign *)
  let all_single_detected = ref true in
  for q = 0 to 8 do
    List.iter
      (fun letter ->
        let e = Pauli.single q letter in
        if Code.syndrome code e = 0 then all_single_detected := false)
      [ 'X'; 'Y'; 'Z' ]
  done;
  Alcotest.(check bool) "all single errors detected" true !all_single_detected

let test_logical_effect () =
  let code = Code.surface_17 in
  Alcotest.(check bool) "logical_z is Z effect" true
    (Code.logical_effect code code.Code.logical_z = `Z);
  Alcotest.(check bool) "logical_x is X effect" true
    (Code.logical_effect code code.Code.logical_x = `X);
  Alcotest.(check bool) "stabilizer is none" true
    (Code.logical_effect code code.Code.stabilizers.(0) = `None)

let test_stabilizer_group_membership () =
  let code = Code.bit_flip_repetition 3 in
  let zz01 = Pauli.of_string "ZZI" in
  Alcotest.(check bool) "generator in group" true (Code.in_stabilizer_group code zz01);
  let z0z2 = Pauli.of_string "ZIZ" in
  Alcotest.(check bool) "product in group" true (Code.in_stabilizer_group code z0z2);
  Alcotest.(check bool) "logical not in group" false
    (Code.in_stabilizer_group code code.Code.logical_x)

(* --- decoder --- *)

let test_decoder_corrects_single_errors () =
  List.iter
    (fun code ->
      let decoder = Decoder.build code in
      for q = 0 to code.Code.n - 1 do
        List.iter
          (fun letter ->
            let error = Pauli.single q letter in
            Alcotest.(check bool)
              (Printf.sprintf "%s corrects %c%d" code.Code.name letter q)
              true
              (Decoder.decode_outcome code decoder error = `None))
          [ 'X'; 'Y'; 'Z' ]
      done)
    [ Code.surface_17 ]

let test_repetition_corrects_single_x () =
  let code = Code.bit_flip_repetition 3 in
  let decoder = Decoder.build code in
  for q = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "X%d corrected" q)
      true
      (Decoder.decode_outcome code decoder (Pauli.single q 'X') = `None)
  done;
  (* two X errors exceed (d-1)/2 and cause a logical error *)
  let double = Pauli.mul (Pauli.single 0 'X') (Pauli.single 1 'X') in
  Alcotest.(check bool) "double fails" true
    (Decoder.decode_outcome code decoder double <> `None)

let test_logical_error_rate_scaling () =
  (* Logical rate must fall with physical rate and with distance. *)
  let rng = Rng.create 2718 in
  let rate code p =
    let decoder = Decoder.build code in
    Decoder.logical_error_rate ~trials:4000 ~rng code decoder ~physical_error:p
  in
  let r3_high = rate (Code.bit_flip_repetition 3) 0.1 in
  let r3_low = rate (Code.bit_flip_repetition 3) 0.01 in
  Alcotest.(check bool) "monotone in p" true (r3_low < r3_high);
  let r5_low = rate (Code.bit_flip_repetition 5) 0.01 in
  ignore r5_low;
  (* At p=0.01 the d=5 code has ~10x lower X-failure; but depolarizing noise
     includes Z errors the bit-flip code cannot see, so compare X-only. *)
  let x_only code p =
    let decoder = Decoder.build code in
    let failures = ref 0 and trials = 4000 in
    for _ = 1 to trials do
      let error = Pauli.xz_error rng code.Code.n ~px:p ~pz:0.0 in
      if Decoder.decode_outcome code decoder error <> `None then incr failures
    done;
    float_of_int !failures /. float_of_int trials
  in
  let x3 = x_only (Code.bit_flip_repetition 3) 0.05 in
  let x5 = x_only (Code.bit_flip_repetition 5) 0.05 in
  Alcotest.(check bool) "distance helps" true (x5 < x3)

let test_surface17_below_pseudothreshold () =
  let rng = Rng.create 31415 in
  let code = Code.surface_17 in
  let decoder = Decoder.build code in
  let logical =
    Decoder.logical_error_rate ~trials:20000 ~rng code decoder ~physical_error:0.001
  in
  (* At p = 1e-3 the d=3 surface code must beat the physical qubit. *)
  Alcotest.(check bool) "below physical" true (logical < 0.001)

let test_measurement_errors_handled () =
  let rng = Rng.create 999 in
  let code = Code.bit_flip_repetition 3 in
  let decoder = Decoder.build code in
  let clean =
    Decoder.logical_error_rate_with_measurement ~trials:3000 ~rounds:3 ~rng code decoder
      ~physical_error:0.02 ~measurement_error:0.0
  in
  let noisy =
    Decoder.logical_error_rate_with_measurement ~trials:3000 ~rounds:3 ~rng code decoder
      ~physical_error:0.02 ~measurement_error:0.1
  in
  Alcotest.(check bool) "measurement noise hurts" true (noisy >= clean)

(* --- Pauli frame --- *)

module Pauli_frame = Qca_qec.Pauli_frame

let test_frame_cnot_propagation () =
  let f = { Pauli_frame.x = 0b01; z = 0 } in
  (* X on control 0 copies onto target 1 *)
  Pauli_frame.propagate_cnot f 0 1;
  Alcotest.(check int) "x spread" 0b11 f.Pauli_frame.x;
  let g = { Pauli_frame.x = 0; z = 0b10 } in
  (* Z on target 1 copies onto control 0 *)
  Pauli_frame.propagate_cnot g 0 1;
  Alcotest.(check int) "z spread" 0b11 g.Pauli_frame.z

let test_frame_h_swaps () =
  let f = { Pauli_frame.x = 0b1; z = 0 } in
  Pauli_frame.propagate_h f 0;
  Alcotest.(check int) "x->z" 0 f.Pauli_frame.x;
  Alcotest.(check int) "z set" 1 f.Pauli_frame.z;
  (* Y stays Y *)
  let g = { Pauli_frame.x = 0b1; z = 0b1 } in
  Pauli_frame.propagate_h g 0;
  Alcotest.(check int) "y x" 1 g.Pauli_frame.x;
  Alcotest.(check int) "y z" 1 g.Pauli_frame.z

let test_noise_free_round_matches_algebra () =
  let rng = Rng.create 77 in
  List.iter
    (fun code ->
      for q = 0 to code.Code.n - 1 do
        List.iter
          (fun letter ->
            let e = Pauli.single q letter in
            let f = { Pauli_frame.x = e.Pauli.x; z = e.Pauli.z } in
            let result =
              Pauli_frame.noisy_round ~rng ~gate_error:0.0 ~measurement_error:0.0 code f
            in
            Alcotest.(check int)
              (Printf.sprintf "%s frame syndrome %c%d" code.Code.name letter q)
              (Code.syndrome code e) result.Pauli_frame.syndrome)
          [ 'X'; 'Z' ]
      done)
    [ Code.bit_flip_repetition 3; Code.surface_17; Code.steane ]

let test_circuit_level_zero_noise_is_perfect () =
  let rng = Rng.create 78 in
  let code = Code.surface_17 in
  let decoder = Decoder.build code in
  let rate =
    Pauli_frame.logical_error_rate ~trials:300 ~rng code decoder ~gate_error:0.0
      ~measurement_error:0.0
  in
  Alcotest.(check (float 1e-12)) "no noise no failures" 0.0 rate

let test_circuit_level_worse_than_code_capacity () =
  let rng = Rng.create 79 in
  let code = Code.surface_17 in
  let decoder = Decoder.build code in
  let p = 0.002 in
  let capacity = Decoder.logical_error_rate ~trials:6000 ~rng code decoder ~physical_error:p in
  let circuit_level =
    Pauli_frame.logical_error_rate ~trials:6000 ~rng code decoder ~gate_error:p
      ~measurement_error:p
  in
  Alcotest.(check bool)
    (Printf.sprintf "circuit level (%.5f) > capacity (%.5f)" circuit_level capacity)
    true (circuit_level > capacity)

let test_circuit_level_monotone () =
  let rng = Rng.create 80 in
  let code = Code.bit_flip_repetition 3 in
  let decoder = Decoder.build code in
  let rate p =
    Pauli_frame.logical_error_rate ~trials:4000 ~rng code decoder ~gate_error:p
      ~measurement_error:p
  in
  let low = rate 0.001 and high = rate 0.02 in
  Alcotest.(check bool) "monotone in gate error" true (low < high)

(* --- circuit-level experiments --- *)

let test_syndrome_circuit_structure () =
  let code = Code.surface_17 in
  let circuit = Code.syndrome_circuit code in
  Alcotest.(check int) "9 data + 8 ancilla" 17 (Circuit.qubit_count circuit);
  let measures =
    List.length
      (List.filter
         (fun i -> match i with Gate.Measure _ -> true | _ -> false)
         (Circuit.instructions circuit))
  in
  Alcotest.(check int) "8 measurements" 8 measures

let test_circuit_level_syndrome_matches_algebra () =
  let rng = Rng.create 424242 in
  List.iter
    (fun code ->
      (* check identity + all single-qubit errors *)
      Alcotest.(check bool) (code.Code.name ^ " clean") true
        (Qec_experiment.circuit_level_syndrome_matches code Pauli.identity rng);
      for q = 0 to code.Code.n - 1 do
        List.iter
          (fun letter ->
            Alcotest.(check bool)
              (Printf.sprintf "%s circuit syndrome %c%d" code.Code.name letter q)
              true
              (Qec_experiment.circuit_level_syndrome_matches code (Pauli.single q letter) rng))
          [ 'X'; 'Z' ]
      done)
    [ Code.bit_flip_repetition 3; Code.surface_17 ]

let test_logical_operation_on_code_space () =
  (* Prepare logical |0> of the repetition code on the tableau, apply the
     transversal logical X, and verify logical Z flips sign: a complete
     logical operation cycle at circuit level. *)
  let rng = Rng.create 171717 in
  let code = Code.bit_flip_repetition 3 in
  let tableau = Qec_experiment.prepare_logical_zero code rng in
  (* logical Z readout: measure data qubit 0 (logical_z = Z0) *)
  let before = Tableau.measure (Tableau.copy tableau) rng 0 in
  Alcotest.(check int) "logical zero" 0 before;
  (* transversal logical X = X on every data qubit *)
  Tableau.apply_pauli tableau code.Code.logical_x;
  let syndrome = Qec_experiment.extract_syndrome code tableau rng in
  Alcotest.(check int) "logical op leaves code space" 0 syndrome;
  let after = Tableau.measure (Tableau.copy tableau) rng 0 in
  Alcotest.(check int) "logical one" 1 after

let test_overhead_exceeds_90_percent () =
  let o = Qec_experiment.overhead_of ~rounds_per_logical_op:3 Code.surface_17 in
  Alcotest.(check bool) "paper's >90% claim" true (o.Qec_experiment.qec_fraction > 0.9);
  Alcotest.(check int) "physical qubits" 17 o.Qec_experiment.physical_qubits

let () =
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "qca_qec"
    [
      ( "pauli",
        [
          Alcotest.test_case "strings" `Quick test_pauli_strings;
          Alcotest.test_case "mul" `Quick test_pauli_mul;
          Alcotest.test_case "commutation" `Quick test_pauli_commutation;
          Alcotest.test_case "support" `Quick test_pauli_support;
          Alcotest.test_case "sampling rate" `Quick test_error_sampling_rate;
        ] );
      ( "tableau",
        [
          Alcotest.test_case "bell" `Quick test_tableau_bell;
          Alcotest.test_case "ghz stabilizers" `Quick test_tableau_ghz_stabilizers;
          Alcotest.test_case "deterministic measure" `Quick test_tableau_deterministic_measure;
          Alcotest.test_case "measure collapses" `Quick test_tableau_measure_collapses;
          Alcotest.test_case "stabilizer strings" `Quick test_tableau_stabilizer_strings;
          Alcotest.test_case "rejects non-clifford" `Quick test_tableau_rejects_nonclifford;
          Alcotest.test_case "accepts exactly is_clifford" `Quick
            test_tableau_accepts_exactly_clifford;
          qtest prop_tableau_matches_statevector;
          qtest prop_tableau_multiword_matches_statevector;
        ] );
      ( "codes",
        [
          Alcotest.test_case "valid" `Quick test_codes_valid;
          Alcotest.test_case "surface-3 = surface-17" `Quick test_rotated_surface_3_is_surface_17;
          Alcotest.test_case "surface-5 structure" `Quick test_rotated_surface_5_structure;
          Alcotest.test_case "steane" `Quick test_steane_structure;
          Alcotest.test_case "distance 5 beats 3" `Slow test_surface5_beats_surface3;
          Alcotest.test_case "repetition syndromes" `Quick test_repetition_syndromes;
          Alcotest.test_case "surface17 structure" `Quick test_surface17_distance;
          Alcotest.test_case "logical effect" `Quick test_logical_effect;
          Alcotest.test_case "stabilizer group" `Quick test_stabilizer_group_membership;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "corrects singles (surface)" `Quick test_decoder_corrects_single_errors;
          Alcotest.test_case "repetition singles" `Quick test_repetition_corrects_single_x;
          Alcotest.test_case "rate scaling" `Quick test_logical_error_rate_scaling;
          Alcotest.test_case "surface pseudothreshold" `Quick test_surface17_below_pseudothreshold;
          Alcotest.test_case "measurement errors" `Quick test_measurement_errors_handled;
        ] );
      ( "pauli-frame",
        [
          Alcotest.test_case "cnot propagation" `Quick test_frame_cnot_propagation;
          Alcotest.test_case "h swaps" `Quick test_frame_h_swaps;
          Alcotest.test_case "noise-free matches algebra" `Quick test_noise_free_round_matches_algebra;
          Alcotest.test_case "zero noise perfect" `Quick test_circuit_level_zero_noise_is_perfect;
          Alcotest.test_case "worse than capacity" `Quick test_circuit_level_worse_than_code_capacity;
          Alcotest.test_case "monotone" `Quick test_circuit_level_monotone;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "syndrome circuit" `Quick test_syndrome_circuit_structure;
          Alcotest.test_case "circuit-level syndromes" `Quick test_circuit_level_syndrome_matches_algebra;
          Alcotest.test_case "logical operation" `Quick test_logical_operation_on_code_space;
          Alcotest.test_case "overhead >90%" `Quick test_overhead_exceeds_90_percent;
        ] );
    ]
