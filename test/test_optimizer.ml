(* Tests for the optimizing pass pipeline (docs/compiler.md): one unit test
   per rewrite rule, Euler-identity properties for the resynthesis helpers,
   distribution preservation through the engine at matched seeds, SABRE
   conformance under the pass-verifier, the engine-fusion interplay, and
   the fixture-corpus depth guard. *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module Platform = Qca_compiler.Platform
module Optimize = Qca_compiler.Optimize
module Decompose = Qca_compiler.Decompose
module Mapping = Qca_compiler.Mapping
module Compiler = Qca_compiler.Compiler
module Eqasm = Qca_compiler.Eqasm
module Ising = Qca_anneal.Ising
module Qaoa = Qca_qaoa.Qaoa
module Verify = Qca_analysis.Verify
module Diagnostic = Qca_analysis.Diagnostic
module Engine = Qca_qx.Engine
module Matrix = Qca_util.Matrix
module Fixed_matrix = Qca_compiler.Fixed_matrix
module Rng = Qca_util.Rng

let u g ops = Gate.Unitary (g, Array.of_list ops)
let circ n gates = Circuit.of_list n gates

let check_equiv name original optimized =
  Alcotest.(check bool)
    (name ^ ": equivalent")
    true
    (Circuit.gate_count original = 0
     && Circuit.gate_count optimized = 0
    || Decompose.check_equivalent original optimized)

let optimize name c expected_gates =
  let o, stats = Optimize.run c in
  check_equiv name c o;
  Alcotest.(check int) (name ^ ": gate count") expected_gates (Circuit.gate_count o);
  (o, stats)

(* --- one unit test per peephole rewrite rule --- *)

let test_rule_inverse_pair () =
  let c = circ 1 [ u Gate.H [ 0 ]; u Gate.H [ 0 ] ] in
  let _, stats = optimize "h.h" c 0 in
  Alcotest.(check int) "one pair" 1 stats.Optimize.removed_pairs;
  ignore (optimize "t.tdag" (circ 1 [ u Gate.T [ 0 ]; u Gate.Tdag [ 0 ] ]) 0);
  ignore (optimize "cnot.cnot" (circ 2 [ u Gate.Cnot [ 0; 1 ]; u Gate.Cnot [ 0; 1 ] ]) 0)

let test_rule_merge_rotations () =
  let c = circ 1 [ u (Gate.Rz 0.3) [ 0 ]; u (Gate.Rz 0.4) [ 0 ] ] in
  let o, _ = optimize "rz merge" c 1 in
  (match Circuit.instructions o with
  | [ Gate.Unitary (Gate.Rz t, _) ] ->
      Alcotest.(check (float 1e-9)) "angles add" 0.7 t
  | _ -> Alcotest.fail "expected a single rz");
  ignore (optimize "rx merge" (circ 1 [ u (Gate.Rx 1.0) [ 0 ]; u (Gate.Rx 0.5) [ 0 ] ]) 1)

let test_rule_pair_contraction () =
  (* Each like pair contracts to one gate (the pipeline may render it as a
     named gate or an equivalent rotation; equivalence is what matters). *)
  ignore (optimize "s.s -> z" (circ 1 [ u Gate.S [ 0 ]; u Gate.S [ 0 ] ]) 1);
  ignore (optimize "t.t -> s" (circ 1 [ u Gate.T [ 0 ]; u Gate.T [ 0 ] ]) 1);
  ignore (optimize "x90.x90 -> x" (circ 1 [ u Gate.X90 [ 0 ]; u Gate.X90 [ 0 ] ]) 1)

let test_rule_drop_identity () =
  let c = circ 1 [ u Gate.I [ 0 ]; u (Gate.Rz 1e-13) [ 0 ]; u Gate.X [ 0 ] ] in
  let _, stats = optimize "identity drop" c 1 in
  Alcotest.(check int) "two dropped" 2 stats.Optimize.dropped_identities

let test_rule_h_conjugation () =
  let c = circ 1 [ u Gate.H [ 0 ]; u Gate.X [ 0 ]; u Gate.H [ 0 ] ] in
  let _, stats = optimize "h.x.h -> z" c 1 in
  Alcotest.(check int) "one conjugation" 1 stats.Optimize.conjugations;
  (* CNOT target conjugated by H on both sides is a CZ. *)
  let c2 =
    circ 2 [ u Gate.H [ 1 ]; u Gate.Cnot [ 0; 1 ]; u Gate.H [ 1 ] ]
  in
  let o2, _ = optimize "h.cnot.h -> cz" c2 1 in
  match Circuit.instructions o2 with
  | [ Gate.Unitary (Gate.Cz, _) ] -> ()
  | _ -> Alcotest.fail "expected a single cz"

let test_rule_commuting_cancellation () =
  (* The Rz pair cancels through the diagonal CZ it commutes with. *)
  let c =
    circ 2
      [ u (Gate.Rz 0.9) [ 0 ]; u Gate.Cz [ 0; 1 ]; u (Gate.Rz (-0.9)) [ 0 ] ]
  in
  ignore (optimize "rz cancels through cz" c 1)

let test_rule_rz_accumulation_across_cnot () =
  (* Rz on the control commutes past CNOT: the two rotations fold into one. *)
  let c =
    circ 2
      [ u (Gate.Rz 0.4) [ 0 ]; u Gate.Cnot [ 0; 1 ]; u (Gate.Rz 0.5) [ 0 ] ]
  in
  let o, _ = optimize "rz folds across cnot control" c 2 in
  let rz_count =
    List.length
      (List.filter
         (function Gate.Unitary (Gate.Rz _, _) -> true | _ -> false)
         (Circuit.instructions o))
  in
  Alcotest.(check int) "single rz left" 1 rz_count

let test_rule_euler_resynthesis () =
  (* A four-gate 1q run collapses to at most three rotations. *)
  let c =
    circ 1
      [
        u (Gate.Rx 0.3) [ 0 ]; u (Gate.Ry 0.2) [ 0 ]; u (Gate.Rx 0.5) [ 0 ];
        u Gate.T [ 0 ];
      ]
  in
  let o, stats = Optimize.run c in
  check_equiv "euler run" c o;
  Alcotest.(check bool) "at most 3 gates" true (Circuit.gate_count o <= 3);
  Alcotest.(check bool) "euler fired" true (stats.Optimize.euler_runs >= 1)

let test_rule_consolidate_swap () =
  (* Three alternating CNOTs are a SWAP: consolidation re-expresses the
     block with a single two-qubit gate. *)
  let c =
    circ 2
      [ u Gate.Cnot [ 0; 1 ]; u Gate.Cnot [ 1; 0 ]; u Gate.Cnot [ 0; 1 ] ]
  in
  let o, stats = Optimize.run c in
  check_equiv "cnot3 -> swap" c o;
  Alcotest.(check bool) "fewer 2q gates" true
    (Circuit.two_qubit_gate_count o < 3);
  Alcotest.(check bool) "consolidation fired" true
    (stats.Optimize.consolidations >= 1)

let test_consolidate_reuses_renders () =
  (* One block on two disjoint pairs: rendered once, reused once. *)
  let c = circ 4 [ u Gate.H [ 0 ]; u Gate.Cnot [ 0; 1 ]; u Gate.H [ 2 ]; u Gate.Cnot [ 2; 3 ] ] in
  let _, stats = optimize "repeated block" c 4 in
  Alcotest.(check (pair int int))
    "rendered, reused" (1, 1)
    (stats.Optimize.blocks_rendered, stats.Optimize.blocks_reused)

let test_barrier_blocks_rewrites () =
  let c =
    Circuit.of_list 1
      [ u Gate.H [ 0 ]; Gate.Barrier [| 0 |]; u Gate.H [ 0 ] ]
  in
  let o, _ = Optimize.run c in
  Alcotest.(check int) "barrier keeps both" 2 (Circuit.gate_count o)

(* --- Euler identity properties for the white-box helpers --- *)

let random_1q_product rng gates =
  let pool =
    [|
      (fun () -> Gate.H); (fun () -> Gate.T); (fun () -> Gate.S);
      (fun () -> Gate.X90); (fun () -> Gate.Ym90);
      (fun () -> Gate.Rx (Rng.float rng 6.28 -. 3.14));
      (fun () -> Gate.Ry (Rng.float rng 6.28 -. 3.14));
      (fun () -> Gate.Rz (Rng.float rng 6.28 -. 3.14));
    |]
  in
  List.init gates (fun _ -> pool.(Rng.int rng (Array.length pool)) ())

let matrix_of_gates gates =
  List.fold_left
    (fun acc g -> Matrix.mul (Gate.matrix g) acc)
    (Matrix.identity 2) gates

let prop_euler_reconstructs =
  QCheck.Test.make ~name:"zyz/pulse resynthesis reconstructs 1q products"
    ~count:200
    (QCheck.make
       ~print:(fun (s, g) -> Printf.sprintf "seed=%d gates=%d" s g)
       QCheck.Gen.(pair (int_range 0 99999) (int_range 1 8)))
    (fun (seed, gates) ->
      let run = random_1q_product (Rng.create seed) gates in
      let m = matrix_of_gates run in
      let angles = Fixed_matrix.zyz_angles (Fixed_matrix.of_matrix m) in
      let check form =
        let unitaries =
          List.filter_map
            (function Gate.Unitary (g, _) -> Some g | _ -> None)
            (form 0 angles)
        in
        Matrix.equal_up_to_phase ~eps:1e-7 m (matrix_of_gates unitaries)
      in
      check Optimize.gates_zyz && check Optimize.gates_pulse)

let prop_local_factors_sound =
  QCheck.Test.make ~name:"local_factors only reports true tensor products"
    ~count:100
    (QCheck.make
       ~print:(fun s -> Printf.sprintf "seed=%d" s)
       QCheck.Gen.(int_range 0 99999))
    (fun seed ->
      let rng = Rng.create seed in
      let a = matrix_of_gates (random_1q_product rng 3) in
      let b = matrix_of_gates (random_1q_product rng 3) in
      (* local_factors returns (q0 factor, q1 factor) for a matrix in the
         engine's kron order — each factor only up to a complex scale, which
         zyz_angles normalises away; reconstruct through that path. *)
      match Fixed_matrix.local_factors (Fixed_matrix.of_matrix (Matrix.kron a b)) with
      | None -> false (* a true tensor product must be detected *)
      | Some (a', b') ->
          let unitary m =
            matrix_of_gates
              (List.filter_map
                 (function Gate.Unitary (g, _) -> Some g | _ -> None)
                 (Optimize.gates_zyz 0 (Fixed_matrix.zyz_angles m)))
          in
          Matrix.equal_up_to_phase ~eps:1e-7
            (Matrix.kron (unitary b') (unitary a'))
            (Matrix.kron a b))

(* --- the fixed-size kernel against the boxed matrices --- *)

(* An angle, now and then a special one: the kernel must match the boxed
   arithmetic on signed zeros, large values and NaN too. *)
let random_angle rng =
  match Rng.int rng 12 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> Float.pi
  | 3 -> Float.nan
  | 4 -> 1e300
  | _ -> Rng.float rng 12.0 -. 6.0

(* A gate list on wires 0/1 over every one- and two-qubit unitary, both
   operand orders of the two-qubit ones. [only_local] leaves out the
   entanglers, so the product is a tensor product. *)
let random_2q_gates ?(only_local = false) rng count =
  let fixed1 =
    [| Gate.I; Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdag; Gate.T; Gate.Tdag;
       Gate.X90; Gate.Xm90; Gate.Y90; Gate.Ym90 |]
  in
  let one () =
    let q = Rng.int rng 2 in
    let u =
      match Rng.int rng 4 with
      | 0 -> Gate.Rx (random_angle rng)
      | 1 -> Gate.Ry (random_angle rng)
      | 2 -> Gate.Rz (random_angle rng)
      | _ -> fixed1.(Rng.int rng (Array.length fixed1))
    in
    Gate.Unitary (u, [| q |])
  in
  let two () =
    let ops = if Rng.int rng 2 = 0 then [| 0; 1 |] else [| 1; 0 |] in
    let u =
      match Rng.int rng 5 with
      | 0 -> Gate.Cnot
      | 1 -> Gate.Cz
      | 2 -> Gate.Swap
      | 3 -> Gate.Cphase (random_angle rng)
      | _ -> Gate.Crk (Rng.int rng 7)
    in
    Gate.Unitary (u, ops)
  in
  List.init count (fun _ -> if only_local || Rng.int rng 3 > 0 then one () else two ())

let same_bits name m k =
  let bits x = Int64.bits_of_float x in
  let ok = ref (Fixed_matrix.dim k = Matrix.rows m) in
  for r = 0 to Matrix.rows m - 1 do
    for c = 0 to Matrix.cols m - 1 do
      let z = Matrix.get m r c in
      if bits z.Complex.re <> bits (Fixed_matrix.re k r c)
         || bits z.Complex.im <> bits (Fixed_matrix.im k r c)
      then ok := false
    done
  done;
  if not !ok then QCheck.Test.fail_reportf "%s: entries differ in their bits" name;
  true

(* The factorisation as it was written on boxed matrices. *)
let reference_local_factors m =
  let best = ref (0, 0) and bestv = ref 0.0 in
  for r = 0 to 3 do
    for c = 0 to 3 do
      let v = Complex.norm (Matrix.get m r c) in
      if v > !bestv then begin
        bestv := v;
        best := (r, c)
      end
    done
  done;
  if !bestv < 1e-9 then None
  else
    let r, c = !best in
    let r0 = r land 1 and r1 = r lsr 1 in
    let c0 = c land 1 and c1 = c lsr 1 in
    let a = Matrix.make 2 2 (fun i j -> Matrix.get m ((r1 lsl 1) lor i) ((c1 lsl 1) lor j)) in
    let b = Matrix.make 2 2 (fun i j -> Matrix.get m ((i lsl 1) lor r0) ((j lsl 1) lor c0)) in
    let mrc = Matrix.get m r c in
    let s = 1.0 /. Qca_util.Cplx.norm2 mrc in
    let inv = Qca_util.Cplx.scale s (Complex.conj mrc) in
    let recon = Matrix.scale inv (Matrix.kron b a) in
    if Matrix.approx_equal ~eps:1e-7 recon m then Some (a, b) else None

(* ZYZ angles as they were written on boxed complex numbers. *)
let reference_zyz_angles m =
  let module C = Qca_util.Cplx in
  let arg c = Float.atan2 (C.im c) (C.re c) in
  let det =
    C.sub (C.mul (Matrix.get m 0 0) (Matrix.get m 1 1)) (C.mul (Matrix.get m 0 1) (Matrix.get m 1 0))
  in
  let s =
    let r = sqrt (C.abs det) and a = arg det /. 2.0 in
    C.scale r (C.cis a)
  in
  let inv_s = C.scale (1.0 /. C.norm2 s) (C.conj s) in
  let n00 = C.mul inv_s (Matrix.get m 0 0) in
  let n10 = C.mul inv_s (Matrix.get m 1 0) in
  let n11 = C.mul inv_s (Matrix.get m 1 1) in
  let ca = C.abs n00 and sa = C.abs n10 in
  let beta = 2.0 *. Float.atan2 sa ca in
  if sa < 1e-9 then (2.0 *. arg n11, 0.0, 0.0)
  else if ca < 1e-9 then (2.0 *. arg n10, Float.pi, 0.0)
  else (arg n11 +. arg n10, beta, arg n11 -. arg n10)

let same_angles name m k =
  let bits (a, b, c) = List.map Int64.bits_of_float [ a; b; c ] in
  bits (reference_zyz_angles m) = bits (Fixed_matrix.zyz_angles k)
  || QCheck.Test.fail_reportf "%s: zyz angles differ in their bits" name

let same_factors name m k =
  match (reference_local_factors m, Fixed_matrix.local_factors k) with
  | None, None -> true
  | Some (a, b), Some (a', b') ->
      same_bits (name ^ " A") a a'
      && same_bits (name ^ " B") b b'
      && same_angles (name ^ " A") a a'
      && same_angles (name ^ " B") b b'
  | Some _, None | None, Some _ -> QCheck.Test.fail_reportf "%s: verdicts differ" name

let same_phase_verdict name m k m' k' =
  Matrix.equal_up_to_phase ~eps:1e-7 m m' = Fixed_matrix.equal_up_to_phase ~eps:1e-7 k k'
  || QCheck.Test.fail_reportf "%s: equal_up_to_phase verdicts differ" name

let entanglers =
  [
    [ Gate.Unitary (Gate.Cz, [| 0; 1 |]) ];
    [ Gate.Unitary (Gate.Cnot, [| 0; 1 |]) ];
    [ Gate.Unitary (Gate.Cnot, [| 1; 0 |]) ];
    [ Gate.Unitary (Gate.Swap, [| 0; 1 |]) ];
  ]

let prop_fixed_matrix_bit_identical =
  QCheck.Test.make ~name:"fixed-size kernel is bit-identical to the boxed matrices"
    ~count:300
    (QCheck.make
       ~print:(fun (s, g) -> Printf.sprintf "seed=%d gates=%d" s g)
       QCheck.Gen.(pair (int_range 0 99999) (int_range 0 12)))
    (fun (seed, count) ->
      let rng = Rng.create seed in
      let only_local = Rng.int rng 3 = 0 in
      let gates = random_2q_gates ~only_local rng count in
      let m = Circuit.unitary_matrix (Circuit.of_list 2 gates) in
      let k = Fixed_matrix.of_gates2 gates in
      let run =
        List.map (fun u -> Gate.Unitary (u, [| 0 |])) (random_1q_product rng (1 + (count mod 5)))
      in
      let run_m =
        List.fold_left
          (fun acc g ->
            match g with Gate.Unitary (u, _) -> Matrix.mul (Gate.matrix u) acc | _ -> acc)
          (Matrix.identity 2) run
      in
      let identity = Matrix.identity 4 in
      same_bits "4x4 product" m k
      && same_bits "2x2 run" run_m (Fixed_matrix.product1 run)
      && same_angles "2x2 run" run_m (Fixed_matrix.product1 run)
      && same_factors "locals" m k
      && same_phase_verdict "identity" m k identity Fixed_matrix.identity4
      && same_phase_verdict "self" m k m k
      && List.for_all
           (fun tg ->
             let g = Matrix.adjoint (Circuit.unitary_matrix (Circuit.of_list 2 tg)) in
             let g' = Fixed_matrix.adjoint (Fixed_matrix.of_gates2 tg) in
             let after = Matrix.mul m g and before = Matrix.mul g m in
             let after' = Fixed_matrix.mul k g' and before' = Fixed_matrix.mul g' k in
             same_bits "after" after after'
             && same_bits "before" before before'
             && same_factors "after" after after'
             && same_factors "before" before before'
             && same_phase_verdict "against entangler" after after' m k)
           entanglers)

(* --- distribution preservation at matched seeds (ideal noise) --- *)

let measured n base =
  Circuit.append base
    (Circuit.of_list n (List.init n (fun q -> Gate.Measure q)))

let histogram ?seed ?shots c =
  (Engine.run ?seed ?shots c).Engine.histogram

let prop_distribution_bit_identical =
  QCheck.Test.make
    ~name:"optimizer preserves sampled distributions bit-identically"
    ~count:30
    (QCheck.make
       ~print:(fun (s, q, g) -> Printf.sprintf "seed=%d q=%d g=%d" s q g)
       QCheck.Gen.(triple (int_range 0 9999) (int_range 2 4) (int_range 1 25)))
    (fun (seed, qubits, gates) ->
      let base =
        measured qubits (Library.random_circuit (Rng.create seed) ~qubits ~gates)
      in
      let optimized = Optimize.run_circuit base in
      histogram ~seed ~shots:300 base = histogram ~seed ~shots:300 optimized)

let test_distribution_teleport () =
  (* Mid-circuit measurement + classical feedback: the trajectory plan
     consumes one RNG draw per measurement, which the optimizer leaves in
     place, so seeded runs stay bit-identical. *)
  let c = Library.teleport () in
  let o = Optimize.run_circuit c in
  Alcotest.(check (list (pair string int)))
    "teleport histogram" (histogram ~seed:11 ~shots:200 c)
    (histogram ~seed:11 ~shots:200 o)

(* --- SABRE conformance: zero verifier diagnostics on fixture platforms --- *)

let test_sabre_conformance () =
  let cases =
    [
      (Platform.superconducting_17, Compiler.Real, measured 4 (Library.ghz 4));
      (Platform.superconducting_17, Compiler.Realistic, measured 4 (Library.qft 4));
      (Platform.superconducting_17, Compiler.Realistic, Library.teleport ());
      (Platform.semiconducting_4, Compiler.Realistic, measured 4 (Library.ghz 4));
      (Platform.semiconducting_4, Compiler.Realistic, measured 3 (Library.qft 3));
    ]
  in
  List.iter
    (fun (platform, mode, circuit) ->
      let _out, report =
        Verify.compile ~strategy:Mapping.Sabre platform mode circuit
      in
      Alcotest.(check (list string))
        (Printf.sprintf "no diagnostics on %s" platform.Platform.name)
        []
        (List.map Diagnostic.to_string report.Verify.final))
    cases

let test_sabre_routes_distant_pair () =
  (* Logical 0 and 16 sit at opposite corners of the 17-qubit lattice;
     SABRE must insert swaps and still preserve the measured marginal. *)
  let c =
    Circuit.of_list 17
      [
        u Gate.X [ 0 ]; u Gate.Cnot [ 0; 16 ]; Gate.Measure 0; Gate.Measure 16;
      ]
  in
  let r = Mapping.run ~strategy:Mapping.Sabre Platform.superconducting_17 c in
  Alcotest.(check bool) "swaps inserted" true (r.Mapping.swaps_added > 0);
  (* One deterministic outcome with both measured (physical) qubits at 1. *)
  match histogram ~seed:3 ~shots:100 r.Mapping.circuit with
  | [ (key, 100) ] ->
      let ones =
        String.fold_left (fun n ch -> if ch = '1' then n + 1 else n) 0 key
      in
      Alcotest.(check int) "two ones" 2 ones
  | hist ->
      Alcotest.fail
        (Printf.sprintf "expected one outcome, got %d" (List.length hist))

(* --- engine fusion must not double-apply resynthesised runs --- *)

let test_fused_1q_after_euler () =
  (* The pulse-form Euler output is exactly the shape the engine's 1q-run
     fusion coalesces; fused and unfused seeded runs must stay
     bit-identical. *)
  let base =
    measured 2
      (circ 2
         [
           u Gate.H [ 0 ]; u (Gate.Rx 0.7) [ 0 ]; u (Gate.Ry 0.4) [ 0 ];
           u Gate.T [ 0 ]; u Gate.Cnot [ 0; 1 ]; u (Gate.Rz 0.5) [ 1 ];
           u (Gate.Rx 1.1) [ 1 ]; u (Gate.Rz (-0.3)) [ 1 ];
         ])
  in
  let optimized = Optimize.run_circuit base in
  let fused = Engine.run ~seed:17 ~shots:400 ~fusion:true optimized in
  let unfused = Engine.run ~seed:17 ~shots:400 ~fusion:false optimized in
  Alcotest.(check (list (pair string int)))
    "fused = unfused" unfused.Engine.histogram fused.Engine.histogram;
  Alcotest.(check (list (pair string int)))
    "optimized = original" (histogram ~seed:17 ~shots:400 base)
    fused.Engine.histogram

(* --- depth guard over the fixture corpus --- *)

let fixture_corpus () =
  [
    ("bell", measured 2 (Library.bell ()));
    ("ghz5", measured 5 (Library.ghz 5));
    ("qft4", measured 4 (Library.qft 4));
    ("teleport", Library.teleport ());
    ("random6x30", measured 6 (Library.random_circuit (Rng.create 77) ~qubits:6 ~gates:30));
  ]

let test_depth_never_increases () =
  List.iter
    (fun (name, c) ->
      let o = Optimize.run_circuit c in
      Alcotest.(check bool)
        (name ^ ": optimized depth <= input depth")
        true
        (Circuit.depth o <= Circuit.depth c))
    (fixture_corpus ())

let test_full_not_worse_than_basic () =
  (* Same router on both sides: the Full pipeline must not produce a
     larger physical circuit than the Basic sweep on the corpus. *)
  List.iter
    (fun (name, c) ->
      let basic =
        Compiler.compile ~strategy:Mapping.Sabre ~optimizer:Optimize.Basic
          Platform.superconducting_17 Compiler.Realistic c
      in
      let full =
        Compiler.compile ~strategy:Mapping.Sabre ~optimizer:Optimize.Full
          Platform.superconducting_17 Compiler.Realistic c
      in
      Alcotest.(check bool)
        (name ^ ": full gates <= basic gates")
        true
        (Circuit.gate_count full.Compiler.physical
        <= Circuit.gate_count basic.Compiler.physical))
    (fixture_corpus ())

(* --- compiled-output pins ---

   Digests of the physical cQASM, the eQASM and the optimizer's rewrite
   counts over a fixed corpus, for the 17-qubit platform in Real and
   Perfect mode. A change to the optimizer that is meant to be a pure
   speed-up must leave every one of them unchanged. *)

let pin_corpus () =
  let ring =
    { Ising.n = 6; h = [| 0.3; -0.2; 0.0; 0.5; -0.7; 0.1 |];
      couplings = [ (0, 1, 0.7); (1, 2, -0.4); (2, 3, 1.0); (3, 4, 0.2); (4, 5, -0.9); (5, 0, 0.6) ] }
  in
  let qaoa =
    Qaoa.full_circuit ring { Qaoa.gammas = [| 0.41; 1.13 |]; betas = [| 0.77; 0.29 |] }
  in
  [
    ("qft8", Library.qft 8);
    ("qaoa6", qaoa);
    ("random10x60", Library.random_circuit (Rng.create 1001) ~qubits:10 ~gates:60);
    ("random12x120", Library.random_circuit (Rng.create 1202) ~qubits:12 ~gates:120);
  ]

let stats_line (s : Optimize.stats) =
  Printf.sprintf "%d %d %d %d %d %d %d" s.Optimize.removed_pairs s.Optimize.merged_rotations
    s.Optimize.dropped_identities s.Optimize.conjugations s.Optimize.euler_runs
    s.Optimize.consolidations s.Optimize.rounds

(* The optimizer's counts for every stage, recomputed from the stage
   inputs the observer hands out: pre-opt and optimize start from the
   "input" and "expand-swaps" artifacts in Real mode, optimize from
   "input" in Perfect mode. *)
let compile_pin platform mode c =
  let inputs = Hashtbl.create 4 in
  let observer name = function
    | Compiler.Circuit_stage c -> Hashtbl.replace inputs name c
    | _ -> ()
  in
  let out = Compiler.compile ~observer platform mode c in
  let stage_stats =
    match mode with
    | Compiler.Perfect ->
        [ snd (Optimize.pipeline ~config:Optimize.logical_config (Hashtbl.find inputs "input")) ]
    | Compiler.Realistic | Compiler.Real ->
        [
          snd (Optimize.pipeline ~config:Optimize.logical_config (Hashtbl.find inputs "input"));
          snd
            (Optimize.pipeline ~config:(Optimize.physical_config platform)
               (Hashtbl.find inputs "expand-swaps"));
        ]
  in
  let hex s = Digest.to_hex (Digest.string s) in
  Printf.sprintf "cqasm=%s eqasm=%s stats=%s" (hex out.Compiler.cqasm)
    (hex (match out.Compiler.eqasm with Some e -> Eqasm.to_string e | None -> ""))
    (hex (String.concat "\n" (List.map stats_line stage_stats)))

let pinned =
  [
    (("qft8", Compiler.Real),
      "cqasm=a1191497c33de3c68255980b7e20543e eqasm=a441e3db6543da0cb35f11c916d733fd stats=0116ab4dd65137c5a250f1778a0c4240");
    (("qft8", Compiler.Perfect),
      "cqasm=d12343a6c904d1105ccb7f331ca0b9c9 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=ab02da5d92305701a695f519f79a85b5");
    (("qaoa6", Compiler.Real),
      "cqasm=5cd2cb9e5b2f8535c619e0ce99a99088 eqasm=bc620cb795414e46f31927a35d4721d0 stats=380afe5611ed3a6adf4095ffe5645612");
    (("qaoa6", Compiler.Perfect),
      "cqasm=77850b6c52f788b0df5dfea56e563cba eqasm=d41d8cd98f00b204e9800998ecf8427e stats=ab02da5d92305701a695f519f79a85b5");
    (("random10x60", Compiler.Real),
      "cqasm=214ad2d30c60cb4e009e9cc7f4ce68f1 eqasm=672700248baa4bdf5b8679332a8f2ecb stats=2aeec02ab0038e29a2a6271cadc5337f");
    (("random10x60", Compiler.Perfect),
      "cqasm=8d1446a3bd518d34b28b31b296c8f7d4 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=d826b337e7456183e335f6a46cc29f2e");
    (("random12x120", Compiler.Real),
      "cqasm=11f0a244aa21454c61148612d8d63a7d eqasm=60775d999a8b66fbfaa98ba3105a07bd stats=617d0d19dd06e2bb1728a293fc54d353");
    (("random12x120", Compiler.Perfect),
      "cqasm=722880187887c56fd5a3eb796b124fb9 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=4f34dcea161ad68bba778661e0b29be9");
  ]

let pin_cases () =
  let corpus = pin_corpus () in
  List.map
    (fun ((name, mode), expected) ->
      Alcotest.test_case
        (Printf.sprintf "%s %s" name (Compiler.mode_to_string mode))
        `Quick
        (fun () ->
          Alcotest.(check string)
            "digests" expected
            (compile_pin Platform.superconducting_17 mode (List.assoc name corpus))))
    pinned

let () =
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "qca_optimizer"
    [
      ( "rewrite-rules",
        [
          Alcotest.test_case "inverse pairs" `Quick test_rule_inverse_pair;
          Alcotest.test_case "merge rotations" `Quick test_rule_merge_rotations;
          Alcotest.test_case "pair contraction" `Quick test_rule_pair_contraction;
          Alcotest.test_case "drop identities" `Quick test_rule_drop_identity;
          Alcotest.test_case "h conjugation" `Quick test_rule_h_conjugation;
          Alcotest.test_case "commuting cancellation" `Quick test_rule_commuting_cancellation;
          Alcotest.test_case "rz across cnot" `Quick test_rule_rz_accumulation_across_cnot;
          Alcotest.test_case "euler resynthesis" `Quick test_rule_euler_resynthesis;
          Alcotest.test_case "consolidate swap" `Quick test_rule_consolidate_swap;
          Alcotest.test_case "consolidate reuses renders" `Quick test_consolidate_reuses_renders;
          Alcotest.test_case "barrier blocks" `Quick test_barrier_blocks_rewrites;
        ] );
      ( "euler-properties",
        [ qtest prop_euler_reconstructs; qtest prop_local_factors_sound ] );
      ("fixed-matrix", [ qtest prop_fixed_matrix_bit_identical ]);
      ( "distributions",
        [
          qtest prop_distribution_bit_identical;
          Alcotest.test_case "teleport" `Quick test_distribution_teleport;
        ] );
      ( "sabre",
        [
          Alcotest.test_case "conformance" `Quick test_sabre_conformance;
          Alcotest.test_case "distant pair" `Quick test_sabre_routes_distant_pair;
        ] );
      ( "fusion",
        [ Alcotest.test_case "no double apply" `Quick test_fused_1q_after_euler ] );
      ( "depth-guard",
        [
          Alcotest.test_case "optimizer" `Quick test_depth_never_increases;
          Alcotest.test_case "full vs basic" `Quick test_full_not_worse_than_basic;
        ] );
      ("compile-pins", pin_cases ());
    ]
