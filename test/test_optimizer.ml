(* Tests for the optimizing pass pipeline (docs/compiler.md): one unit test
   per rewrite rule, Euler-identity properties for the resynthesis helpers,
   distribution preservation through the engine at matched seeds, SABRE
   conformance under the pass-verifier, and the fixture-corpus depth
   guard. *)

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
module Trace = Qca_util.Trace

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

(* --- resynthesised single-qubit runs --- *)

let test_euler_runs_distribution () =
  (* The pulse-form Euler output puts long same-qubit runs of rotations
     in front of the engine; the seeded histogram must equal the
     original circuit's. *)
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
  Alcotest.(check (list (pair string int)))
    "optimized = original" (histogram ~seed:17 ~shots:400 base)
    (histogram ~seed:17 ~shots:400 optimized)

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

(* --- random-corpus pins ---

   The same digests, plus one of the compile report (every pass row), over
   8 compilable random circuits of each of three shapes, measured at the
   end as stackbench's compile-exec draws them, in every mode; and the four
   programs above in Realistic mode. The seeds are the first ones from
   [shape_seed_base] whose circuit compiles in Real mode (the others
   exhaust the eQASM mask registers). *)

let pin_shapes =
  [
    ((5, 40), [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
    ((10, 60), [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
    ((12, 120), [ 7; 8; 9; 14; 18; 21; 29; 30 ]);
  ]

let shape_seed_base (qubits, gates) = (100_000 * qubits) + gates

let random_pin_circuit ((qubits, gates) as shape) k =
  measured qubits
    (Library.random_circuit (Rng.create (shape_seed_base shape + k)) ~qubits ~gates)

let report_pin platform mode c =
  let out = Compiler.compile platform mode c in
  compile_pin platform mode c ^ " report="
  ^ Digest.to_hex (Digest.string (Compiler.report out))

let random_pinned =
  [
    ("random5x40-0 real",
      "cqasm=a5bacbb4ebbc1da4dc7f7387c672704a eqasm=ea1740359ed175da432783b007ef4db0 stats=9a2a8def4d95bf9c9c44c4a053eba748 report=8418d9932204338ce6fde6e2bebc692a");
    ("random5x40-0 realistic",
      "cqasm=a5bacbb4ebbc1da4dc7f7387c672704a eqasm=ea1740359ed175da432783b007ef4db0 stats=9a2a8def4d95bf9c9c44c4a053eba748 report=7fd437c7d0f20609f9017f87db85686e");
    ("random5x40-0 perfect",
      "cqasm=0b2458bea96085cd0ede47bfdad60bc0 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=02a6f2548b9ba9b16370fb60e7c28715 report=d850bbb3a575272e831198b128f19b3a");
    ("random5x40-1 real",
      "cqasm=a7edd94b8a19491f7d813f4a1676faf7 eqasm=01125728469ce71aaf5dcb4e19785fa8 stats=d200ae08a9299d8c0fd7ea1fcbec3a49 report=2b6099da0a310a8e0338ee92e39673f7");
    ("random5x40-1 realistic",
      "cqasm=a7edd94b8a19491f7d813f4a1676faf7 eqasm=01125728469ce71aaf5dcb4e19785fa8 stats=d200ae08a9299d8c0fd7ea1fcbec3a49 report=eec075f0358048f71f30a0a1a3d27bd8");
    ("random5x40-1 perfect",
      "cqasm=09c13489e75b4f492226a33164370fe6 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=f072cf50c944882d02265db32ed7cffe report=a01e6a3a69565b5c42054626a2bc061f");
    ("random5x40-2 real",
      "cqasm=8501c9d0cce50a58f157757f355a17e4 eqasm=47d2ddde20693a0d2b526aadad13e1c7 stats=1d8456abf347b74b5c6b138422adfbff report=faff501106e0ef3e554d7b7ba4ecb7c1");
    ("random5x40-2 realistic",
      "cqasm=8501c9d0cce50a58f157757f355a17e4 eqasm=47d2ddde20693a0d2b526aadad13e1c7 stats=1d8456abf347b74b5c6b138422adfbff report=08f5af7a39acb1f4d7748fec1a8fea09");
    ("random5x40-2 perfect",
      "cqasm=b59d215c30a3a070958483eeecd04828 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=a35f2567980a42eaea954be785b5b69b report=c5573b7a5bb649f05456a02d5e3a96ae");
    ("random5x40-3 real",
      "cqasm=f150e3f5b042dc5daa1cf9a56b0cb0c7 eqasm=31fa474b45371cd1c159109e737ef332 stats=e5e95bf3cb01b3fb97c59c343ca99624 report=7e3eb6ccee9c8c50c6cdf997621eb36a");
    ("random5x40-3 realistic",
      "cqasm=f150e3f5b042dc5daa1cf9a56b0cb0c7 eqasm=31fa474b45371cd1c159109e737ef332 stats=e5e95bf3cb01b3fb97c59c343ca99624 report=afc3fd94055d8ff2b303be4e0c7e1d05");
    ("random5x40-3 perfect",
      "cqasm=fd40fd609e129c55b8e89a9c3ed5e6ad eqasm=d41d8cd98f00b204e9800998ecf8427e stats=5290df50385376e17fc04de2991fe872 report=2a904e697f400601e2a664b41b6f3e71");
    ("random5x40-4 real",
      "cqasm=f84b42f1f18585f2dff826118f2a6915 eqasm=80b23fdcca278d7796e888615738f33d stats=19f22b21d5647e6745fbc6bad10eaf94 report=18ea76a9d7bb9b95f16fffecdd0963be");
    ("random5x40-4 realistic",
      "cqasm=f84b42f1f18585f2dff826118f2a6915 eqasm=80b23fdcca278d7796e888615738f33d stats=19f22b21d5647e6745fbc6bad10eaf94 report=f9d73b5d8cfb3aa0c1a725b354434202");
    ("random5x40-4 perfect",
      "cqasm=8b1a4585bae2d47568d17e4b26252dc5 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=c264719e2033f3c0580fa245b5fdc9be report=3aa549e189a023cee60943ea10a55f15");
    ("random5x40-5 real",
      "cqasm=b710e67f80bfaab2fa55ba15c9e1f48e eqasm=c0d5dd18870801230e4e73cb79acbf51 stats=93b0a685aa1352dcf481c5e788e05315 report=b707ab98593367cbb8acef19f2300633");
    ("random5x40-5 realistic",
      "cqasm=b710e67f80bfaab2fa55ba15c9e1f48e eqasm=c0d5dd18870801230e4e73cb79acbf51 stats=93b0a685aa1352dcf481c5e788e05315 report=acdac39797db2fc490b6b69cf8d8d4e1");
    ("random5x40-5 perfect",
      "cqasm=4216392b3877858d6d9179ecf7242fe5 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=eae6c704841211fdd510b66ea4a0b127 report=d43a3f986bcb6673d70eb7fc0ac9f180");
    ("random5x40-6 real",
      "cqasm=f959bd4d063c285d1e0a7f7734bf18d4 eqasm=dd5a35ea6a09bdae10e58ccd15a24684 stats=a438522f065b6de37696803d7ea2c84a report=03c6ff8baef6075a72f8ec456d54fdc2");
    ("random5x40-6 realistic",
      "cqasm=f959bd4d063c285d1e0a7f7734bf18d4 eqasm=dd5a35ea6a09bdae10e58ccd15a24684 stats=a438522f065b6de37696803d7ea2c84a report=3bb952f8464d1a1cb8ccf3380666153d");
    ("random5x40-6 perfect",
      "cqasm=fc2edc820ae6e5398bc52834dfee6cda eqasm=d41d8cd98f00b204e9800998ecf8427e stats=577576fb2570c298ee0bf58d7bfe95bb report=7a7ab01ddad1015576107e3a9912c17b");
    ("random5x40-7 real",
      "cqasm=ca534f08eb62bfd8d7f3ee1d29c63f7c eqasm=d903ff5441a34319f93d1880430d4d5a stats=fd89383239223dca99190d3f2a509cc7 report=bad455289f8feb74027744baa4bbf3b3");
    ("random5x40-7 realistic",
      "cqasm=ca534f08eb62bfd8d7f3ee1d29c63f7c eqasm=d903ff5441a34319f93d1880430d4d5a stats=fd89383239223dca99190d3f2a509cc7 report=b79b0a6fe12742f6807d82e37184f9ba");
    ("random5x40-7 perfect",
      "cqasm=a65517b6dae89f6924e0ba4aeb1922ac eqasm=d41d8cd98f00b204e9800998ecf8427e stats=d17323701c747acc8c13734749fdffce report=218a45cb8f357e066690b58894fcd963");
    ("random10x60-0 real",
      "cqasm=ce19e614b9fbb6ee13732a8c0d75d2af eqasm=e3794030546fda08b580bf2e8982068a stats=53b3e5b14449b19d7736b11df840e722 report=282744bff2071c0089420a80ffb38d5a");
    ("random10x60-0 realistic",
      "cqasm=ce19e614b9fbb6ee13732a8c0d75d2af eqasm=e3794030546fda08b580bf2e8982068a stats=53b3e5b14449b19d7736b11df840e722 report=c18fd75d97dabe37d95b891fbbf6e4b2");
    ("random10x60-0 perfect",
      "cqasm=71dd7faf29deccc26d444f40433ca300 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=9aa6540936da01ae8e9e5452027f2d2e report=b43684b6151656675e0f8357437e14a6");
    ("random10x60-1 real",
      "cqasm=c5439505ef6b0586e83a03fc2769b5df eqasm=1b0a47ba56ba148ea7be7cd304850f2a stats=fca539c355e3cac4dffe6b065bc1d75a report=1173c0245aab3ffeac289970d0bc736d");
    ("random10x60-1 realistic",
      "cqasm=c5439505ef6b0586e83a03fc2769b5df eqasm=1b0a47ba56ba148ea7be7cd304850f2a stats=fca539c355e3cac4dffe6b065bc1d75a report=1fca0a454ee6433d6e2cdd14455879c4");
    ("random10x60-1 perfect",
      "cqasm=f11a051b20bde218050b045ec0a705a8 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=ce6321ca4d2be43de4aaf424196b1cbc report=de4973dbdadb2c60f0447bfbbc9b3121");
    ("random10x60-2 real",
      "cqasm=887ead429ab70425abe57ee75024fc71 eqasm=6648fd3dca159de15eeeefd6f08fcee2 stats=94ab4cb2e032d3c1c235286e4752d2a7 report=62d2daebdd2a8259ddd538ae9d969354");
    ("random10x60-2 realistic",
      "cqasm=887ead429ab70425abe57ee75024fc71 eqasm=6648fd3dca159de15eeeefd6f08fcee2 stats=94ab4cb2e032d3c1c235286e4752d2a7 report=264e6b9adf4d42d570720460ac4af189");
    ("random10x60-2 perfect",
      "cqasm=d40d361bfeb16de60c0a1f73bc8ff28c eqasm=d41d8cd98f00b204e9800998ecf8427e stats=7edc29f8eb5354ebadf64cfaf68a165c report=343600b5b971a9d88986ae2c0bdc7a5d");
    ("random10x60-3 real",
      "cqasm=2f070f53b3da316af50501c6b3def521 eqasm=9273607a67285a8c8561fb7d6a857848 stats=82a93e83e3c4c8fb9f59ffb1f3373f0d report=1bc8c020e39bab0013ae446dcfe152ee");
    ("random10x60-3 realistic",
      "cqasm=2f070f53b3da316af50501c6b3def521 eqasm=9273607a67285a8c8561fb7d6a857848 stats=82a93e83e3c4c8fb9f59ffb1f3373f0d report=da705a1e139ee8a76afc6aa48af36577");
    ("random10x60-3 perfect",
      "cqasm=75a3b5e7f75e995917e7b230e8688c41 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=08e32b604711347d19445b24cbcd338b report=f708dc413a459cc8e14683b3be93ee61");
    ("random10x60-4 real",
      "cqasm=279c5f2e18af839b34df33efdc430f37 eqasm=5063c9649fdea01548c6d6edfec8fc6d stats=d32025d46b9a99c770b04ca294a17d89 report=5e53f3abac7991d7d109f5b2040b639b");
    ("random10x60-4 realistic",
      "cqasm=279c5f2e18af839b34df33efdc430f37 eqasm=5063c9649fdea01548c6d6edfec8fc6d stats=d32025d46b9a99c770b04ca294a17d89 report=47dd8949bb3be1b1079096d717a7e4d4");
    ("random10x60-4 perfect",
      "cqasm=027f91d826039ccc7b4e0606df756b23 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=07e18fff8c1768c1bc867e8d8ddeac70 report=cba449956ebba29987ea38a31239017e");
    ("random10x60-5 real",
      "cqasm=01b7ab013ed35e75353984da0fd3828e eqasm=19a5653846885a882b0f117ff3a2596a stats=78af014d79961ed86c9054e4edca47c6 report=5bb4e155fb424fd091b8e7014369e3a1");
    ("random10x60-5 realistic",
      "cqasm=01b7ab013ed35e75353984da0fd3828e eqasm=19a5653846885a882b0f117ff3a2596a stats=78af014d79961ed86c9054e4edca47c6 report=6895ab4c1e2ca28f7b317faad7c96cb4");
    ("random10x60-5 perfect",
      "cqasm=97e7980f81c04896249af62e03b04302 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=83d2ad8bc5fc633280ddc31ebbcad946 report=f7799de8b1adc964c17d166e94eb1c67");
    ("random10x60-6 real",
      "cqasm=1b0359dad89a61e23bef86c1ba000c88 eqasm=96f22ff7e75e958f74f15bc5c7e06f53 stats=142de475a32d8be6e4102b44da09c213 report=c5e97be2c3cc74580d147db02ae2acfc");
    ("random10x60-6 realistic",
      "cqasm=1b0359dad89a61e23bef86c1ba000c88 eqasm=96f22ff7e75e958f74f15bc5c7e06f53 stats=142de475a32d8be6e4102b44da09c213 report=93632bba2369e252c0b4f374c0a7026d");
    ("random10x60-6 perfect",
      "cqasm=b019ce6fd8abf4e990462a2b3c76f682 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=dc9abbf057cc5481f32c08868e1a6a97 report=4663c722a328e877f9a877fd295ca3c9");
    ("random10x60-7 real",
      "cqasm=547da50312f32a7d5ff25c74a94aecad eqasm=2b7aaf5a12293825bd3b7288559be7e5 stats=1e33ab33db8385c6874f29cb411569af report=a02dc48c84f67868b33b0edf116ddae9");
    ("random10x60-7 realistic",
      "cqasm=547da50312f32a7d5ff25c74a94aecad eqasm=2b7aaf5a12293825bd3b7288559be7e5 stats=1e33ab33db8385c6874f29cb411569af report=6801387165ff08f7fc46d613242cb2fc");
    ("random10x60-7 perfect",
      "cqasm=fe435514d941529f1399da785e56f388 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=843d125bc3b3a6f56fa4831e6b1ba4ac report=776417b52552e5eb98f5591ec7a55e6f");
    ("random12x120-7 real",
      "cqasm=9378baff76b49c77b95f5a48cb0b1628 eqasm=f173e78e41be354427df4a2855476aae stats=4683aaac24ea9aa1c893668ce747458d report=e6fb4bb1e590a3f57ae797f04476b409");
    ("random12x120-7 realistic",
      "cqasm=9378baff76b49c77b95f5a48cb0b1628 eqasm=f173e78e41be354427df4a2855476aae stats=4683aaac24ea9aa1c893668ce747458d report=5e12a4e10c8d13f8a4ca6151136b6cc1");
    ("random12x120-7 perfect",
      "cqasm=4296d37acf03839583df91abd761ccd1 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=d3a4e2cb49cc7b0034ea4e09cbef646b report=efe5eaaab96a43c2efe3d284562318c5");
    ("random12x120-8 real",
      "cqasm=97c6b5d6fc28da85311e5b567f5bf7be eqasm=3337b3ed691a8db5c18822bb95cbd417 stats=8a106ef347dfd49e4193e4fdfcc9dc87 report=8c89e0225c448edbecefbe3ef9024fec");
    ("random12x120-8 realistic",
      "cqasm=97c6b5d6fc28da85311e5b567f5bf7be eqasm=3337b3ed691a8db5c18822bb95cbd417 stats=8a106ef347dfd49e4193e4fdfcc9dc87 report=c8992f733f9034c13897855fddf4f348");
    ("random12x120-8 perfect",
      "cqasm=fb0600bcffb3ead89ffc8b3a32665dff eqasm=d41d8cd98f00b204e9800998ecf8427e stats=bbc7a1515213ac966df8b9bf1667d2ad report=b859788c722aef78729c21a16ad757d3");
    ("random12x120-9 real",
      "cqasm=ba4c2a9f459339de76dcd6bc51d02a40 eqasm=1e45d51ab915f480fab12e3a5413e2ee stats=2d489d919f9c372e9d65d4719e47c923 report=c97444b62b728774fb9c15ab64be6cbe");
    ("random12x120-9 realistic",
      "cqasm=ba4c2a9f459339de76dcd6bc51d02a40 eqasm=1e45d51ab915f480fab12e3a5413e2ee stats=2d489d919f9c372e9d65d4719e47c923 report=0e91c93176381d102e5e259daf4ba484");
    ("random12x120-9 perfect",
      "cqasm=55c7658d22a8eae6f835aec4b9169004 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=6cf02d7d2d061988dbd36fa354176498 report=8d94c5861a8c05fe7c195ba66ea41364");
    ("random12x120-14 real",
      "cqasm=5997a56a87c443f150b46873f8371a98 eqasm=51da4cdcdf307bc7e7b55dcba99c810f stats=bd26d7b71cf587cfaa05c3d0a0a59ab9 report=4b7b944267895e78e47ca6620e0ee66b");
    ("random12x120-14 realistic",
      "cqasm=5997a56a87c443f150b46873f8371a98 eqasm=51da4cdcdf307bc7e7b55dcba99c810f stats=bd26d7b71cf587cfaa05c3d0a0a59ab9 report=961648065bf461ea557bfc1de6d348b8");
    ("random12x120-14 perfect",
      "cqasm=3aa8655fe8185c906138b31a114b2fe2 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=71495b12a5779804e7370eda04ac6f5b report=200e2a95dadb1d0522370749d50e9ffa");
    ("random12x120-18 real",
      "cqasm=8ab6370fb090f7fe0250bdcc8ad8e6f8 eqasm=21ba98f9396c0f2fca308bc20183b92d stats=2776f0852b27c88dea3b3193267375d7 report=ec4f10cb9a227275923fa010dbeb65b6");
    ("random12x120-18 realistic",
      "cqasm=8ab6370fb090f7fe0250bdcc8ad8e6f8 eqasm=21ba98f9396c0f2fca308bc20183b92d stats=2776f0852b27c88dea3b3193267375d7 report=99b1c90a1b395d8adbf15f0adbd2c49f");
    ("random12x120-18 perfect",
      "cqasm=6f0675f0ddf3fe2e674e704ebad69046 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=0932390a372a5333982f0bf442872464 report=63792896e69c1d9fc535023855aef000");
    ("random12x120-21 real",
      "cqasm=1a72cb50d43e97780d84ce12a9cc3a9a eqasm=3f9cc1b8933103bf533f92da9f6b1a13 stats=0e5934369d50eb505d3f87229cf8be62 report=8e2b9bc9df543b90954835f110c7e19b");
    ("random12x120-21 realistic",
      "cqasm=1a72cb50d43e97780d84ce12a9cc3a9a eqasm=3f9cc1b8933103bf533f92da9f6b1a13 stats=0e5934369d50eb505d3f87229cf8be62 report=760d267cd28dd5fdfa419cf2ec3e716d");
    ("random12x120-21 perfect",
      "cqasm=a963c3a5297f389bd01c3383b5010c2a eqasm=d41d8cd98f00b204e9800998ecf8427e stats=970d936142126d3f27b9ce284dbe3b51 report=7f6782f9637418a41c988e091861efc3");
    ("random12x120-29 real",
      "cqasm=32cdf5159d041c5e71b67906bfcb4349 eqasm=2023c447fe59e3432a767f74fbf5005f stats=03a61c7b9d01cd17355d87f8a612a251 report=4c418f56944aec7f779152352c2aead2");
    ("random12x120-29 realistic",
      "cqasm=32cdf5159d041c5e71b67906bfcb4349 eqasm=2023c447fe59e3432a767f74fbf5005f stats=03a61c7b9d01cd17355d87f8a612a251 report=52e76febd90c0678560b89704464c2eb");
    ("random12x120-29 perfect",
      "cqasm=4a428c7579ed460fc99e02be7a4af4db eqasm=d41d8cd98f00b204e9800998ecf8427e stats=d3b19988cd71099b582af18674bcc4c7 report=84705657eff5f4c795ad7a48e9a05f7a");
    ("random12x120-30 real",
      "cqasm=dc16415ae96180a7471c862b05d2b665 eqasm=17e68c18bc0867cfffc27cfc6c7affb2 stats=95adf54261d8339241e3d323dcf41ffd report=2854b83f079782123a375960d4994dd3");
    ("random12x120-30 realistic",
      "cqasm=dc16415ae96180a7471c862b05d2b665 eqasm=17e68c18bc0867cfffc27cfc6c7affb2 stats=95adf54261d8339241e3d323dcf41ffd report=629010fad99ef6b3144ad441b678269f");
    ("random12x120-30 perfect",
      "cqasm=9ccab743c6c1d5e47f2831990e570c52 eqasm=d41d8cd98f00b204e9800998ecf8427e stats=13d1ad278844609f39739c501918355e report=f9a32c610f0525ab6fa190178e9f7bbb");
    ("qft8 realistic",
      "cqasm=a1191497c33de3c68255980b7e20543e eqasm=a441e3db6543da0cb35f11c916d733fd stats=0116ab4dd65137c5a250f1778a0c4240 report=80a47ab1568eab7d30135279e1576194");
    ("qaoa6 realistic",
      "cqasm=5cd2cb9e5b2f8535c619e0ce99a99088 eqasm=bc620cb795414e46f31927a35d4721d0 stats=380afe5611ed3a6adf4095ffe5645612 report=4f804c8e88fc326fcaf87137efc6cf94");
    ("random10x60 realistic",
      "cqasm=214ad2d30c60cb4e009e9cc7f4ce68f1 eqasm=672700248baa4bdf5b8679332a8f2ecb stats=2aeec02ab0038e29a2a6271cadc5337f report=188d3ac25c6efa6b68e217786248476d");
    ("random12x120 realistic",
      "cqasm=11f0a244aa21454c61148612d8d63a7d eqasm=60775d999a8b66fbfaa98ba3105a07bd stats=617d0d19dd06e2bb1728a293fc54d353 report=b18c51fc01ec4c79f44b5d9ebed965ce");
  ]

let random_pin_cases () =
  let corpus = pin_corpus () in
  let cases =
    List.concat_map
      (fun ((q, g) as shape, seeds) ->
        List.concat_map
          (fun k ->
            List.map
              (fun mode ->
                (Printf.sprintf "random%dx%d-%d" q g k, mode, fun () -> random_pin_circuit shape k))
              [ Compiler.Real; Compiler.Realistic; Compiler.Perfect ])
          seeds)
      pin_shapes
    @ List.map
        (fun (name, c) -> (name, Compiler.Realistic, fun () -> c))
        corpus
  in
  List.map
    (fun (name, mode, circuit) ->
      let label = Printf.sprintf "%s %s" name (Compiler.mode_to_string mode) in
      Alcotest.test_case label `Quick (fun () ->
          Alcotest.(check string)
            "digests"
            (List.assoc label random_pinned)
            (report_pin Platform.superconducting_17 mode (circuit ()))))
    cases

(* --- exactness of the pipeline ---

   Every replacement the pipeline makes is guarded by a unitary check, so
   on a unitary 2-qubit circuit its output equals its input up to a global
   phase, under the physical configuration and the logical one alike. *)

let random_pulse_circuit rng count =
  let angle () = Rng.float rng 12.0 -. 6.0 and quarter = Float.pi /. 4.0 in
  let one () =
    let q = Rng.int rng 2 in
    let u =
      match Rng.int rng 9 with
      | 0 -> Gate.X90
      | 1 -> Gate.Xm90
      | 2 -> Gate.Y90
      | 3 -> Gate.Ym90
      | 4 -> Gate.Rz (angle ())
      | 5 -> Gate.Rx (angle ())
      | 6 -> Gate.Ry (angle ())
      | 7 -> Gate.H
      | _ -> Gate.Rz (Float.of_int (Rng.int rng 8) *. quarter)
    in
    Gate.Unitary (u, [| q |])
  and two () =
    let ops = if Rng.bool rng then [| 0; 1 |] else [| 1; 0 |] in
    let u = match Rng.int rng 3 with 0 -> Gate.Cz | 1 -> Gate.Cnot | _ -> Gate.Swap in
    Gate.Unitary (u, ops)
  in
  Circuit.of_list 2 (List.init count (fun _ -> if Rng.int rng 3 = 0 then two () else one ()))

let prop_pipeline_preserves_unitary =
  QCheck.Test.make ~name:"pipeline output = input up to phase (2 qubits)" ~count:300
    (QCheck.make
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d gates=%d" s n)
       QCheck.Gen.(pair (int_range 0 99999) (int_range 1 40)))
    (fun (seed, count) ->
      let c = random_pulse_circuit (Rng.create seed) count in
      let m = Circuit.unitary_matrix c in
      List.for_all
        (fun config ->
          let o, _ = Optimize.pipeline ~config c in
          Matrix.equal_up_to_phase ~eps:1e-6 m (Circuit.unitary_matrix o))
        [ Optimize.physical_config Platform.superconducting_17; Optimize.logical_config ])

(* The pipeline stops once every pass has seen the current circuit: after
   the peephole pass empties [H; H] in round 1, the three passes after it
   see the empty circuit, and round 2 runs only the peephole pass again. *)
let test_no_pass_reapplied () =
  let passes c =
    let col = Trace.make_collector () in
    ignore (Trace.collecting col (fun () -> Optimize.pipeline ~trace:"t" c));
    List.map (fun n -> n.Trace.span_name) (Trace.roots col)
  in
  Alcotest.(check (list string))
    "pass spans"
    [ "t/peephole"; "t/rz-merge"; "t/euler"; "t/2q-blocks"; "t/peephole" ]
    (passes (circ 1 [ u Gate.H [ 0 ]; u Gate.H [ 0 ] ]));
  (* Nothing to do: one round, each pass once. *)
  Alcotest.(check (list string))
    "minimal circuit"
    [ "t/peephole"; "t/rz-merge"; "t/euler"; "t/2q-blocks" ]
    (passes (circ 2 [ u Gate.H [ 0 ]; u Gate.Cnot [ 0; 1 ] ]))

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
          Alcotest.test_case "pulse-form Euler runs" `Quick test_euler_runs_distribution;
        ] );
      ( "sabre",
        [
          Alcotest.test_case "conformance" `Quick test_sabre_conformance;
          Alcotest.test_case "distant pair" `Quick test_sabre_routes_distant_pair;
        ] );
      ( "depth-guard",
        [
          Alcotest.test_case "optimizer" `Quick test_depth_never_increases;
          Alcotest.test_case "full vs basic" `Quick test_full_not_worse_than_basic;
        ] );
      ("compile-pins", pin_cases ());
      ("random-pins", random_pin_cases ());
      ( "exactness",
        [
          qtest prop_pipeline_preserves_unitary;
          Alcotest.test_case "no pass re-applied" `Quick test_no_pass_reapplied;
        ] );
    ]
