(* Tests for the OpenQL-style compiler: platforms and decomposition.
   Scheduling/mapping/eQASM tests are added alongside those passes. *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module Platform = Qca_compiler.Platform
module Decompose = Qca_compiler.Decompose
module Matrix = Qca_util.Matrix
module Rng = Qca_util.Rng

(* --- platform --- *)

let test_perfect_platform () =
  let p = Platform.perfect 5 in
  Alcotest.(check bool) "supports toffoli" true (Platform.supports p Gate.Toffoli);
  Alcotest.(check bool) "all coupled" true (Platform.are_coupled p 0 4);
  Alcotest.(check bool) "no self coupling" false (Platform.are_coupled p 2 2)

let test_superconducting_platform () =
  let p = Platform.superconducting_17 in
  Alcotest.(check bool) "supports x90" true (Platform.supports p Gate.X90);
  Alcotest.(check bool) "no native toffoli" false (Platform.supports p Gate.Toffoli);
  Alcotest.(check bool) "no native h" false (Platform.supports p Gate.H);
  let g = Platform.connectivity p in
  Alcotest.(check bool) "connected" true (Qca_util.Graph.is_connected g);
  Alcotest.(check int) "17 qubits" 17 (Qca_util.Graph.size g)

(* [supports] answers from a mask cached per primitive list: a record
   copied with other primitives, asked in turn with the original, must
   get its own answers, and every kind must agree with the names. *)
let test_supports_follows_primitives () =
  let p = Platform.superconducting_17 in
  let q = { p with Platform.primitives = [ "h"; "cnot"; "rz" ] } in
  let empty = { p with Platform.primitives = [] } in
  for _ = 1 to 2 do
    Array.iter
      (fun u ->
        List.iter
          (fun (label, platform) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s supports %s" label (Gate.name u))
              (List.mem (Gate.name u) platform.Platform.primitives)
              (Platform.supports platform u))
          [ ("superconducting", p); ("copy", q); ("empty", empty);
            ("perfect", Platform.perfect 3) ])
      Gate.kinds
  done;
  Array.iteri
    (fun k u -> Alcotest.(check int) (Gate.name u ^ " kind") k (Gate.kind u))
    Gate.kinds

let test_durations () =
  let p = Platform.superconducting_17 in
  Alcotest.(check int) "cz 40ns = 2 cycles" 2
    (Platform.duration_cycles p (Gate.Unitary (Gate.Cz, [| 0; 1 |])));
  Alcotest.(check int) "measure 300ns = 15 cycles" 15
    (Platform.duration_cycles p (Gate.Measure 0));
  Alcotest.(check int) "rz virtual but >= 1 cycle" 1
    (Platform.duration_cycles p (Gate.Unitary (Gate.Rz 0.3, [| 0 |])))

let test_semiconducting_differs () =
  let sc = Platform.superconducting_17 and semi = Platform.semiconducting_4 in
  let cz = Gate.Unitary (Gate.Cz, [| 0; 1 |]) in
  Alcotest.(check bool) "semi slower" true
    (Platform.duration_ns semi cz > Platform.duration_ns sc cz)

(* --- decomposition identities, gate by gate --- *)

let check_identity u =
  let ops = Array.init (Gate.arity u) (fun i -> i) in
  let original = Circuit.of_list (Gate.arity u) [ Gate.Unitary (u, ops) ] in
  let expanded = Circuit.of_list (Gate.arity u) (Decompose.expand u ops) in
  Alcotest.(check bool)
    (Printf.sprintf "%s decomposition" (Gate.name u))
    true
    (Decompose.check_equivalent original expanded)

let test_single_qubit_identities () =
  List.iter check_identity
    [ Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdag; Gate.T; Gate.Tdag;
      Gate.Rx 0.731; Gate.Ry (-1.27); Gate.Rz 2.5 ]

let test_two_qubit_identities () =
  List.iter check_identity
    [ Gate.Cnot; Gate.Swap; Gate.Cphase 1.1; Gate.Cphase (-0.4); Gate.Crk 2; Gate.Crk 4 ]

let test_toffoli_identity () = check_identity Gate.Toffoli

let test_expand_empty_for_identity_gate () =
  Alcotest.(check int) "i drops" 0 (List.length (Decompose.expand Gate.I [| 0 |]))

(* --- full decomposition pass --- *)

let test_run_produces_primitives_only () =
  let p = Platform.superconducting_17 in
  let circuits = [ Library.bell (); Library.ghz 5; Library.qft 4; Library.cuccaro_adder 2 ] in
  List.iter
    (fun circuit ->
      (* Re-home the circuit on the platform's 17 qubits. *)
      let widened =
        Circuit.of_list ~name:(Circuit.name circuit) 17 (Circuit.instructions circuit)
      in
      let lowered = Decompose.run p widened in
      List.iter
        (fun instr ->
          match instr with
          | Gate.Unitary (u, _) | Gate.Conditional (_, u, _) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s native in %s" (Gate.name u) (Circuit.name circuit))
                true (Platform.supports p u)
          | Gate.Prep _ | Gate.Measure _ | Gate.Barrier _ -> ())
        (Circuit.instructions lowered))
    circuits

let test_run_preserves_semantics () =
  let p = Platform.superconducting_17 in
  List.iter
    (fun circuit ->
      let lowered = Decompose.run p circuit in
      Alcotest.(check bool)
        (Circuit.name circuit ^ " semantics preserved")
        true
        (Decompose.check_equivalent circuit lowered))
    [ Library.bell (); Library.qft 3; Library.ghz 4 ]

let test_run_noop_on_perfect () =
  let p = Platform.perfect 4 in
  let circuit = Library.qft 4 in
  let lowered = Decompose.run p circuit in
  Alcotest.(check bool) "unchanged" true (Circuit.equal circuit lowered)

let prop_decompose_preserves_random_circuits =
  QCheck.Test.make ~name:"decompose preserves random circuits" ~count:30
    (QCheck.make
       ~print:(fun (s, q, g) -> Printf.sprintf "seed=%d q=%d g=%d" s q g)
       QCheck.Gen.(triple (int_range 0 9999) (int_range 2 4) (int_range 1 15)))
    (fun (seed, qubits, gates) ->
      let circuit = Library.random_circuit (Rng.create seed) ~qubits ~gates in
      let platform =
        { (Platform.perfect qubits) with Platform.primitives = [ "i"; "x90"; "mx90"; "y90"; "my90"; "rz"; "cz" ] }
      in
      let lowered = Decompose.run platform circuit in
      Decompose.check_equivalent circuit lowered)

(* --- optimize --- *)

module Optimize = Qca_compiler.Optimize
module Schedule = Qca_compiler.Schedule
module Mapping = Qca_compiler.Mapping
module Eqasm = Qca_compiler.Eqasm
module Compiler = Qca_compiler.Compiler
module State = Qca_qx.State
module Sim = Qca_qx.Sim

let test_optimize_cancels_pairs () =
  let c =
    Circuit.of_list 2
      [
        Gate.Unitary (Gate.H, [| 0 |]);
        Gate.Unitary (Gate.H, [| 0 |]);
        Gate.Unitary (Gate.Cnot, [| 0; 1 |]);
        Gate.Unitary (Gate.Cnot, [| 0; 1 |]);
      ]
  in
  let optimized, stats = Optimize.run c in
  Alcotest.(check int) "all gone" 0 (Circuit.gate_count optimized);
  Alcotest.(check int) "two pairs" 2 stats.Optimize.removed_pairs

let test_optimize_respects_interference () =
  (* H q0; X q0; H q0 must NOT cancel the two H gates around the X. The
     basic sweep leaves all three; the full pipeline may legally rewrite
     the triple via H-conjugation (H·X·H = Z) but must stay equivalent. *)
  let c =
    Circuit.of_list 1
      [
        Gate.Unitary (Gate.H, [| 0 |]);
        Gate.Unitary (Gate.X, [| 0 |]);
        Gate.Unitary (Gate.H, [| 0 |]);
      ]
  in
  let basic, _ = Optimize.run_basic c in
  Alcotest.(check int) "basic: nothing removed" 3 (Circuit.gate_count basic);
  let optimized, stats = Optimize.run c in
  Alcotest.(check bool) "pipeline result equivalent" true
    (Decompose.check_equivalent c optimized);
  Alcotest.(check int) "conjugated to Z" 1 stats.Optimize.conjugations;
  Alcotest.(check int) "single gate" 1 (Circuit.gate_count optimized)

let test_optimize_merges_rotations () =
  let c =
    Circuit.of_list 1
      [ Gate.Unitary (Gate.Rz 0.4, [| 0 |]); Gate.Unitary (Gate.Rz 0.6, [| 0 |]) ]
  in
  let optimized, stats = Optimize.run c in
  Alcotest.(check int) "merged" 1 stats.Optimize.merged_rotations;
  match Circuit.instructions optimized with
  | [ Gate.Unitary (Gate.Rz t, _) ] -> Alcotest.(check (float 1e-9)) "sum" 1.0 t
  | _ -> Alcotest.fail "expected single rz"

let test_optimize_drops_null_rotations () =
  let c =
    Circuit.of_list 1
      [ Gate.Unitary (Gate.Rz 1.0, [| 0 |]); Gate.Unitary (Gate.Rz (-1.0), [| 0 |]) ]
  in
  let optimized, _ = Optimize.run c in
  Alcotest.(check int) "rotations vanish" 0 (Circuit.gate_count optimized)

let test_optimize_sdag_s_cancel () =
  let c =
    Circuit.of_list 1 [ Gate.Unitary (Gate.S, [| 0 |]); Gate.Unitary (Gate.Sdag, [| 0 |]) ]
  in
  let optimized, _ = Optimize.run c in
  Alcotest.(check int) "cancelled" 0 (Circuit.gate_count optimized)

let prop_optimize_preserves_semantics =
  QCheck.Test.make ~name:"optimize preserves semantics" ~count:50
    (QCheck.make
       ~print:(fun (s, q, g) -> Printf.sprintf "seed=%d q=%d g=%d" s q g)
       QCheck.Gen.(triple (int_range 0 9999) (int_range 2 4) (int_range 1 25)))
    (fun (seed, qubits, gates) ->
      let circuit = Library.random_circuit (Rng.create seed) ~qubits ~gates in
      let optimized = Optimize.run_circuit circuit in
      Circuit.gate_count optimized = 0
      && Circuit.gate_count circuit = 0
      || Decompose.check_equivalent circuit optimized)

(* --- schedule --- *)

let test_schedule_parallel_singles () =
  let p = Platform.perfect 4 in
  let c =
    Circuit.of_list 4 (List.init 4 (fun q -> Gate.Unitary (Gate.H, [| q |])))
  in
  let s = Schedule.run p c in
  Alcotest.(check int) "fully parallel" 1 s.Schedule.makespan;
  Alcotest.(check int) "peak 4" 4 (Schedule.max_concurrency s)

let test_schedule_dependency_chain () =
  let p = Platform.perfect 2 in
  let s = Schedule.run p (Library.bell ()) in
  Alcotest.(check int) "serial" 2 s.Schedule.makespan;
  Alcotest.(check bool) "valid" true (Schedule.validate s)

let test_schedule_durations_respected () =
  let p = Platform.superconducting_17 in
  let c =
    Circuit.of_list 17
      [ Gate.Unitary (Gate.Cz, [| 0; 1 |]); Gate.Unitary (Gate.X90, [| 0 |]) ]
  in
  let s = Schedule.run p c in
  (* cz lasts 2 cycles; x90 on q0 must start at cycle 2 *)
  (match s.Schedule.entries with
  | [ e1; e2 ] ->
      Alcotest.(check int) "cz at 0" 0 e1.Schedule.start_cycle;
      Alcotest.(check int) "x90 at 2" 2 e2.Schedule.start_cycle
  | _ -> Alcotest.fail "expected two entries");
  Alcotest.(check bool) "valid" true (Schedule.validate s)

let test_schedule_two_qubit_limit () =
  let p = Platform.perfect 6 in
  let c =
    Circuit.of_list 6
      [
        Gate.Unitary (Gate.Cnot, [| 0; 1 |]);
        Gate.Unitary (Gate.Cnot, [| 2; 3 |]);
        Gate.Unitary (Gate.Cnot, [| 4; 5 |]);
      ]
  in
  let unconstrained = Schedule.run p c in
  Alcotest.(check int) "parallel" 1 unconstrained.Schedule.makespan;
  let constrained = Schedule.run ~max_parallel_two_qubit:1 p c in
  Alcotest.(check int) "serialised" 3 constrained.Schedule.makespan;
  Alcotest.(check bool) "valid" true (Schedule.validate constrained)

let test_schedule_alap_same_makespan () =
  let p = Platform.superconducting_17 in
  let circuit = Decompose.run p (Circuit.of_list 17 (Circuit.instructions (Library.ghz 5))) in
  let asap = Schedule.run ~policy:Schedule.Asap p circuit in
  let alap = Schedule.run ~policy:Schedule.Alap p circuit in
  Alcotest.(check int) "same makespan" asap.Schedule.makespan alap.Schedule.makespan;
  Alcotest.(check bool) "alap valid" true (Schedule.validate alap);
  (* ALAP must not start anything earlier than ASAP does *)
  let first_start s =
    List.fold_left (fun acc (e : Schedule.entry) -> min acc e.Schedule.start_cycle)
      max_int s.Schedule.entries
  in
  Alcotest.(check bool) "alap starts later or equal" true
    (first_start alap >= first_start asap)

let test_schedule_barrier_synchronises () =
  let p = Platform.perfect 2 in
  let c =
    Circuit.of_list 2
      [
        Gate.Unitary (Gate.H, [| 0 |]);
        Gate.Barrier [| 0; 1 |];
        Gate.Unitary (Gate.H, [| 1 |]);
      ]
  in
  let s = Schedule.run p c in
  match s.Schedule.entries with
  | [ _; _; e3 ] ->
      Alcotest.(check bool) "h q1 after barrier" true (e3.Schedule.start_cycle >= 2)
  | _ -> Alcotest.fail "expected three entries"

(* --- mapping --- *)

let line_platform n =
  let g = Qca_util.Graph.create n in
  for v = 0 to n - 2 do
    Qca_util.Graph.add_edge g v (v + 1) 1.0
  done;
  { (Platform.perfect n) with Platform.topology = Platform.Custom g }

let test_mapping_no_swaps_when_adjacent () =
  let p = line_platform 4 in
  let c = Circuit.of_list 4 [ Gate.Unitary (Gate.Cnot, [| 0; 1 |]) ] in
  let r = Mapping.run ~strategy:Mapping.Greedy p c in
  Alcotest.(check int) "no swaps" 0 r.Mapping.swaps_added

let test_mapping_inserts_swaps () =
  let p = line_platform 4 in
  let c = Circuit.of_list 4 [ Gate.Unitary (Gate.Cnot, [| 0; 3 |]) ] in
  let r = Mapping.run ~strategy:Mapping.Greedy p c in
  Alcotest.(check int) "two swaps on a line" 2 r.Mapping.swaps_added;
  (* Every 2q gate in the output must touch coupled physical qubits. *)
  List.iter
    (fun instr ->
      match instr with
      | (Gate.Unitary (u, ops) | Gate.Conditional (_, u, ops)) when Gate.arity u = 2 ->
          Alcotest.(check bool) "coupled" true (Platform.are_coupled p ops.(0) ops.(1))
      | Gate.Unitary _ | Gate.Conditional _ | Gate.Prep _ | Gate.Measure _
      | Gate.Barrier _ -> ())
    (Circuit.instructions r.Mapping.circuit)

(* Semantics: simulate routed circuit, undo the final layout permutation,
   compare with the original state. *)
let mapping_preserves_semantics circuit r =
  let original = (Sim.run circuit).Sim.state in
  let routed = (Sim.run r.Mapping.circuit).Sim.state in
  (* Build permutation: logical qubit l lives at physical r.final_layout.(l). *)
  let n = Circuit.qubit_count circuit in
  let ok = ref true in
  for basis = 0 to (1 lsl n) - 1 do
    (* physical basis index corresponding to logical basis *)
    let phys_basis = ref 0 in
    for l = 0 to n - 1 do
      if basis land (1 lsl l) <> 0 then
        phys_basis := !phys_basis lor (1 lsl r.Mapping.final_layout.(l))
    done;
    let a = State.amplitude original basis in
    let b = State.amplitude routed !phys_basis in
    if not (Qca_util.Cplx.approx_equal ~eps:1e-7 a b) then ok := false
  done;
  !ok

let test_mapping_preserves_semantics () =
  let p = line_platform 4 in
  let c = Library.ghz 4 in
  let r = Mapping.run ~strategy:Mapping.Greedy p c in
  Alcotest.(check bool) "semantics" true (mapping_preserves_semantics c r)

let test_mapping_greedy_vs_sabre () =
  let p = line_platform 6 in
  let rng = Rng.create 2024 in
  let c = Library.random_circuit rng ~qubits:6 ~gates:40 in
  let greedy = Mapping.run ~strategy:Mapping.Greedy p c in
  let sabre = Mapping.run ~strategy:Mapping.Sabre p c in
  Alcotest.(check bool) "greedy preserves semantics" true
    (mapping_preserves_semantics c greedy);
  Alcotest.(check bool) "sabre preserves semantics" true
    (mapping_preserves_semantics c sabre);
  Alcotest.(check bool) "both route" true
    (greedy.Mapping.swaps_added > 0 && sabre.Mapping.swaps_added > 0)

(* A two-qubit conditional after routing moved its source qubit must still
   read the bit recorded where that qubit was measured. On a 4-qubit line,
   cnot q0,q3 walks q0 from wire 0 to wire 2, but q0's outcome stays in
   b[0]. *)
let test_mapping_two_qubit_conditional_bit () =
  let p = line_platform 4 in
  let u g q = Gate.Unitary (g, q) in
  let c =
    Circuit.of_list 4
      [
        u Gate.X [| 0 |]; u Gate.X [| 1 |]; Gate.Measure 0; u Gate.Cnot [| 0; 3 |];
        Gate.Conditional (0, Gate.Cnot, [| 1; 2 |]); Gate.Measure 1; Gate.Measure 2;
        Gate.Measure 3;
      ]
  in
  (* Histogram over the finally measured logical qubits q1..q3, reading
     logical qubit l's bit at [bit_of l]. *)
  let histogram circuit bit_of =
    let hist = (Qca_qx.Engine.run ~seed:7 ~shots:32 circuit).Qca_qx.Engine.histogram in
    List.sort compare
      (List.map
         (fun (key, count) ->
           let bits = Qca_qx.Engine.classical_of_key key in
           let bit l = string_of_int bits.(bit_of l) in
           (bit 1 ^ bit 2 ^ bit 3, count))
         hist)
  in
  List.iter
    (fun strategy ->
      let name = Mapping.strategy_to_string strategy in
      let r = Mapping.run ~strategy p c in
      let conditional_bits =
        List.filter_map
          (function Gate.Conditional (bit, _, _) -> Some bit | _ -> None)
          (Circuit.instructions r.Mapping.circuit)
      in
      Alcotest.(check (list int)) (name ^ ": reads b[0]") [ 0 ] conditional_bits;
      Alcotest.(check (list (pair string int)))
        (name ^ ": histogram") (histogram c Fun.id)
        (histogram r.Mapping.circuit (fun l -> r.Mapping.final_layout.(l))))
    [ Mapping.Greedy; Mapping.Sabre ]

let test_mapping_by_degree_placement () =
  let p = line_platform 5 in
  let c = Library.ghz 5 in
  let r = Mapping.run ~strategy:Mapping.Greedy ~placement:Mapping.By_degree p c in
  Alcotest.(check bool) "semantics under heuristic placement" true
    (mapping_preserves_semantics c r)

let test_mapping_all_to_all_no_swaps () =
  let p = Platform.perfect 8 in
  let rng = Rng.create 7 in
  let c = Library.random_circuit rng ~qubits:8 ~gates:60 in
  let r = Mapping.run ~strategy:Mapping.Greedy p c in
  Alcotest.(check int) "no swaps needed" 0 r.Mapping.swaps_added

let test_mapping_rejects_toffoli () =
  let p = line_platform 4 in
  let c = Circuit.of_list 4 [ Gate.Unitary (Gate.Toffoli, [| 0; 1; 2 |]) ] in
  match Mapping.run ~strategy:Mapping.Greedy p c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

(* --- eqasm --- *)

let test_eqasm_structure () =
  let p = Platform.superconducting_17 in
  let circuit = Decompose.run p (Circuit.of_list 17 (Circuit.instructions (Library.bell ()))) in
  let s = Schedule.run p circuit in
  let program = Eqasm.of_schedule p s in
  let stats = Eqasm.stats program in
  Alcotest.(check bool) "has bundles" true (stats.Eqasm.bundle_count > 0);
  Alcotest.(check bool) "uses masks" true (stats.Eqasm.mask_registers_used > 0);
  Alcotest.(check int) "duration" (s.Schedule.makespan * 20) stats.Eqasm.duration_ns;
  let text = Eqasm.to_string program in
  Alcotest.(check bool) "mentions SMIS" true
    (String.length text > 0
    &&
    let rec contains i =
      i + 4 <= String.length text && (String.sub text i 4 = "SMIS" || contains (i + 1))
    in
    contains 0)

let test_eqasm_pre_intervals_sum () =
  let p = Platform.superconducting_17 in
  let circuit = Decompose.run p (Circuit.of_list 17 (Circuit.instructions (Library.ghz 4))) in
  let s = Schedule.run p circuit in
  let program = Eqasm.of_schedule p s in
  let sum =
    List.fold_left
      (fun acc instr ->
        match instr with
        | Eqasm.Bundle (pre, _) -> acc + pre
        | Eqasm.Qwait n -> acc + n
        | Eqasm.Smis _ | Eqasm.Smit _ -> acc)
      0 program.Eqasm.instructions
  in
  Alcotest.(check int) "timing adds up to makespan" s.Schedule.makespan sum

(* --- end to end --- *)

let test_compile_perfect_bell () =
  let p = Platform.perfect 2 in
  let out = Compiler.compile p Compiler.Perfect (Library.bell ()) in
  Alcotest.(check bool) "no eqasm" true (out.Compiler.eqasm = None);
  Alcotest.(check int) "makespan 2" 2 out.Compiler.schedule.Schedule.makespan

let test_compile_realistic_bell_runs () =
  let p = Platform.superconducting_17 in
  let circuit =
    Circuit.append (Library.bell ())
      (Circuit.of_list 2 [ Gate.Measure 0; Gate.Measure 1 ])
  in
  let out = Compiler.compile p Compiler.Realistic circuit in
  Alcotest.(check bool) "eqasm present" true (out.Compiler.eqasm <> None);
  let rng = Rng.create 31337 in
  let hist =
    (Qca_qx.Engine.run ~noise:p.Platform.noise ~rng ~shots:400 out.Compiler.physical)
      .Qca_qx.Engine.histogram
  in
  (* Bell correlations should dominate despite realistic noise. *)
  let correlated =
    List.fold_left
      (fun acc (key, count) ->
        let c0 = key.[String.length key - 1] and c1 = key.[String.length key - 2] in
        if c0 = c1 && c0 <> '-' then acc + count else acc)
      0 hist
  in
  Alcotest.(check bool) "mostly correlated" true (float_of_int correlated /. 400.0 > 0.8)

let test_compile_report_nonempty () =
  let p = Platform.superconducting_17 in
  let out = Compiler.compile p Compiler.Realistic (Library.ghz 4) in
  let text = Compiler.report out in
  Alcotest.(check bool) "report has passes" true (String.length text > 100);
  Alcotest.(check bool) "multiple passes" true (List.length out.Compiler.passes >= 4)

let test_compile_preserves_semantics_via_sim () =
  (* Perfect-mode compile of QFT must leave the state unchanged. *)
  let p = Platform.perfect 4 in
  let circuit = Library.qft 4 in
  let out = Compiler.compile p Compiler.Perfect circuit in
  let a = (Sim.run circuit).Sim.state in
  let b = (Sim.run out.Compiler.physical).Sim.state in
  Alcotest.(check (float 1e-9)) "fidelity 1" 1.0 (State.fidelity a b)

(* --- pipeline-wide properties --- *)

let arb_seeded =
  QCheck.make
    ~print:(fun (s, q, g) -> Printf.sprintf "seed=%d q=%d g=%d" s q g)
    QCheck.Gen.(triple (int_range 0 99999) (int_range 2 8) (int_range 1 50))

let prop_schedule_always_valid =
  QCheck.Test.make ~name:"schedules are always valid" ~count:60 arb_seeded
    (fun (seed, qubits, gates) ->
      let circuit = Library.random_circuit (Rng.create seed) ~qubits ~gates in
      let widened = Circuit.of_list 17 (Circuit.instructions circuit) in
      let lowered = Decompose.run Platform.superconducting_17 widened in
      let asap = Schedule.run ~policy:Schedule.Asap Platform.superconducting_17 lowered in
      let alap = Schedule.run ~policy:Schedule.Alap Platform.superconducting_17 lowered in
      Schedule.validate asap && Schedule.validate alap
      && asap.Schedule.makespan = alap.Schedule.makespan)

let prop_eqasm_timing_consistent =
  QCheck.Test.make ~name:"eqasm pre-intervals sum to makespan" ~count:60 arb_seeded
    (fun (seed, qubits, gates) ->
      let circuit = Library.random_circuit (Rng.create seed) ~qubits ~gates in
      let widened = Circuit.of_list 17 (Circuit.instructions circuit) in
      let lowered = Decompose.run Platform.superconducting_17 widened in
      let s = Schedule.run Platform.superconducting_17 lowered in
      let program = Eqasm.of_schedule Platform.superconducting_17 s in
      let sum =
        List.fold_left
          (fun acc instr ->
            match instr with
            | Eqasm.Bundle (pre, _) -> acc + pre
            | Eqasm.Qwait n -> acc + n
            | Eqasm.Smis _ | Eqasm.Smit _ -> acc)
          0 program.Eqasm.instructions
      in
      sum = s.Schedule.makespan)

let prop_mapping_preserves_semantics_random =
  QCheck.Test.make ~name:"routing preserves semantics on random circuits" ~count:40
    (QCheck.make
       ~print:(fun (s, g) -> Printf.sprintf "seed=%d g=%d" s g)
       QCheck.Gen.(pair (int_range 0 99999) (int_range 1 30)))
    (fun (seed, gates) ->
      let qubits = 5 in
      let p = line_platform qubits in
      let circuit = Library.random_circuit (Rng.create seed) ~qubits ~gates in
      List.for_all
        (fun strategy -> mapping_preserves_semantics circuit (Mapping.run ~strategy p circuit))
        [ Mapping.Greedy; Mapping.Sabre ])

let prop_full_compile_executes =
  QCheck.Test.make ~name:"full realistic compile always executes" ~count:25 arb_seeded
    (fun (seed, qubits, gates) ->
      let circuit = Library.random_circuit (Rng.create seed) ~qubits ~gates in
      let out = Compiler.compile Platform.superconducting_17 Compiler.Realistic circuit in
      (* executing the physical circuit on ideal qubits must preserve norm *)
      let result = Sim.run out.Compiler.physical in
      Float.abs (State.norm result.Sim.state -. 1.0) < 1e-9
      && out.Compiler.eqasm <> None)

(* --- OpenQL frontend --- *)

module Openql = Qca_compiler.Openql

let test_openql_bell () =
  let k = Openql.kernel ~name:"entangle" ~qubits:2 in
  Openql.h k 0;
  Openql.cnot k 0 1;
  Openql.measure_all k;
  let p = Openql.program ~name:"bell" ~qubits:2 in
  Openql.add_kernel p k;
  let hist = Openql.simulate ~rng:(Rng.create 3) ~shots:500 p in
  List.iter
    (fun (key, _) ->
      Alcotest.(check bool) ("correlated: " ^ key) true (key = "00" || key = "11"))
    hist

let test_openql_for_loop () =
  let flip = Openql.kernel ~name:"flip" ~qubits:1 in
  Openql.x flip 0;
  let p = Openql.program ~name:"triple-flip" ~qubits:1 in
  Openql.for_loop p ~count:3 flip;
  let circuit = Openql.to_circuit p in
  Alcotest.(check int) "3 gates" 3 (Circuit.gate_count circuit);
  (* odd number of X: ends in |1> *)
  let final = (Sim.run circuit).Sim.state in
  Alcotest.(check (float 1e-9)) "ends in 1" 1.0 (State.prob_one final 0)

let test_openql_cqasm_structure () =
  let init = Openql.kernel ~name:"init" ~qubits:2 in
  Openql.prepare init 0;
  let body = Openql.kernel ~name:"body" ~qubits:2 in
  Openql.h body 0;
  let p = Openql.program ~name:"structured" ~qubits:2 in
  Openql.add_kernel p init;
  Openql.add_kernel ~iterations:4 p body;
  let source = Openql.to_cqasm p in
  let contains needle =
    let nl = String.length needle and hl = String.length source in
    let rec go i = i + nl <= hl && (String.sub source i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ".init" true (contains ".init");
  Alcotest.(check bool) ".body(4)" true (contains ".body(4)");
  (* and the emitted source parses back to the same flattened circuit *)
  let reparsed = Qca_circuit.Cqasm.parse_circuit source in
  Alcotest.(check bool) "roundtrip" true
    (Circuit.instructions reparsed = Circuit.instructions (Openql.to_circuit p))

(* Every one-gate builder of the kernel language, pinned to the cQASM it
   emits. *)
let test_openql_builders () =
  let k = Openql.kernel ~name:"builders" ~qubits:3 in
  Openql.y k 0;
  Openql.z k 1;
  Openql.s k 2;
  Openql.t k 0;
  Openql.rx k 1 0.5;
  Openql.ry k 2 (-1.25);
  Openql.rz k 0 3.0;
  Openql.cz k 0 1;
  Openql.toffoli k 0 1 2;
  Openql.barrier k [ 0; 2 ];
  let p = Openql.program ~name:"gates" ~qubits:3 in
  Openql.add_kernel p k;
  let expected =
    {|version 1.0
qubits 3

.builders
  y q[0]
  z q[1]
  s q[2]
  t q[0]
  rx q[1], 0.5
  ry q[2], -1.25
  rz q[0], 3
  cz q[0], q[1]
  toffoli q[0], q[1], q[2]
  barrier q[0], q[2]
|}
  in
  Alcotest.(check string) "cqasm" expected (Openql.to_cqasm p)

let test_openql_conditional () =
  let k = Openql.kernel ~name:"feedback" ~qubits:2 in
  Openql.x k 0;
  Openql.measure k 0;
  Openql.cond k ~bit:0 Gate.X [ 1 ];
  Openql.measure k 1;
  let p = Openql.program ~name:"cond" ~qubits:2 in
  Openql.add_kernel p k;
  let hist = Openql.simulate ~rng:(Rng.create 5) ~shots:100 p in
  Alcotest.(check (list (pair string int))) "always 11" [ ("11", 100) ] hist

let test_openql_compile_through_stack () =
  let k = Openql.kernel ~name:"ghz" ~qubits:3 in
  Openql.h k 0;
  Openql.cnot k 0 1;
  Openql.cnot k 1 2;
  let p = Openql.program ~name:"ghz3" ~qubits:3 in
  Openql.add_kernel p k;
  let out =
    Openql.compile ~platform:Platform.superconducting_17 ~mode:Compiler.Realistic p
  in
  Alcotest.(check bool) "eqasm produced" true (out.Compiler.eqasm <> None)

let test_openql_validation () =
  (match Openql.kernel ~name:"bad" ~qubits:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero qubits accepted");
  let k = Openql.kernel ~name:"k" ~qubits:2 in
  (match Openql.gate k Gate.Cnot [ 0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted");
  let p = Openql.program ~name:"p" ~qubits:3 in
  match Openql.add_kernel p k with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "qubit mismatch accepted"

let () =
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "qca_compiler"
    [
      ( "platform",
        [
          Alcotest.test_case "perfect" `Quick test_perfect_platform;
          Alcotest.test_case "superconducting" `Quick test_superconducting_platform;
          Alcotest.test_case "supports follows primitives" `Quick
            test_supports_follows_primitives;
          Alcotest.test_case "durations" `Quick test_durations;
          Alcotest.test_case "semiconducting differs" `Quick test_semiconducting_differs;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "single-qubit identities" `Quick test_single_qubit_identities;
          Alcotest.test_case "two-qubit identities" `Quick test_two_qubit_identities;
          Alcotest.test_case "toffoli identity" `Quick test_toffoli_identity;
          Alcotest.test_case "identity gate drops" `Quick test_expand_empty_for_identity_gate;
          Alcotest.test_case "primitives only" `Quick test_run_produces_primitives_only;
          Alcotest.test_case "semantics preserved" `Quick test_run_preserves_semantics;
          Alcotest.test_case "noop on perfect" `Quick test_run_noop_on_perfect;
          qtest prop_decompose_preserves_random_circuits;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "cancels pairs" `Quick test_optimize_cancels_pairs;
          Alcotest.test_case "respects interference" `Quick test_optimize_respects_interference;
          Alcotest.test_case "merges rotations" `Quick test_optimize_merges_rotations;
          Alcotest.test_case "drops null rotations" `Quick test_optimize_drops_null_rotations;
          Alcotest.test_case "s/sdag cancel" `Quick test_optimize_sdag_s_cancel;
          qtest prop_optimize_preserves_semantics;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "parallel singles" `Quick test_schedule_parallel_singles;
          Alcotest.test_case "dependency chain" `Quick test_schedule_dependency_chain;
          Alcotest.test_case "durations" `Quick test_schedule_durations_respected;
          Alcotest.test_case "2q limit" `Quick test_schedule_two_qubit_limit;
          Alcotest.test_case "alap same makespan" `Quick test_schedule_alap_same_makespan;
          Alcotest.test_case "barrier" `Quick test_schedule_barrier_synchronises;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "no swaps when adjacent" `Quick test_mapping_no_swaps_when_adjacent;
          Alcotest.test_case "inserts swaps" `Quick test_mapping_inserts_swaps;
          Alcotest.test_case "preserves semantics" `Quick test_mapping_preserves_semantics;
          Alcotest.test_case "greedy vs sabre" `Quick test_mapping_greedy_vs_sabre;
          Alcotest.test_case "2q conditional bit" `Quick
            test_mapping_two_qubit_conditional_bit;
          Alcotest.test_case "by-degree placement" `Quick test_mapping_by_degree_placement;
          Alcotest.test_case "all-to-all no swaps" `Quick test_mapping_all_to_all_no_swaps;
          Alcotest.test_case "rejects toffoli" `Quick test_mapping_rejects_toffoli;
        ] );
      ( "eqasm",
        [
          Alcotest.test_case "structure" `Quick test_eqasm_structure;
          Alcotest.test_case "pre-intervals sum" `Quick test_eqasm_pre_intervals_sum;
        ] );
      ( "pipeline-properties",
        [
          qtest prop_schedule_always_valid;
          qtest prop_eqasm_timing_consistent;
          qtest prop_mapping_preserves_semantics_random;
          qtest prop_full_compile_executes;
        ] );
      ( "openql",
        [
          Alcotest.test_case "bell" `Quick test_openql_bell;
          Alcotest.test_case "for loop" `Quick test_openql_for_loop;
          Alcotest.test_case "cqasm structure" `Quick test_openql_cqasm_structure;
          Alcotest.test_case "conditional feedback" `Quick test_openql_conditional;
          Alcotest.test_case "one-gate builders" `Quick test_openql_builders;
          Alcotest.test_case "compile through stack" `Quick test_openql_compile_through_stack;
          Alcotest.test_case "validation" `Quick test_openql_validation;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "perfect bell" `Quick test_compile_perfect_bell;
          Alcotest.test_case "realistic bell runs" `Quick test_compile_realistic_bell_runs;
          Alcotest.test_case "report" `Quick test_compile_report_nonempty;
          Alcotest.test_case "semantics via sim" `Quick test_compile_preserves_semantics_via_sim;
        ] );
    ]
