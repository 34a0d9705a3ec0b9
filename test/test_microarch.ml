(* Tests for the micro-architecture: ADI, micro-code, timing queues and the
   cycle-accurate controller executing eQASM on QX. *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module Platform = Qca_compiler.Platform
module Compiler = Qca_compiler.Compiler
module Eqasm = Qca_compiler.Eqasm
module Adi = Qca_microarch.Adi
module Microcode = Qca_microarch.Microcode
module Timing_queue = Qca_microarch.Timing_queue
module Controller = Qca_microarch.Controller
module State = Qca_qx.State
module Sim = Qca_qx.Sim
module Rng = Qca_util.Rng

(* --- ADI --- *)

let test_gaussian_envelope () =
  let env = Adi.gaussian_envelope ~duration_ns:20 ~amplitude:0.5 in
  Alcotest.(check int) "length" 20 (Array.length env);
  let peak = Array.fold_left Float.max neg_infinity env in
  Alcotest.(check (float 1e-2)) "peak near amplitude" 0.5 peak;
  Alcotest.(check bool) "edges low" true (env.(0) < 0.1)

let test_square_envelope () =
  let env = Adi.square_envelope ~duration_ns:10 ~amplitude:0.8 in
  Alcotest.(check (float 1e-9)) "flat top" 0.8 env.(5);
  Alcotest.(check bool) "ramps" true (env.(0) < 0.8)

let test_libraries_complete () =
  let required = [ "x90"; "mx90"; "y90"; "my90"; "cz"; "measz"; "prepz" ] in
  let check_lib name lib =
    List.iter
      (fun pulse ->
        Alcotest.(check bool) (name ^ " has " ^ pulse) true (Adi.find lib pulse <> None))
      required
  in
  check_lib "superconducting" (Adi.superconducting_library ());
  check_lib "semiconducting" (Adi.semiconducting_library ())

let test_technologies_differ () =
  let sc = Adi.superconducting_library () and semi = Adi.semiconducting_library () in
  match Adi.find sc "cz", Adi.find semi "cz" with
  | Some a, Some b ->
      Alcotest.(check bool) "durations differ" true (a.Adi.duration_ns <> b.Adi.duration_ns)
  | _ -> Alcotest.fail "cz missing"

let test_pulse_energy_positive () =
  let lib = Adi.superconducting_library () in
  List.iter
    (fun name ->
      match Adi.find lib name with
      | Some p -> Alcotest.(check bool) (name ^ " energy") true (Adi.energy p > 0.0)
      | None -> Alcotest.fail "missing pulse")
    (Adi.names lib)

(* --- microcode --- *)

let test_microcode_lookup () =
  (match Microcode.lookup Microcode.superconducting_table "x90" with
  | Some cw -> Alcotest.(check string) "pulse" "x90" cw.Microcode.pulse_name
  | None -> Alcotest.fail "x90 missing");
  Alcotest.(check bool) "unknown absent" true
    (Microcode.lookup Microcode.superconducting_table "frobnicate" = None)

let test_microcode_opcodes_disjoint () =
  (* Same mnemonics, different opcodes: the retargeting claim. *)
  List.iter
    (fun m ->
      match
        ( Microcode.lookup Microcode.superconducting_table m,
          Microcode.lookup Microcode.semiconducting_table m )
      with
      | Some a, Some b ->
          Alcotest.(check bool) (m ^ " retargeted") true (a.Microcode.opcode <> b.Microcode.opcode)
      | _ -> Alcotest.fail (m ^ " missing from a table"))
    (Microcode.mnemonics Microcode.superconducting_table)

let test_microcode_translate_fanout () =
  let mops =
    Microcode.translate Microcode.superconducting_table ~time_ns:100 ~mnemonic:"x90"
      ~angle:None ~qubits:[ 0; 3; 5 ]
  in
  Alcotest.(check int) "one per qubit" 3 (List.length mops);
  List.iter
    (fun (m : Microcode.micro_op) -> Alcotest.(check int) "time" 100 m.Microcode.time_ns)
    mops

(* --- timing queues --- *)

let make_mop time qubit =
  match
    Microcode.translate Microcode.superconducting_table ~time_ns:time ~mnemonic:"x90"
      ~angle:None ~qubits:[ qubit ]
  with
  | [ m ] -> m
  | _ -> assert false

let test_queue_time_order () =
  let q = Timing_queue.create ~channel:0 in
  Timing_queue.push q (make_mop 50 0);
  Timing_queue.push q (make_mop 10 0);
  Timing_queue.push q (make_mop 30 0);
  let events = Timing_queue.drain_all q in
  let times = List.map (fun e -> e.Timing_queue.time_ns) events in
  Alcotest.(check (list int)) "sorted" [ 10; 30; 50 ] times

let test_queue_drain_until () =
  let q = Timing_queue.create ~channel:0 in
  List.iter (fun t -> Timing_queue.push q (make_mop t 0)) [ 10; 20; 30; 40 ];
  let ready = Timing_queue.drain_until q 25 in
  Alcotest.(check int) "two ready" 2 (List.length ready);
  Alcotest.(check int) "two pending" 2 (Timing_queue.pending q)

let test_queue_violation_detection () =
  let q = Timing_queue.create ~channel:0 in
  Timing_queue.push q (make_mop 100 0);
  ignore (Timing_queue.drain_all q);
  Timing_queue.push q (make_mop 50 0);
  Alcotest.(check int) "violation" 1 (Timing_queue.violations q)

let test_queue_peak_depth () =
  let q = Timing_queue.create ~channel:0 in
  List.iter (fun t -> Timing_queue.push q (make_mop t 0)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "peak" 5 (Timing_queue.peak_depth q);
  ignore (Timing_queue.drain_all q);
  Alcotest.(check int) "peak sticky" 5 (Timing_queue.peak_depth q)

let test_pool_routing () =
  let pool = Timing_queue.create_pool ~channels:4 in
  Timing_queue.push_pool pool (make_mop 10 2);
  Timing_queue.push_pool pool (make_mop 20 0);
  Alcotest.(check int) "channel 2" 1 (Timing_queue.pending (Timing_queue.queue pool 2));
  Alcotest.(check int) "channel 1 empty" 0 (Timing_queue.pending (Timing_queue.queue pool 1));
  let total, peak, violations = Timing_queue.pool_stats pool in
  Alcotest.(check int) "total" 2 total;
  Alcotest.(check int) "peak" 1 peak;
  Alcotest.(check int) "violations" 0 violations

(* --- controller end-to-end --- *)

let compile_for platform circuit =
  let out = Compiler.compile platform Compiler.Realistic circuit in
  match out.Compiler.eqasm with
  | Some program -> (out, program)
  | None -> Alcotest.fail "expected eqasm"

(* One shot through the micro-architecture: its outcome, trace and stats. *)
let one_shot ?rng technology program =
  (Controller.run_shots ~shots:1 ?rng technology program).Controller.last

let bell_with_measure () =
  Circuit.append (Library.bell ()) (Circuit.of_list 2 [ Gate.Measure 0; Gate.Measure 1 ])

let test_controller_runs_bell () =
  let _, program = compile_for Platform.superconducting_17 (bell_with_measure ()) in
  let correlated = ref 0 and total = 200 in
  let rng = Rng.create 5150 in
  for _ = 1 to total do
    let result = one_shot ~rng Controller.superconducting program in
    let c = result.Controller.outcome.Sim.classical in
    if c.(0) >= 0 && c.(0) = c.(1) then incr correlated
  done;
  Alcotest.(check int) "bell always correlated (ideal)" total !correlated

let test_controller_trace_ordering () =
  let _, program = compile_for Platform.superconducting_17 (bell_with_measure ()) in
  let result = one_shot Controller.superconducting program in
  let rec ordered = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
        a.Controller.time_ns <= b.Controller.time_ns && ordered rest
  in
  Alcotest.(check bool) "trace time-ordered" true (ordered result.Controller.trace);
  Alcotest.(check bool) "no violations" true
    (result.Controller.stats.Controller.timing_violations = 0)

let test_controller_rz_is_software () =
  (* A circuit with h gates decomposes into rz + y90; rz must produce frame
     updates, not pulses. *)
  let circuit = Circuit.of_list 2 [ Gate.Unitary (Gate.H, [| 0 |]) ] in
  let _, program = compile_for Platform.superconducting_17 circuit in
  let result = one_shot Controller.superconducting program in
  Alcotest.(check bool) "software phase updates" true
    (result.Controller.stats.Controller.software_phase_updates > 0);
  List.iter
    (fun e ->
      Alcotest.(check bool) "no idle pulses in trace" true
        (e.Controller.pulse_name <> "idle"))
    result.Controller.trace

let test_controller_rz_draws_no_noise () =
  (* rz is a virtual-Z frame update: even a certain single-qubit error must
     not follow it, so |0> stays |0> through rz and every shot reads 0. *)
  let circuit =
    Circuit.of_list 1 [ Gate.Unitary (Gate.Rz 0.7, [| 0 |]); Gate.Measure 0 ]
  in
  let program =
    match
      (Compiler.compile ~optimizer:Qca_compiler.Optimize.Basic Platform.superconducting_17
         Compiler.Realistic circuit)
        .Compiler.eqasm
    with
    | Some program -> program
    | None -> Alcotest.fail "expected eqasm"
  in
  let noise = { Qca_qx.Noise.ideal with Qca_qx.Noise.single_qubit_error = 1.0 } in
  let r = Controller.run_shots ~noise ~seed:8 ~shots:200 Controller.superconducting program in
  Alcotest.(check bool) "the program applies rz" true
    (List.mem_assoc "rz" r.Controller.report.Qca_qx.Engine.gate_applies);
  List.iter
    (fun (key, _) ->
      Alcotest.(check char) ("qubit 0 of " ^ key) '0' key.[String.length key - 1])
    r.Controller.histogram

let test_retargeting_same_program_shape () =
  (* The same logical circuit compiled for the two technologies: identical
     functional outcome, different wall-clock (semiconducting is slower). *)
  let circuit =
    Circuit.append (Library.ghz 3) (Circuit.of_list 3 [ Gate.Measure 0; Gate.Measure 1; Gate.Measure 2 ])
  in
  let _, program_sc = compile_for Platform.superconducting_17 circuit in
  let semi4 = Platform.semiconducting_4 in
  let _, program_semi = compile_for semi4 circuit in
  let rng1 = Rng.create 9 and rng2 = Rng.create 9 in
  let r_sc = one_shot ~rng:rng1 Controller.superconducting program_sc in
  let r_semi = one_shot ~rng:rng2 Controller.semiconducting program_semi in
  let bits r = Array.to_list (Array.sub r.Controller.outcome.Sim.classical 0 3) in
  let correlated r =
    match bits r with [ a; b; c ] -> a = b && b = c | _ -> false
  in
  Alcotest.(check bool) "sc correlated" true (correlated r_sc);
  Alcotest.(check bool) "semi correlated" true (correlated r_semi);
  Alcotest.(check bool) "semi slower" true
    (r_semi.Controller.stats.Controller.total_ns > r_sc.Controller.stats.Controller.total_ns)

let test_controller_stats_sane () =
  let _, program = compile_for Platform.superconducting_17 (bell_with_measure ()) in
  let result = one_shot Controller.superconducting program in
  let s = result.Controller.stats in
  Alcotest.(check bool) "bundles" true (s.Controller.bundles_issued > 0);
  Alcotest.(check bool) "micro ops" true (s.Controller.micro_ops > 0);
  Alcotest.(check bool) "nonzero duration" true (s.Controller.total_ns > 0);
  Alcotest.(check int) "duration = makespan * cycle" (program.Eqasm.makespan_cycles * 20)
    s.Controller.total_ns

let test_teleportation_through_microarch () =
  (* Conditional corrections (fast feedback) must survive compile -> eQASM ->
     micro-architecture execution: Bob's qubit ends in the payload state. *)
  let theta = 1.234 in
  let expected = sin (theta /. 2.0) ** 2.0 in
  let circuit =
    Circuit.append
      (Library.teleport ~prepare:(Qca_circuit.Gate.Ry theta) ())
      (Circuit.of_list 3 [ Gate.Measure 2 ])
  in
  let _, program = compile_for Platform.superconducting_17 circuit in
  let rng = Rng.create 777 in
  let shots = 600 in
  let ones = ref 0 in
  for _ = 1 to shots do
    let result = one_shot ~rng Controller.superconducting program in
    if result.Controller.outcome.Sim.classical.(2) = 1 then incr ones
  done;
  Alcotest.(check (float 0.05)) "teleported through the stack" expected
    (float_of_int !ones /. float_of_int shots)

let test_trace_rendering () =
  let _, program = compile_for Platform.superconducting_17 (bell_with_measure ()) in
  let result = one_shot Controller.superconducting program in
  let text = Controller.trace_to_string result in
  Alcotest.(check bool) "has header" true (String.length text > 20)

(* --- QISA --- *)

module Qisa = Qca_microarch.Qisa
module Eqasm2 = Qca_compiler.Eqasm

let qop ?condition ?(two_qubit = false) ?(angle : float option) mnemonic mask =
  { Eqasm2.mnemonic; angle; mask; two_qubit; condition }

let test_qisa_classical_arithmetic () =
  let p =
    Qisa.assemble ~name:"arith" ~qubit_count:1 ~cycle_ns:20
      [
        Qisa.Ldi (0, 5);
        Qisa.Ldi (1, 7);
        Qisa.Add (2, 0, 1);
        Qisa.Sub (3, 2, 0);
        Qisa.Mov (4, 3);
        Qisa.Halt;
      ]
  in
  let r = Qisa.execute Controller.superconducting p in
  Alcotest.(check int) "add" 12 r.Qisa.registers.(2);
  Alcotest.(check int) "sub" 7 r.Qisa.registers.(3);
  Alcotest.(check int) "mov" 7 r.Qisa.registers.(4)

let test_qisa_loop () =
  (* sum 1..10 with a classical loop *)
  let p =
    Qisa.assemble ~name:"sum" ~qubit_count:1 ~cycle_ns:20
      [
        Qisa.Ldi (0, 0);
        (* acc *)
        Qisa.Ldi (1, 10);
        (* counter *)
        Qisa.Ldi (2, 0);
        (* zero *)
        Qisa.Label "loop";
        Qisa.Add (0, 0, 1);
        Qisa.Ldi (3, 1);
        Qisa.Sub (1, 1, 3);
        Qisa.Cmp (1, 2);
        Qisa.Br (Qisa.Ne, "loop");
        Qisa.Halt;
      ]
  in
  let r = Qisa.execute Controller.superconducting p in
  Alcotest.(check int) "sum 1..10" 55 r.Qisa.registers.(0)

let test_qisa_validation () =
  (match
     Qisa.assemble ~name:"bad" ~qubit_count:1 ~cycle_ns:20 [ Qisa.Br (Qisa.Always, "nowhere") ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown label accepted");
  (match Qisa.assemble ~name:"bad" ~qubit_count:1 ~cycle_ns:20 [ Qisa.Ldi (99, 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad register accepted");
  (match Qisa.assemble ~name:"bad" ~qubit_count:1 ~cycle_ns:20 [ Qisa.Fmr (0, 5) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad qubit accepted");
  match
    Qisa.assemble ~name:"bad" ~qubit_count:2 ~cycle_ns:20
      [ Qisa.Quantum (Eqasm2.Smit (0, [ (0, 5) ])) ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad mask qubit accepted"

let test_qisa_bad_operand_count () =
  (* cz needs two operands: on a one-qubit s-mask it is a structured
     Invalid error, not a crash. *)
  let p =
    Qisa.assemble ~name:"cz1" ~qubit_count:2 ~cycle_ns:20
      [ Qisa.Quantum (Eqasm2.Smis (0, [ 0 ])); Qisa.Quantum (Eqasm2.Bundle (1, [ qop "cz" 0 ])) ]
  in
  match Qisa.execute ~rng:(Rng.create 1) Controller.superconducting p with
  | exception Qca_util.Error.Error { Qca_util.Error.kind = Qca_util.Error.Invalid _; _ } -> ()
  | _ -> Alcotest.fail "cz on one operand accepted"

let test_qisa_repeat_until_success () =
  (* Put a qubit in |+>, measure, repeat until the result is 1; count the
     attempts — classic run-time control the compiler cannot unroll. *)
  let p =
    Qisa.assemble ~name:"rus" ~qubit_count:1 ~cycle_ns:20
      [
        Qisa.Ldi (0, 0);
        (* attempt counter *)
        Qisa.Ldi (1, 1);
        (* constant 1 *)
        Qisa.Quantum (Eqasm2.Smis (0, [ 0 ]));
        Qisa.Label "try";
        Qisa.Add (0, 0, 1);
        Qisa.Quantum (Eqasm2.Bundle (1, [ qop "prepz" 0 ]));
        Qisa.Quantum (Eqasm2.Bundle (1, [ qop "y90" 0 ]));
        Qisa.Quantum (Eqasm2.Bundle (1, [ qop "measz" 0 ]));
        Qisa.Fmr (2, 0);
        Qisa.Cmp (2, 1);
        Qisa.Br (Qisa.Ne, "try");
        Qisa.Halt;
      ]
  in
  let rng = Rng.create 99 in
  let attempts = ref [] in
  for _ = 1 to 50 do
    let r = Qisa.execute ~rng Controller.superconducting p in
    Alcotest.(check int) "final measurement is 1" 1 r.Qisa.registers.(2);
    attempts := r.Qisa.registers.(0) :: !attempts
  done;
  let mean =
    float_of_int (List.fold_left ( + ) 0 !attempts) /. 50.0
  in
  (* geometric with p = 1/2: mean 2 *)
  Alcotest.(check bool) (Printf.sprintf "mean attempts ~2 (%.2f)" mean) true
    (mean > 1.4 && mean < 2.8)

let test_qisa_active_reset () =
  (* Flip to |1>, measure, then FMR + branch to apply a correcting X only
     when needed: the qubit must end in |0>. *)
  let p =
    Qisa.assemble ~name:"active-reset" ~qubit_count:1 ~cycle_ns:20
      [
        Qisa.Ldi (1, 1);
        Qisa.Quantum (Eqasm2.Smis (0, [ 0 ]));
        Qisa.Quantum (Eqasm2.Bundle (1, [ qop "x90" 0 ]));
        Qisa.Quantum (Eqasm2.Bundle (1, [ qop "x90" 0 ]));
        (* now |1> *)
        Qisa.Quantum (Eqasm2.Bundle (1, [ qop "measz" 0 ]));
        Qisa.Fmr (2, 0);
        Qisa.Cmp (2, 1);
        Qisa.Br (Qisa.Ne, "done");
        Qisa.Quantum (Eqasm2.Bundle (1, [ qop "x90" 0 ]));
        Qisa.Quantum (Eqasm2.Bundle (1, [ qop "x90" 0 ]));
        Qisa.Label "done";
        Qisa.Quantum (Eqasm2.Bundle (1, [ qop "measz" 0 ]));
        Qisa.Fmr (3, 0);
        Qisa.Halt;
      ]
  in
  let rng = Rng.create 101 in
  for _ = 1 to 20 do
    let r = Qisa.execute ~rng Controller.superconducting p in
    Alcotest.(check int) "reset to 0" 0 r.Qisa.registers.(3)
  done

let test_qisa_step_budget () =
  let p =
    Qisa.assemble ~name:"spin" ~qubit_count:1 ~cycle_ns:20
      [ Qisa.Label "forever"; Qisa.Br (Qisa.Always, "forever") ]
  in
  match Qisa.execute ~max_steps:1000 Controller.superconducting p with
  | exception Qca_util.Error.Error e ->
      Alcotest.(check string) "error site" "Qisa.execute" e.Qca_util.Error.site;
      Alcotest.(check bool) "non-convergence kind" true
        (match e.Qca_util.Error.kind with
        | Qca_util.Error.Non_convergence _ -> true
        | _ -> false)
  | _ -> Alcotest.fail "infinite loop not caught"

let test_qisa_parse_roundtrip () =
  (* assemble -> to_string -> parse -> execute must behave identically *)
  let original =
    Qisa.assemble ~name:"rt" ~qubit_count:1 ~cycle_ns:20
      [
        Qisa.Ldi (0, 0);
        Qisa.Ldi (1, 1);
        Qisa.Quantum (Eqasm2.Smis (0, [ 0 ]));
        Qisa.Label "try";
        Qisa.Add (0, 0, 1);
        Qisa.Quantum (Eqasm2.Bundle (1, [ qop "prepz" 0 ]));
        Qisa.Quantum (Eqasm2.Bundle (1, [ qop "y90" 0 ]));
        Qisa.Quantum (Eqasm2.Bundle (1, [ qop "measz" 0 ]));
        Qisa.Fmr (2, 0);
        Qisa.Cmp (2, 1);
        Qisa.Br (Qisa.Ne, "try");
        Qisa.Halt;
      ]
  in
  let text = Qisa.to_string original in
  let reparsed = Qisa.parse ~name:"rt" ~qubit_count:1 ~cycle_ns:20 text in
  let run p seed =
    let r = Qisa.execute ~rng:(Rng.create seed) Controller.superconducting p in
    (r.Qisa.registers.(0), r.Qisa.registers.(2))
  in
  for seed = 1 to 10 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "same behaviour seed %d" seed)
      (run original seed) (run reparsed seed)
  done

let test_qisa_parse_conditional_op () =
  let source = "SMIS s0, {0}\n1: measz s0\n1: [if r0] x90 s0\nHALT\n" in
  (* just check it assembles; r0 = 0 so the conditional op exists but the
     controller gates on classical bit 0 of qubit 0 *)
  let p = Qisa.parse ~name:"cond" ~qubit_count:1 ~cycle_ns:20 source in
  let r = Qisa.execute ~rng:(Rng.create 3) Controller.superconducting p in
  Alcotest.(check bool) "executes" true (r.Qisa.executed > 0)

let test_qisa_parse_errors () =
  let expect src =
    match Qisa.parse ~name:"bad" ~qubit_count:1 ~cycle_ns:20 src with
    | exception Qisa.Parse_error _ -> ()
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail ("accepted: " ^ src)
  in
  expect "FROB r0, r1\n";
  expect "LDI r0\n";
  expect "BR.xx somewhere\n";
  expect "BR.ne nowhere\n"

let test_qisa_to_string () =
  let p =
    Qisa.assemble ~name:"show" ~qubit_count:1 ~cycle_ns:20
      [ Qisa.Ldi (0, 1); Qisa.Label "l"; Qisa.Br (Qisa.Always, "l") ]
  in
  let text = Qisa.to_string p in
  Alcotest.(check bool) "mentions LDI" true
    (String.length text > 0
    &&
    let rec contains i =
      i + 3 <= String.length text && (String.sub text i 3 = "LDI" || contains (i + 1))
    in
    contains 0)

(* --- resilience through the controller --- *)

module Fault = Qca_util.Fault
module Engine = Qca_qx.Engine

let test_run_shots_fault_off_identical () =
  let _, program = compile_for Platform.superconducting_17 (bell_with_measure ()) in
  let base =
    Controller.run_shots ~seed:42 ~shots:64 Controller.superconducting program
  in
  let off =
    Controller.run_shots ~seed:42 ~shots:64 ~faults:(Fault.make Fault.off)
      Controller.superconducting program
  in
  Alcotest.(check (list (pair string int))) "identical histograms"
    base.Controller.histogram off.Controller.histogram;
  Alcotest.(check int) "nothing faulted" 0
    off.Controller.report.Engine.resilience.Engine.faulted_shots

let test_run_shots_fault_accounting () =
  let _, program = compile_for Platform.superconducting_17 (bell_with_measure ()) in
  let shots = 100 in
  let faults = Fault.make ~seed:8 (Fault.uniform 0.02) in
  let r =
    Controller.run_shots ~seed:21 ~shots ~faults Controller.superconducting program
  in
  let res = r.Controller.report.Engine.resilience in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 r.Controller.histogram in
  Alcotest.(check int) "faulted + histogram = shots" shots
    (res.Engine.faulted_shots + total);
  Alcotest.(check bool) "fires recorded" true (Fault.total faults > 0);
  Alcotest.(check bool) "retries recorded" true (res.Engine.retries > 0)

let test_unknown_mnemonic_structured () =
  match Microcode.translate Microcode.superconducting_table ~time_ns:0
          ~mnemonic:"frobnicate" ~angle:None ~qubits:[ 0 ]
  with
  | exception Qca_util.Error.Error e ->
      Alcotest.(check bool) "unknown mnemonic kind" true
        (match e.Qca_util.Error.kind with
        | Qca_util.Error.Unknown_mnemonic "frobnicate" -> true
        | _ -> false);
      Alcotest.(check bool) "permanent" false e.Qca_util.Error.transient
  | _ -> Alcotest.fail "unknown mnemonic accepted"


(* --- active-qubit pins --- *)

(* Seed-fixed results captured before the simulators were narrowed to the
   qubits a program touches. Narrowing keeps qubit order and draws noise
   only on operands, so every shot must consume the same random stream:
   any drift here is a behaviour change, not noise. *)

module Cqasm = Qca_circuit.Cqasm
module Noise = Qca_qx.Noise
module Job_spec = Qca.Job_spec
module Runner = Qca.Runner

let show_histogram h =
  String.concat " " (List.map (fun (k, c) -> Printf.sprintf "%s:%d" k c) h)

let show_report (r : Engine.run_report) =
  Printf.sprintf "plan=%s measurements=%d applies=%d faulted=%d retries=%d"
    (Engine.plan_to_string r.Engine.plan) r.Engine.measurements
    (List.fold_left (fun acc (_, c) -> acc + c) 0 r.Engine.gate_applies)
    r.Engine.resilience.Engine.faulted_shots r.Engine.resilience.Engine.retries

(* The cQASM lint-corpus fixtures (test/fixtures/), inlined. *)
let fixture_sources =
  [
    ( "bell",
      "version 1.0\nqubits 2\n.prepare\n  prep_z q[0]\n  prep_z q[1]\n  h q[0]\n\
      \  cnot q[0], q[1]\n.readout\n  measure q[0]\n  measure q[1]\n" );
    ( "teleport",
      "version 1.0\nqubits 3\n.prepare\n  prep_z q[0]\n  prep_z q[1]\n  prep_z q[2]\n\
      \  ry q[0], 1.047198\n  h q[1]\n  cnot q[1], q[2]\n.bell_measure\n\
      \  cnot q[0], q[1]\n  h q[0]\n  measure q[0]\n  measure q[1]\n.correct\n\
      \  c-x b[1], q[2]\n  c-z b[0], q[2]\n  measure q[2]\n" );
    ( "ghz5",
      "version 1.0\nqubits 5\n.entangle\n  h q[0]\n  cnot q[0], q[1]\n  cnot q[1], q[2]\n\
      \  cnot q[2], q[3]\n  cnot q[3], q[4]\n.readout\n  measure_all\n" );
    ( "rus",
      "version 1.0\nqubits 2\n.attempt(3)\n  prep_z q[0]\n  h q[0]\n  cnot q[0], q[1]\n\
      \  measure q[0]\n  c-x b[0], q[1]\n.readout\n  measure q[1]\n" );
  ]

let fixture name = Cqasm.parse_circuit (List.assoc name fixture_sources)

let run_shots_pin name platform technology ~noisy ~faulty () =
  let out = Compiler.compile platform Compiler.Real (fixture name) in
  let program = Option.get out.Compiler.eqasm in
  let noise = if noisy then platform.Platform.noise else Noise.ideal in
  let faults = if faulty then Some (Fault.make ~seed:9 (Fault.uniform 0.01)) else None in
  let r = Controller.run_shots ~noise ~seed:17 ~shots:40 ?faults technology program in
  let s = r.Controller.last.Controller.stats in
  Printf.sprintf "%s | %s | bundles=%d micro_ops=%d ns=%d"
    (show_histogram r.Controller.histogram) (show_report r.Controller.report)
    s.Controller.bundles_issued s.Controller.micro_ops s.Controller.total_ns

let run_shots_pins =
  (* ghz5 does not fit the 4-qubit semiconducting platform. *)
  List.concat_map
    (fun (pname, platform, technology, fixtures) ->
      List.concat_map
        (fun name ->
          List.concat_map
            (fun noisy ->
              List.map
                (fun faulty ->
                  ( Printf.sprintf "run_shots %s %s%s%s" name pname
                      (if noisy then " noisy" else "")
                      (if faulty then " faults" else ""),
                    run_shots_pin name platform technology ~noisy ~faulty ))
                [ false; true ])
            [ false; true ])
        fixtures)
    [
      ( "superconducting_17", Platform.superconducting_17, Controller.superconducting,
        [ "bell"; "teleport"; "ghz5"; "rus" ] );
      ( "semiconducting_4", Platform.semiconducting_4, Controller.semiconducting,
        [ "bell"; "teleport"; "rus" ] );
    ]

(* A 17-qubit QISA program that touches qubits 0 and 5, as `qxc qisa` runs
   it: one generator across shots, register files histogrammed. *)
let qisa_pin () =
  let source =
    "LDI r1, 1\nSMIS s0, {0, 5}\nSMIS s1, {5}\nSMIT t0, {(0, 5)}\n1: y90 s0\n1: cz t0\n\
     1: my90 s1\n1: x90 s0\n1: measz s0\nFMR r2, q0\nFMR r3, q5\nADD r4, r2, r3\nHALT\n"
  in
  let program = Qisa.parse ~name:"pin.qisa" ~qubit_count:17 ~cycle_ns:20 source in
  let rng = Rng.create 11 in
  let counts = Hashtbl.create 16 in
  let last = ref None in
  for _ = 1 to 30 do
    let r = Qisa.execute ~rng Controller.superconducting program in
    last := Some r;
    let key =
      String.concat "," (List.map string_of_int (Array.to_list (Array.sub r.Qisa.registers 0 5)))
    in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  let r = Option.get !last in
  Printf.sprintf "%s | last=%s executed=%d"
    (show_histogram
       (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])))
    (Engine.bitstring r.Qisa.controller.Controller.outcome.Sim.classical)
    r.Qisa.executed

(* The Compiled route's Realistic QX rung: the mapped program, platform
   width, platform noise, through the engine. *)
let qx_rung_pin name () =
  let route =
    Job_spec.Compiled
      {
        platform = Platform.superconducting_17;
        mode = Compiler.Realistic;
        technology = None;
        ladder = true;
        router = Qca_compiler.Mapping.Sabre;
      }
  in
  let spec = Job_spec.make ~route ~shots:30 ~seed:5 (Job_spec.Circuit (fixture name)) in
  match Runner.run spec with
  | Ok o ->
      Printf.sprintf "%s | %s" (show_histogram o.Runner.histogram)
        (show_report o.Runner.report)
  | Error e -> Qca_util.Error.to_string e

let unitary u ops = Gate.Unitary (u, ops)

(* Direct runs of circuits whose idle qubits sit between and above the
   used ones, one per plan. *)
let direct_pin ?noise ~shots n instrs () =
  let r = Engine.run ?noise ~seed:3 ~shots (Circuit.of_list n instrs) in
  Printf.sprintf "%s | %s" (show_histogram r.Engine.histogram) (show_report r.Engine.report)

let direct_pins =
  [
    ( "direct sampled",
      direct_pin ~shots:500 6
        [
          unitary Gate.H [| 1 |]; unitary Gate.T [| 1 |]; unitary Gate.Cnot [| 1; 4 |];
          unitary (Gate.Rx 0.3) [| 4 |]; Gate.Measure 1; Gate.Measure 4;
        ] );
    ( "direct trajectory",
      direct_pin ~noise:(Noise.depolarizing 0.05) ~shots:300 6
        [
          unitary Gate.H [| 1 |]; unitary Gate.T [| 1 |]; unitary Gate.Cnot [| 1; 4 |];
          unitary (Gate.Rx 0.3) [| 4 |]; Gate.Measure 1; Gate.Measure 4;
        ] );
    ( "direct clifford",
      direct_pin ~shots:300 7
        [
          unitary Gate.H [| 2 |]; unitary Gate.Cnot [| 2; 5 |]; Gate.Measure 2;
          unitary Gate.H [| 2 |]; Gate.Measure 2; Gate.Measure 5;
        ] );
    ( "direct feedback",
      direct_pin ~shots:300 5
        [
          unitary (Gate.Ry 0.7) [| 1 |]; Gate.Measure 1;
          Gate.Conditional (1, Gate.X, [| 3 |]); unitary Gate.T [| 3 |];
          unitary Gate.H [| 3 |]; Gate.Measure 3;
        ] );
    ( "direct sampled ties",
      direct_pin ~shots:40 7
        [
          unitary Gate.H [| 1 |]; unitary Gate.H [| 3 |]; unitary Gate.H [| 5 |];
          Gate.Measure 1; Gate.Measure 3; Gate.Measure 5;
        ] );
    ( "direct trajectory ties",
      direct_pin ~noise:(Noise.depolarizing 0.02) ~shots:40 7
        [
          unitary Gate.H [| 1 |]; unitary Gate.H [| 3 |]; unitary Gate.H [| 5 |];
          Gate.Measure 1; Gate.Measure 3; Gate.Measure 5;
        ] );
    ("direct no qubit touched", direct_pin ~shots:50 3 [ Gate.Barrier [| 0; 2 |] ]);
    ( "direct condition on idle qubit",
      direct_pin ~shots:200 4
        [
          unitary Gate.H [| 0 |]; Gate.Conditional (2, Gate.X, [| 1 |]); Gate.Measure 0;
          Gate.Measure 1;
        ] );
    ( "direct prep on idle qubit",
      direct_pin ~shots:200 5
        [ Gate.Prep 3; unitary Gate.H [| 0 |]; unitary (Gate.Ry 0.4) [| 1 |];
          Gate.Measure 0; Gate.Measure 1 ] );
  ]

let pin_cases =
  run_shots_pins
  @ [ ("qisa 17 qubits", qisa_pin) ]
  @ [ ("qx rung bell", qx_rung_pin "bell"); ("qx rung teleport", qx_rung_pin "teleport") ]
  @ direct_pins

(* Insert '-' for the idle qubits: [positions.(i)] is where qubit [i] of a
   [k]-qubit key sits in an [n]-qubit one (qubit 0 is the rightmost char). *)
let widen_key ~n positions key =
  let k = String.length key in
  let out = Bytes.make n '-' in
  Array.iteri (fun i p -> Bytes.set out (n - 1 - p) key.[k - 1 - i]) positions;
  Bytes.to_string out

let random_instrs rng ~qubits ~length =
  let singles = [| Gate.H; Gate.T; Gate.X; Gate.S; Gate.Rz 0.4; Gate.Ry 1.1 |] in
  List.init length (fun _ ->
      let q = Rng.int rng qubits in
      let other () = (q + 1 + Rng.int rng (qubits - 1)) mod qubits in
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 -> Gate.Unitary (Rng.pick rng singles, [| q |])
      | 4 | 5 when qubits > 1 ->
          Gate.Unitary ((if Rng.bool rng then Gate.Cnot else Gate.Cz), [| q; other () |])
      | 6 -> Gate.Measure q
      | 7 -> Gate.Prep q
      | 8 when qubits > 1 -> Gate.Conditional (Rng.int rng qubits, Gate.X, [| q |])
      | _ -> Gate.Unitary (Gate.H, [| q |]))

(* A random circuit on [k] qubits and an order-preserving injection of
   them into [n >= k]: idle qubits land between the used ones as well as
   above them. *)
let padding_case seed =
  let rng = Rng.create seed in
  let k = 1 + Rng.int rng 4 in
  let n = k + Rng.int rng 5 in
  let narrow = Circuit.of_list k (random_instrs rng ~qubits:k ~length:(Rng.int rng 14)) in
  let positions =
    let chosen = Array.make n false in
    let placed = ref 0 in
    while !placed < k do
      let p = Rng.int rng n in
      if not chosen.(p) then begin
        chosen.(p) <- true;
        incr placed
      end
    done;
    Array.of_list (List.filter (fun p -> chosen.(p)) (List.init n Fun.id))
  in
  let noisy = Rng.bool rng in
  let padded =
    Circuit.of_list n
      (List.map (Gate.map_qubits (fun q -> positions.(q))) (Circuit.instructions narrow))
  in
  (narrow, padded, positions, noisy, Rng.int rng 1000)

(* Padding a circuit with idle qubits leaves its histogram unchanged apart
   from the '-' columns. Tied counts are listed in hash-table order, which
   depends on the key text, so the two histograms are compared as sets. *)
let prop_idle_padding =
  QCheck.Test.make ~name:"idle-qubit padding only widens histogram keys" ~count:60
    (QCheck.make
       ~print:(fun seed ->
         let narrow, padded, _, noisy, _ = padding_case seed in
         Printf.sprintf "seed=%d noisy=%b\n%s\n%s" seed noisy (Circuit.to_string narrow)
           (Circuit.to_string padded))
       QCheck.Gen.(int_range 0 99999))
    (fun seed ->
      let narrow, padded, positions, noisy, run_seed = padding_case seed in
      let noise = if noisy then Noise.depolarizing 0.04 else Noise.ideal in
      let run c = Engine.run ~noise ~seed:run_seed ~shots:48 c in
      let n = Circuit.qubit_count padded in
      let narrow = run narrow and padded = run padded in
      padded.Engine.report.Engine.plan = narrow.Engine.report.Engine.plan
      && List.sort compare padded.Engine.histogram
         = List.sort compare
             (List.map (fun (key, c) -> (widen_key ~n positions key, c)) narrow.Engine.histogram))

(* Ideal execution through the whole micro-architecture pipeline agrees
   with running the compiled circuit directly on QX. *)
let prop_controller_matches_direct =
  QCheck.Test.make ~name:"matches direct sim" ~count:12
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 99999))
    (fun seed ->
      let rng = Rng.create seed in
      let qubits = 2 + Rng.int rng 3 in
      let circuit = Library.random_circuit rng ~qubits ~gates:(1 + Rng.int rng 12) in
      let out, program = compile_for Platform.superconducting_17 circuit in
      let result = one_shot Controller.superconducting program in
      (* The shot's state holds the active qubits only: widen it to the
         program's register before comparing. *)
      let qubit_count = program.Eqasm.qubit_count in
      let state =
        State.widen result.Controller.outcome.Sim.state ~qubit_count
          (Controller.active_qubits ~qubit_count program.Eqasm.instructions)
      in
      let direct = Sim.run out.Compiler.physical in
      Float.abs (State.fidelity state direct.Sim.state -. 1.0) <= 1e-9)

let pinned =
  [
    ("run_shots bell superconducting_17",
     "---------------11:23 ---------------00:17 | plan=trajectory measurements=80 applies=280 faulted=0 retries=0 | bundles=7 micro_ops=12 ns=620");
    ("run_shots bell superconducting_17 faults",
     "---------------11:22 ---------------00:18 | plan=trajectory measurements=80 applies=280 faulted=0 retries=13 | bundles=7 micro_ops=12 ns=620");
    ("run_shots bell superconducting_17 noisy",
     "---------------11:25 ---------------00:13 ---------------10:2 | plan=trajectory measurements=80 applies=280 faulted=0 retries=0 | bundles=7 micro_ops=12 ns=620");
    ("run_shots bell superconducting_17 noisy faults",
     "---------------11:20 ---------------00:18 ---------------01:1 ---------------10:1 | plan=trajectory measurements=80 applies=280 faulted=0 retries=13 | bundles=7 micro_ops=12 ns=620");
    ("run_shots teleport superconducting_17",
     "--------------001:10 --------------000:8 --------------010:8 --------------011:7 --------------111:3 --------------110:2 --------------100:2 | plan=trajectory measurements=120 applies=740 faulted=0 retries=0 | bundles=14 micro_ops=28 ns=1060");
    ("run_shots teleport superconducting_17 faults",
     "--------------011:11 --------------010:9 --------------100:6 --------------001:4 --------------000:3 --------------110:3 --------------111:1 | plan=trajectory measurements=111 applies=693 faulted=3 retries=44 | bundles=14 micro_ops=28 ns=1060");
    ("run_shots teleport superconducting_17 noisy",
     "--------------001:11 --------------011:8 --------------010:7 --------------111:5 --------------000:4 --------------101:3 --------------110:1 --------------100:1 | plan=trajectory measurements=120 applies=749 faulted=0 retries=0 | bundles=14 micro_ops=28 ns=1060");
    ("run_shots teleport superconducting_17 noisy faults",
     "--------------011:12 --------------010:7 --------------100:6 --------------000:5 --------------001:5 --------------101:1 --------------110:1 | plan=trajectory measurements=111 applies=687 faulted=3 retries=44 | bundles=14 micro_ops=28 ns=1060");
    ("run_shots ghz5 superconducting_17",
     "--------------000:20 --------------111:20 | plan=trajectory measurements=200 applies=2360 faulted=0 retries=0 | bundles=34 micro_ops=77 ns=1200");
    ("run_shots ghz5 superconducting_17 faults",
     "--------------111:11 --------------000:8 | plan=trajectory measurements=95 applies=1121 faulted=21 retries=88 | bundles=34 micro_ops=77 ns=1200");
    ("run_shots ghz5 superconducting_17 noisy",
     "--------------000:19 --------------111:17 --------------101:2 --------------001:2 | plan=trajectory measurements=200 applies=2360 faulted=0 retries=0 | bundles=34 micro_ops=77 ns=1200");
    ("run_shots ghz5 superconducting_17 noisy faults",
     "--------------000:9 --------------111:7 --------------001:1 --------------110:1 --------------100:1 | plan=trajectory measurements=95 applies=1121 faulted=21 retries=88 | bundles=34 micro_ops=77 ns=1200");
    ("run_shots rus superconducting_17",
     "---------------01:23 ---------------00:17 | plan=trajectory measurements=160 applies=974 faulted=0 retries=0 | bundles=28 micro_ops=37 ns=2160");
    ("run_shots rus superconducting_17 faults",
     "---------------00:22 ---------------01:11 | plan=trajectory measurements=132 applies=787 faulted=7 retries=58 | bundles=28 micro_ops=37 ns=2160");
    ("run_shots rus superconducting_17 noisy",
     "---------------01:22 ---------------00:15 ---------------11:2 ---------------10:1 | plan=trajectory measurements=160 applies=980 faulted=0 retries=0 | bundles=28 micro_ops=37 ns=2160");
    ("run_shots rus superconducting_17 noisy faults",
     "---------------01:16 ---------------00:16 ---------------10:1 | plan=trajectory measurements=132 applies=773 faulted=7 retries=58 | bundles=28 micro_ops=37 ns=2160");
    ("run_shots bell semiconducting_4",
     "--11:23 --00:17 | plan=trajectory measurements=80 applies=280 faulted=0 retries=0 | bundles=7 micro_ops=12 ns=13200");
    ("run_shots bell semiconducting_4 faults",
     "--11:22 --00:18 | plan=trajectory measurements=80 applies=280 faulted=0 retries=13 | bundles=7 micro_ops=12 ns=13200");
    ("run_shots bell semiconducting_4 noisy",
     "--11:20 --00:14 --10:5 --01:1 | plan=trajectory measurements=80 applies=280 faulted=0 retries=0 | bundles=7 micro_ops=12 ns=13200");
    ("run_shots bell semiconducting_4 noisy faults",
     "--11:19 --00:18 --10:2 --01:1 | plan=trajectory measurements=80 applies=280 faulted=0 retries=13 | bundles=7 micro_ops=12 ns=13200");
    ("run_shots teleport semiconducting_4",
     "-001:10 -010:8 -000:8 -011:7 -111:3 -110:2 -100:2 | plan=trajectory measurements=120 applies=740 faulted=0 retries=0 | bundles=15 micro_ops=28 ns=22900");
    ("run_shots teleport semiconducting_4 faults",
     "-011:11 -010:9 -100:6 -001:4 -110:3 -000:3 -111:1 | plan=trajectory measurements=111 applies=693 faulted=3 retries=44 | bundles=15 micro_ops=28 ns=22900");
    ("run_shots teleport semiconducting_4 noisy",
     "-001:10 -011:8 -111:6 -010:6 -000:5 -100:2 -101:2 -110:1 | plan=trajectory measurements=120 applies=748 faulted=0 retries=0 | bundles=15 micro_ops=28 ns=22900");
    ("run_shots teleport semiconducting_4 noisy faults",
     "-010:9 -000:8 -011:7 -100:6 -111:3 -001:3 -101:1 | plan=trajectory measurements=111 applies=681 faulted=3 retries=44 | bundles=15 micro_ops=28 ns=22900");
    ("run_shots rus semiconducting_4",
     "--01:23 --00:17 | plan=trajectory measurements=160 applies=974 faulted=0 retries=0 | bundles=28 micro_ops=37 ns=46800");
    ("run_shots rus semiconducting_4 faults",
     "--00:22 --01:11 | plan=trajectory measurements=132 applies=787 faulted=7 retries=58 | bundles=28 micro_ops=37 ns=46800");
    ("run_shots rus semiconducting_4 noisy",
     "--01:20 --00:16 --10:2 --11:2 | plan=trajectory measurements=160 applies=970 faulted=0 retries=0 | bundles=28 micro_ops=37 ns=46800");
    ("run_shots rus semiconducting_4 noisy faults",
     "--00:14 --01:12 --11:4 --10:3 | plan=trajectory measurements=132 applies=795 faulted=7 retries=58 | bundles=28 micro_ops=37 ns=46800");
    ("qisa 17 qubits",
     "0,1,0,0,0:18 0,1,1,1,2:12 | last=-----------0----0 executed=13");
    ("qx rung bell",
     "---------------00:17 ---------------11:12 ---------------10:1 | plan=trajectory measurements=60 applies=210 faulted=0 retries=0");
    ("qx rung teleport",
     "--------------011:9 --------------001:7 --------------010:5 --------------110:3 --------------100:3 --------------000:2 --------------101:1 | plan=trajectory measurements=90 applies=561 faulted=0 retries=0");
    ("direct sampled",
     "-0--0-:251 -1--1-:245 -1--0-:3 -0--1-:1 | plan=sampled measurements=1000 applies=4 faulted=0 retries=0");
    ("direct trajectory",
     "-0--0-:129 -1--1-:123 -1--0-:26 -0--1-:22 | plan=trajectory measurements=600 applies=1200 faulted=0 retries=0");
    ("direct clifford",
     "-0--0--:80 -1--0--:79 -1--1--:71 -0--1--:70 | plan=clifford measurements=900 applies=900 faulted=0 retries=0");
    ("direct feedback",
     "-0-0-:143 -1-0-:121 -1-1-:20 -0-1-:16 | plan=trajectory measurements=600 applies=936 faulted=0 retries=0");
    ("direct no qubit touched",
     "---:50 | plan=sampled measurements=0 applies=0 faulted=0 retries=0");
    ("direct condition on idle qubit",
     "--00:102 --01:98 | plan=clifford measurements=400 applies=200 faulted=0 retries=0");
    ("direct sampled ties",
     "-1-0-1-:10 -0-0-1-:7 -1-1-1-:5 -0-1-1-:5 -0-0-0-:4 -1-0-0-:3 -1-1-0-:3 -0-1-0-:3 | plan=sampled measurements=120 applies=3 faulted=0 retries=0");
    ("direct trajectory ties",
     "-0-0-0-:9 -1-0-0-:8 -0-0-1-:6 -0-1-1-:5 -1-1-0-:4 -1-0-1-:4 -0-1-0-:3 -1-1-1-:1 | plan=trajectory measurements=120 applies=120 faulted=0 retries=0");
    ("direct prep on idle qubit",
     "---00:103 ---01:90 ---10:6 ---11:1 | plan=sampled measurements=400 applies=2 faulted=0 retries=0");
  ]

let pin_tests =
  List.map
    (fun (name, f) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) name (List.assoc name pinned) (f ())))
    pin_cases

let () =
  Alcotest.run "qca_microarch"
    [
      ( "adi",
        [
          Alcotest.test_case "gaussian envelope" `Quick test_gaussian_envelope;
          Alcotest.test_case "square envelope" `Quick test_square_envelope;
          Alcotest.test_case "libraries complete" `Quick test_libraries_complete;
          Alcotest.test_case "technologies differ" `Quick test_technologies_differ;
          Alcotest.test_case "pulse energy" `Quick test_pulse_energy_positive;
        ] );
      ( "microcode",
        [
          Alcotest.test_case "lookup" `Quick test_microcode_lookup;
          Alcotest.test_case "opcodes disjoint" `Quick test_microcode_opcodes_disjoint;
          Alcotest.test_case "translate fanout" `Quick test_microcode_translate_fanout;
        ] );
      ( "timing-queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_time_order;
          Alcotest.test_case "drain until" `Quick test_queue_drain_until;
          Alcotest.test_case "violations" `Quick test_queue_violation_detection;
          Alcotest.test_case "peak depth" `Quick test_queue_peak_depth;
          Alcotest.test_case "pool routing" `Quick test_pool_routing;
        ] );
      ( "controller",
        [
          Alcotest.test_case "runs bell" `Quick test_controller_runs_bell;
          Alcotest.test_case "trace ordering" `Quick test_controller_trace_ordering;
          Alcotest.test_case "rz is software" `Quick test_controller_rz_is_software;
          Alcotest.test_case "rz draws no noise" `Quick test_controller_rz_draws_no_noise;
          Alcotest.test_case "retargeting" `Quick test_retargeting_same_program_shape;
          QCheck_alcotest.to_alcotest prop_controller_matches_direct;
          Alcotest.test_case "stats sane" `Quick test_controller_stats_sane;
          Alcotest.test_case "teleportation e2e" `Quick test_teleportation_through_microarch;
          Alcotest.test_case "trace rendering" `Quick test_trace_rendering;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "fault off identical" `Quick
            test_run_shots_fault_off_identical;
          Alcotest.test_case "fault accounting" `Quick test_run_shots_fault_accounting;
          Alcotest.test_case "unknown mnemonic structured" `Quick
            test_unknown_mnemonic_structured;
        ] );
      ( "qisa",
        [
          Alcotest.test_case "arithmetic" `Quick test_qisa_classical_arithmetic;
          Alcotest.test_case "loop" `Quick test_qisa_loop;
          Alcotest.test_case "validation" `Quick test_qisa_validation;
          Alcotest.test_case "bad operand count" `Quick test_qisa_bad_operand_count;
          Alcotest.test_case "repeat until success" `Quick test_qisa_repeat_until_success;
          Alcotest.test_case "active reset" `Quick test_qisa_active_reset;
          Alcotest.test_case "step budget" `Quick test_qisa_step_budget;
          Alcotest.test_case "to_string" `Quick test_qisa_to_string;
          Alcotest.test_case "parse roundtrip" `Quick test_qisa_parse_roundtrip;
          Alcotest.test_case "parse conditional" `Quick test_qisa_parse_conditional_op;
          Alcotest.test_case "parse errors" `Quick test_qisa_parse_errors;
        ] );
      ("active qubits", QCheck_alcotest.to_alcotest prop_idle_padding :: pin_tests);
    ]
