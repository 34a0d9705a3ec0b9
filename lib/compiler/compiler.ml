module Circuit = Qca_circuit.Circuit
module Cqasm = Qca_circuit.Cqasm
module Trace = Qca_util.Trace

type mode = Perfect | Realistic | Real

type pass_stat = {
  pass_name : string;
  gates : int;
  two_qubit_gates : int;
  depth : int;
  note : string;
}

type pass_artifact =
  | Circuit_stage of Circuit.t
  | Schedule_stage of Schedule.t
  | Eqasm_stage of Eqasm.program

type output = {
  platform : Platform.t;
  mode : mode;
  logical : Circuit.t;
  physical : Circuit.t;
  schedule : Schedule.t;
  eqasm : Eqasm.program option;
  cqasm : string;
  mapping : Mapping.result option;
  passes : pass_stat list;
}

let mode_to_string = function
  | Perfect -> "perfect"
  | Realistic -> "realistic"
  | Real -> "real"

let mode_of_string = function
  | "perfect" -> Ok Perfect
  | "realistic" -> Ok Realistic
  | "real" -> Ok Real
  | other -> Error (Printf.sprintf "unknown mode '%s'" other)

let stat_of ?(note = "") pass_name (f : Circuit.figures) =
  { pass_name; gates = f.gates; two_qubit_gates = f.two_qubit_gates; depth = f.depth; note }

let widen platform circuit =
  if Circuit.qubit_count circuit = platform.Platform.qubit_count then circuit
  else if Circuit.qubit_count circuit > platform.Platform.qubit_count then
    invalid_arg "Compiler.compile: circuit larger than platform"
  else
    Circuit.of_list ~name:(Circuit.name circuit) platform.Platform.qubit_count
      (Circuit.instructions circuit)

(* One span per compiler pass, carrying the gate-count delta the pass
   produced. The annotations are lazy so a disabled trace never walks the
   circuit; the [input -> output] circuits also feed the pass_stat table. *)
let traced_pass name ~input f =
  Trace.with_span ("compiler." ^ name) (fun sp ->
      Trace.annotate sp (fun () -> [ ("gates_in", Trace.Int (Circuit.gate_count input)) ]);
      let output = f () in
      Trace.annotate sp (fun () ->
          let f = Circuit.figures output in
          [
            ("gates_out", Trace.Int f.gates);
            ("two_qubit", Trace.Int f.two_qubit_gates);
            ("depth", Trace.Int f.depth);
          ]);
      output)

let compile ?strategy ?(optimizer = Optimize.Full) ?observer platform mode logical =
  Trace.with_span "compiler.compile" (fun compile_sp ->
  Trace.annotate compile_sp (fun () ->
      [
        ("platform", Trace.String platform.Platform.name);
        ("mode", Trace.String (mode_to_string mode));
      ]);
  let observe name artifact =
    match observer with None -> () | Some f -> f name artifact
  in
  (* Each row costs one walk of its circuit; [last] is the circuit of the
     newest row, whose figures a pass that starts from it reuses. *)
  let last = ref (logical, Circuit.figures logical) in
  let passes = ref [ stat_of "input" (snd !last) ] in
  let figures_of circuit =
    let c, f = !last in
    if c == circuit then f else Circuit.figures circuit
  in
  let record_figures ?note name circuit f =
    last := (circuit, f);
    passes := stat_of ?note name f :: !passes
  in
  let record ?note name circuit = record_figures ?note name circuit (figures_of circuit) in
  (* Run the optimizer as a named stage: every pass application runs in
     its own trace span, and each pass that changes the circuit gets a
     pass_stat row (with gate/depth deltas) and an observer artifact, so
     the pass-verifier can blame it individually. *)
  let optimize_stage stage config input =
    Trace.with_span ("compiler." ^ stage) (fun sp ->
        Trace.annotate sp (fun () ->
            [ ("gates_in", Trace.Int (Circuit.gate_count input)) ]);
        let optimized, ostats =
          match optimizer with
          | Optimize.Basic -> Optimize.run_basic input
          | Optimize.Full ->
              let on_pass ~round ~pass ~before after =
                let name = stage ^ "/" ^ pass in
                let b = figures_of before and a = Circuit.figures after in
                record_figures
                  ~note:
                    (Printf.sprintf "round=%d dgates=%+d ddepth=%+d" round
                       (a.Circuit.gates - b.Circuit.gates)
                       (a.Circuit.depth - b.Circuit.depth))
                  name after a;
                observe name (Circuit_stage after)
              in
              Optimize.pipeline ~config ~on_pass ~trace:("compiler." ^ stage) input
        in
        Trace.annotate sp (fun () ->
            [
              ("gates_out", Trace.Int (Circuit.gate_count optimized));
              ("cancelled", Trace.Int ostats.Optimize.removed_pairs);
              ("merged", Trace.Int ostats.Optimize.merged_rotations);
              ("conjugated", Trace.Int ostats.Optimize.conjugations);
              ("euler", Trace.Int ostats.Optimize.euler_runs);
              ("blocks", Trace.Int ostats.Optimize.consolidations);
              ("rounds", Trace.Int ostats.Optimize.rounds);
              ("blocks_rendered", Trace.Int ostats.Optimize.blocks_rendered);
              ("blocks_reused", Trace.Int ostats.Optimize.blocks_reused);
            ]);
        record
          ~note:
            (Printf.sprintf
               "cancelled=%d merged=%d dropped=%d conj=%d euler=%d blocks=%d"
               ostats.Optimize.removed_pairs ostats.Optimize.merged_rotations
               ostats.Optimize.dropped_identities ostats.Optimize.conjugations
               ostats.Optimize.euler_runs ostats.Optimize.consolidations)
          stage optimized;
        observe stage (Circuit_stage optimized);
        optimized)
  in
  match mode with
  | Perfect ->
      observe "input" (Circuit_stage logical);
      let optimized = optimize_stage "optimize" Optimize.logical_config logical in
      let schedule =
        Trace.with_span "compiler.schedule" (fun sp ->
            let schedule = Schedule.run platform optimized in
            Trace.annotate sp (fun () ->
                [ ("makespan_cycles", Trace.Int schedule.Schedule.makespan) ]);
            schedule)
      in
      observe "schedule" (Schedule_stage schedule);
      {
        platform;
        mode;
        logical;
        physical = optimized;
        schedule;
        eqasm = None;
        cqasm = Cqasm.emit_circuit optimized;
        mapping = None;
        passes = List.rev !passes;
      }
  | Realistic | Real ->
      let widened = widen platform logical in
      observe "input" (Circuit_stage widened);
      (* 1. optimise at the logical level first: algebraic structure (H
         conjugations, named-gate contractions) is cheaper to exploit
         before decomposition smears it into primitives. *)
      let pre_optimized =
        match optimizer with
        | Optimize.Basic -> widened
        | Optimize.Full ->
            optimize_stage "pre-opt" Optimize.logical_config widened
      in
      (* 2. decompose to primitives (+ swap for routing support) *)
      let swap_capable =
        {
          platform with
          Platform.primitives = "swap" :: platform.Platform.primitives;
        }
      in
      let lowered =
        traced_pass "decompose" ~input:pre_optimized (fun () ->
            Decompose.run swap_capable pre_optimized)
      in
      record "decompose" lowered;
      observe "decompose" (Circuit_stage lowered);
      (* 3. place & route *)
      let mapping =
        Trace.with_span "compiler.map" (fun sp ->
            Trace.annotate sp (fun () ->
                [ ("gates_in", Trace.Int (Circuit.gate_count lowered)) ]);
            let mapping = Mapping.run ?strategy platform lowered in
            Trace.annotate sp (fun () ->
                [
                  ("gates_out", Trace.Int (Circuit.gate_count mapping.Mapping.circuit));
                  ("swaps", Trace.Int mapping.Mapping.swaps_added);
                ]);
            mapping)
      in
      record
        ~note:(Printf.sprintf "swaps=%d" mapping.Mapping.swaps_added)
        "map/route" mapping.Mapping.circuit;
      observe "map/route" (Circuit_stage mapping.Mapping.circuit);
      (* 4. expand routing swaps into primitives *)
      let expanded =
        traced_pass "expand-swaps" ~input:mapping.Mapping.circuit (fun () ->
            Decompose.run platform mapping.Mapping.circuit)
      in
      record "expand-swaps" expanded;
      observe "expand-swaps" (Circuit_stage expanded);
      (* 5. optimise in the platform's native basis *)
      let optimized =
        optimize_stage "optimize" (Optimize.physical_config platform) expanded
      in
      (* 6. schedule with platform timing *)
      let schedule =
        Trace.with_span "compiler.schedule" (fun sp ->
            let schedule = Schedule.run platform optimized in
            Trace.annotate sp (fun () ->
                [ ("makespan_cycles", Trace.Int schedule.Schedule.makespan) ]);
            schedule)
      in
      observe "schedule" (Schedule_stage schedule);
      (* 7. lower to eQASM *)
      let eqasm =
        Trace.with_span "compiler.eqasm" (fun sp ->
            let eqasm = Eqasm.of_schedule platform schedule in
            Trace.annotate sp (fun () ->
                let s = Eqasm.stats eqasm in
                [
                  ("bundles", Trace.Int s.Eqasm.bundle_count);
                  ("quantum_ops", Trace.Int s.Eqasm.total_quantum_ops);
                  ("duration_ns", Trace.Int s.Eqasm.duration_ns);
                ]);
            eqasm)
      in
      observe "eqasm" (Eqasm_stage eqasm);
      {
        platform;
        mode;
        logical;
        physical = optimized;
        schedule;
        eqasm = Some eqasm;
        cqasm = Cqasm.emit_circuit optimized;
        mapping = Some mapping;
        passes = List.rev !passes;
      })

let report output =
  let buffer = Buffer.create 512 in
  Buffer.add_string buffer
    (Printf.sprintf "compile %s on %s (%s mode)\n" (Circuit.name output.logical)
       output.platform.Platform.name
       (mode_to_string output.mode));
  Buffer.add_string buffer
    (Printf.sprintf "%-14s %8s %8s %8s  %s\n" "pass" "gates" "2q" "depth" "notes");
  List.iter
    (fun s ->
      Buffer.add_string buffer
        (Printf.sprintf "%-14s %8d %8d %8d  %s\n" s.pass_name s.gates s.two_qubit_gates
           s.depth s.note))
    output.passes;
  Buffer.add_string buffer
    (Printf.sprintf "schedule: makespan=%d cycles, parallelism=%.2f, peak=%d\n"
       output.schedule.Schedule.makespan
       (Schedule.parallelism output.schedule)
       (Schedule.max_concurrency output.schedule));
  (match output.eqasm with
  | Some program ->
      let s = Eqasm.stats program in
      Buffer.add_string buffer
        (Printf.sprintf "eqasm: %d bundles, %d mask regs, %d ops, %d ns\n"
           s.Eqasm.bundle_count s.Eqasm.mask_registers_used s.Eqasm.total_quantum_ops
           s.Eqasm.duration_ns)
  | None -> ());
  Buffer.contents buffer
