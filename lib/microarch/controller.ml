module Eqasm = Qca_compiler.Eqasm
module Gate = Qca_circuit.Gate
module State = Qca_qx.State
module Noise = Qca_qx.Noise
module Engine = Qca_qx.Engine
module Rng = Qca_util.Rng
module Qerror = Qca_util.Error
module Fault = Qca_util.Fault
module Resilience = Qca_util.Resilience
module Trace = Qca_util.Trace

(* Default randomness for sessions that pass no [?rng]: one process-wide
   stream that advances across runs (same semantics as Engine.default_rng),
   rather than an identical fresh generator per call. *)
let shared_rng = Rng.create 0xC0DE

type technology = {
  tech_name : string;
  microcode : Microcode.table;
  pulses : Adi.library;
}

let superconducting =
  {
    tech_name = "superconducting";
    microcode = Microcode.superconducting_table;
    pulses = Adi.superconducting_library ();
  }

let semiconducting =
  {
    tech_name = "semiconducting";
    microcode = Microcode.semiconducting_table;
    pulses = Adi.semiconducting_library ();
  }

type trace_event = {
  time_ns : int;
  qubit : int;
  opcode : int;
  pulse_name : string;
  duration_ns : int;
}

type run_stats = {
  total_ns : int;
  bundles_issued : int;
  micro_ops : int;
  peak_queue_depth : int;
  timing_violations : int;
  software_phase_updates : int;
}

type result = {
  outcome : Qca_qx.Sim.outcome;
  trace : trace_event list;
  stats : run_stats;
}

(* Resolve an eQASM mnemonic to the simulator action. *)
type action =
  | Apply of Gate.unitary
  | Apply_rz  (** angle carried by the op *)
  | Do_measure
  | Do_prep
  | No_op

let action_of_mnemonic = function
  | "i" -> No_op
  | "x90" -> Apply Gate.X90
  | "mx90" -> Apply Gate.Xm90
  | "y90" -> Apply Gate.Y90
  | "my90" -> Apply Gate.Ym90
  | "rz" -> Apply_rz
  | "cz" -> Apply Gate.Cz
  | "x" -> Apply Gate.X
  | "y" -> Apply Gate.Y
  | "z" -> Apply Gate.Z
  | "h" -> Apply Gate.H
  | "s" -> Apply Gate.S
  | "sdag" -> Apply Gate.Sdag
  | "t" -> Apply Gate.T
  | "tdag" -> Apply Gate.Tdag
  | "cnot" -> Apply Gate.Cnot
  | "swap" -> Apply Gate.Swap
  | "measz" -> Do_measure
  | "prepz" -> Do_prep
  | other ->
      Qerror.fail ~site:"Controller.action_of_mnemonic" (Qerror.Unknown_mnemonic other)

type session = {
  technology : technology;
  noise : Noise.model;
  rng : Rng.t;
  faults : Fault.t option;
  cycle_ns : int;
  state : State.t;
  classical : int array;
  ideal : bool;
  single_masks : int list array;
  pair_masks : (int * int) list array;
  pool : Timing_queue.pool;
  applies : (string, int) Hashtbl.t;
  mutable measures : int;
  mutable trace : trace_event list;  (* reversed *)
  mutable time_cycles : int;
  mutable bundles : int;
  mutable micro_ops : int;
  mutable phase_updates : int;
  mutable end_ns : int;
}

(* Injected faults are transient: the glitch model is a bit flip or drop on
   one traversal of the pipeline, so a retry of the shot can succeed. The
   check is a bare match + compare when no injector is attached, keeping the
   disabled-path overhead negligible. *)
let fault_fires session site =
  match session.faults with None -> false | Some f -> Fault.fires f site

let start ?(noise = Noise.ideal) ?rng ?faults technology ~qubit_count ~cycle_ns =
  let rng = match rng with Some r -> r | None -> shared_rng in
  {
    technology;
    noise;
    rng;
    faults;
    cycle_ns;
    state = State.create qubit_count;
    classical = Array.make qubit_count (-1);
    ideal = Noise.is_ideal noise;
    single_masks = Array.make 32 [];
    pair_masks = Array.make 32 [];
    pool = Timing_queue.create_pool ~channels:qubit_count;
    applies = Hashtbl.create 16;
    measures = 0;
    trace = [];
    time_cycles = 0;
    bundles = 0;
    micro_ops = 0;
    phase_updates = 0;
    end_ns = 0;
  }

let classical_bit session q = session.classical.(q)
let elapsed_cycles session = session.time_cycles

let pulse_duration session name =
  if name = "idle" then 0
  else
    match Adi.find session.technology.pulses name with
    | Some p ->
        if fault_fires session Fault.Pulse_dropout then
          Qerror.fail ~transient:true ~site:"Controller.pulse_duration"
            (Qerror.Missing_pulse name);
        p.Adi.duration_ns
    | None ->
        Qerror.fail ~site:"Controller.pulse_duration"
          ~context:[ ("technology", session.technology.tech_name) ]
          (Qerror.Missing_pulse name)

let bump_apply session name =
  Hashtbl.replace session.applies name
    (1 + Option.value ~default:0 (Hashtbl.find_opt session.applies name))

let simulate_op session mnemonic angle qubits =
  let state = session.state and rng = session.rng and noise = session.noise in
  let ideal = session.ideal in
  match action_of_mnemonic mnemonic, qubits with
  | Apply u, _ when Gate.arity u = 1 ->
      List.iter
        (fun q ->
          State.apply state u [| q |];
          bump_apply session (Gate.name u);
          if not ideal then Noise.after_gate noise state rng u [| q |])
        qubits
  | Apply u, [ q1; q2 ] ->
      State.apply state u [| q1; q2 |];
      bump_apply session (Gate.name u);
      if not ideal then Noise.after_gate noise state rng u [| q1; q2 |]
  | Apply u, _ ->
      Qerror.fail ~site:"Controller.simulate_op"
        ~context:[ ("operands", string_of_int (List.length qubits)) ]
        (Qerror.Invalid (Printf.sprintf "gate %s got wrong operand count" (Gate.name u)))
  | Apply_rz, _ ->
      let theta = Option.value ~default:0.0 angle in
      List.iter
        (fun q ->
          State.apply state (Gate.Rz theta) [| q |];
          bump_apply session "rz")
        qubits
  | Do_measure, _ ->
      List.iter
        (fun q ->
          if fault_fires session Fault.Channel_loss then
            Qerror.fail ~transient:true ~site:"Controller.simulate_op"
              (Qerror.Channel_loss { qubit = q });
          let m = State.measure state rng q in
          session.measures <- session.measures + 1;
          session.classical.(q) <-
            (if ideal then m else Noise.flip_readout noise rng m))
        qubits
  | Do_prep, _ ->
      List.iter
        (fun q ->
          let m = State.measure state rng q in
          if m = 1 then State.apply state Gate.X [| q |];
          if (not ideal) && Rng.bernoulli rng noise.Noise.prep_error then
            State.apply state Gate.X [| q |])
        qubits
  | No_op, _ -> ()

let issue_op session (op : Eqasm.quantum_op) =
  let enabled =
    match op.Eqasm.condition with
    | None -> true
    | Some bit -> session.classical.(bit) = 1
  in
  let qubits =
    if op.Eqasm.two_qubit then
      List.concat_map (fun (a, b) -> [ a; b ]) session.pair_masks.(op.Eqasm.mask)
    else session.single_masks.(op.Eqasm.mask)
  in
  let time_ns = session.time_cycles * session.cycle_ns in
  (* Micro-code translation, then timing queues, then the ADI. *)
  if fault_fires session Fault.Microcode_lookup then
    Qerror.fail ~transient:true ~site:"Controller.issue_op"
      (Qerror.Unknown_mnemonic op.Eqasm.mnemonic);
  let mops =
    Microcode.translate session.technology.microcode ~time_ns ~mnemonic:op.Eqasm.mnemonic
      ~angle:op.Eqasm.angle ~qubits
  in
  List.iter
    (fun (mop : Microcode.micro_op) ->
      Timing_queue.push_pool session.pool mop;
      if fault_fires session Fault.Queue_overflow then
        Qerror.fail ~transient:true ~site:"Controller.issue_op"
          (Qerror.Queue_overflow
             {
               channel = mop.Microcode.qubit;
               depth =
                 Timing_queue.pending (Timing_queue.queue session.pool mop.Microcode.qubit);
             });
      session.micro_ops <- session.micro_ops + 1;
      if Trace.enabled () then Trace.add_counter "microarch.micro_op" 1;
      if mop.Microcode.codeword.Microcode.software_phase <> 0.0 then begin
        session.phase_updates <- session.phase_updates + 1;
        if Trace.enabled () then Trace.add_counter "microarch.phase_update" 1
      end
      else begin
        if Trace.enabled () then Trace.add_counter "microarch.pulse" 1;
        let duration = pulse_duration session mop.Microcode.codeword.Microcode.pulse_name in
        session.end_ns <- max session.end_ns (time_ns + duration);
        session.trace <-
          {
            time_ns;
            qubit = mop.Microcode.qubit;
            opcode = mop.Microcode.codeword.Microcode.opcode;
            pulse_name = mop.Microcode.codeword.Microcode.pulse_name;
            duration_ns = duration;
          }
          :: session.trace
      end)
    mops;
  (* Drive the quantum chip. Two-qubit ops act on pairs from the t-mask.
     Conditional ops check the measurement-result register file first. *)
  if enabled then
    if op.Eqasm.two_qubit then
      List.iter
        (fun (a, b) -> simulate_op session op.Eqasm.mnemonic op.Eqasm.angle [ a; b ])
        session.pair_masks.(op.Eqasm.mask)
    else simulate_op session op.Eqasm.mnemonic op.Eqasm.angle session.single_masks.(op.Eqasm.mask)

let advance session cycles =
  session.time_cycles <- session.time_cycles + cycles;
  (* The queues fire everything due on the new timing grid position. *)
  ignore
    (Timing_queue.drain_pool_until session.pool (session.time_cycles * session.cycle_ns))

let step session instr =
  match instr with
  | Eqasm.Smis (r, qs) -> session.single_masks.(r) <- qs
  | Eqasm.Smit (r, ps) -> session.pair_masks.(r) <- ps
  | Eqasm.Qwait cycles -> advance session cycles
  | Eqasm.Bundle (pre_interval, ops) ->
      advance session pre_interval;
      session.bundles <- session.bundles + 1;
      if Trace.enabled () then Trace.add_counter "microarch.bundle" 1;
      List.iter (issue_op session) ops

let finish session =
  let total_pushed, peak, violations = Timing_queue.pool_stats session.pool in
  ignore total_pushed;
  {
    outcome = { Qca_qx.Sim.state = session.state; classical = session.classical };
    trace = List.rev session.trace;
    stats =
      {
        total_ns = max session.end_ns (session.time_cycles * session.cycle_ns);
        bundles_issued = session.bundles;
        micro_ops = session.micro_ops;
        peak_queue_depth = peak;
        timing_violations = violations;
        software_phase_updates = session.phase_updates;
      };
  }

let run_session ?noise ?rng ?faults technology (program : Eqasm.program) =
  Trace.with_span "microarch.session" (fun sp ->
      let session =
        start ?noise ?rng ?faults technology ~qubit_count:program.Eqasm.qubit_count
          ~cycle_ns:program.Eqasm.cycle_ns
      in
      if fault_fires session Fault.Backend_transient then
        Qerror.fail ~transient:true ~site:"Controller.run_session"
          (Qerror.Backend_transient "injected controller fault");
      List.iter (step session) program.Eqasm.instructions;
      Trace.set_sim_ns sp (max session.end_ns (session.time_cycles * session.cycle_ns));
      Trace.annotate sp (fun () ->
          let _, peak, violations = Timing_queue.pool_stats session.pool in
          [
            ("bundles", Trace.Int session.bundles);
            ("micro_ops", Trace.Int session.micro_ops);
            ("phase_updates", Trace.Int session.phase_updates);
            ("peak_queue", Trace.Int peak);
            ("timing_violations", Trace.Int violations);
          ]);
      session)

let collect session (program : Eqasm.program) =
  let result = finish session in
  {
    result with
    stats =
      {
        result.stats with
        total_ns =
          max result.stats.total_ns
            (program.Eqasm.makespan_cycles * program.Eqasm.cycle_ns);
      };
  }

let run ?noise ?rng ?faults technology program =
  collect (run_session ?noise ?rng ?faults technology program) program

type shots_result = {
  histogram : (string * int) list;
  last : result;
  report : Engine.run_report;
}

let run_shots ?noise ?seed ?rng ?(shots = 1024) ?faults
    ?(policy = Resilience.default_policy) technology (program : Eqasm.program) =
  if shots < 1 then invalid_arg "Controller.run_shots: shots must be positive";
  Trace.with_span "microarch.run_shots" (fun shots_sp ->
  Trace.annotate shots_sp (fun () ->
      [
        ("technology", Trace.String technology.tech_name);
        ("shots", Trace.Int shots);
        ("qubits", Trace.Int program.Eqasm.qubit_count);
      ]);
  let rng =
    match rng, seed with
    | Some r, _ -> r
    | None, Some s -> Rng.create s
    | None, None -> shared_rng
  in
  let t0 = Sys.time () in
  let counts = Hashtbl.create 64 in
  let applies = Hashtbl.create 16 in
  let measures = ref 0 in
  let last = ref None in
  let counters = Resilience.fresh_counters () in
  let last_fault = ref None in
  for _ = 1 to shots do
    (* A shot aborted by an injected transient fault is re-attempted per the
       retry policy; a shot that exhausts its retries is counted as faulted
       and excluded from the histogram. Permanent errors propagate. *)
    let attempt () = run_session ?noise ~rng ?faults technology program in
    match
      match faults with
      | None -> Ok (attempt ())
      | Some _ -> Resilience.with_retries policy counters attempt
    with
    | Error e ->
        last_fault := Some e;
        counters.Resilience.faulted_shots <- counters.Resilience.faulted_shots + 1
    | Ok session ->
        Hashtbl.iter
          (fun name c ->
            Hashtbl.replace applies name
              (c + Option.value ~default:0 (Hashtbl.find_opt applies name)))
          session.applies;
        measures := !measures + session.measures;
        let result = collect session program in
        last := Some result;
        let key = Engine.bitstring result.outcome.Qca_qx.Sim.classical in
        Hashtbl.replace counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  let t1 = Sys.time () in
  let histogram =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let gate_applies =
    Hashtbl.fold (fun name count acc -> (name, count) :: acc) applies []
    |> List.sort (fun (na, a) (nb, b) ->
           match compare b a with 0 -> compare na nb | c -> c)
  in
  let resilience =
    match faults with
    | None -> Engine.no_resilience
    | Some f ->
        {
          Engine.faults_injected = Fault.counts f;
          retries = counters.Resilience.retries;
          faulted_shots = counters.Resilience.faulted_shots;
          backoff_ns = counters.Resilience.backoff_total_ns;
          degraded = None;
        }
  in
  let report =
    {
      Engine.plan = Engine.Trajectory;
      plan_reason = "cycle-accurate micro-architecture (per-shot execution)";
      shots;
      seed;
      qubit_count = program.Eqasm.qubit_count;
      instruction_count = List.length program.Eqasm.instructions;
      gate_applies;
      measurements = !measures;
      wall = { Engine.analyse_s = 0.0; simulate_s = t1 -. t0; sample_s = 0.0 };
      resilience;
      fusion = Engine.no_fusion;
      cache = Engine.no_cache;
    }
  in
  (match faults with
  | None -> ()
  | Some _ ->
      Trace.annotate shots_sp (fun () ->
          [
            ("faulted_shots", Trace.Int counters.Resilience.faulted_shots);
            ("retries", Trace.Int counters.Resilience.retries);
          ]));
  match !last with
  | Some last -> { histogram; last; report }
  | None ->
      (* Every shot faulted: nothing to report, so surface the final fault
         as a permanent error (the caller's degradation ladder takes over). *)
      let e =
        match !last_fault with
        | Some e -> e
        | None -> Qerror.make ~site:"Controller.run_shots" (Qerror.Backend_transient "no shots")
      in
      raise (Qerror.Error { e with Qerror.transient = false }))

let backend ?(platform = Qca_compiler.Platform.superconducting_17)
    ?(technology = superconducting) ?faults ?policy () =
  (module struct
    let name = "microarch-" ^ technology.tech_name

    let run ?shots ?seed circuit =
      let compiled =
        Qca_compiler.Compiler.compile platform Qca_compiler.Compiler.Real circuit
      in
      match compiled.Qca_compiler.Compiler.eqasm with
      | None ->
          Qerror.fail ~site:"Controller.backend"
            (Qerror.Invalid "compiler produced no eQASM")
      | Some program ->
          let r =
            run_shots ~noise:platform.Qca_compiler.Platform.noise ?seed ?shots ?faults
              ?policy technology program
          in
          { Engine.histogram = r.histogram; report = r.report }
  end : Qca_qx.Backend.S)

module Backend = (val backend ())

let trace_to_string (result : result) =
  let buffer = Buffer.create 512 in
  Buffer.add_string buffer "  time_ns  q   opcode  pulse      dur_ns\n";
  List.iter
    (fun e ->
      Buffer.add_string buffer
        (Printf.sprintf "%9d  %-3d 0x%02x    %-10s %6d\n" e.time_ns e.qubit e.opcode
           e.pulse_name e.duration_ns))
    result.trace;
  Buffer.contents buffer
