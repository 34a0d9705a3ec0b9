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
module Clock = Qca_util.Clock

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

(* What every shot of one program shares: the engine's per-op step with the
   noise model's channels worked out once, and the active-qubit relabel.
   The quantum chip holds only the active qubits: program qubit
   [active.(i)] is state qubit [i], and [slots] maps the other way (-1 for
   a qubit no mask names). *)
type chip = {
  step : fired:int array -> State.t -> int array -> Rng.t -> Engine.micro_op -> unit;
  active : int array;
  slots : int array;
}

let chip ?(noise = Noise.ideal) ~qubit_count active =
  let slots = Array.make qubit_count (-1) in
  Array.iteri (fun i q -> slots.(q) <- i) active;
  { step = Engine.micro_step noise; active; slots }

(* A qubit is active when an SMIS or SMIT mask names it: only masked
   qubits are ever operated on. *)
let active_qubits ~qubit_count instructions =
  let used = Array.make qubit_count false in
  List.iter
    (function
      | Eqasm.Smis (_, qs) -> List.iter (fun q -> used.(q) <- true) qs
      | Eqasm.Smit (_, ps) ->
          List.iter
            (fun (a, b) ->
              used.(a) <- true;
              used.(b) <- true)
            ps
      | Eqasm.Qwait _ | Eqasm.Bundle _ -> ())
    instructions;
  Qca_circuit.Circuit.active_of_used used

type session = {
  technology : technology;
  chip : chip;
  rng : Rng.t;
  faults : Fault.t option;
  cycle_ns : int;
  state : State.t;
  classical : int array;
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

let start_on chip ?rng ?faults technology ~qubit_count ~cycle_ns =
  let rng = match rng with Some r -> r | None -> shared_rng in
  {
    technology;
    chip;
    rng;
    faults;
    cycle_ns;
    state = State.create (Array.length chip.active);
    classical = Array.make qubit_count (-1);
    single_masks = Array.make Eqasm.register_limit [];
    pair_masks = Array.make Eqasm.register_limit [];
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

let start ?noise ?rng ?faults ~active technology ~qubit_count ~cycle_ns =
  start_on (chip ?noise ~qubit_count active) ?rng ?faults technology ~qubit_count ~cycle_ns

let classical_bit session q = session.classical.(q)

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

let add table key c =
  Hashtbl.replace table key (c + Option.value ~default:0 (Hashtbl.find_opt table key))

(* The fixed gates an eQASM mnemonic can name, by [Gate.name]. *)
let fixed_gates =
  Gate.[ X90; Xm90; Y90; Ym90; Cz; X; Y; Z; H; S; Sdag; T; Tdag; Cnot; Swap ]

(* What the chip runs for one eQASM op: an engine micro-op, or rz's
   virtual-Z frame update on a state qubit. The controller applies the
   frame update itself, so no gate noise follows it. *)
type chip_op = Step of Engine.micro_op | Virtual_z of int * Gate.unitary

(* Lower one eQASM op on program [qubits] to chip ops on the chip's state
   qubits; measurements still land in the classical bit of their program
   qubit. A one-qubit gate acts on each qubit, a two-qubit gate on exactly
   two. *)
let lower session (op : Eqasm.quantum_op) qubits =
  let slot q =
    let i = session.chip.slots.(q) in
    if i < 0 then
      Qerror.fail ~site:"Controller.issue_op"
        ~context:[ ("qubit", string_of_int q) ]
        (Qerror.Invalid "operation on a qubit outside the session's active set");
    i
  in
  let each f = List.map (fun q -> f (slot q) q) qubits in
  let gate u ops = Step (Engine.M_gate (u, ops)) in
  match op.Eqasm.mnemonic with
  | "i" -> []
  | "rz" ->
      let rz = Gate.Rz (Option.value ~default:0.0 op.Eqasm.angle) in
      each (fun s _ -> Virtual_z (s, rz))
  | "measz" -> each (fun s q -> Step (Engine.M_measure (s, q)))
  | "prepz" -> each (fun s _ -> Step (Engine.M_prep s))
  | mnemonic -> (
      match List.find_opt (fun u -> Gate.name u = mnemonic) fixed_gates, qubits with
      | None, _ -> Qerror.fail ~site:"Controller.issue_op" (Qerror.Unknown_mnemonic mnemonic)
      | Some u, _ when Gate.arity u = 1 -> each (fun s _ -> gate u [| s |])
      | Some u, [ q1; q2 ] -> [ gate u [| slot q1; slot q2 |] ]
      | Some u, _ ->
          Qerror.fail ~site:"Controller.issue_op"
            ~context:[ ("operands", string_of_int (List.length qubits)) ]
            (Qerror.Invalid (Printf.sprintf "gate %s got wrong operand count" (Gate.name u))))

(* Run one chip op. A measurement first passes the channel-loss fault
   check. The controller evaluates conditions itself, so no conditional
   slot ever fires. *)
let run_op session = function
  | Virtual_z (s, rz) ->
      add session.applies "rz" 1;
      State.apply session.state rz [| s |]
  | Step mop ->
      (match mop with
      | Engine.M_gate (u, _) -> add session.applies (Gate.name u) 1
      | Engine.M_measure (_, q) ->
          if fault_fires session Fault.Channel_loss then
            Qerror.fail ~transient:true ~site:"Controller.issue_op"
              (Qerror.Channel_loss { qubit = q });
          session.measures <- session.measures + 1
      | Engine.M_cond _ | Engine.M_prep _ -> ());
      session.chip.step ~fired:[||] session.state session.classical session.rng mop

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
      if mop.Microcode.codeword.Microcode.software_phase <> 0.0 then
        session.phase_updates <- session.phase_updates + 1
      else begin
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
    let groups =
      if op.Eqasm.two_qubit then
        List.map (fun (a, b) -> [ a; b ]) session.pair_masks.(op.Eqasm.mask)
      else [ session.single_masks.(op.Eqasm.mask) ]
    in
    List.iter (fun qubits -> List.iter (run_op session) (lower session op qubits)) groups

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
      List.iter (issue_op session) ops

(* The [microarch.*] trace counters, added in bulk from the session's own
   counters once it ends or aborts, as [Engine.trace_counters] does for a
   run: every micro-op that is not a software phase update is a pulse. *)
let trace_counters session =
  if Trace.enabled () then
    List.iter
      (fun (name, c) -> if c > 0 then Trace.add_counter name c)
      [
        ("microarch.bundle", session.bundles);
        ("microarch.micro_op", session.micro_ops);
        ("microarch.phase_update", session.phase_updates);
        ("microarch.pulse", session.micro_ops - session.phase_updates);
      ]

let finish_session session state =
  let _, peak, violations = Timing_queue.pool_stats session.pool in
  {
    outcome = { Qca_qx.Sim.state; classical = session.classical };
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

(* Indexes the state by program qubits: one exact scatter of the active
   qubits' amplitudes when some qubit was idle. *)
let finish session =
  trace_counters session;
  let qubit_count = Array.length session.classical in
  finish_session session
    (if State.qubit_count session.state = qubit_count then session.state
     else State.widen session.state ~qubit_count session.chip.active)

let program_chip ?noise (program : Eqasm.program) =
  let qubit_count = program.Eqasm.qubit_count in
  chip ?noise ~qubit_count (active_qubits ~qubit_count program.Eqasm.instructions)

let run_session chip ?rng ?faults technology (program : Eqasm.program) =
  Trace.with_span "microarch.session" (fun sp ->
      let session =
        start_on chip ?rng ?faults technology ~qubit_count:program.Eqasm.qubit_count
          ~cycle_ns:program.Eqasm.cycle_ns
      in
      if fault_fires session Fault.Backend_transient then
        Qerror.fail ~transient:true ~site:"Controller.run_session"
          (Qerror.Backend_transient "injected controller fault");
      Fun.protect
        ~finally:(fun () -> trace_counters session)
        (fun () -> List.iter (step session) program.Eqasm.instructions);
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

(* [run_shots]' last shot: its state stays over the active qubits, and its
   schedule lasts at least the program's makespan. *)
let collect session (program : Eqasm.program) =
  let result = finish_session session session.state in
  let makespan_ns = program.Eqasm.makespan_cycles * program.Eqasm.cycle_ns in
  { result with stats = { result.stats with total_ns = max result.stats.total_ns makespan_ns } }

type shots_result = {
  histogram : (string * int) list;
  last : result;
  report : Engine.run_report;
}

let run_shots ?noise ?seed ?rng ?(shots = 1024) ?faults
    ?(policy = Resilience.default_policy) technology (program : Eqasm.program) =
  if shots < 1 then invalid_arg "Controller.run_shots: shots must be positive";
  Trace.with_span "microarch.run_shots" (fun shots_sp ->
  let chip = program_chip ?noise program in
  Trace.annotate shots_sp (fun () ->
      [
        ("technology", Trace.String technology.tech_name);
        ("shots", Trace.Int shots);
        ("qubits", Trace.Int program.Eqasm.qubit_count);
        ("active_qubits", Trace.Int (Array.length chip.active));
      ]);
  let rng =
    match rng, seed with
    | Some r, _ -> r
    | None, Some s -> Rng.create s
    | None, None -> shared_rng
  in
  let t0 = Clock.now () in
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
    let attempt () = run_session chip ~rng ?faults technology program in
    match
      match faults with
      | None -> Ok (attempt ())
      | Some _ -> Resilience.with_retries policy counters attempt
    with
    | Error e ->
        last_fault := Some e;
        counters.Resilience.faulted_shots <- counters.Resilience.faulted_shots + 1
    | Ok session ->
        Hashtbl.iter (add applies) session.applies;
        measures := !measures + session.measures;
        last := Some session;
        add counts (Engine.bitstring session.classical) 1
  done;
  let t1 = Clock.now () in
  let histogram =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let gate_applies = Engine.sorted_applies (List.of_seq (Hashtbl.to_seq applies)) in
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
      resilience = Engine.resilience_of faults counters;
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
  | Some last -> { histogram; last = collect last program; report }
  | None ->
      (* Every shot faulted: nothing to report, so surface the final fault
         as a permanent error (the caller's degradation ladder takes over). *)
      let e =
        match !last_fault with
        | Some e -> e
        | None -> Qerror.make ~site:"Controller.run_shots" (Qerror.Backend_transient "no shots")
      in
      raise (Qerror.Error { e with Qerror.transient = false }))

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
