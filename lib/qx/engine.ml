module Circuit = Qca_circuit.Circuit
module Gate = Qca_circuit.Gate
module Rng = Qca_util.Rng
module Qerror = Qca_util.Error
module Fault = Qca_util.Fault
module Resilience = Qca_util.Resilience
module Trace = Qca_util.Trace
module Clock = Qca_util.Clock
module Parallel = Qca_util.Parallel
module Tableau = Qca_qec.Tableau
module Pauli = Qca_qec.Pauli

type plan = Sampled | Trajectory | Clifford

let plan_to_string = function
  | Sampled -> "sampled"
  | Trajectory -> "trajectory"
  | Clifford -> "clifford"

type phase_times = { analyse_s : float; simulate_s : float; sample_s : float }

type resilience = {
  faults_injected : (string * int) list;
  retries : int;
  faulted_shots : int;
  backoff_ns : int;
  degraded : string option;
}

let no_resilience =
  { faults_injected = []; retries = 0; faulted_shots = 0; backoff_ns = 0; degraded = None }

let resilience_of faults (counters : Resilience.counters) =
  match faults with
  | None -> no_resilience
  | Some f ->
      {
        faults_injected = Fault.counts f;
        retries = counters.retries;
        faulted_shots = counters.faulted_shots;
        backoff_ns = counters.backoff_total_ns;
        degraded = None;
      }

type cache_stats = { cache_hits : int; cache_shared : int }

let no_cache = { cache_hits = 0; cache_shared = 0 }

type run_report = {
  plan : plan;
  plan_reason : string;
  shots : int;
  seed : int option;
  qubit_count : int;
  instruction_count : int;
  gate_applies : (string * int) list;
  measurements : int;
  wall : phase_times;
  resilience : resilience;
  cache : cache_stats;
}

type result = { histogram : (string * int) list; report : run_report }

(* --- seed semantics ---------------------------------------------------- *)

(* One process-wide generator backs every run that passes neither [?rng] nor
   [?seed]. It is created once (seed 0x5EED) and advances across calls, so
   repeated anonymous runs see fresh randomness while a whole program run
   stays bit-for-bit reproducible. *)
let shared_rng = Rng.create 0x5EED

let default_rng () = shared_rng

let resolve_rng seed rng =
  match rng, seed with
  | Some r, _ -> r
  | None, Some s -> Rng.create s
  | None, None -> shared_rng

(* --- arrays ------------------------------------------------------------ *)

(* [Array.of_list l] fills its array with [l]'s head first, and OCaml's
   array constructor forces a minor collection when it fills an array
   longer than 256 words with a young block: a freshly built list's head
   is one. Filling with a static [filler] and then overwriting makes no
   collection. *)
let array_of_list filler l =
  let a = Array.make (List.length l) filler in
  List.iteri (fun i x -> Array.unsafe_set a i x) l;
  a

(* --- bitstrings -------------------------------------------------------- *)

let bitstring classical =
  let n = Array.length classical in
  String.init n (fun i ->
      match classical.(n - 1 - i) with
      | -1 -> '-'
      | 0 -> '0'
      | 1 -> '1'
      | _ -> assert false)

let classical_of_key key =
  let n = String.length key in
  Array.init n (fun i ->
      match key.[n - 1 - i] with
      | '-' -> -1
      | '0' -> 0
      | '1' -> 1
      | c -> invalid_arg (Printf.sprintf "Engine.classical_of_key: '%c'" c))

(* --- run-plan analysis ------------------------------------------------- *)

(* Every verdict the planner takes on a circuit, from one walk. The
   structure is [Sampled] when the measurements are terminal and
   unconditioned: a unitary prefix (leading preps on untouched qubits are
   no-ops on |0...0> and allowed), then only measure/barrier instructions;
   else [Trajectory], with the first reason. [blocker] is the first gate
   the tableau cannot simulate, with its instruction index (total
   classification, no exception probing); [pauli_feedback] is whether
   every conditional applies a Pauli (see [symbolic_tableau]). *)
type verdicts = {
  structure : plan * string;
  measured : bool array;
  blocker : (string * int) option;
  pauli_feedback : bool;
  gates : int;
  measures : int;
}

let verdicts circuit =
  let n = Circuit.qubit_count circuit in
  let touched = Array.make n false and measured = Array.make n false in
  let seen_measure = ref false and failure = ref None in
  let blocker = ref None and pauli_feedback = ref true in
  let gates = ref 0 and measures = ref 0 in
  let fail reason = if !failure = None then failure := Some reason in
  let gate index u =
    incr gates;
    if !blocker = None && not (Gate.is_clifford u) then blocker := Some (Gate.name u, index)
  in
  List.iteri
    (fun index instr ->
      match instr with
      | Gate.Unitary (u, ops) ->
          gate index u;
          if !seen_measure then fail "gate after measurement (mid-circuit measurement)"
          else Array.iter (fun q -> touched.(q) <- true) ops
      | Gate.Conditional (_, u, _) ->
          gate index u;
          if not (Tableau.is_pauli u) then pauli_feedback := false;
          fail "conditional (feedback) gate"
      | Gate.Prep q ->
          incr measures;
          if !seen_measure then fail "prep after measurement (mid-circuit reset)"
          else if touched.(q) then fail "mid-circuit prep (reset of a live qubit)"
      | Gate.Measure q ->
          incr measures;
          seen_measure := true;
          measured.(q) <- true
      | Gate.Barrier _ -> ())
    (Circuit.instructions circuit);
  {
    structure =
      (match !failure with
      | Some reason -> (Trajectory, reason)
      | None -> (Sampled, "terminal unconditioned measurements"));
    measured;
    blocker = !blocker;
    pauli_feedback = !pauli_feedback;
    gates = !gates;
    measures = !measures;
  }

let clifford_blocker circuit = (verdicts circuit).blocker

(* The state-vector layer refuses circuits beyond this width; the tableau
   goes to 4096 qubits, so above it the Clifford plan is the only option. *)
let sv_max_qubits = 30

(* Cost model for all-Clifford circuits that would otherwise take the
   single-pass sampled plan: the sampled plan pays one state-vector
   evolution (gates * 2^n amplitude sweeps) plus shots * n sampling, the
   tableau pays per shot — gates * O(n) row updates plus measures * O(n^2)
   rowsum work. The constants are coarse; the decision only has to be right
   about orders of magnitude (the crossover is near n = 21 at 1024 shots). *)
let clifford_wins ~n ~gates ~measures ~shots =
  n > sv_max_qubits
  || begin
       let fn = float_of_int n in
       let dim = ldexp 1.0 n in
       let sampled = (float_of_int gates *. dim) +. (float_of_int shots *. fn) in
       let tableau =
         float_of_int shots
         *. ((2.0 *. fn *. float_of_int gates)
            +. (4.0 *. fn *. fn *. float_of_int (max 1 measures)))
       in
       tableau < sampled
     end

(* The planner's decision table (docs/engine.md) for an ideal run: an
   all-Clifford circuit goes to the tableau when its structure would force
   trajectories (mid-circuit measurement, feedback, resets — the big win:
   per-shot cost drops from O(gates * 2^n) to O(poly n)) or when the cost
   model says the state vector is more expensive (wide terminal circuits);
   otherwise the sampled/trajectory structure analysis stands. [gates] and
   [measures] feed only the cost model, so the static estimator can pass
   symbolic totals alongside a truncated probe of the program. *)
let decide ~shots ~gates ~measures ~n v =
  match (v.blocker, v.structure) with
  | Some _, structure -> structure
  | None, (Trajectory, reason) -> (Clifford, "all-Clifford gates; " ^ reason)
  | None, ((Sampled, _) as structure) ->
      if clifford_wins ~n ~gates ~measures ~shots then
        ( Clifford,
          Printf.sprintf
            "all-Clifford gates; tableau cheaper than the 2^%d-amplitude state vector" n )
      else structure
  | None, (Clifford, _) -> assert false

(* Noise forces trajectories; otherwise [decide]. *)
let choose_plan ~noisy ~shots ~gates ~measures circuit =
  if noisy then (Trajectory, "stochastic noise model")
  else decide ~shots ~gates ~measures ~n:(Circuit.qubit_count circuit) (verdicts circuit)

let analyse ?(noise = Noise.ideal) ?(shots = 1024) circuit =
  if not (Noise.is_ideal noise) then (Trajectory, "stochastic noise model")
  else
    let v = verdicts circuit in
    decide ~shots ~gates:v.gates ~measures:v.measures ~n:(Circuit.qubit_count circuit) v

let terminal_split circuit =
  let v = verdicts circuit in
  match v.structure with
  | (Trajectory | Clifford), _ -> None
  | Sampled, _ ->
      let unitary = function Gate.Unitary _ -> true | _ -> false in
      Some (List.filter unitary (Circuit.instructions circuit), v.measured)

(* --- the flat micro-program -------------------------------------------- *)

(* The compiled form every executor dispatches over: a flat array of
   micro-ops walked by one indexed loop, instead of re-walking the
   instruction list per shot. Each unitary is one gate kernel. Barriers
   are dropped at compile time and each conditional gets a tally slot, so
   the per-shot loop does no list traversal, no string construction and no
   table lookup. *)
type micro_op =
  | M_gate of Gate.unitary * int array
  | M_cond of int * Gate.unitary * int array * int  (* ..., conditional slot *)
  | M_prep of int
  | M_measure of int * int  (* state qubit, classical bit *)

(* Gate applies are counted statically: every pass over a program applies
   each [M_gate] once and measures each [M_measure] once, so the compiled
   program carries those per-pass totals and a run only counts its passes
   and, per conditional slot, how often it fired. *)
type program = {
  ops : micro_op array;
  pass_applies : (string * int) list;  (* unconditional gates per pass, by name *)
  pass_measures : int;
  cond_names : string array;  (* slot -> gate name *)
}

let compile_micro circuit =
  (* Applies per gate kind ([Gate.kind]), read back by name at the end. *)
  let applies = Array.make (Array.length Gate.kinds) 0 and measures = ref 0 in
  let conds = ref [] and slots = ref 0 in
  let ops =
    List.filter_map
      (function
        | Gate.Unitary (u, o) ->
            let k = Gate.kind u in
            applies.(k) <- applies.(k) + 1;
            Some (M_gate (u, o))
        | Gate.Conditional (bit, u, o) ->
            conds := Gate.name u :: !conds;
            incr slots;
            Some (M_cond (bit, u, o, !slots - 1))
        | Gate.Prep q -> Some (M_prep q)
        | Gate.Measure q ->
            incr measures;
            Some (M_measure (q, q))
        | Gate.Barrier _ -> None)
      (Circuit.instructions circuit)
  in
  {
    ops = array_of_list (M_prep 0) ops;
    pass_applies =
      List.filter
        (fun (_, c) -> c > 0)
        (Array.to_list (Array.mapi (fun k c -> (Gate.name Gate.kinds.(k), c)) applies));
    pass_measures = !measures;
    cond_names = Array.of_list (List.rev !conds);
  }

(* --- instrumentation --------------------------------------------------- *)

(* [clean] counts the state-vector shots that drew no error in the
   schedule prefix and so started from the shared ideal state. *)
type tally = { mutable passes : int; fired : int array; mutable clean : int }

let fresh_tally program =
  { passes = 0; fired = Array.make (Array.length program.cond_names) 0; clean = 0 }

let merge_tally ~into src =
  into.passes <- into.passes + src.passes;
  into.clean <- into.clean + src.clean;
  Array.iteri (fun slot c -> into.fired.(slot) <- into.fired.(slot) + c) src.fired

(* Applies summed by gate name, zeros dropped, by decreasing count, then
   name. *)
let sorted_applies l =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, c) ->
      if c > 0 then
        Hashtbl.replace table name (c + Option.value ~default:0 (Hashtbl.find_opt table name)))
    l;
  Hashtbl.fold (fun name count acc -> (name, count) :: acc) table []
  |> List.sort (fun (na, a) (nb, b) ->
         match compare b a with 0 -> compare na nb | c -> c)

let gate_applies_of program tally =
  sorted_applies
    (List.map (fun (name, c) -> (name, c * tally.passes)) program.pass_applies
    @ Array.to_list (Array.mapi (fun slot name -> (name, tally.fired.(slot))) program.cond_names))

(* The [qx.apply.*] and [qx.measure] trace counters, added in bulk once the
   shots have run: the totals are the report's own. *)
let trace_counters ~gate_applies ~measurements =
  if Trace.enabled () then begin
    List.iter (fun (name, c) -> Trace.add_counter ("qx.apply." ^ name) c) gate_applies;
    if measurements > 0 then Trace.add_counter "qx.measure" measurements
  end

(* --- the per-shot interpreter ------------------------------------------ *)

(* One micro-op of one state-vector shot, the only code that steps a state
   (trajectory plan, [Sim.run], [fold_trajectories] and the controller's
   quantum chip). Under a stochastic [noise] model a gate draws its gate
   errors, a prep its prep error and a measurement its readout flip.
   [fired] counts each
   conditional slot's firings. The model's channels are worked out once,
   when [micro_step] is applied to it. *)
let micro_step noise =
  let ideal = Noise.is_ideal noise in
  let gate_noise = Noise.gate_noise noise in
  fun ~fired state classical rng op ->
    match op with
    | M_gate (u, o) ->
        State.apply state u o;
        if not ideal then Noise.after_gate gate_noise state rng u o
    | M_cond (bit, u, o, slot) ->
        if classical.(bit) = 1 then begin
          State.apply state u o;
          fired.(slot) <- fired.(slot) + 1;
          if not ideal then Noise.after_gate gate_noise state rng u o
        end
    | M_prep q ->
        let current = State.measure state rng q in
        if current = 1 then State.apply state Gate.X [| q |];
        if (not ideal) && Rng.bernoulli rng noise.Noise.prep_error then
          State.apply state Gate.X [| q |]
    | M_measure (q, bit) ->
        let outcome = State.measure state rng q in
        classical.(bit) <- (if ideal then outcome else Noise.flip_readout noise rng outcome)

(* --- the noise schedule -------------------------------------------------- *)

(* The per-shot executor draws each shot's errors ahead of its state. The
   schedule prefix is the longest run of leading ops whose draws do not
   read the state (Noise.draws): it ends at the first measurement or
   conditional, at a prep of a qubit a gate or an earlier prep has touched
   (its outcome is no longer a certain 0), and at once under a T1/T2 model
   (its damping draws read the state). The prefix's ideal evolution is
   computed once per run; a shot whose schedule is empty starts from a copy
   of it, and a shot with errors carries them forward as a Pauli frame and
   starts its state where the frame stops. Either way the shot's state is
   that of stepping the prefix op by op, up to a sign, and its generator's
   position is the same, so histograms are seed-identical. *)

let schedule_sites noise program n =
  if not (Noise.pauli_only noise) then [||]
  else begin
    let touched = Array.make n false in
    let ops = program.ops in
    let rec go i acc =
      if i >= Array.length ops then acc
      else
        match ops.(i) with
        | M_gate (u, o) ->
            Array.iter (fun q -> touched.(q) <- true) o;
            go (i + 1) (Noise.Gate_site (u, o) :: acc)
        | M_prep q when not touched.(q) ->
            touched.(q) <- true;
            go (i + 1) (Noise.Prep_site q :: acc)
        | M_prep _ | M_measure _ | M_cond _ -> acc
    in
    array_of_list (Noise.Prep_site 0) (List.rev (go 0 []))
  end

(* A prefix op without its draws: a prep of an untouched qubit measures 0,
   so it is the collapse onto 0. *)
let apply_drawn state = function
  | M_gate (u, o) -> State.apply state u o
  | M_prep q -> State.collapse state q 0
  | M_measure _ | M_cond _ -> assert false

(* Ideal checkpoints, the prefix's final state included: at most this many,
   in at most this much memory per run (from 15 qubits up only the final
   state is kept). A shot whose frame stops uniformly in a prefix of [l]
   ops steps [l/(2k)] ideal ops from the nearest of [k] checkpoints before
   the stop, so past a few more checkpoints only add garbage. On the
   noisy-trajectory benchmark a 1 MiB budget cost peak memory and
   throughput: its 14-qubit jobs have about one shot with an error in 24,
   and the extra states took longer to copy and collect than they saved. *)
let max_checkpoints = 16
let checkpoint_bytes = 1 lsl 19

type prefix = {
  length : int;  (* ops in the prefix *)
  draws : Noise.draws;
  spacing : int;  (* ops between checkpoints *)
  states : State.t array;
      (* [j]: the ideal state before op [(j + 1) * spacing], the last one
         after the whole prefix; none when the prefix is empty *)
}

let ideal_prefix noise program n =
  let sites = schedule_sites noise program n in
  let length = Array.length sites in
  (* An ideal shot draws no error, so it only ever starts from the final
     state. *)
  let budget =
    if Noise.is_ideal noise then 1
    else max 1 (min max_checkpoints (checkpoint_bytes / State.memory_bytes n))
  in
  let spacing = max 1 ((length + budget - 1) / budget) in
  let states = ref [] in
  if length > 0 then begin
    let state = State.create n in
    for i = 0 to length - 1 do
      apply_drawn state program.ops.(i);
      if i + 1 = length then states := state :: !states
      else if (i + 1) mod spacing = 0 then states := State.copy state :: !states
    done
  end;
  { length; draws = Noise.draws noise sites; spacing; states = Array.of_list (List.rev !states) }

(* Set [state] to the shot's state after the prefix, from its schedule.
   The events fold into one Pauli frame (the frame of Gidney's Stim,
   arXiv:2103.02202) from the first one's site on, merging after their
   site's op, and [Pauli.conjugate]'s rule table moves the frame through
   the ops after them until one stops it (a prep always does: its
   normalisation sums the amplitudes in index order) or the prefix ends.
   Every kernel the table lets a frame through commutes with it exactly,
   in floating point: the state kernels are swaps, negations and products
   whose rounding is symmetric under negation, so stepping a gate on the
   erred state gives, bit for bit up to the sign of exact zeros, the
   frame's image of the gate's ideal output. The state starts there: the
   ideal state at the stop, from the checkpoint at or before it, with the
   frame applied; the ops from the stop on then run with the remaining
   events, as an op-by-op shot would.

   The frame has no phase, but the state must match an op-by-op shot's up
   to a sign, not up to a factor i: a factor i would exchange the real and
   imaginary parts, and a later measurement adds r^2 and m^2 in the other
   order. Conjugation by a Clifford maps a Hermitian Pauli to plus or
   minus one, and merging a Hermitian error into the frame multiplies it
   by a real factor when the two commute and an imaginary one when they
   anticommute; the frame's Hermitian form on the masks is i^|x & z|
   X^x Z^z. So the shot's state is the ideal one times X^x Z^z and i to the
   number of anticommuting merges plus |x & z|, up to a sign. *)
let prefix_state program p tally events state =
  let stored = Array.length p.states in
  let nevents = Array.length events in
  if stored = 0 then State.reset state
  else if nevents = 0 then begin
    tally.clean <- tally.clean + 1;
    State.blit ~src:p.states.(stored - 1) ~dst:state
  end
  else begin
    let length = p.length and ops = program.ops in
    let f = ref Pauli.identity and anti = ref 0 and next = ref 0 in
    let i = ref events.(0).Noise.site and stop = ref (-1) in
    while !stop < 0 do
      while !next < nevents && events.(!next).Noise.site = !i do
        let { Noise.qubit; pauli; _ } = events.(!next) in
        let e =
          Pauli.single qubit
            (match pauli with Gate.X -> 'X' | Gate.Y -> 'Y' | Gate.Z -> 'Z' | _ -> assert false)
        in
        if not (Pauli.commutes e !f) then anti := !anti lxor 1;
        f := Pauli.mul !f e;
        incr next
      done;
      incr i;
      if !i >= length then stop := length
      else
        match ops.(!i) with
        | M_gate (u, o) -> (
            match Pauli.conjugate u o !f with Some g -> f := g | None -> stop := !i)
        | M_prep _ -> stop := !i
        | M_measure _ | M_cond _ -> assert false
    done;
    let stop = !stop in
    if stop = length then State.blit ~src:p.states.(stored - 1) ~dst:state
    else begin
      let j = stop / p.spacing in
      if j = 0 then State.reset state else State.blit ~src:p.states.(j - 1) ~dst:state;
      for k = j * p.spacing to stop - 1 do
        apply_drawn state ops.(k)
      done
    end;
    let { Pauli.x; z } = !f in
    State.apply_pauli state ~x ~z
      ~imag:((!anti + Qca_util.Bits.popcount (x land z)) land 1 = 1);
    for k = stop to length - 1 do
      apply_drawn state ops.(k);
      while !next < nevents && events.(!next).Noise.site = k do
        let e = events.(!next) in
        State.apply state e.Noise.pauli [| e.Noise.qubit |];
        incr next
      done
    done
  end

(* What follows the prefix, with each run of consecutive measurements
   gathered into one [State.measure_run]. *)
type tail_step = Step of micro_op | Measure_run of int array * int array  (* qubits, bits *)

let tail_steps program ~from =
  let ops = program.ops in
  let is_measure i =
    i < Array.length ops && match ops.(i) with M_measure _ -> true | _ -> false
  in
  let rec go i acc =
    if i >= Array.length ops then List.rev acc
    else if is_measure i then begin
      let j = ref i in
      while is_measure !j do
        incr j
      done;
      let field f =
        Array.map (function M_measure (q, bit) -> f q bit | _ -> assert false)
          (Array.sub ops i (!j - i))
      in
      go !j (Measure_run (field (fun q _ -> q), field (fun _ bit -> bit)) :: acc)
    end
    else go (i + 1) (Step ops.(i) :: acc)
  in
  array_of_list (Step (M_prep 0)) (go from [])

(* The state-vector per-shot executor (trajectory plan, [Sim.run],
   [fold_trajectories]), worked out once per run by [shot_plan]: the
   ideal prefix is evaluated there, once; each
   shot draws its schedule, starts from the prefix state, and steps the
   rest of the program through [micro_step], so randomness is drawn in
   program order. A shot runs in a
   caller-owned [state], overwritten from the start, so a caller that
   drops each final state reuses one buffer for all its shots. The tally
   counts the pass and the conditionals that fired; the program's static
   totals supply the rest. *)
type shot_plan = {
  prefix : prefix;
  tail : tail_step array;
  readout : Rng.t -> int -> int;
  from_events : tally:tally -> State.t -> Rng.t -> Noise.event array -> int array;
      (* the shot after its schedule drew [events] *)
}

let shot_plan ~noise program n =
  let step = micro_step noise in
  let p = ideal_prefix noise program n in
  let tail = tail_steps program ~from:p.length in
  let readout =
    if Noise.is_ideal noise then fun _ outcome -> outcome else Noise.flip_readout noise
  in
  let from_events ~tally state rng events =
    prefix_state program p tally events state;
    let classical = Array.make n (-1) in
    for i = 0 to Array.length tail - 1 do
      match Array.unsafe_get tail i with
      | Step op -> step ~fired:tally.fired state classical rng op
      | Measure_run (qubits, bits) ->
          State.measure_run state rng qubits (fun k outcome ->
              classical.(bits.(k)) <- readout rng outcome)
    done;
    tally.passes <- tally.passes + 1;
    classical
  in
  { prefix = p; tail; readout; from_events }

let micro_executor ~noise program n =
  let plan = shot_plan ~noise program n in
  fun ~tally state rng ->
  plan.from_events ~tally state rng (Noise.shot_events plan.prefix.draws rng)

(* The trajectory plan's per-chunk executor factory; a shot returns its
   histogram key. When the whole tail is one measurement run (a terminal
   [measure_all]), a clean shot's state would be a copy of the ideal final
   state, measured by [State.measure_run]: it walks a
   [State.outcome_tree] over that state instead, which draws and decides
   exactly as the copy would, and copies nothing. Each chunk builds its
   own tree, as it does its scratch state, so domains share nothing
   mutable; the scratch state is only made once a chunk meets a shot with
   errors. *)
let trajectory_executor plan n =
  let draws = plan.prefix.draws and stored = Array.length plan.prefix.states in
  match plan.tail with
  | [| Measure_run (qubits, bits) |] when stored > 0 ->
      let ideal = plan.prefix.states.(stored - 1) in
      fun () ->
        let state = lazy (State.create n) and tree = State.outcome_tree ideal qubits in
        fun tally rng ->
          let events = Noise.shot_events draws rng in
          if Array.length events > 0 then
            bitstring (plan.from_events ~tally (Lazy.force state) rng events)
          else begin
            tally.clean <- tally.clean + 1;
            let classical = Array.make n (-1) in
            State.measure_tree tree rng (fun k outcome ->
                classical.(bits.(k)) <- plan.readout rng outcome);
            tally.passes <- tally.passes + 1;
            bitstring classical
          end
  | _ ->
      fun () ->
        let state = State.create n in
        fun tally rng ->
          bitstring (plan.from_events ~tally state rng (Noise.shot_events draws rng))

(* One shot in a state of its own: for callers that keep the final state. *)
let fresh_shot exec n ~tally rng =
  let state = State.create n in
  let classical = exec ~tally state rng in
  (state, classical)

let exec_shot ?(noise = Noise.ideal) rng circuit =
  let program = compile_micro circuit in
  let n = Circuit.qubit_count circuit in
  fresh_shot (micro_executor ~noise program n) n ~tally:(fresh_tally program) rng

(* --- the Clifford plan ----------------------------------------------------- *)

(* Seeding discipline, shared by both Clifford executors below: one uniform
   draw per measurement and per prep, in program order, and a random
   outcome is 1 iff its draw is below 1/2. [State.measure] draws once per
   measurement and returns 1 iff the draw is below P(1), which is exactly
   1/2 for a random stabilizer measurement, so the tableau reproduces the
   state-vector executor's outcomes: seed-identical histograms across the
   two plans. Deterministic outcomes consume their draw without using it,
   as [State.measure] also always draws. ([Rng.below_half] is that
   comparison without the float.) *)
let[@inline] coin rng = if Rng.below_half rng then 1 else 0

(* The per-shot executor: the micro-program dispatched onto a reused
   tableau ([Tableau.reset] per shot, no allocation). *)
let measure_tableau rng tab q = Tableau.measure_with tab q ~random_outcome:(coin rng)

let exec_micro_tableau ~tally rng tab program =
  let ops = program.ops in
  Tableau.reset tab;
  let classical = Array.make (Tableau.qubit_count tab) (-1) in
  for i = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops i with
    | M_gate (u, o) -> Tableau.apply_gate tab u o
    | M_cond (bit, u, o, slot) ->
        if classical.(bit) = 1 then begin
          Tableau.apply_gate tab u o;
          tally.fired.(slot) <- tally.fired.(slot) + 1
        end
    | M_prep q -> if measure_tableau rng tab q = 1 then Tableau.x tab q
    | M_measure (q, bit) -> classical.(bit) <- measure_tableau rng tab q
  done;
  tally.passes <- tally.passes + 1;
  classical

(* The symbolic executor. No x/z bit of a tableau row depends on a
   measurement outcome (Tableau's "symbolic signs"), so one pass over the
   program with every random outcome left as a variable gives each
   classical bit as an affine form over the run's coins; a shot then only
   draws its coins and evaluates forms. A shot's coin v is the draw the
   per-shot executor takes at variable v's site: the sampler skips the
   draws of the deterministic sites before it in O(1) ([Rng.skip]) and
   stops after the last random site, as the shot's stream is its own. So
   both executors give the same classical bits and the same conditional
   firings, shot for shot.

   The rule, in one place: the symbolic pass needs every outcome-dependent
   operation to be a Pauli, which XORs a form into signs. A conditional H,
   S, CNOT, ... makes the rows, and so which later measurements are random,
   depend on earlier outcomes: such a program runs the tableau per shot. *)
let symbolic_tableau circuit = (verdicts circuit).pauli_feedback

(* The pass's cost bound. Every row operation of the pass also moves the
   row's form, one word per 62 variables, so the pass grows with the
   square of the random outcomes while the per-shot executor grows with
   their count times the shots. Timed on repeated H+measure programs of 1
   to 32 qubits and 640 to 8000 outcomes, the two executors cross between
   about 2 and 15 form words per shot, near 4 on narrow programs
   (docs/performance.md, "Where the symbolic pass stops"), so a run
   samples symbolically only while its forms need at most 4 words per
   shot. *)
let symbolic_budget ~shots = 4 * Tableau.word_bits * min shots (max_int / (4 * Tableau.word_bits))

(* The run's random outcomes, from one concrete pass with every one taken
   as 0. Whether a measurement is random does not depend on earlier
   outcomes, nor on the Paulis that conditionals and preps apply (they move
   signs only), so those are skipped. *)
let random_outcomes program n =
  let tab = Tableau.create n and count = ref 0 in
  Array.iter
    (function
      | M_gate (u, o) -> Tableau.apply_gate tab u o
      | M_cond _ -> ()
      | M_prep q | M_measure (q, _) ->
          if Tableau.is_random tab q then incr count;
          ignore (Tableau.measure_with tab q ~random_outcome:0))
    program.ops;
  !count

(* A run with no more measure and prep sites than the budget needs no
   count: each random outcome is at one of them. *)
let within_budget ~shots ~sites program n =
  let budget = symbolic_budget ~shots in
  sites <= budget || random_outcomes program n <= budget

(* The symbolic pass's result. Each classical bit (at the end of the
   program) and each conditional (at its op) reads an affine bit
   [const ⊕ parity(form ∧ coins)]; form [i] is the [words] ints at
   [i * words] of its array. [const = -1] is a bit no measurement has
   written: it reads as -1 and never fires a conditional. *)
type sampler = {
  random_sites : int array;  (* variable -> its measure/prep site, ascending *)
  words : int;  (* words per form *)
  bit_consts : int array;  (* classical bit -> const *)
  bit_forms : int array;
  cond_slots : int array;  (* conditionals in program order -> tally slot *)
  cond_consts : int array;
  cond_forms : int array;
}

let symbolic_pass program n =
  let tab = Tableau.create n in
  let sites = ref 0 and random_sites = ref [] in
  let measure q =
    if Tableau.measure_symbolic tab q then random_sites := !sites :: !random_sites;
    incr sites
  in
  let bits = Array.make n (-1, [||]) and conds = ref [] in
  Array.iter
    (function
      | M_gate (u, o) -> Tableau.apply_gate tab u o
      | M_cond (bit, u, o, slot) ->
          let form = bits.(bit) in
          conds := (slot, form) :: !conds;
          if fst form >= 0 then Tableau.pauli_by tab u o.(0) form
      | M_prep q ->
          measure q;
          Tableau.pauli_by tab Gate.X q (Tableau.z_form tab q)
      | M_measure (q, bit) ->
          measure q;
          bits.(bit) <- Tableau.z_form tab q)
    program.ops;
  let words = (Tableau.variables tab + Tableau.word_bits - 1) / Tableau.word_bits in
  let flatten form_of items =
    let out = Array.make (Array.length items * words) 0 in
    Array.iteri
      (fun i item ->
        let form = form_of item in
        Array.blit form 0 out (i * words) (Array.length form))
      items;
    out
  in
  let conds = array_of_list (0, (0, [||])) (List.rev !conds) in
  {
    random_sites = Array.of_list (List.rev !random_sites);
    words;
    bit_consts = Array.map fst bits;
    bit_forms = flatten snd bits;
    cond_slots = Array.map fst conds;
    cond_consts = Array.map (fun (_, (c, _)) -> c) conds;
    cond_forms = flatten (fun (_, (_, form)) -> form) conds;
  }

let[@inline] parity x =
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  (x lxor (x lsr 1)) land 1

let[@inline] evaluate words forms i coins =
  let o = i * words and acc = ref 0 in
  for k = 0 to words - 1 do
    acc := !acc lxor (Array.unsafe_get forms (o + k) land Array.unsafe_get coins k)
  done;
  parity !acc

(* One shot: its coins, then its conditional firings and its histogram
   key, written a character per classical bit as [bitstring] would. *)
let sample_shot s ~tally coins rng =
  Rng.coins rng s.random_sites ~width:Tableau.word_bits coins;
  let n = Array.length s.bit_consts in
  let key = Bytes.create n in
  for i = 0 to n - 1 do
    let const = Array.unsafe_get s.bit_consts i in
    Bytes.unsafe_set key (n - 1 - i)
      (if const < 0 then '-'
       else if const lxor evaluate s.words s.bit_forms i coins = 1 then '1'
       else '0')
  done;
  for i = 0 to Array.length s.cond_slots - 1 do
    let const = s.cond_consts.(i) in
    if const >= 0 && const lxor evaluate s.words s.cond_forms i coins = 1 then begin
      let slot = s.cond_slots.(i) in
      tally.fired.(slot) <- tally.fired.(slot) + 1
    end
  done;
  tally.passes <- tally.passes + 1;
  Bytes.unsafe_to_string key

(* --- batched trajectories ---------------------------------------------- *)

(* Shots per claimed chunk when batching across the domain pool: small
   enough that a few hundred shots spread over every domain, large enough
   to amortise chunk claims and per-chunk scratch (one tableau). *)
let shot_chunk = 8

(* Whether a batch of shots is worth dispatching to the pool: tracing runs
   stay sequential (trace counters are not domain-safe), and trivially
   small batches are not worth the dispatch. *)
let batch_shots shots =
  Parallel.available () && (not (Trace.enabled ())) && shots > shot_chunk

let fold_trajectories ?(noise = Noise.ideal) ~rng ~shots ~init ~f circuit =
  (* Compiled once; each shot gets its own tally so parallel shots share
     nothing mutable. *)
  let program = compile_micro circuit in
  let n = Circuit.qubit_count circuit in
  let exec = micro_executor ~noise program n in
  let exec_shot rng = fresh_shot exec n ~tally:(fresh_tally program) rng in
  (* Shots run in windows across the pool, one in-flight state per shot,
     so a window is bounded by a memory budget as well as the pool width.
     A window of one shot runs in place, as an unbatched run does; each
     takes one [Rng.split] per shot and the fold runs in shot order, so
     results are bit-identical at any window. *)
  let window =
    if not (batch_shots shots) then 1
    else
      let budget = 268_435_456.0 (* 256 MB of in-flight states *) in
      let cap = budget /. (16.0 *. ldexp 1.0 n) in
      min (4 * Parallel.domain_count ()) (int_of_float (Float.min 4096.0 (Float.max 1.0 cap)))
  in
  let acc = ref init and done_ = ref 0 in
  while !done_ < shots do
    let w = min window (shots - !done_) in
    let streams = Rng.streams rng w in
    let results = Array.make w None in
    Parallel.for_tasks ~chunk:1 w (fun lo hi ->
        for i = lo to hi - 1 do
          results.(i) <- Some (exec_shot streams.(i))
        done);
    Array.iter
      (function Some (state, classical) -> acc := f !acc state classical | None -> assert false)
      results;
    done_ := !done_ + w
  done;
  !acc

(* --- active-qubit relabelling and histograms ----------------------------- *)

(* A run on the active qubits only ([Circuit.compact]): compact qubit [i] is
   declared qubit [active.(i)] of a [width]-qubit register. *)
type relabel = { width : int; active : int array }

let widen_key r key =
  let k = String.length key in
  let wide = Bytes.make r.width '-' in
  Array.iteri (fun i q -> Bytes.set wide (r.width - 1 - q) key.[k - 1 - i]) r.active;
  Bytes.unsafe_to_string wide

(* The declared-width basis index of a compact one. A register too wide
   for an int never ran at its declared width, so it keeps the compact
   index: the value only orders ties (see [counts]). *)
let widen_index r k =
  if r.width > Sys.int_size - 1 then k
  else begin
    let wide = ref 0 in
    Array.iteri (fun i q -> if k land (1 lsl i) <> 0 then wide := !wide lor (1 lsl q)) r.active;
    !wide
  end

(* Shot counts that remember the order their keys first appeared in. The
   sorted histogram breaks count ties by hash-table iteration order, so a
   run on compact keys rebuilds its table under the declared-width keys,
   inserting them in first-seen order: that table has the layout a
   shot-by-shot count of the wide keys would have had, and ties come out
   as they did at full width. Only distinct keys are widened, never one
   per shot.

   The table is monomorphic ([K.equal] instead of the polymorphic
   compare) but hashes with [Hashtbl.hash], as the generic table does: a
   key lands in the same bucket, buckets resize at the same sizes and
   fold in the same order, so the tie order is the generic table's. *)
module Counts (K : sig
  type t

  val equal : t -> t -> bool
end) =
struct
  module Table = Hashtbl.Make (struct
    type t = K.t

    let equal = K.equal
    let hash = Hashtbl.hash
  end)

  type t = { table : int ref Table.t; mutable first_seen : K.t list }

  let create () = { table = Table.create 64; first_seen = [] }

  let add counts key =
    match Table.find_opt counts.table key with
    | Some c -> incr c
    | None ->
        Table.add counts.table key (ref 1);
        counts.first_seen <- key :: counts.first_seen

  (* [(key, count)], count-descending, ties in the iteration order of a
     table keyed by [order_key key] (default: the keys themselves). *)
  let sorted ?order_key counts =
    let pairs =
      match order_key with
      | None -> Table.fold (fun key c acc -> (key, !c) :: acc) counts.table []
      | Some f ->
          let table = Hashtbl.create 64 in
          List.iter
            (fun key -> Hashtbl.replace table (f key) (key, !(Table.find counts.table key)))
            (List.rev counts.first_seen);
          Hashtbl.fold (fun _ pair acc -> pair :: acc) table []
    in
    List.sort (fun (_, a) (_, b) -> Int.compare b a) pairs
end

module Key_counts = Counts (String)
module Index_counts = Counts (Int)

(* Engine-level fault injection models the whole backend hiccuping for one
   shot (Fault.Backend_transient); finer-grained sites live in the
   micro-architecture controller. A shot lost after [policy.max_retries]
   re-attempts is counted in [counters.faulted_shots] and excluded from the
   histogram. *)
let inject_backend_fault faults ~site =
  match faults with
  | Some f when Fault.fires f Fault.Backend_transient ->
      Qerror.fail ~transient:true ~site
        (Qerror.Backend_transient "injected backend fault")
  | Some _ | None -> ()

(* Per-shot derived RNG streams: one [Rng.split] per shot, taken in shot
   order from the caller's generator. The derivation consumes the parent
   stream exactly once per shot whether shots execute sequentially, across
   the domain pool, or split over service slices, so the histogram is
   independent of the execution geometry (the PR 4 bit-identity
   discipline). [make_exec] is a per-chunk executor factory whose shots
   return their histogram keys: each chunk builds its own scratch (a state
   for trajectories, a tableau or a coin vector for the Clifford plan) and
   its own tally, merged under a lock — counts are sums, so the merge
   order cannot change the report. The histogram is tallied from a keys
   array in shot order, keeping even hash-table iteration order identical
   to a sequential run. *)
let run_trajectory ?(faults = None) ?relabel ~policy ~counters ~program ~tally ~make_exec
    ~rng ~shots () =
  let counts = Key_counts.create () in
  let record = Key_counts.add counts in
  (match faults with
  | Some f when Fault.enabled f ->
      (* Fault injection retries shots, so the attempt order is
         data-dependent: this path stays sequential. Each attempt draws a
         fresh derived stream, so an injector that never fires is
         bit-identical to the no-injector run. *)
      let exec = make_exec () in
      for _ = 1 to shots do
        let shot () =
          inject_backend_fault faults ~site:"Engine.run_trajectory";
          exec tally (Rng.split rng)
        in
        match Resilience.with_retries policy counters shot with
        | Ok key -> record key
        | Error _ -> counters.Resilience.faulted_shots <- counters.Resilience.faulted_shots + 1
      done
  | None | Some _ ->
      (* No injector, or a silent one: a zero-rate site draws nothing and
         no shot is retried, so the batched path (one [Rng.streams] split
         per shot, the same split the retry loop takes) is bit-identical. *)
      let streams = Rng.streams rng shots in
      let keys = Array.make shots "" in
      if batch_shots shots then begin
        let merge_lock = Mutex.create () in
        Parallel.for_tasks ~chunk:shot_chunk shots (fun lo hi ->
            let local = fresh_tally program in
            let exec = make_exec () in
            for i = lo to hi - 1 do
              keys.(i) <- exec local streams.(i)
            done;
            Mutex.lock merge_lock;
            merge_tally ~into:tally local;
            Mutex.unlock merge_lock)
      end
      else begin
        let exec = make_exec () in
        for i = 0 to shots - 1 do
          keys.(i) <- exec tally streams.(i)
        done
      end;
      Array.iter record keys);
  match relabel with
  | None -> Key_counts.sorted counts
  | Some r ->
      List.map
        (fun (key, c) -> (widen_key r key, c))
        (Key_counts.sorted ~order_key:(widen_key r) counts)

(* Sampled-plan equivalent: decide per-shot survival up front (a backend
   fault costs the shot, not the single-pass simulation), then draw only the
   surviving shots from the final distribution. *)
let surviving_shots ?(faults = None) ~policy ~counters shots =
  match faults with
  | None -> shots
  | Some _ ->
      let ok = ref 0 in
      for _ = 1 to shots do
        match
          Resilience.with_retries policy counters (fun () ->
              inject_backend_fault faults ~site:"Engine.surviving_shots")
        with
        | Ok () -> incr ok
        | Error _ ->
            counters.Resilience.faulted_shots <- counters.Resilience.faulted_shots + 1
      done;
      !ok

(* --- sampled plan ------------------------------------------------------ *)

let sample_counts ?relabel ~probabilities ~measured ~rng ~shots () =
  let dim = Array.length probabilities in
  let n = Array.length measured in
  let cumulative = Array.make dim 0.0 in
  let acc = ref 0.0 in
  for k = 0 to dim - 1 do
    acc := !acc +. probabilities.(k);
    cumulative.(k) <- !acc
  done;
  let total = !acc in
  let sample () =
    let target = Rng.float rng total in
    let lo = ref 0 and hi = ref (dim - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) > target then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let mmask =
    let m = ref 0 in
    Array.iteri (fun q yes -> if yes then m := !m lor (1 lsl q)) measured;
    !m
  in
  let counts = Index_counts.create () in
  for _ = 1 to shots do
    Index_counts.add counts (sample () land mmask)
  done;
  let key_of k =
    String.init n (fun i ->
        let q = n - 1 - i in
        if measured.(q) then if k land (1 lsl q) <> 0 then '1' else '0' else '-')
  in
  match relabel with
  | None -> List.map (fun (k, c) -> (key_of k, c)) (Index_counts.sorted counts)
  | Some r ->
      List.map
        (fun (k, c) -> (widen_key r (key_of k), c))
        (Index_counts.sorted ~order_key:(widen_index r) counts)

let sample_histogram ~probabilities ~measured ~rng ~shots =
  sample_counts ~probabilities ~measured ~rng ~shots ()

(* The sampled plan's one simulation pass: evolve |0...0> through the
   unitary prefix and return the final distribution. Consumes no
   randomness; preps and measures are terminal (the plan's precondition). *)
let prefix_probabilities program n =
  let state = State.create n in
  Array.iter
    (function
      | M_gate (u, o) -> State.apply state u o
      | M_cond _ | M_prep _ | M_measure _ -> ())
    program.ops;
  State.probabilities state

let narrowed circuit =
  match Circuit.compact circuit with
  | None -> (circuit, None)
  | Some (narrow, active) -> (narrow, Some { width = Circuit.qubit_count circuit; active })

(* --- prepare and sample ------------------------------------------------ *)

(* The plan's once-per-run artifact, which shots read and never write. *)
type artifact =
  | Distribution of { probabilities : float array; measured : bool array }
  | Trajectories of shot_plan
  | Symbolic of sampler
  | Per_shot_tableau

(* [cost]: the cost model's [(qubits, gates, measures)] when it chose
   the plan, the one decision that reads shots. *)
type prepared = {
  base : run_report;  (* the once-per-run work: no shots *)
  noise : Noise.model;
  n : int;  (* active qubits *)
  relabel : relabel option;
  program : program;
  artifact : artifact;
  cost : (int * int * int) option;
}

(* Everything before the first shot. The verdicts are taken once, on the
   declared circuit: narrowing only relabels qubits, so they hold for the
   narrowed one. *)
let prepare_exn ?(noise = Noise.ideal) ?plan ~shots circuit =
  if shots < 1 then invalid_arg "Engine.run: shots must be positive";
  let t0 = Clock.now () in
  let ideal = Noise.is_ideal noise and width = Circuit.qubit_count circuit in
  let v, chosen, reason =
    Trace.with_span "engine.analyse" (fun analyse_sp ->
        let v = verdicts circuit in
        let chosen, reason =
          match plan with
          | None when not ideal -> (Trajectory, "stochastic noise model")
          | None -> decide ~shots ~gates:v.gates ~measures:v.measures ~n:width v
          | Some Trajectory -> (Trajectory, "trajectory plan forced by caller")
          | Some Sampled -> (
              let needs r =
                invalid_arg ("Engine.run: sampled plan forced but circuit needs trajectories: " ^ r)
              in
              if not ideal then needs "stochastic noise model";
              match v.structure with
              | Sampled, _ -> (Sampled, "sampled plan forced by caller")
              | (Trajectory | Clifford), r -> needs r)
          | Some Clifford -> (
              if not ideal then
                Qerror.fail ~site:"Engine.run"
                  (Qerror.Invalid
                     "clifford plan forced but the noise model is stochastic (the \
                      tableau simulates ideal Clifford circuits only)");
              match v.blocker with
              | Some (gate, index) ->
                  Qerror.fail ~site:"Engine.run"
                    ~context:[ ("gate", gate); ("index", string_of_int index) ]
                    (Qerror.Invalid "clifford plan forced on a non-Clifford circuit")
              | None -> (Clifford, "clifford plan forced by caller"))
        in
        if chosen = Clifford && width > Tableau.max_qubits then
          Qerror.fail ~site:"Engine.run"
            ~context:[ ("qubits", string_of_int width); ("limit", string_of_int Tableau.max_qubits) ]
            (Qerror.Invalid "circuit is wider than the stabilizer tableau limit");
        Trace.annotate analyse_sp (fun () ->
            [ ("plan", Trace.String (plan_to_string chosen)); ("reason", Trace.String reason) ]);
        (v, chosen, reason))
  in
  (* The plan is chosen on the declared circuit and runs on the active
     qubits; histogram keys are widened back. *)
  let narrow, relabel = narrowed circuit in
  let n = Circuit.qubit_count narrow in
  let program = compile_micro narrow in
  let t1 = Clock.now () in
  let artifact, gate_applies =
    match chosen with
    | Sampled ->
        (* The sampled plan's one simulation pass: no conditionals. *)
        let gate_applies = gate_applies_of program { (fresh_tally program) with passes = 1 } in
        trace_counters ~gate_applies ~measurements:0;
        let probabilities =
          Trace.with_span "engine.simulate" (fun sim_sp ->
              Trace.annotate sim_sp (fun () ->
                  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 gate_applies in
                  [ ("gate_applies", Trace.Int total) ]);
              prefix_probabilities program n)
        in
        let measured =
          Option.fold relabel ~none:v.measured ~some:(fun r ->
              Array.map (fun q -> v.measured.(q)) r.active)
        in
        (Distribution { probabilities; measured }, gate_applies)
    | Trajectory -> (Trajectories (shot_plan ~noise program n), [])
    | Clifford ->
        if v.pauli_feedback && within_budget ~shots ~sites:v.measures program n then
          (Symbolic (symbolic_pass program n), [])
        else (Per_shot_tableau, [])
  in
  let wall = { analyse_s = t1 -. t0; simulate_s = Clock.now () -. t1; sample_s = 0.0 } in
  {
    base =
      { plan = chosen; plan_reason = reason; shots = 0; seed = None; qubit_count = width;
        instruction_count = Circuit.length circuit; gate_applies; measurements = 0; wall;
        resilience = no_resilience; cache = no_cache };
    noise;
    n;
    relabel;
    program;
    artifact;
    cost =
      (match (plan, v.blocker, v.structure) with
      | None, None, (Sampled, _) when ideal -> Some (width, v.gates, v.measures)
      | _ -> None);
  }

let prepare ?noise ?plan ~shots circuit =
  Qerror.protect ~site:"Engine.run" (fun () -> prepare_exn ?noise ?plan ~shots circuit)

let prepared_report p = p.base

let plan_holds p ~shots =
  match p.cost with
  | None -> true
  | Some (n, gates, measures) -> clifford_wins ~n ~gates ~measures ~shots = (p.base.plan = Clifford)

let sample ?faults ?(policy = Resilience.default_policy) ?into ~rng ~shots p =
  let counters = Resilience.fresh_counters () in
  let t0 = Clock.now () in
  let program = p.program in
  let tally = fresh_tally program in
  (* [make_exec] is a per-chunk executor factory, [notes] the simulate
     span's closing annotations. *)
  let simulate make_exec notes =
    let histogram =
      Trace.with_span "engine.simulate" (fun sim_sp ->
          Trace.annotate sim_sp (fun () ->
              [ ("plan", Trace.String (plan_to_string p.base.plan)); ("trajectories", Trace.Int shots) ]);
          let histogram =
            run_trajectory ~faults ?relabel:p.relabel ~policy ~counters ~program ~tally
              ~make_exec ~rng ~shots ()
          in
          Trace.annotate sim_sp notes;
          histogram)
    in
    (* Read the clock only once the shots have run: they are all simulation. *)
    let t_sim = Clock.now () in
    let gate_applies = gate_applies_of program tally
    and measurements = tally.passes * program.pass_measures in
    trace_counters ~gate_applies ~measurements;
    (histogram, t_sim, gate_applies, measurements)
  in
  let histogram, t_sim, gate_applies, measurements =
    match p.artifact with
    | Distribution { probabilities; measured } ->
        let survivors = surviving_shots ~faults ~policy ~counters shots in
        let histogram =
          Trace.with_span "engine.sample" (fun sample_sp ->
              Trace.annotate sample_sp (fun () -> [ ("shots", Trace.Int survivors) ]);
              sample_counts ?relabel:p.relabel ~probabilities ~measured ~rng ~shots:survivors ())
        in
        let measurements = survivors * Array.fold_left (fun acc b -> acc + Bool.to_int b) 0 measured in
        if Trace.enabled () then Trace.add_counter "qx.measure" measurements;
        (histogram, t0, [], measurements)
    | Trajectories plan ->
        (* [clean_shots]: shots that drew no error before the first
           state-dependent op and so started from the shared ideal state. *)
        simulate (trajectory_executor plan p.n) (fun () ->
            [ ("clean_shots", Trace.Int tally.clean) ])
    | Symbolic s ->
        simulate
          (fun () ->
            let coins = Array.make s.words 0 in
            fun t r -> sample_shot s ~tally:t coins r)
          (fun () ->
            [ ("executor", Trace.String "symbolic");
              ("random_outcomes", Trace.Int (Array.length s.random_sites)) ])
    | Per_shot_tableau ->
        simulate
          (fun () ->
            let tab = Tableau.create p.n in
            fun t r -> bitstring (exec_micro_tableau ~tally:t r tab program))
          (fun () -> [ ("executor", Trace.String "per-shot") ])
  in
  (* [into] plus this call's work. An injector's fire counts are
     cumulative over its lifetime, so the later ones cover the earlier. *)
  let into = Option.value into ~default:p.base and r = resilience_of faults counters in
  let was = into.resilience and t1 = Clock.now () in
  {
    histogram;
    report =
      {
        into with
        shots = into.shots + shots;
        gate_applies =
          (match (into.gate_applies, gate_applies) with
          | [], l | l, [] -> l
          | a, b -> sorted_applies (a @ b));
        measurements = into.measurements + measurements;
        wall =
          { into.wall with
            simulate_s = into.wall.simulate_s +. (t_sim -. t0);
            sample_s = into.wall.sample_s +. (t1 -. t_sim) };
        resilience =
          { r with
            retries = was.retries + r.retries; faulted_shots = was.faulted_shots + r.faulted_shots;
            backoff_ns = was.backoff_ns + r.backoff_ns; degraded = was.degraded };
      };
  }

(* --- the run surface --------------------------------------------------- *)

let run ?noise ?seed ?rng ?plan ?(shots = 1024) ?faults ?policy circuit =
  if shots < 1 then invalid_arg "Engine.run: shots must be positive";
  Trace.with_span "engine.run" (fun run_sp ->
      let p = prepare_exn ?noise ?plan ~shots circuit in
      Trace.annotate run_sp (fun () ->
          [ ("plan", Trace.String (plan_to_string p.base.plan)); ("shots", Trace.Int shots);
            ("qubits", Trace.Int p.base.qubit_count); ("active_qubits", Trace.Int p.n);
            ("instructions", Trace.Int p.base.instruction_count) ]);
      let r = sample ?faults ?policy ~rng:(resolve_rng seed rng) ~shots p in
      Trace.annotate run_sp (fun () ->
          let res = r.report.resilience in
          if faults = None then []
          else [ ("faulted_shots", Trace.Int res.faulted_shots); ("retries", Trace.Int res.retries) ]);
      { r with report = { r.report with seed } })

let run_checked ?noise ?seed ?rng ?plan ?shots ?faults ?policy ?fusion:(_ : bool option)
    circuit =
  Qerror.protect ~site:"Engine.run" (fun () ->
      run ?noise ?seed ?rng ?plan ?shots ?faults ?policy circuit)

let success_probability result ~accept =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 result.histogram in
  if total = 0 then 0.0
  else
    let hits =
      List.fold_left
        (fun acc (key, c) -> if accept (classical_of_key key) then acc + c else acc)
        0 result.histogram
    in
    float_of_int hits /. float_of_int total

(* --- metrics as JSON --------------------------------------------------- *)

let report_json r =
  let open Qca_util.Json in
  let counts l = Obj (List.map (fun (name, count) -> (name, Int count)) l) in
  (* Phase times keep microsecond resolution. *)
  let seconds s = Float (round 6 s) in
  Obj
    [ ("plan", String (plan_to_string r.plan)); ("plan_reason", String r.plan_reason);
      ("shots", Int r.shots); ("seed", option (fun s -> Int s) r.seed);
      ("qubits", Int r.qubit_count); ("instructions", Int r.instruction_count);
      ("measurements", Int r.measurements); ("gate_applies", counts r.gate_applies);
      ( "wall_s",
        Obj
          [ ("analyse", seconds r.wall.analyse_s); ("simulate", seconds r.wall.simulate_s);
            ("sample", seconds r.wall.sample_s) ] );
      (* Every counter family lives under one stable "counters" object (the
         metrics schema in docs/engine.md): fault/retry and cache. *)
      ( "counters",
        Obj
          [ ( "resilience",
              Obj
                [ ("faults", counts r.resilience.faults_injected);
                  ("retries", Int r.resilience.retries);
                  ("faulted_shots", Int r.resilience.faulted_shots);
                  ("backoff_ns", Int r.resilience.backoff_ns);
                  ("degraded", option (fun why -> String why) r.resilience.degraded) ] );
            ( "cache",
              Obj [ ("hits", Int r.cache.cache_hits); ("shared", Int r.cache.cache_shared) ] )
          ] ) ]

let report_to_json r = Qca_util.Json.to_string (report_json r)
