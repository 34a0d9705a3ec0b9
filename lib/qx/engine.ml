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

type fusion_stats = {
  gates_in : int;
  kernels : int;
  fused_1q : int;
  fused_diag : int;
}

let no_fusion = { gates_in = 0; kernels = 0; fused_1q = 0; fused_diag = 0 }

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
  fusion : fusion_stats;
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

(* A circuit takes the single-pass sampled plan when its measurements are
   terminal and unconditioned: a unitary prefix (leading preps on untouched
   qubits are no-ops on |0...0> and allowed), then only measure/barrier
   instructions. Anything stochastic mid-circuit forces trajectories. *)
let classify_structure circuit =
  let n = Circuit.qubit_count circuit in
  let touched = Array.make n false in
  let measured = Array.make n false in
  let seen_measure = ref false in
  let verdict = ref None in
  let fail reason = if !verdict = None then verdict := Some reason in
  List.iter
    (fun instr ->
      if !verdict = None then
        match instr with
        | Gate.Unitary (_, ops) ->
            if !seen_measure then fail "gate after measurement (mid-circuit measurement)"
            else Array.iter (fun q -> touched.(q) <- true) ops
        | Gate.Conditional _ -> fail "conditional (feedback) gate"
        | Gate.Prep q ->
            if !seen_measure then fail "prep after measurement (mid-circuit reset)"
            else if touched.(q) then fail "mid-circuit prep (reset of a live qubit)"
        | Gate.Measure q ->
            seen_measure := true;
            measured.(q) <- true
        | Gate.Barrier _ -> ())
    (Circuit.instructions circuit);
  match !verdict with
  | Some reason -> (Trajectory, reason, measured)
  | None -> (Sampled, "terminal unconditioned measurements", measured)

(* Total Clifford classification (no exception probing): the first gate the
   tableau cannot simulate, with its instruction index, or [None] when the
   whole circuit is Clifford. *)
let clifford_blocker circuit =
  let rec scan index = function
    | [] -> None
    | instr :: rest -> (
        match instr with
        | Gate.Unitary (u, _) | Gate.Conditional (_, u, _) ->
            if Tableau.supports u then scan (index + 1) rest
            else Some (Gate.name u, index)
        | Gate.Prep _ | Gate.Measure _ | Gate.Barrier _ -> scan (index + 1) rest)
  in
  scan 0 (Circuit.instructions circuit)

(* The state-vector layer refuses circuits beyond this width; the tableau
   goes to 4096 qubits, so above it the Clifford plan is the only option. *)
let sv_max_qubits = 30

let count_work circuit =
  let gates = ref 0 and measures = ref 0 in
  List.iter
    (fun instr ->
      match instr with
      | Gate.Unitary _ | Gate.Conditional _ -> incr gates
      | Gate.Measure _ | Gate.Prep _ -> incr measures
      | Gate.Barrier _ -> ())
    (Circuit.instructions circuit);
  (!gates, !measures)

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

(* The planner's decision table (docs/engine.md): noise forces trajectories;
   an all-Clifford circuit goes to the tableau when its structure would
   force trajectories (mid-circuit measurement, feedback, resets — the big
   win: per-shot cost drops from O(gates * 2^n) to O(poly n)) or when the
   cost model says the state vector is more expensive (wide terminal
   circuits); otherwise the sampled/trajectory structure analysis stands.
   The structure and Clifford verdicts are read off [circuit]; [gates] and
   [measures] feed only the cost model, so the static estimator can pass
   symbolic totals alongside a truncated probe of the program. *)
let choose_plan ~noisy ~shots ~gates ~measures circuit =
  if noisy then (Trajectory, "stochastic noise model")
  else
    let structure, structure_reason, _ = classify_structure circuit in
    match (clifford_blocker circuit, structure) with
    | Some _, _ -> (structure, structure_reason)
    | None, Trajectory -> (Clifford, "all-Clifford gates; " ^ structure_reason)
    | None, Sampled ->
        let n = Circuit.qubit_count circuit in
        if clifford_wins ~n ~gates ~measures ~shots then
          ( Clifford,
            Printf.sprintf
              "all-Clifford gates; tableau cheaper than the 2^%d-amplitude \
               state vector"
              n )
        else (Sampled, structure_reason)
    | None, Clifford -> assert false

let analyse ?(noise = Noise.ideal) ?(shots = 1024) circuit =
  let gates, measures = count_work circuit in
  choose_plan ~noisy:(not (Noise.is_ideal noise)) ~shots ~gates ~measures circuit

let terminal_split circuit =
  match classify_structure circuit with
  | (Trajectory | Clifford), _, _ -> None
  | Sampled, _, measured ->
      let prefix =
        List.filter
          (fun instr -> match instr with Gate.Unitary _ -> true | _ -> false)
          (Circuit.instructions circuit)
      in
      Some (prefix, measured)

(* --- gate fusion ------------------------------------------------------- *)

(* The fusion pre-pass folds adjacent unitaries into fused kernels:
   maximal runs of consecutive diagonal gates (any operands) become one
   diagonal sweep, and runs of single-qubit gates on the same qubit become
   one pair sweep. Fused kernels keep each gate's specialised arithmetic
   (see State), so a fused run is bit-identical to the unfused sequence —
   fusion is a pure traversal-order optimisation. Runs never cross
   measurements, preps, conditionals or barriers, and the pass only runs
   when the noise model is ideal (noise is applied after each gate, which
   pins the gate-by-gate schedule). *)

type fused_kernel =
  | Single of Gate.unitary * int array * string
  | Fused_1q of int * State.fused1q_plan * string list
  | Fused_diag of State.diag_plan * string list

type plan_step = Kernel of fused_kernel | Instr of Gate.t

let compile_steps ~fusion instrs =
  let gates_in = ref 0 and kernels = ref 0 and fused_1q = ref 0 and fused_diag = ref 0 in
  let rec take_diag acc = function
    | Gate.Unitary (u, ops) :: rest when Gate.is_diagonal u ->
        take_diag ((u, ops) :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec take_1q q acc = function
    | Gate.Unitary (u, ops) :: rest when Gate.arity u = 1 && ops.(0) = q ->
        take_1q q (u :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let single u ops =
    incr gates_in;
    incr kernels;
    Kernel (Single (u, ops, Gate.name u))
  in
  let rec go acc instrs =
    match instrs with
    | [] -> List.rev acc
    | (Gate.Conditional _ | Gate.Prep _ | Gate.Measure _ | Gate.Barrier _) as instr :: rest
      ->
        go (Instr instr :: acc) rest
    | Gate.Unitary (u, ops) :: rest when not fusion -> go (single u ops :: acc) rest
    | Gate.Unitary (u, ops) :: rest as all -> (
        let diag_run, diag_rest =
          if Gate.is_diagonal u then take_diag [] all else ([], all)
        in
        match diag_run with
        | _ :: _ :: _ ->
            (* Every gate in the run is diagonal, so the plan exists. *)
            let dplan = Option.get (State.diag_plan_of diag_run) in
            gates_in := !gates_in + List.length diag_run;
            incr kernels;
            incr fused_diag;
            let names = List.map (fun (du, _) -> Gate.name du) diag_run in
            go (Kernel (Fused_diag (dplan, names)) :: acc) diag_rest
        | _ ->
            if Gate.arity u = 1 then begin
              let q = ops.(0) in
              match take_1q q [] all with
              | (_ :: _ :: _ as run), rest' ->
                  gates_in := !gates_in + List.length run;
                  incr kernels;
                  incr fused_1q;
                  go
                    (Kernel (Fused_1q (q, State.fused1q_plan_of run, List.map Gate.name run))
                    :: acc)
                    rest'
              | _ -> go (single u ops :: acc) rest
            end
            else go (single u ops :: acc) rest)
  in
  let steps = go [] instrs in
  ( steps,
    {
      gates_in = !gates_in;
      kernels = !kernels;
      fused_1q = !fused_1q;
      fused_diag = !fused_diag;
    } )

let apply_kernel state = function
  | Single (u, ops, _) -> State.apply state u ops
  | Fused_1q (q, p, _) -> State.apply_fused1q state p q
  | Fused_diag (p, _) -> State.apply_diag_plan state p

(* --- the flat micro-program -------------------------------------------- *)

(* The compiled form every executor dispatches over: a flat array of
   micro-ops walked by one indexed loop, instead of re-walking a cons list
   of plan steps per shot. Barriers are dropped at compile time and each
   conditional gets a tally slot, so the per-shot loop does no list
   traversal, no string construction and no table lookup. *)
type micro_op =
  | M_kernel of fused_kernel
  | M_cond of int * Gate.unitary * int array * int  (* ..., conditional slot *)
  | M_prep of int
  | M_measure of int * int  (* state qubit, classical bit *)

(* Gate applies are counted statically: every pass over a program applies
   each kernel's logical gates once and measures each [M_measure] once, so
   the compiled program carries those per-pass totals and a run only
   counts its passes and, per conditional slot, how often it fired. *)
type program = {
  ops : micro_op array;
  pass_applies : (string * int) list;  (* unconditional gates per pass, by name *)
  pass_measures : int;
  cond_names : string array;  (* slot -> gate name *)
}

let compile_micro ~fusion instrs =
  let steps, fstats = compile_steps ~fusion instrs in
  let applies = Hashtbl.create 16 and measures = ref 0 in
  let conds = ref [] and slots = ref 0 in
  let count name =
    Hashtbl.replace applies name (1 + Option.value ~default:0 (Hashtbl.find_opt applies name))
  in
  let ops =
    List.filter_map
      (fun step ->
        match step with
        | Kernel k ->
            (match k with
            | Single (_, _, name) -> count name
            | Fused_1q (_, _, names) | Fused_diag (_, names) -> List.iter count names);
            Some (M_kernel k)
        | Instr (Gate.Conditional (bit, u, o)) ->
            conds := Gate.name u :: !conds;
            incr slots;
            Some (M_cond (bit, u, o, !slots - 1))
        | Instr (Gate.Prep q) -> Some (M_prep q)
        | Instr (Gate.Measure q) ->
            incr measures;
            Some (M_measure (q, q))
        | Instr (Gate.Barrier _) -> None
        | Instr (Gate.Unitary _) -> assert false)
      steps
  in
  ( {
      ops = Array.of_list ops;
      pass_applies = Hashtbl.fold (fun name c acc -> (name, c) :: acc) applies [];
      pass_measures = !measures;
      cond_names = Array.of_list (List.rev !conds);
    },
    fstats )

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

let gate_applies_of program tally =
  let table = Hashtbl.create 16 in
  let add name c =
    if c > 0 then
      Hashtbl.replace table name (c + Option.value ~default:0 (Hashtbl.find_opt table name))
  in
  List.iter (fun (name, c) -> add name (c * tally.passes)) program.pass_applies;
  Array.iteri (fun slot name -> add name tally.fired.(slot)) program.cond_names;
  Hashtbl.fold (fun name count acc -> (name, count) :: acc) table []
  |> List.sort (fun (na, a) (nb, b) ->
         match compare b a with 0 -> compare na nb | c -> c)

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
   quantum chip). Under a stochastic [noise] model a [Single] kernel draws
   its gate errors, a prep its prep error and a measurement its readout
   flip; fused kernels (ideal runs only) draw nothing. [fired] counts each
   conditional slot's firings. The model's channels are worked out once,
   when [micro_step] is applied to it. *)
let micro_step noise =
  let ideal = Noise.is_ideal noise in
  let gate_noise = Noise.gate_noise noise in
  fun ~fired state classical rng op ->
    match op with
    | M_kernel k -> (
        apply_kernel state k;
        match k with
        | Single (u, o, _) -> if not ideal then Noise.after_gate gate_noise state rng u o
        | Fused_1q _ | Fused_diag _ -> ())
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
   read the state (Noise.schedule): it ends at the first measurement or
   conditional, at a prep of a qubit a gate or an earlier prep has touched
   (its outcome is no longer a certain 0), and at once under a T1/T2 model
   (its damping draws read the state). The prefix's ideal evolution is
   computed once per run; a shot whose schedule is empty starts from a copy
   of it, and a shot with errors from the last ideal checkpoint before its
   first error. Either way the shot's state and its generator's position
   are those of stepping the prefix op by op, so histograms are
   seed-identical. *)

let schedule_sites noise program n =
  if not (Noise.pauli_only noise) then [||]
  else begin
    let touched = Array.make n false in
    let ops = program.ops in
    let rec go i acc =
      if i >= Array.length ops then acc
      else
        match ops.(i) with
        | M_kernel (Single (u, o, _)) ->
            Array.iter (fun q -> touched.(q) <- true) o;
            go (i + 1) (Noise.Gate_site (u, o) :: acc)
        | M_kernel (Fused_1q (q, _, _)) ->
            touched.(q) <- true;
            go (i + 1) (Noise.Quiet_site :: acc)
        | M_kernel (Fused_diag _) ->
            (* A diagonal run keeps a zero amplitude zero: it touches nothing. *)
            go (i + 1) (Noise.Quiet_site :: acc)
        | M_prep q when not touched.(q) ->
            touched.(q) <- true;
            go (i + 1) (Noise.Prep_site q :: acc)
        | M_prep _ | M_measure _ | M_cond _ -> acc
    in
    Array.of_list (List.rev (go 0 []))
  end

(* A prefix op without its draws: a prep of an untouched qubit measures 0,
   so it is the collapse onto 0. *)
let apply_drawn state = function
  | M_kernel k -> apply_kernel state k
  | M_prep q -> State.collapse state q 0
  | M_measure _ | M_cond _ -> assert false

(* Ideal checkpoints, the prefix's final state included: at most this many,
   in at most this much memory per run (from 15 qubits up only the final
   state is kept). A shot whose first error falls uniformly in a prefix of
   [l] ops replays [l/2 + l/(2k)] of them from the nearest of [k]
   checkpoints, so past a few more checkpoints only add garbage. On the
   noisy-trajectory benchmark a 1 MiB budget cost peak memory and
   throughput: its 14-qubit jobs have about one shot with an error in 24,
   and the extra states took longer to copy and collect than they saved. *)
let max_checkpoints = 16
let checkpoint_bytes = 1 lsl 19

type prefix = {
  sites : Noise.site array;
  spacing : int;  (* ops between checkpoints *)
  states : State.t array;
      (* [j]: the ideal state before op [(j + 1) * spacing], the last one
         after the whole prefix; none when the prefix is empty *)
}

let ideal_prefix noise program n =
  let sites = schedule_sites noise program n in
  let length = Array.length sites in
  let budget = max 1 (min max_checkpoints (checkpoint_bytes / State.memory_bytes n)) in
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
  { sites; spacing; states = Array.of_list (List.rev !states) }

(* Set [state] to the shot's state after the prefix, from its schedule. *)
let prefix_state program p tally events state =
  let stored = Array.length p.states in
  if stored = 0 then State.reset state
  else if Array.length events = 0 then begin
    tally.clean <- tally.clean + 1;
    State.blit ~src:p.states.(stored - 1) ~dst:state
  end
  else begin
    let j = events.(0).Noise.site / p.spacing in
    if j = 0 then State.reset state else State.blit ~src:p.states.(j - 1) ~dst:state;
    let next = ref 0 in
    for i = j * p.spacing to Array.length p.sites - 1 do
      apply_drawn state program.ops.(i);
      while !next < Array.length events && events.(!next).Noise.site = i do
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
  Array.of_list (go from [])

(* The state-vector per-shot executor (trajectory plan, [Sim.run],
   [fold_trajectories]), worked out once per run by [shot_plan]: the
   ideal prefix is evaluated there, once; each
   shot draws its schedule, starts from the prefix state, and steps the
   rest of the program through [micro_step], so randomness is drawn in
   program order (a noisy program is compiled unfused). A shot runs in a
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
  let tail = tail_steps program ~from:(Array.length p.sites) in
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
  plan.from_events ~tally state rng (Noise.schedule noise plan.prefix.sites rng)

(* The trajectory plan's per-chunk executor factory. When the whole tail
   is one measurement run (a terminal [measure_all]), a clean shot's state
   would be a copy of the ideal final state, measured by
   [State.measure_run]: it walks a [State.outcome_tree] over that state
   instead, which draws and decides exactly as the copy would, and copies
   nothing. Each chunk builds its own tree, as it does its scratch state,
   so domains share nothing mutable; the scratch state is only made once a
   chunk meets a shot with errors. *)
let trajectory_executor ~noise program n =
  let plan = shot_plan ~noise program n in
  let sites = plan.prefix.sites and stored = Array.length plan.prefix.states in
  match plan.tail with
  | [| Measure_run (qubits, bits) |] when stored > 0 ->
      let ideal = plan.prefix.states.(stored - 1) in
      fun () ->
        let state = lazy (State.create n) and tree = State.outcome_tree ideal qubits in
        fun tally rng ->
          let events = Noise.schedule noise sites rng in
          if Array.length events > 0 then plan.from_events ~tally (Lazy.force state) rng events
          else begin
            tally.clean <- tally.clean + 1;
            let classical = Array.make n (-1) in
            State.measure_tree tree rng (fun k outcome ->
                classical.(bits.(k)) <- plan.readout rng outcome);
            tally.passes <- tally.passes + 1;
            classical
          end
  | _ ->
      fun () ->
        let state = State.create n in
        fun tally rng -> plan.from_events ~tally state rng (Noise.schedule noise sites rng)

(* One shot in a state of its own: for callers that keep the final state. *)
let fresh_shot exec n ~tally rng =
  let state = State.create n in
  let classical = exec ~tally state rng in
  (state, classical)

let unfused_program circuit = fst (compile_micro ~fusion:false (Circuit.instructions circuit))

let exec_shot ?(noise = Noise.ideal) rng circuit =
  let program = unfused_program circuit in
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
    | M_kernel (Single (u, o, _)) -> Tableau.apply_gate tab u o
    | M_kernel (Fused_1q _ | Fused_diag _) ->
        (* The Clifford plan compiles with [~fusion:false]. *)
        assert false
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
let symbolic_tableau circuit =
  List.for_all
    (function
      | Gate.Conditional (_, u, _) -> Tableau.is_pauli u
      | Gate.Unitary _ | Gate.Prep _ | Gate.Measure _ | Gate.Barrier _ -> true)
    (Circuit.instructions circuit)

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
      | M_kernel (Single (u, o, _)) -> Tableau.apply_gate tab u o
      | M_kernel (Fused_1q _ | Fused_diag _) -> assert false
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
      | M_kernel (Single (u, o, _)) -> Tableau.apply_gate tab u o
      | M_kernel (Fused_1q _ | Fused_diag _) -> assert false
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
  let flatten forms =
    let out = Array.make (Array.length forms * words) 0 in
    Array.iteri (fun i (_, form) -> Array.blit form 0 out (i * words) (Array.length form)) forms;
    out
  in
  let conds = Array.of_list (List.rev !conds) in
  {
    random_sites = Array.of_list (List.rev !random_sites);
    words;
    bit_consts = Array.map fst bits;
    bit_forms = flatten bits;
    cond_slots = Array.map fst conds;
    cond_consts = Array.map (fun (_, (c, _)) -> c) conds;
    cond_forms = flatten (Array.map snd conds);
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

(* One shot: its coins, then its classical bits and conditional firings. *)
let sample_shot s ~tally coins rng =
  Array.fill coins 0 s.words 0;
  let at = ref 0 in
  for v = 0 to Array.length s.random_sites - 1 do
    let site = Array.unsafe_get s.random_sites v in
    Rng.skip rng (site - !at);
    if coin rng = 1 then begin
      let k = v / Tableau.word_bits in
      coins.(k) <- coins.(k) lor (1 lsl (v mod Tableau.word_bits))
    end;
    at := site + 1
  done;
  let classical =
    Array.mapi
      (fun i const -> if const < 0 then const else const lxor evaluate s.words s.bit_forms i coins)
      s.bit_consts
  in
  for i = 0 to Array.length s.cond_slots - 1 do
    let const = s.cond_consts.(i) in
    if const >= 0 && const lxor evaluate s.words s.cond_forms i coins = 1 then begin
      let slot = s.cond_slots.(i) in
      tally.fired.(slot) <- tally.fired.(slot) + 1
    end
  done;
  tally.passes <- tally.passes + 1;
  classical

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
  let program = unfused_program circuit in
  let n = Circuit.qubit_count circuit in
  let exec = micro_executor ~noise program n in
  let exec_shot rng = fresh_shot exec n ~tally:(fresh_tally program) rng in
  let sequential () =
    let acc = ref init in
    for _ = 1 to shots do
      let state, classical = exec_shot (Rng.split rng) in
      acc := f !acc state classical
    done;
    !acc
  in
  (* Parallel windows keep one in-flight state per shot, so the window is
     bounded by a memory budget as well as the pool width; the fold itself
     runs in shot order, so results are bit-identical to sequential. *)
  let state_bytes = 16.0 *. ldexp 1.0 n in
  let window =
    let budget = 268_435_456.0 (* 256 MB of in-flight states *) in
    let cap = int_of_float (Float.min 4096.0 (Float.max 1.0 (budget /. state_bytes))) in
    min (4 * Parallel.domain_count ()) cap
  in
  if (not (batch_shots shots)) || window < 2 then sequential ()
  else begin
    let acc = ref init in
    let done_ = ref 0 in
    while !done_ < shots do
      let w = min window (shots - !done_) in
      let streams = Rng.streams rng w in
      let results = Array.make w None in
      Parallel.for_tasks ~chunk:1 w (fun lo hi ->
          for i = lo to hi - 1 do
            results.(i) <- Some (exec_shot streams.(i))
          done);
      Array.iter
        (function
          | Some (state, classical) -> acc := f !acc state classical
          | None -> assert false)
        results;
      done_ := !done_ + w
    done;
    !acc
  end

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
   per shot. *)
type 'k counts = { table : ('k, int) Hashtbl.t; mutable first_seen : 'k list }

let new_counts () = { table = Hashtbl.create 64; first_seen = [] }

let count counts key =
  match Hashtbl.find_opt counts.table key with
  | Some c -> Hashtbl.replace counts.table key (c + 1)
  | None ->
      Hashtbl.replace counts.table key 1;
      counts.first_seen <- key :: counts.first_seen

(* [(key, count)], count-descending, ties in the iteration order of a table
   keyed by [order_key key] (default: the keys themselves). *)
let sorted_histogram ?order_key counts =
  let pairs =
    match order_key with
    | None -> Hashtbl.fold (fun key count acc -> (key, count) :: acc) counts.table []
    | Some f ->
        let table = Hashtbl.create 64 in
        List.iter
          (fun key -> Hashtbl.replace table (f key) (key, Hashtbl.find counts.table key))
          (List.rev counts.first_seen);
        Hashtbl.fold (fun _ pair acc -> pair :: acc) table []
  in
  List.sort (fun (_, a) (_, b) -> compare b a) pairs

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
   discipline). [make_exec] is a per-chunk executor factory: each chunk
   builds its own scratch (a state for trajectories, a tableau or a coin
   vector for the Clifford plan) and its own tally, merged under a lock — counts are
   sums, so the merge order cannot change the report. The histogram is
   tallied from a keys array in shot order, keeping even hash-table
   iteration order identical to a sequential run. *)
let run_trajectory ?(faults = None) ?relabel ~policy ~counters ~program ~tally ~make_exec
    ~rng ~shots () =
  let counts = new_counts () in
  let record = count counts in
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
        | Ok classical -> record (bitstring classical)
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
              keys.(i) <- bitstring (exec local streams.(i))
            done;
            Mutex.lock merge_lock;
            merge_tally ~into:tally local;
            Mutex.unlock merge_lock)
      end
      else begin
        let exec = make_exec () in
        for i = 0 to shots - 1 do
          keys.(i) <- bitstring (exec tally streams.(i))
        done
      end;
      Array.iter record keys);
  match relabel with
  | None -> sorted_histogram counts
  | Some r ->
      List.map
        (fun (key, c) -> (widen_key r key, c))
        (sorted_histogram ~order_key:(widen_key r) counts)

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
  let counts = new_counts () in
  for _ = 1 to shots do
    count counts (sample () land mmask)
  done;
  let key_of k =
    String.init n (fun i ->
        let q = n - 1 - i in
        if measured.(q) then if k land (1 lsl q) <> 0 then '1' else '0' else '-')
  in
  match relabel with
  | None -> List.map (fun (k, c) -> (key_of k, c)) (sorted_histogram counts)
  | Some r ->
      List.map
        (fun (k, c) -> (widen_key r (key_of k), c))
        (sorted_histogram ~order_key:(widen_index r) counts)

let sample_histogram ~probabilities ~measured ~rng ~shots =
  sample_counts ~probabilities ~measured ~rng ~shots ()

(* --- shared sampled-plan distribution ---------------------------------- *)

type sampled_distribution = {
  probabilities : float array;
  dist_measured : bool array;
  dist_relabel : relabel option;
  dist_fusion : fusion_stats;
  dist_gate_applies : (string * int) list;
}

(* The sampled plan's one simulation pass: evolve |0...0> through the
   unitary prefix and return the final distribution. Consumes no
   randomness; preps and measures are terminal (the plan's precondition). *)
let prefix_probabilities program n =
  let state = State.create n in
  Array.iter
    (function
      | M_kernel k -> apply_kernel state k
      | M_cond _ | M_prep _ | M_measure _ -> ())
    program.ops;
  State.probabilities state

(* The sampled plan's gate tally: one pass, no conditionals. *)
let single_pass program =
  let tally = fresh_tally program in
  tally.passes <- 1;
  gate_applies_of program tally

let narrowed circuit =
  match Circuit.compact circuit with
  | None -> (circuit, None)
  | Some (narrow, active) -> (narrow, Some { width = Circuit.qubit_count circuit; active })

let sampled_distribution ?(fusion = true) circuit =
  let narrow, relabel = narrowed circuit in
  match classify_structure narrow with
  | (Trajectory | Clifford), _, _ -> None
  | Sampled, _, measured ->
      let program, fstats = compile_micro ~fusion (Circuit.instructions narrow) in
      Some
        {
          probabilities = prefix_probabilities program (Circuit.qubit_count narrow);
          dist_measured = measured;
          dist_relabel = relabel;
          dist_fusion = fstats;
          dist_gate_applies = single_pass program;
        }

let sample_distribution d ~rng ~shots =
  sample_counts ?relabel:d.dist_relabel ~probabilities:d.probabilities
    ~measured:d.dist_measured ~rng ~shots ()

(* --- the run surface --------------------------------------------------- *)

let run ?(noise = Noise.ideal) ?seed ?rng ?plan ?(shots = 1024) ?faults
    ?(policy = Resilience.default_policy) ?(fusion = true) circuit =
  if shots < 1 then invalid_arg "Engine.run: shots must be positive";
  Trace.with_span "engine.run" (fun run_sp ->
  let counters = Resilience.fresh_counters () in
  let t0 = Clock.now () in
  let analyse_sp = Trace.begin_span "engine.analyse" in
  let chosen, reason =
    match plan with
    | None -> analyse ~noise ~shots circuit
    | Some Trajectory -> (Trajectory, "trajectory plan forced by caller")
    | Some Sampled -> (
        if not (Noise.is_ideal noise) then
          invalid_arg
            "Engine.run: sampled plan forced but circuit needs trajectories: \
             stochastic noise model";
        match classify_structure circuit with
        | Sampled, _, _ -> (Sampled, "sampled plan forced by caller")
        | Trajectory, r, _ ->
            invalid_arg ("Engine.run: sampled plan forced but circuit needs trajectories: " ^ r)
        | Clifford, _, _ -> assert false)
    | Some Clifford -> (
        if not (Noise.is_ideal noise) then
          Qerror.fail ~site:"Engine.run"
            (Qerror.Invalid
               "clifford plan forced but the noise model is stochastic (the \
                tableau simulates ideal Clifford circuits only)");
        match clifford_blocker circuit with
        | Some (gate, index) ->
            Qerror.fail ~site:"Engine.run"
              ~context:[ ("gate", gate); ("index", string_of_int index) ]
              (Qerror.Invalid "clifford plan forced on a non-Clifford circuit")
        | None -> (Clifford, "clifford plan forced by caller"))
  in
  if chosen = Clifford && Circuit.qubit_count circuit > Tableau.max_qubits then
    Qerror.fail ~site:"Engine.run"
      ~context:
        [
          ("qubits", string_of_int (Circuit.qubit_count circuit));
          ("limit", string_of_int Tableau.max_qubits);
        ]
      (Qerror.Invalid "circuit is wider than the stabilizer tableau limit");
  Trace.annotate analyse_sp (fun () ->
      [ ("plan", Trace.String (plan_to_string chosen)); ("reason", Trace.String reason) ]);
  Trace.end_span analyse_sp;
  (* The plan is chosen on the declared circuit; it runs on the active
     qubits only, and the histogram keys are widened back at the end. *)
  let narrow, relabel = narrowed circuit in
  let n = Circuit.qubit_count narrow in
  Trace.annotate run_sp (fun () ->
      [
        ("plan", Trace.String (plan_to_string chosen));
        ("shots", Trace.Int shots);
        ("qubits", Trace.Int (Circuit.qubit_count circuit));
        ("active_qubits", Trace.Int n);
        ("instructions", Trace.Int (Circuit.length circuit));
      ]);
  let rng = resolve_rng seed rng in
  (* Fusion pre-pass: only for ideal noise (per-gate stochastic noise pins
     the gate-by-gate schedule, so a noisy program compiles unfused and
     reports no fusion). [~fusion:false] still compiles — into single-gate
     kernels — so every path runs the same executor. *)
  let ideal = Noise.is_ideal noise in
  (* The Clifford plan feeds every kernel to the tableau one gate at a time,
     so it compiles unfused (fused kernels carry state-vector plans). *)
  let fusion = fusion && chosen <> Clifford in
  let program, fstats =
    if ideal then
      Trace.with_span "engine.fuse" (fun fuse_sp ->
          let program, stats = compile_micro ~fusion (Circuit.instructions narrow) in
          Trace.annotate fuse_sp (fun () ->
              [
                ("fusion", Trace.Bool fusion);
                ("gates_in", Trace.Int stats.gates_in);
                ("kernels", Trace.Int stats.kernels);
                ("fused_1q", Trace.Int stats.fused_1q);
                ("fused_diag", Trace.Int stats.fused_diag);
              ]);
          if Trace.enabled () then begin
            Trace.add_counter "qx.fusion.gates_in" stats.gates_in;
            Trace.add_counter "qx.fusion.kernels" stats.kernels
          end;
          (program, stats))
    else (unfused_program narrow, no_fusion)
  in
  let t1 = Clock.now () in
  let tally = fresh_tally program in
  (* [executor ()] runs inside the simulate span: it does the plan's
     once-per-run work and returns the per-chunk executor factory and the
     span's closing annotations. *)
  let simulate executor =
    let histogram =
      Trace.with_span "engine.simulate" (fun sim_sp ->
          Trace.annotate sim_sp (fun () ->
              [
                ("plan", Trace.String (plan_to_string chosen));
                ("trajectories", Trace.Int shots);
              ]);
          let make_exec, notes = executor () in
          let histogram =
            run_trajectory ~faults ?relabel ~policy ~counters ~program ~tally ~make_exec
              ~rng ~shots ()
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
  let histogram, t_sample_start, gate_applies, measurements =
    match chosen with
    | Sampled ->
        let survivors = surviving_shots ~faults ~policy ~counters shots in
        let _, _, measured = classify_structure narrow in
        let gate_applies = single_pass program in
        trace_counters ~gate_applies ~measurements:0;
        let probabilities =
          Trace.with_span "engine.simulate" (fun sim_sp ->
              let p = prefix_probabilities program n in
              Trace.annotate sim_sp (fun () ->
                  [
                    ( "gate_applies",
                      Trace.Int (List.fold_left (fun acc (_, c) -> acc + c) 0 gate_applies) );
                  ]);
              p)
        in
        let t_sim = Clock.now () in
        let histogram =
          Trace.with_span "engine.sample" (fun sample_sp ->
              Trace.annotate sample_sp (fun () -> [ ("shots", Trace.Int survivors) ]);
              sample_counts ?relabel ~probabilities ~measured ~rng ~shots:survivors ())
        in
        let measured_count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 measured in
        let measurements = survivors * measured_count in
        if Trace.enabled () then Trace.add_counter "qx.measure" measurements;
        (histogram, t_sim, gate_applies, measurements)
    | Trajectory ->
        simulate (fun () ->
            ( trajectory_executor ~noise program n,
              (* Shots that drew no error before the first state-dependent
                 op and so started from the shared ideal state. *)
              fun () -> [ ("clean_shots", Trace.Int tally.clean) ] ))
    | Clifford ->
        simulate (fun () ->
            if
              symbolic_tableau narrow
              && within_budget ~shots ~sites:(snd (count_work narrow)) program n
            then begin
              let sampler = symbolic_pass program n in
              ( (fun () ->
                  let coins = Array.make sampler.words 0 in
                  fun t r -> sample_shot sampler ~tally:t coins r),
                fun () ->
                  [
                    ("executor", Trace.String "symbolic");
                    ("random_outcomes", Trace.Int (Array.length sampler.random_sites));
                  ] )
            end
            else
              ( (fun () ->
                  let tab = Tableau.create n in
                  fun t r -> exec_micro_tableau ~tally:t r tab program),
                fun () -> [ ("executor", Trace.String "per-shot") ] ))
  in
  let t2 = Clock.now () in
  let resilience = resilience_of faults counters in
  Trace.annotate run_sp (fun () ->
      match faults with
      | None -> []
      | Some _ ->
          [
            ("faulted_shots", Trace.Int resilience.faulted_shots);
            ("retries", Trace.Int resilience.retries);
          ]);
  {
    histogram;
    report =
      {
        plan = chosen;
        plan_reason = reason;
        shots;
        seed;
        qubit_count = Circuit.qubit_count circuit;
        instruction_count = Circuit.length circuit;
        gate_applies;
        measurements;
        wall =
          {
            analyse_s = t1 -. t0;
            simulate_s = t_sample_start -. t1;
            sample_s = t2 -. t_sample_start;
          };
        resilience;
        fusion = fstats;
        cache = no_cache;
      };
  })

let run_checked ?noise ?seed ?rng ?plan ?shots ?faults ?policy ?fusion circuit =
  Qerror.protect ~site:"Engine.run" (fun () ->
      run ?noise ?seed ?rng ?plan ?shots ?faults ?policy ?fusion circuit)

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
         metrics schema in docs/engine.md): fusion, fault/retry and cache. *)
      ( "counters",
        Obj
          [ ( "fusion",
              Obj
                [ ("gates_in", Int r.fusion.gates_in); ("kernels", Int r.fusion.kernels);
                  ("fused_1q", Int r.fusion.fused_1q); ("fused_diag", Int r.fusion.fused_diag) ] );
            ( "resilience",
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
