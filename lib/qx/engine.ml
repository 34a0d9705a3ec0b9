module Circuit = Qca_circuit.Circuit
module Gate = Qca_circuit.Gate
module Rng = Qca_util.Rng
module Qerror = Qca_util.Error
module Fault = Qca_util.Fault
module Resilience = Qca_util.Resilience
module Trace = Qca_util.Trace
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

(* --- instrumentation --------------------------------------------------- *)

type tally = { applies : (string, int) Hashtbl.t; mutable measures : int }

let fresh_tally () = { applies = Hashtbl.create 16; measures = 0 }

let count_apply tally name =
  Hashtbl.replace tally.applies name
    (1 + Option.value ~default:0 (Hashtbl.find_opt tally.applies name))

let gate_applies_of tally =
  Hashtbl.fold (fun name count acc -> (name, count) :: acc) tally.applies []
  |> List.sort (fun (na, a) (nb, b) ->
         match compare b a with 0 -> compare na nb | c -> c)

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
   of plan steps per shot. Barriers are dropped at compile time and
   conditional gate names are cached, so the per-shot loop does no list
   traversal and no string construction. *)
type micro_op =
  | M_kernel of fused_kernel
  | M_cond of int * Gate.unitary * int array * string
  | M_prep of int
  | M_measure of int

let compile_micro ~fusion instrs =
  let steps, fstats = compile_steps ~fusion instrs in
  let ops =
    List.filter_map
      (fun step ->
        match step with
        | Kernel k -> Some (M_kernel k)
        | Instr (Gate.Conditional (bit, u, o)) ->
            Some (M_cond (bit, u, o, Gate.name u))
        | Instr (Gate.Prep q) -> Some (M_prep q)
        | Instr (Gate.Measure q) -> Some (M_measure q)
        | Instr (Gate.Barrier _) -> None
        | Instr (Gate.Unitary _) -> assert false)
      steps
  in
  (Array.of_list ops, fstats)

(* --- the per-shot interpreter ------------------------------------------ *)

let record tally name =
  count_apply tally name;
  if Trace.enabled () then Trace.add_counter ("qx.apply." ^ name) 1

(* The one state-vector shot executor (trajectory plan, [Sim.run],
   [fold_trajectories]): a fresh state per shot, measurement collapse,
   classical feedback, and — for a stochastic [noise] model — per-gate
   errors after every kernel, prep errors and readout flips. Randomness is
   drawn in program order, gate by gate: a noisy program is compiled
   unfused, and fused kernels (ideal runs only) are bit-identical to
   gate-by-gate application and draw nothing. The tally counts every
   {e logical} gate: fused kernels record each constituent gate name. *)
let exec_micro ~noise ~tally rng ops n =
  let state = State.create n in
  let classical = Array.make n (-1) in
  let ideal = Noise.is_ideal noise in
  for i = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops i with
    | M_kernel k -> (
        apply_kernel state k;
        match k with
        | Single (u, o, name) ->
            record tally name;
            if not ideal then Noise.after_gate noise state rng u o
        | Fused_1q (_, _, names) | Fused_diag (_, names) -> List.iter (record tally) names)
    | M_cond (bit, u, o, name) ->
        if classical.(bit) = 1 then begin
          State.apply state u o;
          record tally name;
          if not ideal then Noise.after_gate noise state rng u o
        end
    | M_prep q ->
        let current = State.measure state rng q in
        if current = 1 then State.apply state Gate.X [| q |];
        if (not ideal) && Rng.bernoulli rng noise.Noise.prep_error then
          State.apply state Gate.X [| q |]
    | M_measure q ->
        let outcome = State.measure state rng q in
        tally.measures <- tally.measures + 1;
        if Trace.enabled () then Trace.add_counter "qx.measure" 1;
        classical.(q) <- (if ideal then outcome else Noise.flip_readout noise rng outcome)
  done;
  (state, classical)

let unfused_program circuit = fst (compile_micro ~fusion:false (Circuit.instructions circuit))

let exec_shot ?(noise = Noise.ideal) rng circuit =
  exec_micro ~noise ~tally:(fresh_tally ()) rng (unfused_program circuit)
    (Circuit.qubit_count circuit)

(* Clifford-plan executor: the same micro-program, dispatched onto a reused
   tableau ([Tableau.reset] per shot, no allocation). Seeding discipline
   mirrors [State.measure]'s randomness contract exactly: one uniform draw
   per measurement, outcome 1 iff the draw is below P(1). For a random
   stabilizer measurement P(1) is exactly 1/2, so comparing the same draw
   against 0.5 reproduces the state-vector executor's outcome —
   seed-identical histograms across the two plans. Deterministic outcomes
   consume the draw without using it, as [State.measure] also always
   draws. *)
let exec_micro_tableau ~tally rng tab ops =
  Tableau.reset tab;
  let n = Tableau.qubit_count tab in
  let classical = Array.make n (-1) in
  let record = record tally in
  let measure q =
    let draw = Rng.float rng 1.0 in
    Tableau.measure_with tab q ~random_outcome:(fun () ->
        if draw < 0.5 then 1 else 0)
  in
  for i = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops i with
    | M_kernel (Single (u, o, name)) ->
        Tableau.apply_gate tab u o;
        record name
    | M_kernel (Fused_1q _ | Fused_diag _) ->
        (* The Clifford plan compiles with [~fusion:false]. *)
        assert false
    | M_cond (bit, u, o, name) ->
        if classical.(bit) = 1 then begin
          Tableau.apply_gate tab u o;
          record name
        end
    | M_prep q ->
        let current = measure q in
        if current = 1 then Tableau.x tab q
    | M_measure q ->
        let outcome = measure q in
        tally.measures <- tally.measures + 1;
        if Trace.enabled () then Trace.add_counter "qx.measure" 1;
        classical.(q) <- outcome
  done;
  classical

(* --- batched trajectories ---------------------------------------------- *)

(* Shots per claimed chunk when batching across the domain pool: small
   enough that a few hundred shots spread over every domain, large enough
   to amortise chunk claims and per-chunk scratch (one tableau). *)
let shot_chunk = 8

let merge_tally ~into src =
  Hashtbl.iter
    (fun name c ->
      Hashtbl.replace into.applies name
        (c + Option.value ~default:0 (Hashtbl.find_opt into.applies name)))
    src.applies;
  into.measures <- into.measures + src.measures

(* Whether a batch of shots is worth dispatching to the pool: tracing runs
   stay sequential (trace counters are not domain-safe), and trivially
   small batches are not worth the dispatch. *)
let batch_shots shots =
  Parallel.available () && (not (Trace.enabled ())) && shots > shot_chunk

let fold_trajectories ?(noise = Noise.ideal) ~rng ~shots ~init ~f circuit =
  (* Compiled once; each shot gets its own tally so parallel shots share
     nothing mutable. *)
  let ops = unfused_program circuit in
  let n = Circuit.qubit_count circuit in
  let exec_shot rng = exec_micro ~noise ~tally:(fresh_tally ()) rng ops n in
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

let sorted_histogram table =
  Hashtbl.fold (fun key count acc -> (key, count) :: acc) table []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

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
   builds its own scratch (a tableau for the Clifford plan, nothing for the
   state-vector plans) and its own tally, merged under a lock — counts are
   sums, so the merge order cannot change the report. The histogram is
   tallied from a keys array in shot order, keeping even hash-table
   iteration order identical to a sequential run. *)
let run_trajectory ?(faults = None) ~policy ~counters ~tally ~make_exec ~rng
    ~shots () =
  let table = Hashtbl.create 64 in
  let record key =
    Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
  in
  (match faults with
  | None ->
      let streams = Rng.streams rng shots in
      let keys = Array.make shots "" in
      if batch_shots shots then begin
        let merge_lock = Mutex.create () in
        Parallel.for_tasks ~chunk:shot_chunk shots (fun lo hi ->
            let local = fresh_tally () in
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
      Array.iter record keys
  | Some _ ->
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
      done);
  sorted_histogram table

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

let sample_histogram ~probabilities ~measured ~rng ~shots =
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
  let counts = Hashtbl.create 64 in
  for _ = 1 to shots do
    let k = sample () land mmask in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let key_of k =
    String.init n (fun i ->
        let q = n - 1 - i in
        if measured.(q) then if k land (1 lsl q) <> 0 then '1' else '0' else '-')
  in
  Hashtbl.fold (fun k count acc -> (key_of k, count) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* --- shared sampled-plan distribution ---------------------------------- *)

type sampled_distribution = {
  probabilities : float array;
  dist_measured : bool array;
  dist_fusion : fusion_stats;
  dist_gate_applies : (string * int) list;
}

(* The sampled plan's one simulation pass: evolve |0...0> through the
   unitary prefix and return the final distribution. Consumes no
   randomness; preps and measures are terminal (the plan's precondition). *)
let prefix_probabilities ~record ops n =
  let state = State.create n in
  Array.iter
    (function
      | M_kernel k -> (
          apply_kernel state k;
          match k with
          | Single (_, _, name) -> record name
          | Fused_1q (_, _, names) | Fused_diag (_, names) -> List.iter record names)
      | M_cond _ | M_prep _ | M_measure _ -> ())
    ops;
  State.probabilities state

let sampled_distribution ?(fusion = true) circuit =
  match classify_structure circuit with
  | (Trajectory | Clifford), _, _ -> None
  | Sampled, _, measured ->
      let ops, fstats = compile_micro ~fusion (Circuit.instructions circuit) in
      let tally = fresh_tally () in
      Some
        {
          probabilities =
            prefix_probabilities ~record:(count_apply tally) ops (Circuit.qubit_count circuit);
          dist_measured = measured;
          dist_fusion = fstats;
          dist_gate_applies = gate_applies_of tally;
        }

(* --- the run surface --------------------------------------------------- *)

let run ?(noise = Noise.ideal) ?seed ?rng ?plan ?(shots = 1024) ?faults
    ?(policy = Resilience.default_policy) ?(fusion = true) circuit =
  if shots < 1 then invalid_arg "Engine.run: shots must be positive";
  Trace.with_span "engine.run" (fun run_sp ->
  let counters = Resilience.fresh_counters () in
  let t0 = Sys.time () in
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
  Trace.annotate analyse_sp (fun () ->
      [ ("plan", Trace.String (plan_to_string chosen)); ("reason", Trace.String reason) ]);
  Trace.end_span analyse_sp;
  Trace.annotate run_sp (fun () ->
      [
        ("plan", Trace.String (plan_to_string chosen));
        ("shots", Trace.Int shots);
        ("qubits", Trace.Int (Circuit.qubit_count circuit));
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
  let ops, fstats =
    if ideal then
      Trace.with_span "engine.fuse" (fun fuse_sp ->
          let ops, stats = compile_micro ~fusion (Circuit.instructions circuit) in
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
          (ops, stats))
    else (unfused_program circuit, no_fusion)
  in
  let n = Circuit.qubit_count circuit in
  let t1 = Sys.time () in
  let tally = fresh_tally () in
  let simulate make_exec =
    let histogram =
      Trace.with_span "engine.simulate" (fun sim_sp ->
          Trace.annotate sim_sp (fun () ->
              [
                ("plan", Trace.String (plan_to_string chosen));
                ("trajectories", Trace.Int shots);
              ]);
          run_trajectory ~faults ~policy ~counters ~tally ~make_exec ~rng ~shots ())
    in
    (* Read the clock only once the shots have run: they are all simulation. *)
    (histogram, Sys.time ())
  in
  let histogram, t_sample_start =
    match chosen with
    | Sampled ->
        let survivors = surviving_shots ~faults ~policy ~counters shots in
        let _, _, measured = classify_structure circuit in
        let probabilities =
          Trace.with_span "engine.simulate" (fun sim_sp ->
              let p = prefix_probabilities ~record:(record tally) ops n in
              Trace.annotate sim_sp (fun () ->
                  [
                    ( "gate_applies",
                      Trace.Int (Hashtbl.fold (fun _ c acc -> acc + c) tally.applies 0) );
                  ]);
              p)
        in
        let t_sim = Sys.time () in
        let histogram =
          Trace.with_span "engine.sample" (fun sample_sp ->
              Trace.annotate sample_sp (fun () -> [ ("shots", Trace.Int survivors) ]);
              sample_histogram ~probabilities ~measured ~rng ~shots:survivors)
        in
        let measured_count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 measured in
        tally.measures <- survivors * measured_count;
        if Trace.enabled () then Trace.add_counter "qx.measure" tally.measures;
        (histogram, t_sim)
    | Trajectory -> simulate (fun () t r -> snd (exec_micro ~noise ~tally:t r ops n))
    | Clifford ->
        simulate (fun () ->
            let tab = Tableau.create n in
            fun t r -> exec_micro_tableau ~tally:t r tab ops)
  in
  let t2 = Sys.time () in
  let resilience =
    match faults with
    | None -> no_resilience
    | Some f ->
        {
          faults_injected = Fault.counts f;
          retries = counters.Resilience.retries;
          faulted_shots = counters.Resilience.faulted_shots;
          backoff_ns = counters.Resilience.backoff_total_ns;
          degraded = None;
        }
  in
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
        gate_applies = gate_applies_of tally;
        measurements = tally.measures;
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

let report_to_json r =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer
    (Printf.sprintf "{\"plan\":\"%s\",\"plan_reason\":\"%s\",\"shots\":%d,\"seed\":%s,"
       (plan_to_string r.plan) (Trace.json_escape r.plan_reason) r.shots
       (match r.seed with Some s -> string_of_int s | None -> "null"));
  Buffer.add_string buffer
    (Printf.sprintf "\"qubits\":%d,\"instructions\":%d,\"measurements\":%d,"
       r.qubit_count r.instruction_count r.measurements);
  Buffer.add_string buffer "\"gate_applies\":{";
  List.iteri
    (fun i (name, count) ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer (Printf.sprintf "\"%s\":%d" (Trace.json_escape name) count))
    r.gate_applies;
  Buffer.add_string buffer "},";
  Buffer.add_string buffer
    (Printf.sprintf
       "\"wall_s\":{\"analyse\":%.6f,\"simulate\":%.6f,\"sample\":%.6f},"
       r.wall.analyse_s r.wall.simulate_s r.wall.sample_s);
  (* Every counter family lives under one stable "counters" object (the
     metrics schema in docs/engine.md): fusion, fault/retry and cache. *)
  Buffer.add_string buffer "\"counters\":{";
  Buffer.add_string buffer
    (Printf.sprintf
       "\"fusion\":{\"gates_in\":%d,\"kernels\":%d,\"fused_1q\":%d,\"fused_diag\":%d},"
       r.fusion.gates_in r.fusion.kernels r.fusion.fused_1q r.fusion.fused_diag);
  Buffer.add_string buffer "\"resilience\":{\"faults\":{";
  List.iteri
    (fun i (site, count) ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer (Printf.sprintf "\"%s\":%d" (Trace.json_escape site) count))
    r.resilience.faults_injected;
  Buffer.add_string buffer
    (Printf.sprintf "},\"retries\":%d,\"faulted_shots\":%d,\"backoff_ns\":%d,\"degraded\":%s},"
       r.resilience.retries r.resilience.faulted_shots r.resilience.backoff_ns
       (match r.resilience.degraded with
       | Some why -> "\"" ^ Trace.json_escape why ^ "\""
       | None -> "null"));
  Buffer.add_string buffer
    (Printf.sprintf "\"cache\":{\"hits\":%d,\"shared\":%d}}}" r.cache.cache_hits
       r.cache.cache_shared);
  Buffer.contents buffer
