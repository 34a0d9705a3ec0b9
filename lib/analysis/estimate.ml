module Circuit = Qca_circuit.Circuit
module Cqasm = Qca_circuit.Cqasm
module Gate = Qca_circuit.Gate
module Engine = Qca_qx.Engine
module Platform = Qca_compiler.Platform
module Noise = Qca_qx.Noise
module Tableau = Qca_qec.Tableau

type classes = {
  t_count : int;
  toffoli : int;
  cnot : int;
  clifford_1q : int;
  rotations : int;
}

(* Totals saturate at [max_int] instead of wrapping negative: a program
   whose unrolled instruction count reaches [max_int] has overflowed, and
   [check] reports it (R05). Operands are never negative. *)
let sat_add a b = if a > max_int - b then max_int else a + b
let sat_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

let classes_total c =
  List.fold_left sat_add 0 [ c.t_count; c.toffoli; c.cnot; c.clifford_1q; c.rotations ]

type t = {
  qubits : int;
  qubits_used : int;
  instructions : int;
  gates : int;
  classes : classes;
  conditionals : int;
  measurements : int;
  preps : int;
  barriers : int;
  depth : int;
  depth_exact : bool;
  clifford_fraction : float;
  plan : Engine.plan;
  plan_reason : string;
  shots : int;
  amplitudes : float;
  state_bytes : float;
  sim_ns : float;
}

type calibration = {
  ns_1q : float;
  ns_diag : float;
  ns_2q : float;
  ns_3q : float;
  ns_sample : float;
  ns_measure : float;
  ns_row : float;
}

(* BENCH_kernels.json, fused kernels at n = 20 on the reference container:
   h ~19.4 ns/amp, t ~9.6, rz/diag ~13-18, cnot ~6.1. Toffoli touches dim/8
   and sampling/collapse are sweep-shaped; see docs/estimate.md. *)
let default_calibration =
  {
    ns_1q = 20.0;
    ns_diag = 14.0;
    ns_2q = 6.0;
    ns_3q = 4.0;
    ns_sample = 25.0;
    ns_measure = 40.0;
    ns_row = 1.0;
  }

(* ------------------------------------------------------------------ *)
(* Gate-class tally: one mutable accumulator per body, scaled linearly
   across subcircuit iterations.                                       *)

type tally = {
  mutable n_t : int;
  mutable n_toffoli : int;
  mutable n_cnot : int;
  mutable n_clifford_1q : int;
  mutable n_rotations : int;
  mutable n_conditionals : int;
  mutable n_measurements : int;
  mutable n_preps : int;
  mutable n_barriers : int;
  mutable n_instructions : int;
}

let tally_zero () =
  {
    n_t = 0;
    n_toffoli = 0;
    n_cnot = 0;
    n_clifford_1q = 0;
    n_rotations = 0;
    n_conditionals = 0;
    n_measurements = 0;
    n_preps = 0;
    n_barriers = 0;
    n_instructions = 0;
  }

let tally_unitary t = function
  | Gate.T | Gate.Tdag -> t.n_t <- t.n_t + 1
  | Gate.Toffoli -> t.n_toffoli <- t.n_toffoli + 1
  | Gate.Cnot | Gate.Cz | Gate.Swap -> t.n_cnot <- t.n_cnot + 1
  | Gate.I | Gate.X | Gate.Y | Gate.Z | Gate.H | Gate.S | Gate.Sdag
  | Gate.X90 | Gate.Xm90 | Gate.Y90 | Gate.Ym90 ->
      t.n_clifford_1q <- t.n_clifford_1q + 1
  | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Cphase _ | Gate.Crk _ ->
      t.n_rotations <- t.n_rotations + 1

let tally_instr t instr =
  t.n_instructions <- t.n_instructions + 1;
  match instr with
  | Gate.Unitary (u, _) -> tally_unitary t u
  | Gate.Conditional (_, u, _) ->
      t.n_conditionals <- t.n_conditionals + 1;
      tally_unitary t u
  | Gate.Prep _ -> t.n_preps <- t.n_preps + 1
  | Gate.Measure _ -> t.n_measurements <- t.n_measurements + 1
  | Gate.Barrier _ -> t.n_barriers <- t.n_barriers + 1

let tally_scale_into ~into ~times src =
  let scale total n = sat_add total (sat_mul times n) in
  into.n_t <- scale into.n_t src.n_t;
  into.n_toffoli <- scale into.n_toffoli src.n_toffoli;
  into.n_cnot <- scale into.n_cnot src.n_cnot;
  into.n_clifford_1q <- scale into.n_clifford_1q src.n_clifford_1q;
  into.n_rotations <- scale into.n_rotations src.n_rotations;
  into.n_conditionals <- scale into.n_conditionals src.n_conditionals;
  into.n_measurements <- scale into.n_measurements src.n_measurements;
  into.n_preps <- scale into.n_preps src.n_preps;
  into.n_barriers <- scale into.n_barriers src.n_barriers;
  into.n_instructions <- scale into.n_instructions src.n_instructions

(* ------------------------------------------------------------------ *)
(* Depth: the same per-qubit busy-until walk as Circuit.depth. A
   zero-operand instruction finishes at cycle 1 without busying any qubit
   (the walk's floor); everything else starts after its operands and
   busies them for one cycle.                                          *)

let walk_instrs profile base instrs =
  List.iter
    (fun instr ->
      let ops = Gate.qubits instr in
      if Array.length ops = 0 then (if !base < 1 then base := 1)
      else begin
        let start =
          Array.fold_left
            (fun acc q -> if profile.(q) > acc then profile.(q) else acc)
            0 ops
        in
        Array.iter (fun q -> profile.(q) <- start + 1) ops
      end)
    instrs

(* Interaction components of a body: operands of one instruction are
   mutually dependent, so a per-iteration profile shift that repeats and is
   constant within every component persists forever (the walk is a max-plus
   translation on each component), making linear extrapolation exact. *)
let component_of qubit_count instrs =
  let parent = Array.init qubit_count (fun i -> i) in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let root = find parent.(i) in
      parent.(i) <- root;
      root
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  List.iter
    (fun instr ->
      let ops = Gate.qubits instr in
      for i = 1 to Array.length ops - 1 do
        union ops.(0) ops.(i)
      done)
    instrs;
  find

(* Direct-iteration budget per repeated body. Below it we just iterate
   (always exact); above it we iterate until the shift provably stabilises
   and extrapolate, falling back to a best-effort extrapolation from the
   last observed shift (depth_exact = false) for pathological bodies. *)
let iteration_cap = 256

let used_qubits qubit_count instrs =
  let seen = Array.make qubit_count false in
  List.iter
    (fun instr -> Array.iter (fun q -> seen.(q) <- true) (Gate.qubits instr))
    instrs;
  seen

(* Apply [iters] repetitions of [instrs] to [profile]; returns true when the
   resulting profile is exact. *)
let walk_repeat profile base qubit_count instrs iters =
  if iters <= iteration_cap then begin
    for _ = 1 to iters do
      walk_instrs profile base instrs
    done;
    true
  end
  else begin
    let seen = used_qubits qubit_count instrs in
    let used = ref [] in
    for q = qubit_count - 1 downto 0 do
      if seen.(q) then used := q :: !used
    done;
    let used = Array.of_list !used in
    let k = Array.length used in
    let comp = component_of qubit_count instrs in
    let prev = Array.make k 0 in
    let shift = Array.make k 0 in
    let last_shift = Array.make k min_int in
    let stable () =
      (* Shift repeated and is constant within every interaction component. *)
      let ok = ref (Array.for_all2 ( = ) shift last_shift) in
      if !ok then begin
        let per_root = Hashtbl.create 16 in
        Array.iteri
          (fun i q ->
            let root = comp q in
            match Hashtbl.find_opt per_root root with
            | None -> Hashtbl.add per_root root shift.(i)
            | Some s -> if s <> shift.(i) then ok := false)
          used
      end;
      !ok
    in
    let applied = ref 0 in
    let converged = ref false in
    (try
       for _ = 1 to iteration_cap do
         Array.iteri (fun i q -> prev.(i) <- profile.(q)) used;
         walk_instrs profile base instrs;
         incr applied;
         Array.iteri (fun i q -> shift.(i) <- profile.(q) - prev.(i)) used;
         if stable () then begin
           converged := true;
           raise Exit
         end;
         Array.blit shift 0 last_shift 0 k
       done
     with Exit -> ());
    let remaining = iters - !applied in
    Array.iteri
      (fun i q -> profile.(q) <- sat_add profile.(q) (sat_mul remaining shift.(i)))
      used;
    !converged || remaining = 0
  end

(* ------------------------------------------------------------------ *)
(* Plan prediction: Engine.choose_plan, the planner's own decision table,
   evaluated on symbolic totals. Structure and total-Clifford verdicts are
   invariant under truncating every subcircuit repetition at 2 (the walk's
   monotone flags saturate in the first copy and first violations happen
   within two), so a cheap probe stands in for the unrolled circuit while
   the shots-monotone cost model gets the exact symbolic gate/measure
   totals.                                                              *)

let probe_of_program (p : Cqasm.program) =
  List.fold_left
    (fun acc (_, iters, body) ->
      Circuit.append acc (Circuit.repeat (min iters 2) body))
    (Circuit.create p.Cqasm.qubit_count)
    p.Cqasm.subcircuits

(* ------------------------------------------------------------------ *)
(* Cost model (docs/estimate.md): state-vector plans hold 2^n complex
   amplitudes at 16 bytes each; one evolution pass sweeps the state once
   per gate at the calibrated per-amplitude rate. The sampled plan pays one
   pass plus O(n) per shot of sampling; trajectories pay the pass (plus
   measurement collapses) per shot; the tableau plan pays O(n) per gate and
   O(n^2) per measurement per shot over its bit-packed rows
   ([Tableau.memory_bytes], ~64 n ceil(n/62) bytes).                     *)

let pass_ns cal classes dim =
  dim
  *. ((float_of_int classes.t_count *. cal.ns_diag)
     +. (float_of_int classes.toffoli *. cal.ns_3q)
     +. (float_of_int classes.cnot *. cal.ns_2q)
     +. (float_of_int classes.clifford_1q *. cal.ns_1q)
     +. (float_of_int classes.rotations *. cal.ns_1q))

let cost cal ~plan ~n ~shots ~classes ~measures =
  let dim = ldexp 1.0 n in
  let fn = float_of_int n in
  let fshots = float_of_int shots in
  let fmeasures = float_of_int measures in
  match plan with
  | Engine.Clifford ->
      let bytes = Tableau.memory_bytes n in
      let gates = float_of_int (classes_total classes) in
      let ns =
        fshots *. cal.ns_row
        *. ((2.0 *. fn *. gates) +. (4.0 *. fn *. fn *. fmeasures))
      in
      (0.0, bytes, ns)
  | Engine.Sampled ->
      let ns = pass_ns cal classes dim +. (fshots *. fn *. cal.ns_sample) in
      (dim, dim *. 16.0, ns)
  | Engine.Trajectory ->
      let ns =
        fshots *. (pass_ns cal classes dim +. (fmeasures *. dim *. cal.ns_measure))
      in
      (dim, dim *. 16.0, ns)

(* ------------------------------------------------------------------ *)

let of_program ?(shots = 1024) ?(noisy = false) ?plan (p : Cqasm.program) =
  let qubit_count = p.Cqasm.qubit_count in
  let total = tally_zero () in
  let profile = Array.make (max qubit_count 1) 0 in
  let base = ref 0 in
  let exact = ref true in
  let seen = Array.make (max qubit_count 1) false in
  let active = Array.make (max qubit_count 1) false in
  List.iter
    (fun (_, iters, body) ->
      let iters = max 1 iters in
      let instrs = Circuit.instructions body in
      let body_tally = tally_zero () in
      List.iter (tally_instr body_tally) instrs;
      tally_scale_into ~into:total ~times:iters body_tally;
      List.iter
        (fun instr ->
          Array.iter (fun q -> seen.(q) <- true) (Gate.qubits instr);
          Array.iter (fun q -> active.(q) <- true) (Gate.active_qubits instr))
        instrs;
      if not (walk_repeat profile base qubit_count instrs iters) then
        exact := false)
    p.Cqasm.subcircuits;
  let depth =
    Array.fold_left (fun acc v -> if v > acc then v else acc) !base profile
  in
  let qubits_used =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen
  in
  let classes =
    {
      t_count = total.n_t;
      toffoli = total.n_toffoli;
      cnot = total.n_cnot;
      clifford_1q = total.n_clifford_1q;
      rotations = total.n_rotations;
    }
  in
  let gates = classes_total classes in
  let measures = total.n_measurements + total.n_preps in
  let plan, plan_reason =
    match plan with
    | Some forced -> (forced, "forced")
    | None ->
        Engine.choose_plan ~noisy ~shots ~gates ~measures (probe_of_program p)
  in
  (* The engine chooses the plan on the declared width but simulates only
     the active qubits (Circuit.active_qubits), so that is what it costs. *)
  let amplitudes, state_bytes, sim_ns =
    cost default_calibration ~plan
      ~n:(Array.length (Circuit.active_of_used active))
      ~shots ~classes ~measures
  in
  let clifford_fraction =
    if gates = 0 then 1.0
    else float_of_int (classes.cnot + classes.clifford_1q) /. float_of_int gates
  in
  {
    qubits = qubit_count;
    qubits_used;
    instructions = total.n_instructions;
    gates;
    classes;
    conditionals = total.n_conditionals;
    measurements = total.n_measurements;
    preps = total.n_preps;
    barriers = total.n_barriers;
    depth;
    depth_exact = !exact;
    clifford_fraction;
    plan;
    plan_reason;
    shots;
    amplitudes;
    state_bytes;
    sim_ns;
  }

let of_circuit ?shots ?noisy ?plan circuit =
  of_program ?shots ?noisy ?plan (Cqasm.of_circuit circuit)

(* ------------------------------------------------------------------ *)
(* Resource diagnostics (R01-R05, docs/analysis.md).                   *)

let host_bytes_default = 8.0 *. 1024.0 *. 1024.0 *. 1024.0
let budget_ns_default = 60e9

let human_bytes b =
  if b >= 1024.0 *. 1024.0 *. 1024.0 then
    Printf.sprintf "%.1f GiB" (b /. (1024.0 *. 1024.0 *. 1024.0))
  else if b >= 1024.0 *. 1024.0 then
    Printf.sprintf "%.1f MiB" (b /. (1024.0 *. 1024.0))
  else if b >= 1024.0 then Printf.sprintf "%.1f KiB" (b /. 1024.0)
  else Printf.sprintf "%.0f B" b

let human_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let check ?platform est =
  let out = ref [] in
  let add d = out := d :: !out in
  if est.instructions = max_int then
    add
      (Diagnostic.make Diagnostic.Error ~code:"R05" ~check:"estimate-overflow"
         ~site:"estimate"
         (Printf.sprintf
            "the unrolled program has at least %d instructions; every total \
             stops there and is a lower bound"
            max_int)
         ~fixit:"reduce the subcircuit repeat counts");
  (match platform with
  | None -> ()
  | Some p ->
      if est.qubits > p.Platform.qubit_count then
        add
          (Diagnostic.make Diagnostic.Error ~code:"R01"
             ~check:"estimated-width" ~site:"estimate"
             (Printf.sprintf
                "program declares %d qubits but platform %s has %d"
                est.qubits p.Platform.name p.Platform.qubit_count)
             ~fixit:
               (Printf.sprintf
                  "retarget a platform with at least %d qubits or narrow \
                   the register"
                  est.qubits));
      let t2 = p.Platform.noise.Noise.t2_ns in
      let runtime_ns = float_of_int est.depth *. float_of_int p.Platform.cycle_ns in
      if Float.is_finite t2 && runtime_ns > t2 then
        add
          (Diagnostic.make Diagnostic.Warning ~code:"R02"
             ~check:"estimated-coherence" ~site:"estimate"
             (Printf.sprintf
                "estimated depth %d at %d ns/cycle (%s) exceeds platform \
                 %s T2 (%s)"
                est.depth p.Platform.cycle_ns (human_ns runtime_ns)
                p.Platform.name (human_ns t2))
             ~fixit:"shorten the circuit or enable optimization passes"));
  if est.state_bytes > host_bytes_default then
    add
      (Diagnostic.make Diagnostic.Error ~code:"R03" ~check:"estimated-memory"
         ~site:"estimate"
         (Printf.sprintf
            "estimated %s plan needs %s of state but the host budget is %s"
            (Engine.plan_to_string est.plan)
            (human_bytes est.state_bytes)
            (human_bytes host_bytes_default))
         ~fixit:
           (Printf.sprintf
              "reduce the register below %d qubits (or keep the circuit \
               all-Clifford for the tableau plan)"
              (int_of_float (Float.log2 (host_bytes_default /. 16.0)) + 1)));
  if est.sim_ns > budget_ns_default then
    add
      (Diagnostic.make Diagnostic.Warning ~code:"R04"
         ~check:"estimated-runtime" ~site:"estimate"
         (Printf.sprintf
            "estimated simulation time %s exceeds the %s budget"
            (human_ns est.sim_ns) (human_ns budget_ns_default))
         ~fixit:"reduce shots or gate count");
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Renderers.                                                          *)

(* Costs are projections: six significant digits, except that integral
   counts below 1e15 stay exact. *)
let to_json est =
  let open Qca_util.Json in
  let cost f = Float (if Float.is_integer f && Float.abs f < 1e15 then f else round_sig 6 f) in
  let c = est.classes in
  Obj
    [ ("qubits", Int est.qubits); ("qubits_used", Int est.qubits_used);
      ("instructions", Int est.instructions); ("gates", Int est.gates);
      ( "classes",
        Obj
          [ ("t", Int c.t_count); ("toffoli", Int c.toffoli); ("cnot", Int c.cnot);
            ("clifford_1q", Int c.clifford_1q); ("rotations", Int c.rotations) ] );
      ("conditionals", Int est.conditionals); ("measurements", Int est.measurements);
      ("preps", Int est.preps); ("barriers", Int est.barriers); ("depth", Int est.depth);
      ("depth_exact", Bool est.depth_exact); ("clifford_fraction", cost est.clifford_fraction);
      ("plan", String (Engine.plan_to_string est.plan)); ("plan_reason", String est.plan_reason);
      ("shots", Int est.shots); ("amplitudes", cost est.amplitudes);
      ("state_bytes", cost est.state_bytes); ("sim_ns", cost est.sim_ns) ]

let render est =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "qubits:             %d (%d used)" est.qubits est.qubits_used;
  line "instructions:       %d" est.instructions;
  line "gates:              %d" est.gates;
  line "  t:                %d" est.classes.t_count;
  line "  toffoli:          %d" est.classes.toffoli;
  line "  2q clifford:      %d" est.classes.cnot;
  line "  1q clifford:      %d" est.classes.clifford_1q;
  line "  rotations:        %d" est.classes.rotations;
  line "conditionals:       %d" est.conditionals;
  line "measurements:       %d" est.measurements;
  line "preps:              %d" est.preps;
  line "depth:              %d%s" est.depth
    (if est.depth_exact then "" else " (extrapolated)");
  line "clifford fraction:  %.1f%%" (est.clifford_fraction *. 100.0);
  line "plan:               %s (%s)" (Engine.plan_to_string est.plan)
    est.plan_reason;
  line "shots:              %d" est.shots;
  line "state memory:       %s" (human_bytes est.state_bytes);
  line "est sim time:       %s" (human_ns est.sim_ns);
  Buffer.contents b
