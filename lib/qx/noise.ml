module Gate = Qca_circuit.Gate
module Rng = Qca_util.Rng
module Matrix = Qca_util.Matrix
module Cplx = Qca_util.Cplx

type channel =
  | Depolarizing of float
  | Bit_flip of float
  | Phase_flip of float
  | Bit_phase_flip of float
  | Amplitude_damping of float
  | Phase_damping of float

let apply_pauli state which q =
  match which with
  | 0 -> State.apply state Gate.X [| q |]
  | 1 -> State.apply state Gate.Y [| q |]
  | 2 -> State.apply state Gate.Z [| q |]
  | _ -> assert false

let kraus_damping gamma =
  let k0 =
    Matrix.of_arrays
      [| [| Cplx.one; Cplx.zero |]; [| Cplx.zero; Cplx.make (sqrt (1.0 -. gamma)) 0.0 |] |]
  in
  let k1 =
    Matrix.of_arrays
      [| [| Cplx.zero; Cplx.make (sqrt gamma) 0.0 |]; [| Cplx.zero; Cplx.zero |] |]
  in
  (k0, k1)

(* Trajectory step for amplitude damping: branch probabilities depend on the
   current state (p_decay = gamma * P[q = 1]). *)
let damp state rng gamma (k0, k1) q =
  let p_decay = gamma *. State.prob_one state q in
  let chosen = if Rng.float rng 1.0 < p_decay then k1 else k0 in
  State.apply_matrix1 state chosen q;
  State.normalize state

(* Phase damping is equivalent to a phase flip with p = (1-sqrt(1-l))/2. *)
let dephasing_flip lambda = (1.0 -. sqrt (1.0 -. lambda)) /. 2.0

let apply channel state rng q =
  match channel with
  | Depolarizing p ->
      if Rng.bernoulli rng p then apply_pauli state (Rng.int rng 3) q
  | Bit_flip p -> if Rng.bernoulli rng p then apply_pauli state 0 q
  | Phase_flip p -> if Rng.bernoulli rng p then apply_pauli state 2 q
  | Bit_phase_flip p -> if Rng.bernoulli rng p then apply_pauli state 1 q
  | Amplitude_damping gamma -> if gamma > 0.0 then damp state rng gamma (kraus_damping gamma) q
  | Phase_damping lambda ->
      if Rng.bernoulli rng (dephasing_flip lambda) then apply_pauli state 2 q

type model = {
  single_qubit_error : float;
  two_qubit_error : float;
  readout_error : float;
  prep_error : float;
  t1_ns : float;
  t2_ns : float;
  cycle_ns : float;
}

let ideal =
  {
    single_qubit_error = 0.0;
    two_qubit_error = 0.0;
    readout_error = 0.0;
    prep_error = 0.0;
    t1_ns = infinity;
    t2_ns = infinity;
    cycle_ns = 20.0;
  }

let depolarizing p =
  {
    ideal with
    single_qubit_error = p;
    two_qubit_error = p;
    readout_error = p;
    prep_error = p;
  }

let superconducting =
  {
    single_qubit_error = 0.001;
    two_qubit_error = 0.005;
    readout_error = 0.01;
    prep_error = 0.002;
    t1_ns = 30_000.0;
    t2_ns = 20_000.0;
    cycle_ns = 20.0;
  }

let is_ideal m =
  m.single_qubit_error = 0.0 && m.two_qubit_error = 0.0 && m.readout_error = 0.0
  && m.prep_error = 0.0 && m.t1_ns = infinity && m.t2_ns = infinity

(* One cycle of T1/T2 decay, worked out once per model: the amplitude
   damping rate with its Kraus pair, and the phase-flip probability of the
   pure dephasing. *)
type decay = {
  gamma : float;
  kraus : Matrix.t * Matrix.t;
  dephase_p : float;
}

let pauli_only m = m.t1_ns = infinity && m.t2_ns = infinity

let decay_of m =
  if pauli_only m then None
  else begin
    let gamma = if m.t1_ns = infinity then 0.0 else 1.0 -. exp (-.m.cycle_ns /. m.t1_ns) in
    (* Pure dephasing rate: 1/Tphi = 1/T2 - 1/(2 T1). *)
    let t1_rate = if m.t1_ns = infinity then 0.0 else 1.0 /. (2.0 *. m.t1_ns) in
    let t2_rate = if m.t2_ns = infinity then 0.0 else 1.0 /. m.t2_ns in
    let phi_rate = Float.max 0.0 (t2_rate -. t1_rate) in
    let lambda = 1.0 -. exp (-2.0 *. m.cycle_ns *. phi_rate) in
    Some { gamma; kraus = kraus_damping gamma; dephase_p = dephasing_flip lambda }
  end

let decay_step d state rng q =
  if d.gamma > 0.0 then damp state rng d.gamma d.kraus q;
  if Rng.bernoulli rng d.dephase_p then apply_pauli state 2 q

type gate_noise = { p1 : float; p2 : float; decay : decay option }

let gate_noise m =
  { p1 = m.single_qubit_error; p2 = m.two_qubit_error; decay = decay_of m }

let after_gate g state rng u ops =
  let p = if Gate.arity u >= 2 then g.p2 else g.p1 in
  Array.iter
    (fun q ->
      apply (Depolarizing p) state rng q;
      match g.decay with None -> () | Some d -> decay_step d state rng q)
    ops

let flip_readout m rng outcome =
  if Rng.bernoulli rng m.readout_error then 1 - outcome else outcome

(* --- the noise schedule ------------------------------------------------ *)

type site = Gate_site of Gate.unitary * int array | Prep_site of int

type event = { site : int; qubit : int; pauli : Gate.unitary }

let paulis = [| Gate.X; Gate.Y; Gate.Z |]
let no_event = { site = 0; qubit = 0; pauli = Gate.I }

(* A run's draws as flat tables, one slot per draw [after_gate] and a prep
   make on a Pauli-only model, in the same order: a gate operand's
   depolarising draw, then, at a prep site, its measurement draw (taken
   and ignored, the outcome being 0 on a qubit no gate has touched, so a
   slot that never fires) and, on a noisy model, its prep-error draw. A
   gate slot that fires draws its Pauli with one more [Rng.int]; a prep
   slot's error is X. None of them reads the state. *)
type draws = {
  thresholds : int array;  (* [Rng.below] form of the slot's rate; 0 never fires *)
  sites : int array;
  qubits : int array;
  gate_slot : bool array;  (* fires a drawn Pauli rather than X *)
}

let draws m sites =
  if Array.length sites > 0 && not (pauli_only m) then
    invalid_arg "Noise.draws: T1/T2 damping draws depend on the state";
  let noisy = not (is_ideal m) in
  let th1 = Rng.threshold m.single_qubit_error and th2 = Rng.threshold m.two_qubit_error in
  let th_prep = Rng.threshold m.prep_error in
  let slots = ref 0 in
  Array.iter
    (function
      | Gate_site (_, ops) -> if noisy then slots := !slots + Array.length ops
      | Prep_site _ -> slots := !slots + if noisy then 2 else 1)
    sites;
  let d =
    {
      thresholds = Array.make !slots 0;
      sites = Array.make !slots 0;
      qubits = Array.make !slots 0;
      gate_slot = Array.make !slots false;
    }
  in
  let next = ref 0 in
  let slot ~site ~qubit ~th ~gate =
    let k = !next in
    d.thresholds.(k) <- th;
    d.sites.(k) <- site;
    d.qubits.(k) <- qubit;
    d.gate_slot.(k) <- gate;
    next := k + 1
  in
  Array.iteri
    (fun site -> function
      | Gate_site (u, ops) ->
          if noisy then begin
            let th = if Gate.arity u >= 2 then th2 else th1 in
            Array.iter (fun qubit -> slot ~site ~qubit ~th ~gate:true) ops
          end
      | Prep_site qubit ->
          slot ~site ~qubit ~th:0 ~gate:false;
          if noisy then slot ~site ~qubit ~th:th_prep ~gate:false)
    sites;
  d

let shot_events d rng =
  let n = Array.length d.thresholds in
  let events = ref [] in
  let k = ref (Rng.first_below rng d.thresholds ~from:0) in
  while !k < n do
    let i = !k in
    let pauli = if Array.unsafe_get d.gate_slot i then paulis.(Rng.int rng 3) else Gate.X in
    events := { site = d.sites.(i); qubit = d.qubits.(i); pauli } :: !events;
    k := Rng.first_below rng d.thresholds ~from:(i + 1)
  done;
  match !events with
  | [] -> [||]
  | l ->
      (* Filled from a static event, not from a young one: OCaml's array
         constructor forces a minor collection when it fills an array
         longer than 256 words with a young block. *)
      let n = List.length l in
      let out = Array.make n no_event in
      List.iteri (fun k e -> Array.unsafe_set out (n - 1 - k) e) l;
      out
