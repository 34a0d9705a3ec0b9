module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Trace = Qca_util.Trace

(* ------------------------------------------------------------------ *)
(* Statistics and configuration                                        *)

type stats = {
  removed_pairs : int;
  merged_rotations : int;
  dropped_identities : int;
  conjugations : int;
  euler_runs : int;
  consolidations : int;
  rounds : int;
  blocks_rendered : int;
  blocks_reused : int;
}

let zero_stats =
  {
    removed_pairs = 0;
    merged_rotations = 0;
    dropped_identities = 0;
    conjugations = 0;
    euler_runs = 0;
    consolidations = 0;
    rounds = 0;
    blocks_rendered = 0;
    blocks_reused = 0;
  }

(* Per-pass rewrite counts, folded into [stats] by the driver. *)
type delta = {
  d_pairs : int;
  d_merges : int;
  d_drops : int;
  d_conj : int;
  d_euler : int;
  d_blocks : int;
}

let no_delta =
  { d_pairs = 0; d_merges = 0; d_drops = 0; d_conj = 0; d_euler = 0; d_blocks = 0 }

let delta_total d =
  d.d_pairs + d.d_merges + d.d_drops + d.d_conj + d.d_euler + d.d_blocks

let fold_delta s d =
  {
    s with
    removed_pairs = s.removed_pairs + d.d_pairs;
    merged_rotations = s.merged_rotations + d.d_merges;
    dropped_identities = s.dropped_identities + d.d_drops;
    conjugations = s.conjugations + d.d_conj;
    euler_runs = s.euler_runs + d.d_euler;
    consolidations = s.consolidations + d.d_blocks;
  }

type basis = Zyz | Pulse

type config = {
  basis : basis option;
  platform : Platform.t option;
  consolidate : bool;
  max_rounds : int;
}

let logical_config =
  { basis = Some Zyz; platform = None; consolidate = true; max_rounds = 12 }

let physical_config p =
  let pulse_native =
    Platform.supports p Gate.X90 && Platform.supports p Gate.Y90
    && Platform.supports p (Gate.Rz 0.0)
  in
  {
    basis = (if pulse_native then Some Pulse else None);
    platform = Some p;
    consolidate = true;
    max_rounds = 12;
  }

type level = Basic | Full

(* ------------------------------------------------------------------ *)
(* Angle and instruction helpers                                       *)

let two_pi = 2.0 *. Float.pi
let half_pi = Float.pi /. 2.0
let quarter_pi = Float.pi /. 4.0

(* Normalise a rotation angle into (-pi, pi]. *)
let normalize_angle theta =
  let t = Float.rem theta two_pi in
  let t = if t > Float.pi then t -. two_pi else t in
  if t <= -.Float.pi then t +. two_pi else t

let is_null_rotation theta = Float.abs (normalize_angle theta) < 1e-12

let is_droppable = function
  | Gate.Unitary (Gate.I, _) -> true
  | Gate.Unitary ((Gate.Rx t | Gate.Ry t | Gate.Rz t | Gate.Cphase t), _) ->
      is_null_rotation t
  | _ -> false

(* Qubits an instruction reads or writes, including a conditional's
   classical bit (treated as its source qubit for ordering purposes). *)
let footprint = function
  | Gate.Unitary (_, ops) -> ops
  | Gate.Conditional (bit, _, ops) -> Array.append [| bit |] ops
  | Gate.Prep q | Gate.Measure q -> [| q |]
  | Gate.Barrier qs -> qs

(* Operand arrays compared without the polymorphic [=]. *)
let same_ops (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let i = ref 0 in
  while !i < Array.length a && a.(!i) = b.(!i) do
    incr i
  done;
  !i = Array.length a

let touches (fp : int array) q =
  let i = ref 0 in
  while !i < Array.length fp && fp.(!i) <> q do
    incr i
  done;
  !i < Array.length fp

let overlaps a b =
  let i = ref 0 in
  while !i < Array.length a && not (touches b a.(!i)) do
    incr i
  done;
  !i < Array.length a

(* Each instruction's wires as the bits [q mod 63] of an int. Disjoint
   masks mean disjoint wire sets, so a scan skips most instructions on
   one test; overlapping masks still need [overlaps]. *)
let wire_masks arr =
  Array.map
    (fun g -> Array.fold_left (fun m q -> m lor (1 lsl (q mod 63))) 0 (footprint g))
    arr

let close_to a b = Float.abs (a -. b) < 1e-12

let unitary_matches u v =
  match (u, v) with
  | Gate.Rx a, Gate.Rx b
  | Gate.Ry a, Gate.Ry b
  | Gate.Rz a, Gate.Rz b
  | Gate.Cphase a, Gate.Cphase b ->
      close_to a b || close_to (normalize_angle a) (normalize_angle b)
  | Gate.Crk a, Gate.Crk b -> a = b
  | _ -> u == v (* the other constructors carry no argument *)

(* Gates whose operand order is irrelevant. *)
let symmetric_ops = function
  | Gate.Cz | Gate.Swap | Gate.Cphase _ | Gate.Crk _ -> true
  | _ -> false

let same_operands u ops ops' =
  same_ops ops ops'
  || symmetric_ops u
     && Array.length ops = 2
     && Array.length ops' = 2
     && ops.(0) = ops'.(1)
     && ops.(1) = ops'.(0)

let cancels a b =
  match (a, b) with
  | Gate.Unitary (u, ops), Gate.Unitary (v, ops') ->
      same_operands u ops ops' && unitary_matches (Gate.adjoint u) v
  | _ -> false

(* Merge two same-axis rotations into one; None when not mergeable. *)
let merge a b =
  match (a, b) with
  | Gate.Unitary (Gate.Rx t1, ops), Gate.Unitary (Gate.Rx t2, ops')
    when same_ops ops ops' ->
      Some (Gate.Unitary (Gate.Rx (normalize_angle (t1 +. t2)), ops))
  | Gate.Unitary (Gate.Ry t1, ops), Gate.Unitary (Gate.Ry t2, ops')
    when same_ops ops ops' ->
      Some (Gate.Unitary (Gate.Ry (normalize_angle (t1 +. t2)), ops))
  | Gate.Unitary (Gate.Rz t1, ops), Gate.Unitary (Gate.Rz t2, ops')
    when same_ops ops ops' ->
      Some (Gate.Unitary (Gate.Rz (normalize_angle (t1 +. t2)), ops))
  | Gate.Unitary (Gate.Cphase t1, ops), Gate.Unitary (Gate.Cphase t2, ops')
    when same_operands (Gate.Cphase t1) ops ops' ->
      Some (Gate.Unitary (Gate.Cphase (normalize_angle (t1 +. t2)), ops))
  | _ -> None

(* Named-pair contractions, all verified equal up to global phase. *)
let pair_rewrite u v =
  match (u, v) with
  | Gate.X90, Gate.X90 | Gate.Xm90, Gate.Xm90 -> Some Gate.X
  | Gate.Y90, Gate.Y90 | Gate.Ym90, Gate.Ym90 -> Some Gate.Y
  | Gate.S, Gate.S | Gate.Sdag, Gate.Sdag -> Some Gate.Z
  | Gate.T, Gate.T -> Some Gate.S
  | Gate.Tdag, Gate.Tdag -> Some Gate.Sdag
  | Gate.S, Gate.Z | Gate.Z, Gate.S -> Some Gate.Sdag
  | Gate.Sdag, Gate.Z | Gate.Z, Gate.Sdag -> Some Gate.S
  | Gate.X, Gate.X90 | Gate.X90, Gate.X -> Some Gate.Xm90
  | Gate.X, Gate.Xm90 | Gate.Xm90, Gate.X -> Some Gate.X90
  | Gate.Y, Gate.Y90 | Gate.Y90, Gate.Y -> Some Gate.Ym90
  | Gate.Y, Gate.Ym90 | Gate.Ym90, Gate.Y -> Some Gate.Y90
  | _ -> None

let emittable config u =
  match config.platform with None -> true | Some p -> Platform.supports p u

(* ------------------------------------------------------------------ *)
(* Commutation rules (conservative)                                    *)

let x_like = function
  | Gate.X | Gate.X90 | Gate.Xm90 | Gate.Rx _ -> true
  | _ -> false

let y_like = function
  | Gate.Y | Gate.Y90 | Gate.Ym90 | Gate.Ry _ -> true
  | _ -> false

(* Do two unitary instructions with overlapping operand sets commute?
   Only rules with a short algebraic proof are admitted; everything
   else is treated as a barrier. *)
let commute_overlapping (u, uops) (v, vops) =
  let diag_past_cnot dops cops = not (touches dops cops.(1)) in
  if Gate.is_diagonal u && Gate.is_diagonal v then true
  else
    match (u, v) with
    | Gate.Cnot, Gate.Cnot ->
        let c1 = uops.(0) and t1 = uops.(1) in
        let c2 = vops.(0) and t2 = vops.(1) in
        (c1 = c2 || t1 = t2) && c1 <> t2 && t1 <> c2
    | d, Gate.Cnot when Gate.is_diagonal d -> diag_past_cnot uops vops
    | Gate.Cnot, d when Gate.is_diagonal d -> diag_past_cnot vops uops
    | w, Gate.Cnot when Gate.arity w = 1 && x_like w -> uops.(0) = vops.(1)
    | Gate.Cnot, w when Gate.arity w = 1 && x_like w -> vops.(0) = uops.(1)
    | w, w' when Gate.arity w = 1 && Gate.arity w' = 1 ->
        (* Same qubit, same rotation axis. *)
        (x_like w && x_like w') || (y_like w && y_like w')
    | _ -> false

let commutes a b =
  match (a, b) with
  | Gate.Unitary (u, uops), Gate.Unitary (v, vops) ->
      (not (overlaps uops vops)) || commute_overlapping (u, uops) (v, vops)
  | _ -> not (overlaps (footprint a) (footprint b))

(* ------------------------------------------------------------------ *)
(* Pass 1: peephole — cancellation, merging, pair contraction and
   H-conjugation, with commutation-aware lookthrough.                  *)

let h_conjugate config blocker q =
  let mk u = Gate.Unitary (u, [| q |]) in
  let keep u g = if emittable config u then Some g else None in
  match blocker with
  | Gate.Unitary (v, vops) when Gate.arity v = 1 && vops.(0) = q -> (
      match v with
      | Gate.X -> keep Gate.Z (mk Gate.Z)
      | Gate.Z -> keep Gate.X (mk Gate.X)
      | Gate.Y -> Some (mk Gate.Y)
      | Gate.Rx t -> keep (Gate.Rz t) (mk (Gate.Rz t))
      | Gate.Rz t -> keep (Gate.Rx t) (mk (Gate.Rx t))
      | Gate.S -> keep Gate.X90 (mk Gate.X90)
      | Gate.Sdag -> keep Gate.Xm90 (mk Gate.Xm90)
      | Gate.T -> keep (Gate.Rx quarter_pi) (mk (Gate.Rx quarter_pi))
      | Gate.Tdag -> keep (Gate.Rx (-.quarter_pi)) (mk (Gate.Rx (-.quarter_pi)))
      | _ -> None)
  | Gate.Unitary (Gate.Cz, vops) when vops.(0) = q || vops.(1) = q ->
      let other = if vops.(0) = q then vops.(1) else vops.(0) in
      keep Gate.Cnot (Gate.Unitary (Gate.Cnot, [| other; q |]))
  | Gate.Unitary (Gate.Cnot, vops) when vops.(1) = q ->
      keep Gate.Cz (Gate.Unitary (Gate.Cz, Array.copy vops))
  | _ -> None

let peephole config instrs =
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  (* Rewrites in place keep each instruction's set of wires. *)
  let mask = wire_masks arr in
  let removed = Array.make n false in
  let d = ref no_delta in
  let next_on_qubit q from =
    let rec go k =
      if k >= n then None
      else if
        (not removed.(k))
        && mask.(k) land (1 lsl (q mod 63)) <> 0
        && touches (footprint arr.(k)) q
      then Some k
      else go (k + 1)
    in
    go from
  in
  for i = 0 to n - 1 do
    if not removed.(i) then
      if is_droppable arr.(i) then begin
        removed.(i) <- true;
        d := { !d with d_drops = !d.d_drops + 1 }
      end
      else
        match arr.(i) with
        | Gate.Unitary (u, uops) ->
            (* Scan forward, skipping disjoint and commuting instructions,
               until a partner or a blocker is found. *)
            let umask = mask.(i) in
            let rec scan j =
              if j >= n then ()
              else if removed.(j) || mask.(j) land umask = 0 then scan (j + 1)
              else begin
                let b = arr.(j) in
                if not (overlaps uops (footprint b)) then scan (j + 1)
                else if cancels arr.(i) b then begin
                  removed.(i) <- true;
                  removed.(j) <- true;
                  d := { !d with d_pairs = !d.d_pairs + 1 }
                end
                else
                  match merge arr.(i) b with
                  | Some g ->
                      removed.(i) <- true;
                      if is_droppable g then begin
                        removed.(j) <- true;
                        d := { !d with d_pairs = !d.d_pairs + 1 }
                      end
                      else begin
                        arr.(j) <- g;
                        d := { !d with d_merges = !d.d_merges + 1 }
                      end
                  | None -> (
                      let contraction =
                        match b with
                        | Gate.Unitary (v, vops) when same_ops vops uops -> (
                            match pair_rewrite u v with
                            | Some w when emittable config w ->
                                Some (Gate.Unitary (w, vops))
                            | _ -> None)
                        | _ -> None
                      in
                      match contraction with
                      | Some g ->
                          removed.(i) <- true;
                          arr.(j) <- g;
                          d := { !d with d_merges = !d.d_merges + 1 }
                      | None ->
                          if commutes arr.(i) b then scan (j + 1)
                          else if u == Gate.H && Array.length uops = 1 then begin
                            (* Try H · B · H → B' where the closing H is the
                               next instruction on this qubit after the
                               blocker. *)
                            let q = uops.(0) in
                            match h_conjugate config b q with
                            | None -> ()
                            | Some g -> (
                                match next_on_qubit q (j + 1) with
                                | Some k
                                  when match arr.(k) with
                                       | Gate.Unitary (Gate.H, [| q' |]) -> q' = q
                                       | _ -> false ->
                                    removed.(i) <- true;
                                    removed.(k) <- true;
                                    arr.(j) <- g;
                                    d := { !d with d_conj = !d.d_conj + 1 }
                                | _ -> ())
                          end)
              end
            in
            scan (i + 1)
        | _ -> ()
  done;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if not removed.(i) then out := arr.(i) :: !out
  done;
  (!out, !d)

(* ------------------------------------------------------------------ *)
(* Pass 2: commutation-aware Rz accumulation                           *)

let diag_angle = function
  | Gate.I -> Some 0.0
  | Gate.Z -> Some Float.pi
  | Gate.S -> Some half_pi
  | Gate.Sdag -> Some (-.half_pi)
  | Gate.T -> Some quarter_pi
  | Gate.Tdag -> Some (-.quarter_pi)
  | Gate.Rz t -> Some t
  | _ -> None

let rz_accumulate qubits instrs =
  let pending = Array.make qubits 0.0 in
  let has = Array.make qubits false in
  let out = ref [] in
  let d = ref no_delta in
  let emit i = out := i :: !out in
  let flush q =
    if has.(q) then begin
      has.(q) <- false;
      let t = normalize_angle pending.(q) in
      pending.(q) <- 0.0;
      if Float.abs t > 1e-12 then emit (Gate.Unitary (Gate.Rz t, [| q |]))
      else d := { !d with d_drops = !d.d_drops + 1 }
    end
  in
  List.iter
    (fun instr ->
      match instr with
      | Gate.Unitary (u, ops) when Gate.arity u = 1 -> (
          match diag_angle u with
          | Some t ->
              let q = ops.(0) in
              if has.(q) then d := { !d with d_merges = !d.d_merges + 1 };
              pending.(q) <- pending.(q) +. t;
              has.(q) <- true
          | None ->
              flush ops.(0);
              emit instr)
      | Gate.Unitary (u, _) when Gate.is_diagonal u ->
          (* Cz / Cphase / Crk: pending Rz commutes straight through. *)
          emit instr
      | Gate.Unitary (Gate.Cnot, ops) ->
          (* Rz commutes with the control, not the target. *)
          flush ops.(1);
          emit instr
      | Gate.Unitary (Gate.Swap, ops) ->
          (* Swap relabels the wires: carry pending phases across. *)
          let a = ops.(0) and b = ops.(1) in
          let ta = pending.(a) and ha = has.(a) in
          pending.(a) <- pending.(b);
          has.(a) <- has.(b);
          pending.(b) <- ta;
          has.(b) <- ha;
          emit instr
      | Gate.Unitary (Gate.Toffoli, ops) ->
          flush ops.(2);
          emit instr
      | Gate.Unitary (_, ops) ->
          Array.iter flush ops;
          emit instr
      | Gate.Conditional (_, _, ops) ->
          Array.iter flush ops;
          emit instr
      | Gate.Prep q ->
          (* A phase immediately before reset is unobservable. *)
          if has.(q) then begin
            has.(q) <- false;
            pending.(q) <- 0.0;
            d := { !d with d_drops = !d.d_drops + 1 }
          end;
          emit instr
      | Gate.Measure q ->
          (* A Z-basis measurement absorbs a pending phase: the rotation
             becomes a per-outcome global phase on the collapsed state, so
             it is unobservable and must not be re-emitted after the
             measure (that would un-terminalise terminal measurements). *)
          if has.(q) then begin
            has.(q) <- false;
            pending.(q) <- 0.0;
            d := { !d with d_drops = !d.d_drops + 1 }
          end;
          emit instr
      | Gate.Barrier qs ->
          Array.iter flush qs;
          emit instr)
    instrs;
  for q = 0 to qubits - 1 do
    flush q
  done;
  (List.rev !out, !d)

(* ------------------------------------------------------------------ *)
(* Exact comparison and the per-call memo                              *)

(* Unitaries compared exactly: angles bit for bit, so Rz(0.0) and
   Rz(-0.0) differ (polymorphic [=] equates them) and a NaN angle equals
   itself. *)
let same_unitary u v =
  match (u, v) with
  | Gate.Rx a, Gate.Rx b
  | Gate.Ry a, Gate.Ry b
  | Gate.Rz a, Gate.Rz b
  | Gate.Cphase a, Gate.Cphase b ->
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | Gate.Crk a, Gate.Crk b -> a = b
  | _ -> u == v (* the other constructors carry no argument *)

let same_instruction g g' =
  match (g, g') with
  | Gate.Unitary (u, ops), Gate.Unitary (v, ops') -> same_unitary u v && same_ops ops ops'
  | Gate.Conditional (b, u, ops), Gate.Conditional (b', v, ops') ->
      b = b' && same_unitary u v && same_ops ops ops'
  | Gate.Prep q, Gate.Prep q' | Gate.Measure q, Gate.Measure q' -> q = q'
  | Gate.Barrier qs, Gate.Barrier qs' -> same_ops qs qs'
  | _ -> false

let same_instructions = List.equal same_instruction

(* A run of unitaries (nothing else) on one or two wires, up to the
   naming of the wires: its wire [a] reads as 0 and any other as 1, so a
   block found on wires (5, 2) and one on (0, 1) are the same key without
   a relabelled copy. *)
type run_key = { gates : Gate.t list; a : int }

(* Keys compared exactly ([same_unitary]) and hashed over every gate
   ([Hashtbl.hash] would sample only the first few words of a list). *)
module Run_table = Hashtbl.Make (struct
  type t = run_key

  let wire (a : int) q = if q = a then 0 else 1

  let same_wires a ops a' ops' =
    Array.length ops = Array.length ops'
    &&
    let i = ref 0 in
    while !i < Array.length ops && wire a ops.(!i) = wire a' ops'.(!i) do
      incr i
    done;
    !i = Array.length ops

  let rec equal_gates a gs a' gs' =
    match (gs, gs') with
    | [], [] -> true
    | Gate.Unitary (u, ops) :: rest, Gate.Unitary (v, ops') :: rest' ->
        same_unitary u v && same_wires a ops a' ops' && equal_gates a rest a' rest'
    | _ -> false

  let equal k k' = equal_gates k.a k.gates k'.a k'.gates

  (* Equal angles have equal bits, so equal unitaries hash alike. *)
  let hash_unitary u =
    match u with
    | Gate.Rx t | Gate.Ry t | Gate.Rz t | Gate.Cphase t ->
        (Gate.kind u * 65599) + Int64.to_int (Int64.bits_of_float t)
    | Gate.Crk k -> (Gate.kind u * 65599) + k
    | _ -> Gate.kind u

  let rec hash_gates a h = function
    | [] -> h
    | Gate.Unitary (u, ops) :: rest ->
        let c = ref (hash_unitary u) in
        for i = 0 to Array.length ops - 1 do
          c := (3 * !c) + wire a ops.(i)
        done;
        hash_gates a ((h * 65599) + !c) rest
    | _ :: rest -> hash_gates a h rest

  (* The table indexes by the low bits: mix the sum once. *)
  let hash k = Hashtbl.hash (hash_gates k.a 0 k.gates)
end)

(* What one pipeline call remembers. Rendering a block and resynthesising
   a 1q run are functions of the run's gates (up to wire names) and of the
   config, which is fixed for the call, so a block or run that comes back
   (unchanged since the last round, repeated in the program, or met again
   while polishing a candidate) reuses its decision. The tables go when
   the call returns. *)
type ctx = {
  config : config;
  blocks : Gate.t list option Run_table.t;  (* replacement, on wires 0/1 *)
  runs : Gate.t list option Run_table.t;  (* shorter Euler form, on wire 0 *)
  scratch : Fixed_matrix.t;  (* [block_candidates]' products *)
  mutable reused : int;  (* block lookups [blocks] answered *)
}

(* ------------------------------------------------------------------ *)
(* Pass 3: Euler resynthesis of single-qubit runs                      *)

(* Emission, in application order (leftmost gate applied first). *)
let gates_zyz q (alpha, beta, gamma) =
  let rz t =
    let t = normalize_angle t in
    if Float.abs t < 1e-12 then [] else [ Gate.Unitary (Gate.Rz t, [| q |]) ]
  in
  if Float.abs beta < 1e-9 then rz (alpha +. gamma)
  else if Float.abs (beta -. Float.pi) < 1e-9 then
    (* Rz(a)·Ry(pi)·Rz(g) = Rz(a-g)·Ry(pi) since Ry(pi)·Rz(g) = Rz(-g)·Ry(pi). *)
    [ Gate.Unitary (Gate.Ry Float.pi, [| q |]) ] @ rz (alpha -. gamma)
  else rz gamma @ [ Gate.Unitary (Gate.Ry beta, [| q |]) ] @ rz alpha

let gates_pulse q (alpha, beta, gamma) =
  let rz t =
    let t = normalize_angle t in
    if Float.abs t < 1e-12 then [] else [ Gate.Unitary (Gate.Rz t, [| q |]) ]
  in
  let g u = [ Gate.Unitary (u, [| q |]) ] in
  if Float.abs beta < 1e-9 then rz (alpha +. gamma)
  else if Float.abs (beta -. half_pi) < 1e-9 then rz gamma @ g Gate.Y90 @ rz alpha
  else if Float.abs (beta -. Float.pi) < 1e-9 then
    g Gate.Y90 @ g Gate.Y90 @ rz (alpha -. gamma)
  else
    (* Rz(a+pi)·X90·Rz(b+pi)·X90 ∝ Rz(a)·Ry(b): two frame-tracked X90
       pulses realise the middle Y rotation (virtual-Z decomposition). *)
    rz gamma @ g Gate.X90 @ rz (beta +. Float.pi) @ g Gate.X90
    @ rz (alpha +. Float.pi)

let emit_1q basis q m =
  let angles = Fixed_matrix.zyz_angles m in
  match basis with Zyz -> gates_zyz q angles | Pulse -> gates_pulse q angles

(* (total gates, non-virtual pulses): Rz is free on hardware with frame
   tracking, so prefer fewer real pulses at equal count. *)
let cost_1q gates =
  let pulses =
    List.fold_left
      (fun acc g ->
        match g with Gate.Unitary (Gate.Rz _, _) -> acc | _ -> acc + 1)
      0 gates
  in
  (List.length gates, pulses)

(* Lexicographic [<] on costs, without the polymorphic compare. *)
let cheaper_1q ((n : int), (p : int)) (n', p') = n < n' || (n = n' && p < p')

(* The shorter Euler form of a run on wire [a], on wire 0, if it has one. *)
let resynthesise ctx basis key =
  match Run_table.find_opt ctx.runs key with
  | Some decision -> decision
  | None ->
      let gates = emit_1q basis 0 (Fixed_matrix.product1 key.gates) in
      let decision = if cheaper_1q (cost_1q gates) (cost_1q key.gates) then Some gates else None in
      Run_table.add ctx.runs key decision;
      decision

let euler ctx basis qubits instrs =
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  let repl = Array.make n None in
  let d = ref no_delta in
  (* current.(q): the open run on wire q, latest gate first. *)
  let current = Array.make qubits [] in
  let close q =
    match current.(q) with
    | [] | [ _ ] -> current.(q) <- []
    | run -> (
        current.(q) <- [];
        match resynthesise ctx basis { gates = List.rev_map (fun i -> arr.(i)) run; a = q } with
        | Some gates ->
            List.iter (fun i -> repl.(i) <- Some []) run;
            repl.(List.fold_left Int.min n run) <-
              Some (if q = 0 then gates else List.map (Gate.map_qubits (fun _ -> q)) gates);
            d := { !d with d_euler = !d.d_euler + 1 }
        | None -> ())
  in
  Array.iteri
    (fun i instr ->
      match instr with
      | Gate.Unitary (u, ops) when Gate.arity u = 1 ->
          current.(ops.(0)) <- i :: current.(ops.(0))
      | _ -> Array.iter (fun q -> if q < qubits then close q) (footprint instr))
    arr;
  for q = 0 to qubits - 1 do
    close q
  done;
  let out = ref [] in
  for i = n - 1 downto 0 do
    match repl.(i) with
    | None -> out := arr.(i) :: !out
    | Some gates -> out := gates @ !out
  done;
  (!out, !d)

(* ------------------------------------------------------------------ *)
(* The fixed-point loop                                                *)

(* Apply [passes] in order, round after round, until a round counts no
   rewrite or [budget] rounds have run; return the result and the last
   round that counted one (0 if none). [apply round pass x] runs one
   pass. A pass is a function of its input, so one that returned [x]
   unchanged with nothing counted would do so again: the loop also stops,
   mid-round, once every pass has returned the current [x] that way,
   since the rest of the round could change nothing. [same] decides
   "unchanged" and must never call two different values the same. *)
let fixpoint ~same ~budget ~apply passes x =
  let n = List.length passes in
  let rec go round x settled counted last = function
    | _ when settled = n -> (x, last)
    | [] ->
        if counted && round < budget then go (round + 1) x settled false last passes
        else (x, last)
    | pass :: rest ->
        let x', d = apply round pass x in
        let fired = delta_total d > 0 in
        let settled = if (not fired) && same x x' then settled + 1 else 0 in
        go round x' settled (counted || fired) (if fired then round else last) rest
  in
  if budget < 1 then (x, 0) else go 1 x 0 false 0 passes

(* ------------------------------------------------------------------ *)
(* Pass 4: two-qubit block consolidation                               *)

let local_gates (a, b) =
  gates_zyz 0 (Fixed_matrix.zyz_angles a) @ gates_zyz 1 (Fixed_matrix.zyz_angles b)

(* Each single-entangler shape with the adjoint of its 4x4 unitary. *)
let entangler_templates =
  List.map
    (fun tg -> (tg, Fixed_matrix.adjoint (Fixed_matrix.of_gates2 tg)))
    [
      [ Gate.Unitary (Gate.Cz, [| 0; 1 |]) ];
      [ Gate.Unitary (Gate.Cnot, [| 0; 1 |]) ];
      [ Gate.Unitary (Gate.Cnot, [| 1; 0 |]) ];
      [ Gate.Unitary (Gate.Swap, [| 0; 1 |]) ];
    ]

(* Candidate re-expressions of a 4x4 block unitary, cheapest shapes
   first: identity, pure locals, locals + one entangler. The products go
   through [scratch]; the factors [local_factors] returns are fresh. *)
let block_candidates scratch m =
  let id =
    if Fixed_matrix.equal_up_to_phase ~eps:1e-7 m Fixed_matrix.identity4 then [ [] ]
    else []
  in
  let locals =
    match Fixed_matrix.local_factors m with Some f -> [ local_gates f ] | None -> []
  in
  let with_entangler =
    List.concat_map
      (fun (tg, gm_dag) ->
        Fixed_matrix.mul_into scratch m gm_dag;
        let after =
          match Fixed_matrix.local_factors scratch with
          | Some f -> [ tg @ local_gates f ]
          | None -> []
        in
        Fixed_matrix.mul_into scratch gm_dag m;
        match Fixed_matrix.local_factors scratch with
        | Some f -> after @ [ local_gates f @ tg ]
        | None -> after)
      entangler_templates
  in
  id @ locals @ with_entangler

(* (2q gates, total, pulses): the lexicographic objective mirrors real
   hardware cost where entanglers dominate. *)
let cost_2q instrs =
  let twoq =
    List.fold_left
      (fun acc g ->
        match g with
        | Gate.Unitary (u, _) when Gate.arity u = 2 -> acc + 1
        | _ -> acc)
      0 instrs
  in
  let _, pulses = cost_1q instrs in
  (twoq, List.length instrs, pulses)

let cheaper_2q ((t : int), n, p) (t', n', p') = t < t' || (t = t' && cheaper_1q (n, p) (n', p'))

let rebuild template instrs =
  Circuit.of_list ~name:(Circuit.name template)
    (Circuit.qubit_count template) instrs

(* Cheap 1q-only tightening of a candidate on wires 0/1. *)
let polish ctx gates =
  let config = ctx.config in
  let passes =
    [ peephole config ]
    @ (if emittable config (Gate.Rz 0.0) then [ rz_accumulate 2 ] else [])
    @ match config.basis with Some b -> [ euler ctx b 2 ] | None -> []
  in
  fst
    (fixpoint ~same:same_instructions ~budget:4 ~apply:(fun _ f gates -> f gates) passes
       gates)

let render_candidate ctx gates =
  let lowered =
    match ctx.config.platform with
    | None -> Some gates
    | Some p -> ( try Some (Decompose.lower p gates) with _ -> None)
  in
  Option.map (polish ctx) lowered

(* The replacement for a block on wires 0/1: its cheapest candidate
   rendering (the first at that cost), when that beats the block itself.
   Belt and braces: a rendering counts only if it still implements the
   block unitary, which is checked only when it would be kept, as one
   that costs no less than the best so far can never be the answer. *)
let render_block ctx block01 =
  let m = Fixed_matrix.of_gates2 block01 in
  let best =
    List.fold_left
      (fun best cand ->
        match render_candidate ctx cand with
        | None -> best
        | Some rendered ->
            let cost = cost_2q rendered in
            let bound = match best with Some (c, _) -> c | None -> cost_2q block01 in
            if
              cheaper_2q cost bound
              && Fixed_matrix.equal_up_to_phase ~eps:1e-7 (Fixed_matrix.of_gates2 rendered) m
            then Some (cost, rendered)
            else best)
      None
      (block_candidates ctx.scratch m)
  in
  Option.map snd best

let memo_render ctx key =
  match Run_table.find_opt ctx.blocks key with
  | Some decision ->
      ctx.reused <- ctx.reused + 1;
      decision
  | None ->
      let to01 = Gate.map_qubits (fun q -> if q = key.a then 0 else 1) in
      let decision = render_block ctx (List.map to01 key.gates) in
      Run_table.add ctx.blocks key decision;
      decision

(* Two decreasing lists of distinct indices, merged in increasing order
   onto [acc]. *)
let rec union_onto (xs : int list) ys acc =
  match (xs, ys) with
  | x :: xs', y :: _ when x > y -> union_onto xs' ys (x :: acc)
  | _, y :: ys' -> union_onto xs ys' (y :: acc)
  | x :: xs', [] -> union_onto xs' [] (x :: acc)
  | [], [] -> acc

let consolidate ctx circuit =
  let arr = Array.of_list (Circuit.instructions circuit) in
  let n = Array.length arr in
  let mask = wire_masks arr in
  let wires = Circuit.qubit_count circuit in
  let repl = Array.make n None in
  let consumed = Array.make n false in
  let d = ref no_delta in
  (* lead.(q): the unconsumed 1q gates on wire q since the last other
     instruction touching q, latest first. These are the leading gates
     that slide forward into a block starting at the current index. An
     index is entered when the sweep has passed it; a gate consumed
     later is a member of a block on q, whose two-qubit gate comes after
     it and has already emptied the list. *)
  let lead = Array.make wires [] in
  let pass_over k =
    match arr.(k) with
    | Gate.Unitary (u, ops) when Gate.arity u = 1 && not consumed.(k) ->
        lead.(ops.(0)) <- k :: lead.(ops.(0))
    | instr ->
        Array.iter (fun q -> if q >= 0 && q < wires then lead.(q) <- []) (footprint instr)
  in
  for i = 0 to n - 1 do
    if not consumed.(i) then begin
      match arr.(i) with
      | Gate.Unitary (u0, ops0) when Gate.arity u0 = 2 && ops0.(0) <> ops0.(1)
        ->
          let a = ops0.(0) and b = ops0.(1) in
          let in_pair q = q = a || q = b in
          let within k =
            match arr.(k) with
            | Gate.Unitary (u, ops) ->
                (Gate.arity u = 1 && in_pair ops.(0))
                || Gate.arity u = 2
                   && in_pair ops.(0) && in_pair ops.(1)
                   && ops.(0) <> ops.(1)
            | _ -> false
          in
          (* The members in order: the leads (each list latest first, on
             different wires), [i], then the walk's finds. *)
          let after = ref [] in
          (let k = ref (i + 1) and stop = ref false in
           while !k < n && not !stop do
             if
               mask.(!k) land mask.(i) <> 0
               &&
               let fp = footprint arr.(!k) in
               touches fp a || touches fp b
             then
               if (not consumed.(!k)) && within !k then after := !k :: !after
               else stop := true;
             incr k
           done);
          let idxs = union_onto lead.(a) lead.(b) (i :: List.rev !after) in
          let size = List.length idxs in
          if size >= 2 && size <= 48 then begin
            match memo_render ctx { gates = List.map (fun k -> arr.(k)) idxs; a } with
            | Some rendered ->
                let from01 =
                  Gate.map_qubits (fun q -> if q = 0 then a else b)
                in
                (* The replacement only touches {a,b}, and the block walk
                   guarantees no skipped instruction between the first
                   two-qubit member and the last member touches either
                   wire, so inserting at [i] preserves ordering. *)
                repl.(i) <- Some (List.map from01 rendered);
                List.iter
                  (fun k ->
                    consumed.(k) <- true;
                    if k <> i then repl.(k) <- Some [])
                  idxs;
                d := { !d with d_blocks = !d.d_blocks + 1 }
            | None -> ()
          end
      | _ -> ()
    end;
    pass_over i
  done;
  if delta_total !d = 0 then (circuit, !d)
  else begin
    let out = ref [] in
    for i = n - 1 downto 0 do
      match repl.(i) with
      | None -> out := arr.(i) :: !out
      | Some gates -> out := gates @ !out
    done;
    (rebuild circuit !out, !d)
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

(* A pass over instruction lists, on a circuit. An unchanged circuit
   comes back as itself; [rebuild] validates any other output. *)
let on_circuit f c =
  let instrs = Circuit.instructions c in
  let instrs', d = f (Circuit.qubit_count c) instrs in
  if delta_total d = 0 && same_instructions instrs instrs' then (c, d)
  else (rebuild c instrs', d)

let pass_list ctx =
  let config = ctx.config in
  [ ("peephole", on_circuit (fun _ -> peephole config)) ]
  @ (if emittable config (Gate.Rz 0.0) then [ ("rz-merge", on_circuit rz_accumulate) ]
     else [])
  @ (match config.basis with
    | Some b -> [ ("euler", on_circuit (euler ctx b)) ]
    | None -> [])
  @ if config.consolidate then [ ("2q-blocks", consolidate ctx) ] else []

(* One pass application, in a span named [prefix/pass] when tracing. The
   annotations are lazy, so a disabled trace never walks the circuit. *)
let apply_pass ?trace ~round name f c =
  match trace with
  | Some prefix when Trace.enabled () ->
      Trace.with_span (prefix ^ "/" ^ name) (fun sp ->
          let c', d = f c in
          Trace.annotate sp (fun () ->
              let before = Circuit.figures c and after = Circuit.figures c' in
              [
                ("round", Trace.Int round);
                ("dgates", Trace.Int (after.Circuit.gates - before.Circuit.gates));
                ("ddepth", Trace.Int (after.Circuit.depth - before.Circuit.depth));
                ("changed", Trace.Bool (delta_total d > 0));
              ]);
          (c', d))
  | _ -> f c

let pipeline ?(config = logical_config) ?on_pass ?trace circuit =
  let ctx =
    {
      config;
      blocks = Run_table.create 64;
      runs = Run_table.create 64;
      scratch = Fixed_matrix.create4 ();
      reused = 0;
    }
  in
  let stats = ref zero_stats in
  let apply round (name, f) c =
    let c', d = apply_pass ?trace ~round name f c in
    (match on_pass with
    | Some cb when delta_total d > 0 -> cb ~round ~pass:name ~before:c c'
    | _ -> ());
    stats := fold_delta !stats d;
    (c', d)
  in
  let c, rounds =
    fixpoint ~same:( == ) ~budget:config.max_rounds ~apply (pass_list ctx) circuit
  in
  ( c,
    {
      !stats with
      rounds;
      blocks_rendered = Run_table.length ctx.blocks;
      blocks_reused = ctx.reused;
    } )

let run circuit = pipeline ~config:logical_config circuit
let run_circuit circuit = fst (run circuit)

(* ------------------------------------------------------------------ *)
(* Legacy single-pass sweep, kept as the `Basic` baseline              *)

let shares_qubit a b = overlaps (footprint a) (footprint b)

let run_basic circuit =
  let sweep instrs =
    let arr = Array.of_list instrs in
    let n = Array.length arr in
    let removed = Array.make n false in
    let d = ref no_delta in
    Array.iteri
      (fun i instr ->
        if is_droppable instr then begin
          removed.(i) <- true;
          d := { !d with d_drops = !d.d_drops + 1 }
        end)
      arr;
    for i = 0 to n - 1 do
      if not removed.(i) then begin
        let rec successor j =
          if j >= n then None
          else if (not removed.(j)) && shares_qubit arr.(i) arr.(j) then Some j
          else successor (j + 1)
        in
        match successor (i + 1) with
        | None -> ()
        | Some j ->
            if cancels arr.(i) arr.(j) then begin
              removed.(i) <- true;
              removed.(j) <- true;
              d := { !d with d_pairs = !d.d_pairs + 1 }
            end
            else begin
              match merge arr.(i) arr.(j) with
              | Some combined ->
                  removed.(i) <- true;
                  if is_droppable combined then begin
                    removed.(j) <- true;
                    d := { !d with d_pairs = !d.d_pairs + 1 }
                  end
                  else begin
                    arr.(j) <- combined;
                    d := { !d with d_merges = !d.d_merges + 1 }
                  end
              | None -> ()
            end
      end
    done;
    let result = ref [] in
    for i = n - 1 downto 0 do
      if not removed.(i) then result := arr.(i) :: !result
    done;
    (!result, !d)
  in
  let rec fixpoint instrs acc budget =
    if budget = 0 then (instrs, acc)
    else
      let instrs', delta = sweep instrs in
      if delta_total delta = 0 then (instrs', acc)
      else fixpoint instrs' (fold_delta acc delta) (budget - 1)
  in
  let instrs, stats = fixpoint (Circuit.instructions circuit) zero_stats 64 in
  (rebuild circuit instrs, stats)
