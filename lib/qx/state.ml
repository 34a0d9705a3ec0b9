module Gate = Qca_circuit.Gate
module Matrix = Qca_util.Matrix
module Cplx = Qca_util.Cplx
module Rng = Qca_util.Rng
module Parallel = Qca_util.Parallel

type t = { qubit_count : int; re : float array; im : float array }

let create n =
  if n < 1 || n > 30 then invalid_arg "State.create: qubit count out of range [1, 30]";
  let dim = 1 lsl n in
  let re = Array.make dim 0.0 and im = Array.make dim 0.0 in
  re.(0) <- 1.0;
  { qubit_count = n; re; im }

let qubit_count s = s.qubit_count
let dimension s = Array.length s.re

let copy s = { s with re = Array.copy s.re; im = Array.copy s.im }

let blit ~src ~dst =
  if dst.qubit_count <> src.qubit_count then invalid_arg "State.blit: qubit counts differ";
  Array.blit src.re 0 dst.re 0 (Array.length src.re);
  Array.blit src.im 0 dst.im 0 (Array.length src.im)

let reset s =
  Array.fill s.re 0 (Array.length s.re) 0.0;
  Array.fill s.im 0 (Array.length s.im) 0.0;
  s.re.(0) <- 1.0

let norm s =
  let acc = ref 0.0 in
  for k = 0 to dimension s - 1 do
    acc := !acc +. (s.re.(k) *. s.re.(k)) +. (s.im.(k) *. s.im.(k))
  done;
  sqrt !acc

let normalize s =
  let n = norm s in
  if n <= 0.0 then invalid_arg "State.normalize: zero vector";
  let inv = 1.0 /. n in
  for k = 0 to dimension s - 1 do
    s.re.(k) <- s.re.(k) *. inv;
    s.im.(k) <- s.im.(k) *. inv
  done

let of_amplitudes amplitudes =
  let dim = Array.length amplitudes in
  let n =
    let rec log2 d acc = if d = 1 then acc else log2 (d / 2) (acc + 1) in
    if dim < 2 || dim land (dim - 1) <> 0 then
      invalid_arg "State.of_amplitudes: length must be a power of two >= 2"
    else log2 dim 0
  in
  let s =
    {
      qubit_count = n;
      re = Array.map Cplx.re amplitudes;
      im = Array.map Cplx.im amplitudes;
    }
  in
  normalize s;
  s

let widen s ~qubit_count positions =
  if Array.length positions <> s.qubit_count then
    invalid_arg "State.widen: one position per qubit expected";
  let wide = create qubit_count in
  wide.re.(0) <- 0.0;
  for k = 0 to dimension s - 1 do
    let target = ref 0 in
    Array.iteri
      (fun i p -> if k land (1 lsl i) <> 0 then target := !target lor (1 lsl p))
      positions;
    wide.re.(!target) <- s.re.(k);
    wide.im.(!target) <- s.im.(k)
  done;
  wide

let amplitude s k = Cplx.make s.re.(k) s.im.(k)

let probabilities s =
  Array.init (dimension s) (fun k -> (s.re.(k) *. s.re.(k)) +. (s.im.(k) *. s.im.(k)))

let probability_of s k = (s.re.(k) *. s.re.(k)) +. (s.im.(k) *. s.im.(k))

(* --- kernel scheduling -------------------------------------------------- *)

(* Element-wise kernels (disjoint writes per index) go through the domain
   pool above the qubit threshold; [Parallel.for_range]'s fixed chunk
   boundaries keep results bit-identical to sequential runs. Reductions
   (norm, prob_one) and collapse stay sequential: a parallel sum would
   reassociate floating-point additions. *)
let run_range s length f =
  if s.qubit_count >= Parallel.threshold_qubits () then Parallel.for_range length f
  else f 0 length

(* Pair [p] of qubit [q] (with [step = 1 lsl q]) lives at indices
   (i0, i0 + step) where i0 spreads p's bits around bit q. *)
let[@inline] pair_base step p = ((p land (-step)) lsl 1) lor (p land (step - 1))

(* Insert a zero bit at the position of [mask] (a power of two) into [c]. *)
let[@inline] insert_bit mask c = ((c land (-mask)) lsl 1) lor (c land (mask - 1))

(* --- single-qubit kernels ----------------------------------------------- *)

let apply_coeffs1 s ~ar ~ai ~br ~bi ~cr ~ci ~dr ~di q =
  let step = 1 lsl q in
  let re = s.re and im = s.im in
  run_range s (Array.length re lsr 1) (fun lo hi ->
      for p = lo to hi - 1 do
        let i0 = pair_base step p in
        let i1 = i0 lor step in
        let x0r = Array.unsafe_get re i0 and x0i = Array.unsafe_get im i0 in
        let x1r = Array.unsafe_get re i1 and x1i = Array.unsafe_get im i1 in
        Array.unsafe_set re i0 ((ar *. x0r) -. (ai *. x0i) +. (br *. x1r) -. (bi *. x1i));
        Array.unsafe_set im i0 ((ar *. x0i) +. (ai *. x0r) +. (br *. x1i) +. (bi *. x1r));
        Array.unsafe_set re i1 ((cr *. x0r) -. (ci *. x0i) +. (dr *. x1r) -. (di *. x1i));
        Array.unsafe_set im i1 ((cr *. x0i) +. (ci *. x0r) +. (dr *. x1i) +. (di *. x1r))
      done)

let apply_matrix1 s m q =
  assert (Matrix.rows m = 2 && Matrix.cols m = 2);
  let a = Matrix.get m 0 0 and b = Matrix.get m 0 1 in
  let c = Matrix.get m 1 0 and d = Matrix.get m 1 1 in
  apply_coeffs1 s ~ar:(Cplx.re a) ~ai:(Cplx.im a) ~br:(Cplx.re b) ~bi:(Cplx.im b)
    ~cr:(Cplx.re c) ~ci:(Cplx.im c) ~dr:(Cplx.re d) ~di:(Cplx.im d) q

let apply_x s q =
  let step = 1 lsl q in
  let re = s.re and im = s.im in
  run_range s (Array.length re lsr 1) (fun lo hi ->
      for p = lo to hi - 1 do
        let i0 = pair_base step p in
        let i1 = i0 lor step in
        let tr = Array.unsafe_get re i0 and ti = Array.unsafe_get im i0 in
        Array.unsafe_set re i0 (Array.unsafe_get re i1);
        Array.unsafe_set im i0 (Array.unsafe_get im i1);
        Array.unsafe_set re i1 tr;
        Array.unsafe_set im i1 ti
      done)

(* Multiply the amplitudes whose bit [q] is set by (pr + i pi): visits only
   the dim/2 affected amplitudes instead of predicate-scanning all of them. *)
let apply_phase1 s q pr pi =
  let step = 1 lsl q in
  let re = s.re and im = s.im in
  run_range s (Array.length re lsr 1) (fun lo hi ->
      for p = lo to hi - 1 do
        let k = pair_base step p lor step in
        let r = Array.unsafe_get re k and i = Array.unsafe_get im k in
        Array.unsafe_set re k ((r *. pr) -. (i *. pi));
        Array.unsafe_set im k ((r *. pi) +. (i *. pr))
      done)

(* Rz = diag(c - i s on |0>, c + i s on |1>): one sweep, branching on the
   bit, instead of two predicate-scanned passes. Bit-identical to the two
   passes — each amplitude sees exactly one complex multiply either way. *)
let apply_rz1 s q ~c ~si =
  let mask = 1 lsl q in
  let nsi = -.si in
  let re = s.re and im = s.im in
  run_range s (Array.length re) (fun lo hi ->
      for k = lo to hi - 1 do
        let r = Array.unsafe_get re k and i = Array.unsafe_get im k in
        if k land mask <> 0 then begin
          Array.unsafe_set re k ((r *. c) -. (i *. si));
          Array.unsafe_set im k ((r *. si) +. (i *. c))
        end
        else begin
          Array.unsafe_set re k ((r *. c) -. (i *. nsi));
          Array.unsafe_set im k ((r *. nsi) +. (i *. c))
        end
      done)

(* --- two- and three-qubit kernels --------------------------------------- *)

(* Multiply amplitudes with both bits set by (pr + i pi), enumerating only
   the dim/4 such amplitudes (the seed kernel predicate-scanned all dim). *)
let apply_phase2 s qa qb pr pi =
  if qa = qb then apply_phase1 s qa pr pi
  else begin
    let ma = 1 lsl qa and mb = 1 lsl qb in
    let m_lo = min ma mb and m_hi = max ma mb in
    let both = ma lor mb in
    let re = s.re and im = s.im in
    run_range s (Array.length re lsr 2) (fun lo hi ->
        for c = lo to hi - 1 do
          let k = insert_bit m_hi (insert_bit m_lo c) lor both in
          let r = Array.unsafe_get re k and i = Array.unsafe_get im k in
          Array.unsafe_set re k ((r *. pr) -. (i *. pi));
          Array.unsafe_set im k ((r *. pi) +. (i *. pr))
        done)
  end

(* Swap the target pair only in the control-set subspace: dim/4 pairs
   visited, versus the seed kernel's dim/2 pairs with a branch. *)
let apply_cnot s control target =
  if control <> target then begin
    let cmask = 1 lsl control and tmask = 1 lsl target in
    let m_lo = min cmask tmask and m_hi = max cmask tmask in
    let re = s.re and im = s.im in
    run_range s (Array.length re lsr 2) (fun lo hi ->
        for c = lo to hi - 1 do
          let i0 = insert_bit m_hi (insert_bit m_lo c) lor cmask in
          let i1 = i0 lor tmask in
          let tr = Array.unsafe_get re i0 and ti = Array.unsafe_get im i0 in
          Array.unsafe_set re i0 (Array.unsafe_get re i1);
          Array.unsafe_set im i0 (Array.unsafe_get im i1);
          Array.unsafe_set re i1 tr;
          Array.unsafe_set im i1 ti
        done)
  end

(* Swap amplitudes for 01 <-> 10 patterns, visiting each pair once (dim/4
   iterations instead of a full predicate scan). *)
let apply_swap s q1 q2 =
  if q1 <> q2 then begin
    let m1 = 1 lsl q1 and m2 = 1 lsl q2 in
    let m_lo = min m1 m2 and m_hi = max m1 m2 in
    let re = s.re and im = s.im in
    run_range s (Array.length re lsr 2) (fun lo hi ->
        for c = lo to hi - 1 do
          let k = insert_bit m_hi (insert_bit m_lo c) lor m1 in
          let j = k lxor m1 lxor m2 in
          let tr = Array.unsafe_get re k and ti = Array.unsafe_get im k in
          Array.unsafe_set re k (Array.unsafe_get re j);
          Array.unsafe_set im k (Array.unsafe_get im j);
          Array.unsafe_set re j tr;
          Array.unsafe_set im j ti
        done)
  end

(* Target-pair swap in the both-controls-set subspace: dim/8 pairs. *)
let apply_toffoli s c1 c2 target =
  if c1 = target || c2 = target then ()
  else if c1 = c2 then apply_cnot s c1 target
  else begin
    let m1 = 1 lsl c1 and m2 = 1 lsl c2 and tmask = 1 lsl target in
    let m_a = min m1 (min m2 tmask) in
    let m_c = max m1 (max m2 tmask) in
    let m_b = m1 lxor m2 lxor tmask lxor m_a lxor m_c in
    let cc = m1 lor m2 in
    let re = s.re and im = s.im in
    run_range s (Array.length re lsr 3) (fun lo hi ->
        for c = lo to hi - 1 do
          let i0 = insert_bit m_c (insert_bit m_b (insert_bit m_a c)) lor cc in
          let i1 = i0 lor tmask in
          let tr = Array.unsafe_get re i0 and ti = Array.unsafe_get im i0 in
          Array.unsafe_set re i0 (Array.unsafe_get re i1);
          Array.unsafe_set im i0 (Array.unsafe_get im i1);
          Array.unsafe_set re i1 tr;
          Array.unsafe_set im i1 ti
        done)
  end

(* --- fused kernels ------------------------------------------------------ *)

(* T's phase, hoisted out of the apply path (the seed kernel recomputed
   cos/sin of pi/4 on every call). *)
let t_phase_re = cos (Float.pi /. 4.0)
let t_phase_im = sin (Float.pi /. 4.0)

(* A run of single-qubit gates on one qubit, applied per amplitude pair:
   the pair is loaded once, rotated through every gate of the run in
   sequence, and stored once. Each gate keeps the {e same} specialised
   arithmetic as its standalone kernel (X is a register swap, Z/S/T touch
   only the set-bit element, Rz branches, dense gates use the full 2x2),
   so the fused sweep is bit-identical to applying the run gate by gate —
   loop fusion, not matrix-product fusion. Per gate: a kind tag and 8
   coefficient slots (dense: the 2x2 row-major as re/im pairs; phase: the
   phase in slots 0-1; Rz: cos/sin of theta/2 in slots 0-1). *)
type fused1q_plan = { f1_kinds : int array; f1_coeffs : float array }

let f1_dense = 0
and f1_swap = 1
and f1_phase = 2
and f1_rz = 3

let fused1q_plan_of gates =
  (* Identities are dropped: their standalone kernel is a no-op. *)
  let live = List.filter (fun u -> u <> Gate.I) gates in
  let n = List.length live in
  let kinds = Array.make n 0 and coeffs = Array.make (8 * n) 0.0 in
  List.iteri
    (fun idx u ->
      let base = 8 * idx in
      let phase pr pi =
        kinds.(idx) <- f1_phase;
        coeffs.(base) <- pr;
        coeffs.(base + 1) <- pi
      in
      match u with
      | Gate.X -> kinds.(idx) <- f1_swap
      | Gate.Z -> phase (-1.0) 0.0
      | Gate.S -> phase 0.0 1.0
      | Gate.Sdag -> phase 0.0 (-1.0)
      | Gate.T -> phase t_phase_re t_phase_im
      | Gate.Tdag -> phase t_phase_re (-.t_phase_im)
      | Gate.Rz theta ->
          let h = theta /. 2.0 in
          kinds.(idx) <- f1_rz;
          coeffs.(base) <- cos h;
          coeffs.(base + 1) <- sin h
      | u ->
          let m = Gate.matrix u in
          assert (Matrix.rows m = 2 && Matrix.cols m = 2);
          kinds.(idx) <- f1_dense;
          let put j z =
            coeffs.(base + (2 * j)) <- Cplx.re z;
            coeffs.(base + (2 * j) + 1) <- Cplx.im z
          in
          put 0 (Matrix.get m 0 0);
          put 1 (Matrix.get m 0 1);
          put 2 (Matrix.get m 1 0);
          put 3 (Matrix.get m 1 1))
    live;
  { f1_kinds = kinds; f1_coeffs = coeffs }

let apply_fused1q s plan q =
  let ngates = Array.length plan.f1_kinds in
  if ngates > 0 then begin
    let kinds = plan.f1_kinds and coeffs = plan.f1_coeffs in
    let step = 1 lsl q in
    let re = s.re and im = s.im in
    run_range s (Array.length re lsr 1) (fun lo hi ->
        let x0r = ref 0.0 and x0i = ref 0.0 and x1r = ref 0.0 and x1i = ref 0.0 in
        for p = lo to hi - 1 do
          let i0 = pair_base step p in
          let i1 = i0 lor step in
          x0r := Array.unsafe_get re i0;
          x0i := Array.unsafe_get im i0;
          x1r := Array.unsafe_get re i1;
          x1i := Array.unsafe_get im i1;
          for g = 0 to ngates - 1 do
            let base = 8 * g in
            let kind = Array.unsafe_get kinds g in
            if kind = f1_dense then begin
              let ar = Array.unsafe_get coeffs base
              and ai = Array.unsafe_get coeffs (base + 1)
              and br = Array.unsafe_get coeffs (base + 2)
              and bi = Array.unsafe_get coeffs (base + 3)
              and cr = Array.unsafe_get coeffs (base + 4)
              and ci = Array.unsafe_get coeffs (base + 5)
              and dr = Array.unsafe_get coeffs (base + 6)
              and di = Array.unsafe_get coeffs (base + 7) in
              let y0r = (ar *. !x0r) -. (ai *. !x0i) +. (br *. !x1r) -. (bi *. !x1i) in
              let y0i = (ar *. !x0i) +. (ai *. !x0r) +. (br *. !x1i) +. (bi *. !x1r) in
              let y1r = (cr *. !x0r) -. (ci *. !x0i) +. (dr *. !x1r) -. (di *. !x1i) in
              let y1i = (cr *. !x0i) +. (ci *. !x0r) +. (dr *. !x1i) +. (di *. !x1r) in
              x0r := y0r;
              x0i := y0i;
              x1r := y1r;
              x1i := y1i
            end
            else if kind = f1_swap then begin
              let tr = !x0r and ti = !x0i in
              x0r := !x1r;
              x0i := !x1i;
              x1r := tr;
              x1i := ti
            end
            else if kind = f1_phase then begin
              let pr = Array.unsafe_get coeffs base
              and pi = Array.unsafe_get coeffs (base + 1) in
              let r = !x1r and i = !x1i in
              x1r := (r *. pr) -. (i *. pi);
              x1i := (r *. pi) +. (i *. pr)
            end
            else begin
              (* Rz: x0 by (c, -s), x1 by (c, s) — as in the standalone
                 single-sweep kernel. *)
              let c = Array.unsafe_get coeffs base
              and si = Array.unsafe_get coeffs (base + 1) in
              let nsi = -.si in
              let r0 = !x0r and i0' = !x0i in
              x0r := (r0 *. c) -. (i0' *. nsi);
              x0i := (r0 *. nsi) +. (i0' *. c);
              let r1 = !x1r and i1' = !x1i in
              x1r := (r1 *. c) -. (i1' *. si);
              x1i := (r1 *. si) +. (i1' *. c)
            end
          done;
          Array.unsafe_set re i0 !x0r;
          Array.unsafe_set im i0 !x0i;
          Array.unsafe_set re i1 !x1r;
          Array.unsafe_set im i1 !x1i
        done)
  end

(* A coalesced run of diagonal gates (any qubits): one sweep over the
   vector applying every term to each amplitude, instead of one sweep per
   gate. Terms are stored in flat arrays (no per-amplitude allocation):
   kind 0 multiplies by (re, im) when [k land mask = mask] (Z/S/T/Cz/
   Cphase/Crk — identities are dropped at plan build); kind 1 is Rz, a
   multiply by (re, +/-im) depending on the bit under [mask]. Per-term
   arithmetic matches the per-gate kernels exactly. *)
type diag_plan = {
  kinds : int array;
  masks : int array;
  phase_re : float array;
  phase_im : float array;
  (* Pattern table: the amplitude index only enters through the bits under
     [tbl_qubits], so every assignment of those bits gets its multiply
     sequence pre-resolved at plan build — the same (re, im) values in the
     same term order the branchy scan would use, making the table path
     strictly bit-identical to it. Empty [tbl_offsets] means the table was
     too large (many distinct qubits x many terms) and the scan is used. *)
  tbl_qubits : int array;
  tbl_offsets : int array;
  tbl_coeffs : float array;
}

(* One diagonal gate as (kind, mask, re, im); None for identity (dropped)
   or a non-diagonal gate (caller bug). *)
let diag_term u ops =
  match (u, ops) with
  | Gate.I, _ -> Some None
  | Gate.Z, [| q |] -> Some (Some (0, 1 lsl q, -1.0, 0.0))
  | Gate.S, [| q |] -> Some (Some (0, 1 lsl q, 0.0, 1.0))
  | Gate.Sdag, [| q |] -> Some (Some (0, 1 lsl q, 0.0, -1.0))
  | Gate.T, [| q |] -> Some (Some (0, 1 lsl q, t_phase_re, t_phase_im))
  | Gate.Tdag, [| q |] -> Some (Some (0, 1 lsl q, t_phase_re, -.t_phase_im))
  | Gate.Rz theta, [| q |] ->
      let h = theta /. 2.0 in
      Some (Some (1, 1 lsl q, cos h, sin h))
  | Gate.Cz, [| q1; q2 |] -> Some (Some (0, (1 lsl q1) lor (1 lsl q2), -1.0, 0.0))
  | Gate.Cphase phi, [| q1; q2 |] ->
      Some (Some (0, (1 lsl q1) lor (1 lsl q2), cos phi, sin phi))
  | Gate.Crk k, [| q1; q2 |] ->
      let phi = 2.0 *. Float.pi /. float_of_int (1 lsl k) in
      Some (Some (0, (1 lsl q1) lor (1 lsl q2), cos phi, sin phi))
  | _ -> None

let diag_table kinds masks pres pims =
  let nterms = Array.length kinds in
  let involved = Array.fold_left ( lor ) 0 masks in
  let rec bit_positions acc b v =
    if v = 0 then List.rev acc
    else if v land 1 = 1 then bit_positions (b :: acc) (b + 1) (v lsr 1)
    else bit_positions acc (b + 1) (v lsr 1)
  in
  let qubits = Array.of_list (bit_positions [] 0 involved) in
  let m = Array.length qubits in
  if m > 12 || (1 lsl m) * nterms > 1 lsl 16 then ([||], [||], [||])
  else begin
    (* Each term's mask and bit, re-expressed in pattern space (bit j of a
       pattern is the amplitude's bit under [qubits.(j)]). *)
    let pat_of_mask mask =
      let p = ref 0 in
      Array.iteri (fun j q -> if mask land (1 lsl q) <> 0 then p := !p lor (1 lsl j)) qubits;
      !p
    in
    let pmasks = Array.map pat_of_mask masks in
    let npat = 1 lsl m in
    let offsets = Array.make (npat + 1) 0 in
    let applies pat t = kinds.(t) = 1 || pat land pmasks.(t) = pmasks.(t) in
    for pat = 0 to npat - 1 do
      let c = ref 0 in
      for t = 0 to nterms - 1 do
        if applies pat t then incr c
      done;
      offsets.(pat + 1) <- offsets.(pat) + !c
    done;
    let coeffs = Array.make (2 * offsets.(npat)) 0.0 in
    for pat = 0 to npat - 1 do
      let w = ref (offsets.(pat)) in
      for t = 0 to nterms - 1 do
        if applies pat t then begin
          let pi =
            if kinds.(t) = 1 && pat land pmasks.(t) = 0 then -.pims.(t) else pims.(t)
          in
          coeffs.(2 * !w) <- pres.(t);
          coeffs.((2 * !w) + 1) <- pi;
          incr w
        end
      done
    done;
    (qubits, offsets, coeffs)
  end

let diag_plan_of gates =
  let terms = List.map (fun (u, ops) -> diag_term u ops) gates in
  if List.exists (fun t -> t = None) terms then None
  else begin
    let live = List.filter_map Fun.id terms |> List.filter_map Fun.id in
    let n = List.length live in
    let kinds = Array.make n 0
    and masks = Array.make n 0
    and phase_re = Array.make n 0.0
    and phase_im = Array.make n 0.0 in
    List.iteri
      (fun i (kind, mask, pr, pi) ->
        kinds.(i) <- kind;
        masks.(i) <- mask;
        phase_re.(i) <- pr;
        phase_im.(i) <- pi)
      live;
    let tbl_qubits, tbl_offsets, tbl_coeffs = diag_table kinds masks phase_re phase_im in
    Some { kinds; masks; phase_re; phase_im; tbl_qubits; tbl_offsets; tbl_coeffs }
  end

let apply_diag_plan s plan =
  let nterms = Array.length plan.kinds in
  if nterms = 0 then ()
  else if Array.length plan.tbl_offsets > 0 then begin
    let qubits = plan.tbl_qubits
    and offsets = plan.tbl_offsets
    and coeffs = plan.tbl_coeffs in
    let m = Array.length qubits in
    let re = s.re and im = s.im in
    run_range s (Array.length re) (fun lo hi ->
        let ar = ref 0.0 and ai = ref 0.0 in
        for k = lo to hi - 1 do
          let pat = ref 0 in
          for j = 0 to m - 1 do
            pat := !pat lor (((k lsr Array.unsafe_get qubits j) land 1) lsl j)
          done;
          let stop = Array.unsafe_get offsets (!pat + 1) in
          let c = ref (Array.unsafe_get offsets !pat) in
          if !c < stop then begin
            ar := Array.unsafe_get re k;
            ai := Array.unsafe_get im k;
            while !c < stop do
              let pr = Array.unsafe_get coeffs (2 * !c)
              and pi = Array.unsafe_get coeffs ((2 * !c) + 1) in
              let r = !ar and i = !ai in
              ar := (r *. pr) -. (i *. pi);
              ai := (r *. pi) +. (i *. pr);
              incr c
            done;
            Array.unsafe_set re k !ar;
            Array.unsafe_set im k !ai
          end
        done)
  end
  else begin
    let kinds = plan.kinds and masks = plan.masks in
    let pres = plan.phase_re and pims = plan.phase_im in
    let re = s.re and im = s.im in
    run_range s (Array.length re) (fun lo hi ->
        let ar = ref 0.0 and ai = ref 0.0 in
        for k = lo to hi - 1 do
          ar := Array.unsafe_get re k;
          ai := Array.unsafe_get im k;
          for t = 0 to nterms - 1 do
            let mask = Array.unsafe_get masks t in
            if Array.unsafe_get kinds t = 0 then begin
              if k land mask = mask then begin
                let pr = Array.unsafe_get pres t and pi = Array.unsafe_get pims t in
                let r = !ar and i = !ai in
                ar := (r *. pr) -. (i *. pi);
                ai := (r *. pi) +. (i *. pr)
              end
            end
            else begin
              let pr = Array.unsafe_get pres t in
              let pi =
                if k land mask <> 0 then Array.unsafe_get pims t
                else -.Array.unsafe_get pims t
              in
              let r = !ar and i = !ai in
              ar := (r *. pr) -. (i *. pi);
              ai := (r *. pi) +. (i *. pr)
            end
          done;
          Array.unsafe_set re k !ar;
          Array.unsafe_set im k !ai
        done)
  end

(* --- generic fallback --------------------------------------------------- *)

(* Generic k-qubit dense application (fallback, k <= 3 in practice). *)
let apply_generic s u ops =
  let m = Gate.matrix u in
  let k = Array.length ops in
  let small_dim = 1 lsl k in
  assert (Matrix.rows m = small_dim);
  (* Enumerate assignments of the non-operand qubits, then mix the 2^k
     amplitudes addressed by the operand qubits. Operand order is
     most-significant-first in the small matrix. *)
  let masks = Array.map (fun q -> 1 lsl q) ops in
  let op_mask = Array.fold_left ( lor ) 0 masks in
  let dim = dimension s in
  let scratch_re = Array.make small_dim 0.0 and scratch_im = Array.make small_dim 0.0 in
  let index_for base sub =
    (* sub's bit (k-1-i) corresponds to ops.(i) because ops are MSB-first. *)
    let idx = ref base in
    for i = 0 to k - 1 do
      if sub land (1 lsl (k - 1 - i)) <> 0 then idx := !idx lor masks.(i)
    done;
    !idx
  in
  let base = ref 0 in
  while !base < dim do
    if !base land op_mask = 0 then begin
      for sub = 0 to small_dim - 1 do
        let idx = index_for !base sub in
        scratch_re.(sub) <- s.re.(idx);
        scratch_im.(sub) <- s.im.(idx)
      done;
      for row = 0 to small_dim - 1 do
        let acc_r = ref 0.0 and acc_i = ref 0.0 in
        for col = 0 to small_dim - 1 do
          let e = Matrix.get m row col in
          let er = Cplx.re e and ei = Cplx.im e in
          if er <> 0.0 || ei <> 0.0 then begin
            acc_r := !acc_r +. (er *. scratch_re.(col)) -. (ei *. scratch_im.(col));
            acc_i := !acc_i +. (er *. scratch_im.(col)) +. (ei *. scratch_re.(col))
          end
        done;
        let idx = index_for !base row in
        s.re.(idx) <- !acc_r;
        s.im.(idx) <- !acc_i
      done
    end;
    incr base
  done

(* --- gate dispatch ------------------------------------------------------ *)

let apply s u ops =
  Array.iter
    (fun q ->
      if q < 0 || q >= s.qubit_count then invalid_arg "State.apply: qubit out of range")
    ops;
  match (u, ops) with
  | Gate.I, _ -> ()
  | Gate.X, [| q |] -> apply_x s q
  | Gate.Z, [| q |] -> apply_phase1 s q (-1.0) 0.0
  | Gate.S, [| q |] -> apply_phase1 s q 0.0 1.0
  | Gate.Sdag, [| q |] -> apply_phase1 s q 0.0 (-1.0)
  | Gate.T, [| q |] -> apply_phase1 s q t_phase_re t_phase_im
  | Gate.Tdag, [| q |] -> apply_phase1 s q t_phase_re (-.t_phase_im)
  | Gate.Rz theta, [| q |] ->
      (* Diagonal: e^{-i t/2} on |0>, e^{+i t/2} on |1>. *)
      let h = theta /. 2.0 in
      apply_rz1 s q ~c:(cos h) ~si:(sin h)
  | (Gate.Y | Gate.H | Gate.X90 | Gate.Xm90 | Gate.Y90 | Gate.Ym90 | Gate.Rx _ | Gate.Ry _), [| q |]
    ->
      apply_matrix1 s (Gate.matrix u) q
  | Gate.Cnot, [| control; target |] -> apply_cnot s control target
  | Gate.Cz, [| q1; q2 |] -> apply_phase2 s q1 q2 (-1.0) 0.0
  | Gate.Swap, [| q1; q2 |] -> apply_swap s q1 q2
  | Gate.Cphase phi, [| q1; q2 |] -> apply_phase2 s q1 q2 (cos phi) (sin phi)
  | Gate.Crk k, [| q1; q2 |] ->
      let phi = 2.0 *. Float.pi /. float_of_int (1 lsl k) in
      apply_phase2 s q1 q2 (cos phi) (sin phi)
  | Gate.Toffoli, [| c1; c2; target |] -> apply_toffoli s c1 c2 target
  | _, _ -> apply_generic s u ops

(* --- measurement ------------------------------------------------------ *)

let prob_one s q =
  let mask = 1 lsl q in
  let acc = ref 0.0 in
  for k = 0 to dimension s - 1 do
    if k land mask <> 0 then acc := !acc +. (s.re.(k) *. s.re.(k)) +. (s.im.(k) *. s.im.(k))
  done;
  !acc

let collapse s q outcome =
  assert (outcome = 0 || outcome = 1);
  let mask = 1 lsl q in
  let keep k = if outcome = 1 then k land mask <> 0 else k land mask = 0 in
  for k = 0 to dimension s - 1 do
    if not (keep k) then begin
      s.re.(k) <- 0.0;
      s.im.(k) <- 0.0
    end
  done;
  normalize s

let measure s rng q =
  let p1 = prob_one s q in
  let outcome = if Rng.float rng 1.0 < p1 then 1 else 0 in
  collapse s q outcome;
  outcome

(* A run of measurements, bit-identical to successive [measure] calls but
   visiting only the amplitudes the run's earlier outcomes keep. After
   outcomes on the [fixed] qubits, every index [k] with
   [k land fixed <> value] holds an exact +0.0: [measure] would add those
   zeros to its sums (no change to a non-negative float) and scale them to
   +0.0 again, so skipping them changes no bit. The kept indices are
   walked in increasing order as the subsets [x] of [free], so every sum
   adds the same terms in the same order as [prob_one] and [norm]. Per
   level, one pass sums both halves of the kept set, and one pass zeroes
   the dropped half and scales the kept half. *)
let measure_run s rng qubits on_outcome =
  let re = s.re and im = s.im in
  let all = dimension s - 1 in
  let fixed = ref 0 and value = ref 0 in
  Array.iteri
    (fun level q ->
      if q < 0 || q >= s.qubit_count then invalid_arg "State.measure_run: qubit out of range";
      let qm = 1 lsl q in
      let v = !value in
      let zero_vector () = invalid_arg "State.normalize: zero vector" in
      if !fixed land qm = 0 then begin
        let free = all land lnot (!fixed lor qm) in
        let nfree = lnot free in
        let p0 = ref 0.0 and p1 = ref 0.0 in
        let x = ref 0 and more = ref true in
        while !more do
          let i0 = !x lor v in
          let i1 = i0 lor qm in
          let r0 = Array.unsafe_get re i0 and m0 = Array.unsafe_get im i0 in
          let r1 = Array.unsafe_get re i1 and m1 = Array.unsafe_get im i1 in
          p0 := !p0 +. (r0 *. r0) +. (m0 *. m0);
          p1 := !p1 +. (r1 *. r1) +. (m1 *. m1);
          if !x = free then more := false else x := ((!x lor nfree) + 1) land free
        done;
        let outcome = if Rng.float rng 1.0 < !p1 then 1 else 0 in
        let norm = sqrt (if outcome = 1 then !p1 else !p0) in
        if norm <= 0.0 then zero_vector ();
        let inv = 1.0 /. norm in
        let keep = if outcome = 1 then qm else 0 and drop = if outcome = 1 then 0 else qm in
        x := 0;
        more := true;
        while !more do
          let ik = !x lor v lor keep and id = !x lor v lor drop in
          Array.unsafe_set re id 0.0;
          Array.unsafe_set im id 0.0;
          Array.unsafe_set re ik (Array.unsafe_get re ik *. inv);
          Array.unsafe_set im ik (Array.unsafe_get im ik *. inv);
          if !x = free then more := false else x := ((!x lor nfree) + 1) land free
        done;
        fixed := !fixed lor qm;
        value := v lor keep;
        on_outcome level outcome
      end
      else begin
        (* A qubit measured earlier in the run: every kept amplitude has its
           bit at [v]'s value, so the outcome repeats unless a draw lands
           above a P(1) a rounding short of 1, which leaves a zero vector,
           as [measure] would. *)
        let free = all land lnot !fixed in
        let nfree = lnot free in
        let total = ref 0.0 in
        let x = ref 0 and more = ref true in
        while !more do
          let k = !x lor v in
          let r = Array.unsafe_get re k and m = Array.unsafe_get im k in
          total := !total +. (r *. r) +. (m *. m);
          if !x = free then more := false else x := ((!x lor nfree) + 1) land free
        done;
        let was = if v land qm <> 0 then 1 else 0 in
        let p1 = if was = 1 then !total else 0.0 in
        let outcome = if Rng.float rng 1.0 < p1 then 1 else 0 in
        let norm = sqrt !total in
        if outcome <> was || norm <= 0.0 then zero_vector ();
        let inv = 1.0 /. norm in
        x := 0;
        more := true;
        while !more do
          let k = !x lor v in
          Array.unsafe_set re k (Array.unsafe_get re k *. inv);
          Array.unsafe_set im k (Array.unsafe_get im k *. inv);
          if !x = free then more := false else x := ((!x lor nfree) + 1) land free
        done;
        on_outcome level outcome
      end)
    qubits

(* --- sampling ----------------------------------------------------------- *)

(* Cumulative distribution for repeated draws: built once in O(2^n), then
   each draw is a binary search (the seed sample_index linearly rescanned
   the probabilities on every draw). The accumulation order matches the
   old scan, and "first k with cumulative k > target" is the same
   predicate as the scan's [target < acc], so draws are bit-identical. *)
type sampler = { cumulative : float array }

let sampler s =
  let dim = dimension s in
  let cumulative = Array.make dim 0.0 in
  let acc = ref 0.0 in
  for k = 0 to dim - 1 do
    acc := !acc +. probability_of s k;
    cumulative.(k) <- !acc
  done;
  { cumulative }

let sampler_draw sp rng =
  let target = Rng.float rng 1.0 in
  let cumulative = sp.cumulative in
  let lo = ref 0 and hi = ref (Array.length cumulative - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get cumulative mid > target then hi := mid else lo := mid + 1
  done;
  !lo

let sample_index s rng = sampler_draw (sampler s) rng

let overlap a b =
  assert (dimension a = dimension b);
  let acc_r = ref 0.0 and acc_i = ref 0.0 in
  for k = 0 to dimension a - 1 do
    (* conj(a_k) * b_k *)
    acc_r := !acc_r +. (a.re.(k) *. b.re.(k)) +. (a.im.(k) *. b.im.(k));
    acc_i := !acc_i +. (a.re.(k) *. b.im.(k)) -. (a.im.(k) *. b.re.(k))
  done;
  Cplx.make !acc_r !acc_i

let fidelity a b = Cplx.norm2 (overlap a b)

let expectation_diag s f =
  let acc = ref 0.0 in
  for k = 0 to dimension s - 1 do
    acc := !acc +. (f k *. probability_of s k)
  done;
  !acc

let apply_diagonal_phase s f =
  let re = s.re and im = s.im in
  run_range s (Array.length re) (fun lo hi ->
      for k = lo to hi - 1 do
        let phi = f k in
        let c = cos phi and si = sin phi in
        let r = Array.unsafe_get re k and i = Array.unsafe_get im k in
        Array.unsafe_set re k ((r *. c) -. (i *. si));
        Array.unsafe_set im k ((r *. si) +. (i *. c))
      done)

let expectation_pauli s terms =
  let qubits = List.map fst terms in
  let sorted = List.sort_uniq compare qubits in
  if List.length sorted <> List.length qubits then
    invalid_arg "State.expectation_pauli: repeated qubit";
  let probe = copy s in
  (* Rotate each qubit's basis so the operator becomes diagonal (Z). *)
  List.iter
    (fun (q, letter) ->
      match letter with
      | 'Z' -> ()
      | 'X' -> apply probe Gate.H [| q |]
      | 'Y' ->
          apply probe Gate.Sdag [| q |];
          apply probe Gate.H [| q |]
      | c -> invalid_arg (Printf.sprintf "State.expectation_pauli: '%c'" c))
    terms;
  let mask = List.fold_left (fun m q -> m lor (1 lsl q)) 0 qubits in
  expectation_diag probe (fun k ->
      if Qca_util.Bits.parity (k land mask) = 0 then 1.0 else -1.0)

let apply_permutation s f =
  let dim = dimension s in
  let re = Array.make dim 0.0 and im = Array.make dim 0.0 in
  let hit = Array.make dim false in
  for k = 0 to dim - 1 do
    let j = f k in
    if j < 0 || j >= dim || hit.(j) then
      invalid_arg "State.apply_permutation: not a bijection";
    hit.(j) <- true;
    re.(j) <- s.re.(k);
    im.(j) <- s.im.(k)
  done;
  Array.blit re 0 s.re 0 dim;
  Array.blit im 0 s.im 0 dim

let apply_controlled_permutation s ~control f =
  let mask = 1 lsl control in
  let guarded k =
    if k land mask = 0 then k
    else begin
      let j = f k in
      if j land mask = 0 then
        invalid_arg "State.apply_controlled_permutation: permutation clears the control";
      j
    end
  in
  apply_permutation s guarded

let memory_bytes n = 2 * 8 * (1 lsl n)

(* --- seed kernels, kept as the benchmark baseline ----------------------- *)

(* The pre-kernel-layer implementations, verbatim: closure-predicate phase
   scans, branching CNOT/Toffoli over all target pairs, two-pass Rz,
   per-call cos/sin for T. [bench kernels] measures the new kernels
   against these, and a runtest guard asserts the new ones never fall
   behind pathologically. Not a public execution path. *)
module Reference = struct
  let iter_pairs s q f =
    let step = 1 lsl q in
    let dim = dimension s in
    let block = ref 0 in
    while !block < dim do
      for offset = !block to !block + step - 1 do
        f offset (offset + step)
      done;
      block := !block + (2 * step)
    done

  let apply_matrix1 s m q =
    assert (Matrix.rows m = 2 && Matrix.cols m = 2);
    let a = Matrix.get m 0 0 and b = Matrix.get m 0 1 in
    let c = Matrix.get m 1 0 and d = Matrix.get m 1 1 in
    let ar = Cplx.re a and ai = Cplx.im a in
    let br = Cplx.re b and bi = Cplx.im b in
    let cr = Cplx.re c and ci = Cplx.im c in
    let dr = Cplx.re d and di = Cplx.im d in
    let re = s.re and im = s.im in
    let rotate i0 i1 =
      let x0r = re.(i0) and x0i = im.(i0) in
      let x1r = re.(i1) and x1i = im.(i1) in
      re.(i0) <- (ar *. x0r) -. (ai *. x0i) +. (br *. x1r) -. (bi *. x1i);
      im.(i0) <- (ar *. x0i) +. (ai *. x0r) +. (br *. x1i) +. (bi *. x1r);
      re.(i1) <- (cr *. x0r) -. (ci *. x0i) +. (dr *. x1r) -. (di *. x1i);
      im.(i1) <- (cr *. x0i) +. (ci *. x0r) +. (dr *. x1i) +. (di *. x1r)
    in
    iter_pairs s q rotate

  let apply_x s q =
    let swap i0 i1 =
      let tr = s.re.(i0) and ti = s.im.(i0) in
      s.re.(i0) <- s.re.(i1);
      s.im.(i0) <- s.im.(i1);
      s.re.(i1) <- tr;
      s.im.(i1) <- ti
    in
    iter_pairs s q swap

  let apply_phase_if s predicate re_phase im_phase =
    let re = s.re and im = s.im in
    for k = 0 to dimension s - 1 do
      if predicate k then begin
        let r = re.(k) and i = im.(k) in
        re.(k) <- (r *. re_phase) -. (i *. im_phase);
        im.(k) <- (r *. im_phase) +. (i *. re_phase)
      end
    done

  let apply_cnot s control target =
    let cmask = 1 lsl control in
    let swap i0 i1 =
      if i0 land cmask <> 0 then begin
        let tr = s.re.(i0) and ti = s.im.(i0) in
        s.re.(i0) <- s.re.(i1);
        s.im.(i0) <- s.im.(i1);
        s.re.(i1) <- tr;
        s.im.(i1) <- ti
      end
    in
    iter_pairs s target swap

  let apply_swap s q1 q2 =
    let m1 = 1 lsl q1 and m2 = 1 lsl q2 in
    let dim = dimension s in
    for k = 0 to dim - 1 do
      if k land m1 <> 0 && k land m2 = 0 then begin
        let j = k lxor m1 lxor m2 in
        let tr = s.re.(k) and ti = s.im.(k) in
        s.re.(k) <- s.re.(j);
        s.im.(k) <- s.im.(j);
        s.re.(j) <- tr;
        s.im.(j) <- ti
      end
    done

  let apply_toffoli s c1 c2 target =
    let m1 = 1 lsl c1 and m2 = 1 lsl c2 in
    let swap i0 i1 =
      if i0 land m1 <> 0 && i0 land m2 <> 0 then begin
        let tr = s.re.(i0) and ti = s.im.(i0) in
        s.re.(i0) <- s.re.(i1);
        s.im.(i0) <- s.im.(i1);
        s.re.(i1) <- tr;
        s.im.(i1) <- ti
      end
    in
    iter_pairs s target swap

  let apply s u ops =
    Array.iter
      (fun q ->
        if q < 0 || q >= s.qubit_count then invalid_arg "State.apply: qubit out of range")
      ops;
    match (u, ops) with
    | Gate.I, _ -> ()
    | Gate.X, [| q |] -> apply_x s q
    | Gate.Z, [| q |] ->
        let mask = 1 lsl q in
        apply_phase_if s (fun k -> k land mask <> 0) (-1.0) 0.0
    | Gate.S, [| q |] ->
        let mask = 1 lsl q in
        apply_phase_if s (fun k -> k land mask <> 0) 0.0 1.0
    | Gate.Sdag, [| q |] ->
        let mask = 1 lsl q in
        apply_phase_if s (fun k -> k land mask <> 0) 0.0 (-1.0)
    | Gate.T, [| q |] ->
        let mask = 1 lsl q in
        let c = cos (Float.pi /. 4.0) and si = sin (Float.pi /. 4.0) in
        apply_phase_if s (fun k -> k land mask <> 0) c si
    | Gate.Tdag, [| q |] ->
        let mask = 1 lsl q in
        let c = cos (Float.pi /. 4.0) and si = sin (Float.pi /. 4.0) in
        apply_phase_if s (fun k -> k land mask <> 0) c (-.si)
    | Gate.Rz theta, [| q |] ->
        let mask = 1 lsl q in
        let h = theta /. 2.0 in
        apply_phase_if s (fun k -> k land mask <> 0) (cos h) (sin h);
        apply_phase_if s (fun k -> k land mask = 0) (cos h) (-.sin h)
    | ( (Gate.Y | Gate.H | Gate.X90 | Gate.Xm90 | Gate.Y90 | Gate.Ym90 | Gate.Rx _ | Gate.Ry _),
        [| q |] ) ->
        apply_matrix1 s (Gate.matrix u) q
    | Gate.Cnot, [| control; target |] -> apply_cnot s control target
    | Gate.Cz, [| q1; q2 |] ->
        let m1 = 1 lsl q1 and m2 = 1 lsl q2 in
        apply_phase_if s (fun k -> k land m1 <> 0 && k land m2 <> 0) (-1.0) 0.0
    | Gate.Swap, [| q1; q2 |] -> apply_swap s q1 q2
    | Gate.Cphase phi, [| q1; q2 |] ->
        let m1 = 1 lsl q1 and m2 = 1 lsl q2 in
        apply_phase_if s (fun k -> k land m1 <> 0 && k land m2 <> 0) (cos phi) (sin phi)
    | Gate.Crk k, [| q1; q2 |] ->
        let phi = 2.0 *. Float.pi /. float_of_int (1 lsl k) in
        let m1 = 1 lsl q1 and m2 = 1 lsl q2 in
        apply_phase_if s (fun idx -> idx land m1 <> 0 && idx land m2 <> 0) (cos phi) (sin phi)
    | Gate.Toffoli, [| c1; c2; target |] -> apply_toffoli s c1 c2 target
    | _, _ -> apply_generic s u ops
end
