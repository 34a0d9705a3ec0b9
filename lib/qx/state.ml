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

(* The three kernels below walk a range [lo, hi) of pairs of qubit [q]
   (with [step = 1 lsl q]) as runs of consecutive pairs: pairs
   [p .. p + len - 1] inside one block of [step] have contiguous base
   indices from [pair_base step p], so only a run's start computes one.
   The same loop serves the whole range and each [run_range] chunk, and
   every pair sees the same arithmetic as a pair-by-pair walk. *)
let[@inline] run_length step p hi =
  let rest = step - (p land (step - 1)) in
  if rest < hi - p then rest else hi - p

let apply_coeffs1 s ~ar ~ai ~br ~bi ~cr ~ci ~dr ~di q =
  let step = 1 lsl q in
  let re = s.re and im = s.im in
  run_range s (Array.length re lsr 1) (fun lo hi ->
      let p = ref lo in
      while !p < hi do
        let len = run_length step !p hi in
        let base = pair_base step !p in
        for i0 = base to base + len - 1 do
          let i1 = i0 lor step in
          let x0r = Array.unsafe_get re i0 and x0i = Array.unsafe_get im i0 in
          let x1r = Array.unsafe_get re i1 and x1i = Array.unsafe_get im i1 in
          Array.unsafe_set re i0 ((ar *. x0r) -. (ai *. x0i) +. (br *. x1r) -. (bi *. x1i));
          Array.unsafe_set im i0 ((ar *. x0i) +. (ai *. x0r) +. (br *. x1i) +. (bi *. x1r));
          Array.unsafe_set re i1 ((cr *. x0r) -. (ci *. x0i) +. (dr *. x1r) -. (di *. x1i));
          Array.unsafe_set im i1 ((cr *. x0i) +. (ci *. x0r) +. (dr *. x1i) +. (di *. x1r))
        done;
        p := !p + len
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
      let p = ref lo in
      while !p < hi do
        let len = run_length step !p hi in
        let base = pair_base step !p in
        for i0 = base to base + len - 1 do
          let i1 = i0 lor step in
          let tr = Array.unsafe_get re i0 and ti = Array.unsafe_get im i0 in
          Array.unsafe_set re i0 (Array.unsafe_get re i1);
          Array.unsafe_set im i0 (Array.unsafe_get im i1);
          Array.unsafe_set re i1 tr;
          Array.unsafe_set im i1 ti
        done;
        p := !p + len
      done)

(* H and Y on their own: the dense kernel's products with their zero
   coefficients add or subtract only zeros, which can change no amplitude
   but the sign of an exact zero, so probabilities are the dense
   kernel's. H is (x0 + x1, x0 - x1) / sqrt 2 with [Gate]'s 1 / sqrt 2. *)
let h_coeff = 1.0 /. sqrt 2.0

let apply_h s q =
  let step = 1 lsl q in
  let re = s.re and im = s.im in
  run_range s (Array.length re lsr 1) (fun lo hi ->
      let p = ref lo in
      while !p < hi do
        let len = run_length step !p hi in
        let base = pair_base step !p in
        for i0 = base to base + len - 1 do
          let i1 = i0 lor step in
          let x0r = h_coeff *. Array.unsafe_get re i0
          and x0i = h_coeff *. Array.unsafe_get im i0 in
          let x1r = h_coeff *. Array.unsafe_get re i1
          and x1i = h_coeff *. Array.unsafe_get im i1 in
          Array.unsafe_set re i0 (x0r +. x1r);
          Array.unsafe_set im i0 (x0i +. x1i);
          Array.unsafe_set re i1 (x0r -. x1r);
          Array.unsafe_set im i1 (x0i -. x1i)
        done;
        p := !p + len
      done)

(* Y = [[0, -i], [i, 0]]: x0' = -i x1 and x1' = i x0, a pair swap with
   each amplitude's real and imaginary parts exchanged and one negated. *)
let apply_y s q =
  let step = 1 lsl q in
  let re = s.re and im = s.im in
  run_range s (Array.length re lsr 1) (fun lo hi ->
      let p = ref lo in
      while !p < hi do
        let len = run_length step !p hi in
        let base = pair_base step !p in
        for i0 = base to base + len - 1 do
          let i1 = i0 lor step in
          let x0r = Array.unsafe_get re i0 and x0i = Array.unsafe_get im i0 in
          Array.unsafe_set re i0 (Array.unsafe_get im i1);
          Array.unsafe_set im i0 (-.Array.unsafe_get re i1);
          Array.unsafe_set re i1 (-.x0i);
          Array.unsafe_set im i1 x0r
        done;
        p := !p + len
      done)

(* A Pauli string in one sweep: Z on the qubits of [z], then X on those
   of [x], then a factor i when [imag]. The amplitude at [k] moves to
   [k lxor x], negated when [k land z] has odd parity, and i (r + i m) is
   -m + i r: only swaps and negations, so every amplitude is exact (the
   Z kernel's [r *. -1.0 -. m *. 0.0] differs only in the sign of an
   exact zero). The pair at [k] and [k lxor x] is handled once, by its
   smaller index, so [run_range]'s chunks write disjoint pairs. *)
let[@inline] odd_parity v =
  let v = v lxor (v lsr 32) in
  let v = v lxor (v lsr 16) in
  let v = v lxor (v lsr 8) in
  let v = v lxor (v lsr 4) in
  let v = v lxor (v lsr 2) in
  (v lxor (v lsr 1)) land 1 = 1

let apply_pauli s ~x ~z ~imag =
  let all = Array.length s.re - 1 in
  if x land lnot all <> 0 || z land lnot all <> 0 then
    invalid_arg "State.apply_pauli: qubit out of range";
  let re = s.re and im = s.im in
  if x <> 0 || z <> 0 || imag then
    run_range s (Array.length re) (fun lo hi ->
        for k = lo to hi - 1 do
          let j = k lxor x in
          if k <= j then begin
            let rk = Array.unsafe_get re k and mk = Array.unsafe_get im k in
            let rj = Array.unsafe_get re j and mj = Array.unsafe_get im j in
            let nk = odd_parity (k land z) and nj = odd_parity (j land z) in
            (* Index [k]'s amplitude goes to [j], and [j]'s to [k]. *)
            let rk = if nk then -.rk else rk and mk = if nk then -.mk else mk in
            let rj = if nj then -.rj else rj and mj = if nj then -.mj else mj in
            if imag then begin
              Array.unsafe_set re j (-.mk);
              Array.unsafe_set im j rk;
              Array.unsafe_set re k (-.mj);
              Array.unsafe_set im k rj
            end
            else begin
              Array.unsafe_set re j rk;
              Array.unsafe_set im j mk;
              Array.unsafe_set re k rj;
              Array.unsafe_set im k mj
            end
          end
        done)

(* Multiply the amplitudes whose bit [q] is set by (pr + i pi): visits only
   the dim/2 affected amplitudes instead of predicate-scanning all of them. *)
let apply_phase1 s q pr pi =
  let step = 1 lsl q in
  let re = s.re and im = s.im in
  run_range s (Array.length re lsr 1) (fun lo hi ->
      let p = ref lo in
      while !p < hi do
        let len = run_length step !p hi in
        let base = pair_base step !p lor step in
        for k = base to base + len - 1 do
          let r = Array.unsafe_get re k and i = Array.unsafe_get im k in
          Array.unsafe_set re k ((r *. pr) -. (i *. pi));
          Array.unsafe_set im k ((r *. pi) +. (i *. pr))
        done;
        p := !p + len
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

(* T's phase, hoisted out of the apply path (the seed kernel recomputed
   cos/sin of pi/4 on every call). *)
let t_phase_re = cos (Float.pi /. 4.0)
let t_phase_im = sin (Float.pi /. 4.0)

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
  for i = 0 to Array.length ops - 1 do
    let q = Array.unsafe_get ops i in
    if q < 0 || q >= s.qubit_count then invalid_arg "State.apply: qubit out of range"
  done;
  match (u, ops) with
  | Gate.I, _ -> ()
  | Gate.X, [| q |] -> apply_x s q
  | Gate.H, [| q |] -> apply_h s q
  | Gate.Y, [| q |] -> apply_y s q
  | Gate.Z, [| q |] -> apply_phase1 s q (-1.0) 0.0
  | Gate.S, [| q |] -> apply_phase1 s q 0.0 1.0
  | Gate.Sdag, [| q |] -> apply_phase1 s q 0.0 (-1.0)
  | Gate.T, [| q |] -> apply_phase1 s q t_phase_re t_phase_im
  | Gate.Tdag, [| q |] -> apply_phase1 s q t_phase_re (-.t_phase_im)
  | Gate.Rz theta, [| q |] ->
      (* Diagonal: e^{-i t/2} on |0>, e^{+i t/2} on |1>. *)
      let h = theta /. 2.0 in
      apply_rz1 s q ~c:(cos h) ~si:(sin h)
  | (Gate.X90 | Gate.Xm90 | Gate.Y90 | Gate.Ym90 | Gate.Rx _ | Gate.Ry _), [| q |] ->
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

(* --- the outcome tree ---------------------------------------------------- *)

(* [measure_run] on copies of one state, without the copies. A node stands
   for a prefix of the run's outcomes: after outcomes [o_0 .. o_l-1], the
   amplitudes [measure_run] would hold at level [l] are the source's kept
   amplitudes times the path's scale factors [f_0 .. f_l-1] in that order
   (each level multiplies the kept set by its [inv] in place, and every
   later kept set lies inside the earlier ones). A node computes its
   level's sums once, from the source amplitudes scaled factor by factor
   and added in increasing index order, so they are [measure_run]'s sums
   bit for bit, and every shot that reaches the node reuses them. A child
   records one more factor, [1 / sqrt p] of its outcome. Nodes hold no
   amplitudes: past [max_tree_nodes] a new child is not linked into the
   tree, and the walk computes it for the one shot that needs it. *)
type node = {
  parent : node option;
  level : int;
  value : int;  (* the measured qubits' bits, as [measure_run]'s [value] *)
  sums : float array;  (* factor from the parent; p0 and p1, or a repeat's total *)
  mutable ready : bool;
  mutable zero : node option;
  mutable one : node option;
}

type outcome_tree = {
  source : t;
  qubits : int array;
  fixed : int array;  (* [l]: the qubits measured before level [l] *)
  factors : float array;  (* scratch: a node's path factors, root first *)
  root : node;
  mutable nodes : int;
}

let max_tree_nodes = 4096

let new_node parent level value factor =
  { parent; level; value; sums = [| factor; 0.0; 0.0 |]; ready = false; zero = None; one = None }

let outcome_tree s qubits =
  let levels = Array.length qubits in
  let fixed = Array.make (levels + 1) 0 in
  Array.iteri
    (fun l q ->
      if q < 0 || q >= s.qubit_count then invalid_arg "State.outcome_tree: qubit out of range";
      fixed.(l + 1) <- fixed.(l) lor (1 lsl q))
    qubits;
  {
    source = s;
    qubits = Array.copy qubits;
    fixed;
    factors = Array.make levels 0.0;
    root = new_node None 0 0 1.0;
    nodes = 1;
  }

(* The sums [measure_run] takes at [node]'s level, over the same kept
   indices in the same order. *)
let tree_sums t node =
  let rec gather nd =
    match nd.parent with
    | None -> ()
    | Some up ->
        t.factors.(nd.level - 1) <- nd.sums.(0);
        gather up
  in
  gather node;
  let re = t.source.re and im = t.source.im and factors = t.factors in
  let depth = node.level and v = node.value in
  let qm = 1 lsl t.qubits.(depth) and fixed = t.fixed.(depth) in
  let all = dimension t.source - 1 in
  if fixed land qm = 0 then begin
    let free = all land lnot (fixed lor qm) in
    let nfree = lnot free in
    let p0 = ref 0.0 and p1 = ref 0.0 in
    let x = ref 0 and more = ref true in
    while !more do
      let i0 = !x lor v in
      let i1 = i0 lor qm in
      let r0 = ref (Array.unsafe_get re i0) and m0 = ref (Array.unsafe_get im i0) in
      let r1 = ref (Array.unsafe_get re i1) and m1 = ref (Array.unsafe_get im i1) in
      for j = 0 to depth - 1 do
        let f = Array.unsafe_get factors j in
        r0 := !r0 *. f;
        m0 := !m0 *. f;
        r1 := !r1 *. f;
        m1 := !m1 *. f
      done;
      p0 := !p0 +. (!r0 *. !r0) +. (!m0 *. !m0);
      p1 := !p1 +. (!r1 *. !r1) +. (!m1 *. !m1);
      if !x = free then more := false else x := ((!x lor nfree) + 1) land free
    done;
    node.sums.(1) <- !p0;
    node.sums.(2) <- !p1
  end
  else begin
    let free = all land lnot fixed in
    let nfree = lnot free in
    let total = ref 0.0 in
    let x = ref 0 and more = ref true in
    while !more do
      let k = !x lor v in
      let r = ref (Array.unsafe_get re k) and m = ref (Array.unsafe_get im k) in
      for j = 0 to depth - 1 do
        let f = Array.unsafe_get factors j in
        r := !r *. f;
        m := !m *. f
      done;
      total := !total +. (!r *. !r) +. (!m *. !m);
      if !x = free then more := false else x := ((!x lor nfree) + 1) land free
    done;
    node.sums.(1) <- !total
  end;
  node.ready <- true

let tree_child t node outcome value inv =
  let linked = if outcome = 1 then node.one else node.zero in
  match linked with
  | Some child -> child
  | None ->
      let child = new_node (Some node) (node.level + 1) value inv in
      if t.nodes < max_tree_nodes then begin
        t.nodes <- t.nodes + 1;
        if outcome = 1 then node.one <- Some child else node.zero <- Some child
      end;
      child

(* One shot of [measure_run]: the same draws, outcomes and errors, level
   by level, read off the tree instead of a copied state. *)
let measure_tree t rng on_outcome =
  let zero_vector () = invalid_arg "State.normalize: zero vector" in
  let last = Array.length t.qubits - 1 in
  let node = ref t.root in
  for level = 0 to last do
    let nd = !node in
    if not nd.ready then tree_sums t nd;
    let qm = 1 lsl t.qubits.(level) in
    (* On a repeated qubit, as in [measure_run], P(1) is the total or 0,
       and an outcome that does not repeat leaves a zero vector. *)
    let fresh = t.fixed.(level) land qm = 0 in
    let was = if nd.value land qm <> 0 then 1 else 0 in
    let p1 = if fresh then nd.sums.(2) else if was = 1 then nd.sums.(1) else 0.0 in
    let outcome = if Rng.float rng 1.0 < p1 then 1 else 0 in
    let norm = sqrt (if fresh && outcome = 1 then p1 else nd.sums.(1)) in
    if norm <= 0.0 || ((not fresh) && outcome <> was) then zero_vector ();
    let value = if outcome = 1 then nd.value lor qm else nd.value in
    if level < last then node := tree_child t nd outcome value (1.0 /. norm);
    on_outcome level outcome
  done

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
