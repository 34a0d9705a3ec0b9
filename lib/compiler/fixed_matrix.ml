module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Matrix = Qca_util.Matrix
module Cplx = Qca_util.Cplx

(* An n×n complex matrix, n = 2 or 4, as 2n² floats in one flat float
   array: row-major, real and imaginary parts interleaved, so entry
   (r, c) sits at 2(rn + c). Every function below performs the float
   operations of its boxed counterpart (Matrix.mul, Matrix.kron,
   Matrix.scale, Complex.div, Complex.norm, ...) in the same order, so
   results agree bit for bit, NaN included. *)
type t = float array

let create n : t = Array.make (2 * n * n) 0.0
let dim (m : t) = if Array.length m = 8 then 2 else 4
let re (m : t) r c = m.(2 * ((r * dim m) + c))
let im (m : t) r c = m.((2 * ((r * dim m) + c)) + 1)

let of_matrix mat =
  let n = Matrix.rows mat in
  if (n <> 2 && n <> 4) || Matrix.cols mat <> n then
    invalid_arg "Fixed_matrix.of_matrix: not 2x2 or 4x4";
  let m = create n in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      let z = Matrix.get mat r c in
      m.(2 * ((r * n) + c)) <- Cplx.re z;
      m.((2 * ((r * n) + c)) + 1) <- Cplx.im z
    done
  done;
  m

let identity2 = of_matrix (Matrix.identity 2)
let identity4 = of_matrix (Matrix.identity 4)

(* dst <- a · b, entry by entry as Matrix.mul: each sum starts at +0.0 and
   adds the terms k = 0 .. n-1 in order. [dst] must not alias [a] or [b]. *)
let mul_into n (dst : t) (a : t) (b : t) =
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      let re = ref 0.0 and im = ref 0.0 in
      for k = 0 to n - 1 do
        let x = 2 * ((r * n) + k) and y = 2 * ((k * n) + c) in
        let xr = Array.unsafe_get a x and xi = Array.unsafe_get a (x + 1) in
        let yr = Array.unsafe_get b y and yi = Array.unsafe_get b (y + 1) in
        re := !re +. ((xr *. yr) -. (xi *. yi));
        im := !im +. ((xr *. yi) +. (xi *. yr))
      done;
      let d = 2 * ((r * n) + c) in
      Array.unsafe_set dst d !re;
      Array.unsafe_set dst (d + 1) !im
    done
  done

let mul a b =
  if Array.length a <> Array.length b then invalid_arg "Fixed_matrix.mul: sizes differ";
  let n = dim a in
  let dst = create n in
  mul_into n dst a b;
  dst

let adjoint m =
  let n = dim m in
  let dst = create n in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      dst.(2 * ((r * n) + c)) <- re m c r;
      dst.((2 * ((r * n) + c)) + 1) <- -.im m c r
    done
  done;
  dst

(* ------------------------------------------------------------------ *)
(* Gate entries                                                         *)

(* The gates without a parameter take their entries from Gate.matrix
   once; the rotations repeat its formulas. *)
let table u = of_matrix (Gate.matrix u)
let g_i = table Gate.I
let g_x = table Gate.X
let g_y = table Gate.Y
let g_z = table Gate.Z
let g_h = table Gate.H
let g_s = table Gate.S
let g_sdag = table Gate.Sdag
let g_t = table Gate.T
let g_tdag = table Gate.Tdag
let g_x90 = table Gate.X90
let g_xm90 = table Gate.Xm90
let g_y90 = table Gate.Y90
let g_ym90 = table Gate.Ym90
let g_cnot = table Gate.Cnot
let g_cz = table Gate.Cz
let g_swap = table Gate.Swap

let[@inline] set (m : t) k re im =
  Array.unsafe_set m (2 * k) re;
  Array.unsafe_set m ((2 * k) + 1) im

let blit (src : t) (dst : t) = Array.blit src 0 dst 0 (Array.length src)

let controlled_phase_into dst phi =
  Array.fill dst 0 32 0.0;
  set dst 0 1.0 0.0;
  set dst 5 1.0 0.0;
  set dst 10 1.0 0.0;
  set dst 15 (cos phi) (sin phi)

(* The entries of [Gate.matrix u] (2x2 or 4x4) into [dst], which has that
   size. *)
let gate_into (dst : t) u =
  match u with
  | Gate.I -> blit g_i dst
  | Gate.X -> blit g_x dst
  | Gate.Y -> blit g_y dst
  | Gate.Z -> blit g_z dst
  | Gate.H -> blit g_h dst
  | Gate.S -> blit g_s dst
  | Gate.Sdag -> blit g_sdag dst
  | Gate.T -> blit g_t dst
  | Gate.Tdag -> blit g_tdag dst
  | Gate.X90 -> blit g_x90 dst
  | Gate.Xm90 -> blit g_xm90 dst
  | Gate.Y90 -> blit g_y90 dst
  | Gate.Ym90 -> blit g_ym90 dst
  | Gate.Cnot -> blit g_cnot dst
  | Gate.Cz -> blit g_cz dst
  | Gate.Swap -> blit g_swap dst
  | Gate.Rx theta ->
      let h = theta /. 2.0 in
      set dst 0 (cos h) 0.0;
      set dst 1 0.0 (-.sin h);
      set dst 2 0.0 (-.sin h);
      set dst 3 (cos h) 0.0
  | Gate.Ry theta ->
      let h = theta /. 2.0 in
      set dst 0 (cos h) 0.0;
      set dst 1 (-.sin h) 0.0;
      set dst 2 (sin h) 0.0;
      set dst 3 (cos h) 0.0
  | Gate.Rz theta ->
      let h = theta /. 2.0 in
      set dst 0 (cos (-.h)) (sin (-.h));
      set dst 1 0.0 0.0;
      set dst 2 0.0 0.0;
      set dst 3 (cos h) (sin h)
  | Gate.Cphase phi -> controlled_phase_into dst phi
  | Gate.Crk k -> controlled_phase_into dst (2.0 *. Float.pi /. float_of_int (1 lsl k))
  | Gate.Toffoli -> invalid_arg "Fixed_matrix: toffoli has no 2x2 or 4x4 matrix"

(* The row (or column) of the gate's own matrix that basis state [basis]
   of two wires selects: its operand bits, most significant first, as in
   Circuit.embed. *)
let local_index ops basis =
  let acc = ref 0 in
  for i = 0 to Array.length ops - 1 do
    acc := (!acc lsl 1) lor ((basis lsr Array.unsafe_get ops i) land 1)
  done;
  !acc

(* dst <- the gate on [ops] embedded in two wires, as Circuit.embed 2:
   entries outside the operands' block are Cplx.zero. *)
let embed2_into (dst : t) (small : t) ops =
  let k = Array.length ops in
  let mask = if k = 1 then 1 lsl ops.(0) else 3 in
  let width = 1 lsl k in
  for row = 0 to 3 do
    for col = 0 to 3 do
      let d = (row * 4) + col in
      if row land lnot mask <> col land lnot mask then set dst d 0.0 0.0
      else
        let s = 2 * ((local_index ops row * width) + local_index ops col) in
        set dst d (Array.unsafe_get small s) (Array.unsafe_get small (s + 1))
    done
  done

let of_gates2 gates =
  List.iter (Circuit.validate_instruction 2) gates;
  let acc = ref (create 4) and spare = ref (create 4) in
  blit identity4 !acc;
  let small1 = create 2 and small2 = create 4 and e = create 4 in
  List.iter
    (fun instr ->
      match instr with
      | Gate.Unitary (u, ops) ->
          let small = if Array.length ops = 1 then small1 else small2 in
          gate_into small u;
          embed2_into e small ops;
          mul_into 4 !spare e !acc;
          let m = !acc in
          acc := !spare;
          spare := m
      | Gate.Barrier _ -> ()
      | Gate.Conditional _ | Gate.Prep _ | Gate.Measure _ ->
          invalid_arg "Circuit.unitary_matrix: non-unitary instruction")
    gates;
  !acc

let product1 gates =
  let acc = ref (create 2) and spare = ref (create 2) in
  blit identity2 !acc;
  let g = create 2 in
  List.iter
    (fun instr ->
      match instr with
      | Gate.Unitary (u, _) ->
          gate_into g u;
          mul_into 2 !spare g !acc;
          let m = !acc in
          acc := !spare;
          spare := m
      | Gate.Conditional _ | Gate.Prep _ | Gate.Measure _ | Gate.Barrier _ -> ())
    gates;
  !acc

(* ------------------------------------------------------------------ *)
(* Comparisons and factorisations                                       *)

(* Cplx.approx_equal on entry [k] of [a] and the complex (pr, pi). *)
let[@inline] close ~eps (a : t) k pr pi =
  Float.abs (Array.unsafe_get a k -. pr) <= eps
  && Float.abs (Array.unsafe_get a (k + 1) -. pi) <= eps

let approx_equal ~eps (a : t) (b : t) =
  let k = ref 0 in
  while
    !k < Array.length a
    && close ~eps a !k (Array.unsafe_get b !k) (Array.unsafe_get b (!k + 1))
  do
    k := !k + 2
  done;
  !k >= Array.length a

(* Matrix.approx_equal a (Matrix.scale (sr, si) b): each scaled entry is
   Complex.mul (sr, si) b_k. *)
let approx_equal_scaled ~eps (a : t) sr si (b : t) =
  let k = ref 0 and ok = ref true in
  while !ok && !k < Array.length a do
    let br = Array.unsafe_get b !k and bi = Array.unsafe_get b (!k + 1) in
    ok := close ~eps a !k ((sr *. br) -. (si *. bi)) ((sr *. bi) +. (si *. br));
    k := !k + 2
  done;
  !ok

let[@inline] abs_at (m : t) k =
  Float.hypot (Array.unsafe_get m k) (Array.unsafe_get m (k + 1))

(* Matrix.equal_up_to_phase: the first entry of [b] with modulus above
   [eps] fixes the phase a_k / b_k (Complex.div); a nonzero [a] entry
   before it, or no such entry at all, falls back to plain approximate
   equality. *)
let equal_up_to_phase ~eps (a : t) (b : t) =
  Array.length a = Array.length b
  &&
  let len = Array.length a in
  let rec find k =
    if k = len then -1
    else if abs_at b k > eps then k
    else if abs_at a k > eps then -1
    else find (k + 2)
  in
  let k = find 0 in
  if k < 0 then approx_equal ~eps a b
  else
    let xr = a.(k) and xi = a.(k + 1) and yr = b.(k) and yi = b.(k + 1) in
    let pr, pi =
      if Float.abs yr >= Float.abs yi then
        let r = yi /. yr in
        let d = yr +. (r *. yi) in
        ((xr +. (r *. xi)) /. d, (xi -. (r *. xr)) /. d)
      else
        let r = yr /. yi in
        let d = yi +. (r *. yr) in
        (((r *. xr) +. xi) /. d, ((r *. xi) -. xr) /. d)
    in
    if Float.abs (Float.hypot pr pi -. 1.0) > eps then false
    else approx_equal_scaled ~eps a pr pi b

(* If [m] is a scalar multiple of B ⊗ A (A on qubit 0, B on qubit 1),
   the factors (A, B), each up to a scale. The pivot is the entry of
   largest modulus: for a unitary tensor product it has modulus at least
   1/2, so the division is well-conditioned. The reconstruction
   (m_rc / |m_rc|²)* · (B ⊗ A) must match [m] within 1e-7. *)
let local_factors (m : t) =
  if dim m <> 4 then invalid_arg "Fixed_matrix.local_factors: not 4x4";
  let best = ref 0 and bestv = ref 0.0 in
  for k = 0 to 15 do
    let v = abs_at m (2 * k) in
    if v > !bestv then begin
      bestv := v;
      best := k
    end
  done;
  if !bestv < 1e-9 then None
  else
    let r = !best / 4 and c = !best mod 4 in
    let r0 = r land 1 and r1 = r lsr 1 in
    let c0 = c land 1 and c1 = c lsr 1 in
    let a = create 2 and b = create 2 in
    for i = 0 to 1 do
      for j = 0 to 1 do
        let sa = 2 * ((((r1 lsl 1) lor i) * 4) + ((c1 lsl 1) lor j)) in
        set a ((i * 2) + j) m.(sa) m.(sa + 1);
        let sb = 2 * ((((i lsl 1) lor r0) * 4) + ((j lsl 1) lor c0)) in
        set b ((i * 2) + j) m.(sb) m.(sb + 1)
      done
    done;
    let mr = m.(2 * !best) and mi = m.((2 * !best) + 1) in
    let s = 1.0 /. ((mr *. mr) +. (mi *. mi)) in
    let inv_r = s *. mr and inv_i = s *. -.mi in
    let k = ref 0 and ok = ref true in
    while !ok && !k < 16 do
      (* Entry k of inv · (B ⊗ A): Matrix.kron b a, then Matrix.scale. *)
      let row = !k / 4 and col = !k mod 4 in
      let bk = 2 * (((row / 2) * 2) + (col / 2)) in
      let ak = 2 * (((row mod 2) * 2) + (col mod 2)) in
      let br = b.(bk) and bi = b.(bk + 1) and ar = a.(ak) and ai = a.(ak + 1) in
      let kr = (br *. ar) -. (bi *. ai) and ki = (br *. ai) +. (bi *. ar) in
      ok :=
        close ~eps:1e-7 m (2 * !k)
          ((inv_r *. kr) -. (inv_i *. ki))
          ((inv_r *. ki) +. (inv_i *. kr));
      incr k
    done;
    if !ok then Some (a, b) else None

let[@inline] arg re im = Float.atan2 im re

(* ZYZ angles (alpha, beta, gamma) with U ≃ Rz(alpha)·Ry(beta)·Rz(gamma)
   up to global phase, for any nonzero multiple of a 2x2 unitary: dividing
   by a square root of the determinant absorbs the scale. *)
let zyz_angles (m : t) =
  if dim m <> 2 then invalid_arg "Fixed_matrix.zyz_angles: not 2x2";
  let m00r = m.(0) and m00i = m.(1) and m01r = m.(2) and m01i = m.(3) in
  let m10r = m.(4) and m10i = m.(5) and m11r = m.(6) and m11i = m.(7) in
  let det_r = ((m00r *. m11r) -. (m00i *. m11i)) -. ((m01r *. m10r) -. (m01i *. m10i)) in
  let det_i = ((m00r *. m11i) +. (m00i *. m11r)) -. ((m01r *. m10i) +. (m01i *. m10r)) in
  let r = sqrt (Float.hypot det_r det_i) and a = arg det_r det_i /. 2.0 in
  let sr = r *. cos a and si = r *. sin a in
  let k = 1.0 /. ((sr *. sr) +. (si *. si)) in
  let ir = k *. sr and ii = k *. -.si in
  let n00r = (ir *. m00r) -. (ii *. m00i) and n00i = (ir *. m00i) +. (ii *. m00r) in
  let n10r = (ir *. m10r) -. (ii *. m10i) and n10i = (ir *. m10i) +. (ii *. m10r) in
  let n11r = (ir *. m11r) -. (ii *. m11i) and n11i = (ir *. m11i) +. (ii *. m11r) in
  let ca = Float.hypot n00r n00i and sa = Float.hypot n10r n10i in
  let beta = 2.0 *. Float.atan2 sa ca in
  if sa < 1e-9 then (2.0 *. arg n11r n11i, 0.0, 0.0)
  else if ca < 1e-9 then (2.0 *. arg n10r n10i, Float.pi, 0.0)
  else (arg n11r n11i +. arg n10r n10i, beta, arg n11r n11i -. arg n10r n10i)
