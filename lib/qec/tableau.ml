module Rng = Qca_util.Rng
module Gate = Qca_circuit.Gate

(* Inverse stabilizer tableau (Gidney, "Stim: a fast stabilizer circuit
   simulator", Quantum 5, 497, 2021). The state is U|0...0>; for every qubit
   k the tableau stores the Pauli rows U^dag X_k U (row k) and U^dag Z_k U
   (row n + k), each a sign bit plus bit-packed x and z words. Row r
   occupies words [r * w, (r + 1) * w) of [xs] and [zs]; bit [q mod 62] of
   word [q / 62] is qubit q. Words hold 62 bits so every mask constant below
   is a non-negative OCaml int.

   Gate G (state U -> G U) rewrites the rows of the qubits it touches:
   row(P) <- U^dag (G^dag P G) U, a swap, a sign flip or a product of rows.
   Z_q is deterministic exactly when row n + q has no x bits (it then
   commutes with every Z_k stabilising |0...0>), and the outcome is its
   sign. A random measurement collapses by inserting gates at the beginning
   of time (U -> U V), which conjugates every row by V: column updates. *)

let word_bits = 62
let max_qubits = 4096

type t = {
  n : int;
  w : int;  (* words per row *)
  xs : int array;  (* 2n rows * w words *)
  zs : int array;
  signs : int array;  (* 0 = +, 1 = - per row *)
  id_xs : int array;  (* the identity tableau, blitted by [reset] *)
  id_zs : int array;
  spread : int array;  (* w words of scratch for [collapse] *)
}

let words n = (n + word_bits - 1) / word_bits

let identity_rows n w =
  let xs = Array.make (2 * n * w) 0 and zs = Array.make (2 * n * w) 0 in
  for k = 0 to n - 1 do
    let bit = 1 lsl (k mod word_bits) and word = k / word_bits in
    xs.((k * w) + word) <- bit;
    zs.(((n + k) * w) + word) <- bit
  done;
  (xs, zs)

let create n =
  if n < 1 || n > max_qubits then
    invalid_arg
      (Printf.sprintf "Tableau.create: %d qubits outside the tableau limit [1, %d]" n
         max_qubits);
  let w = words n in
  let id_xs, id_zs = identity_rows n w in
  {
    n;
    w;
    xs = Array.copy id_xs;
    zs = Array.copy id_zs;
    signs = Array.make (2 * n) 0;
    id_xs;
    id_zs;
    spread = Array.make w 0;
  }

(* Words: the state rows and the identity template (x and z each), the signs
   and the collapse scratch; in floats, so no width overflows. *)
let memory_bytes n =
  let fn = float_of_int n and w = float_of_int (words n) in
  8.0 *. ((8.0 *. fn *. w) +. (2.0 *. fn) +. w)

let qubit_count t = t.n

(* Back to |0...0> without reallocating: the bulk-shot primitive. *)
let reset t =
  Array.blit t.id_xs 0 t.xs 0 (Array.length t.xs);
  Array.blit t.id_zs 0 t.zs 0 (Array.length t.zs);
  Array.fill t.signs 0 (Array.length t.signs) 0

let copy t =
  {
    t with
    xs = Array.copy t.xs;
    zs = Array.copy t.zs;
    signs = Array.copy t.signs;
    spread = Array.make t.w 0;
  }

(* --- word-level Pauli arithmetic --------------------------------------- *)

(* Population count of a non-negative 62-bit word (OCaml 5.1 has no
   primitive): the SWAR reduction, whose byte sums fit the top byte. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  ((x * 0x0101_0101_0101_0101) lsr 56) land 0x7f

(* Row [dst] <- row [dst] * row [src]; returns the power of i picked up by
   the qubit-wise products (mod 4). A qubit contributes +1 or -1 exactly
   where the factors anticommute: +1 for XY, YZ, ZX and -1 for the reverse,
   so the sum is |anti| - 2 |minus|, i.e. |anti| + 2 |minus| mod 4. *)
let mul_words xs zs dst src w =
  let d = dst * w and s = src * w in
  let anti = ref 0 and minus = ref 0 in
  for i = 0 to w - 1 do
    let x1 = Array.unsafe_get xs (d + i) and z1 = Array.unsafe_get zs (d + i) in
    let x2 = Array.unsafe_get xs (s + i) and z2 = Array.unsafe_get zs (s + i) in
    let nx = x1 lxor x2 and nz = z1 lxor z2 in
    let x1z2 = x1 land z2 in
    let a = x1z2 lxor (z1 land x2) in
    if a <> 0 then begin
      anti := !anti + popcount a;
      minus := !minus + popcount (a land (x1z2 lxor nx lxor nz))
    end;
    Array.unsafe_set xs (d + i) nx;
    Array.unsafe_set zs (d + i) nz
  done;
  !anti + (2 * !minus)

(* Row [dst] <- i^extra * row [dst] * row [src]. The result is a row of a
   Clifford image of a Hermitian Pauli, so its phase is real. *)
let mul_row t ~extra dst src =
  let g = mul_words t.xs t.zs dst src t.w in
  let phase = (2 * (t.signs.(dst) + t.signs.(src))) + g + extra in
  assert (phase land 1 = 0);
  t.signs.(dst) <- (phase land 3) lsr 1

let swap_rows t a b =
  let oa = a * t.w and ob = b * t.w in
  for i = 0 to t.w - 1 do
    let x = t.xs.(oa + i) and z = t.zs.(oa + i) in
    t.xs.(oa + i) <- t.xs.(ob + i);
    t.zs.(oa + i) <- t.zs.(ob + i);
    t.xs.(ob + i) <- x;
    t.zs.(ob + i) <- z
  done;
  let s = t.signs.(a) in
  t.signs.(a) <- t.signs.(b);
  t.signs.(b) <- s

let flip_sign t row = t.signs.(row) <- t.signs.(row) lxor 1

(* --- gates (rows X_q = q, Z_q = n + q) ---------------------------------- *)

(* H^dag X H = Z, H^dag Z H = X. *)
let h t q = swap_rows t q (t.n + q)

(* S^dag X S = -Y = -i X Z; Z is fixed. *)
let s t q = mul_row t ~extra:3 q (t.n + q)

(* S X S^dag = Y = i X Z. *)
let sdag t q = mul_row t ~extra:1 q (t.n + q)

let x t q = flip_sign t (t.n + q)
let z t q = flip_sign t q

let y t q =
  flip_sign t q;
  flip_sign t (t.n + q)

(* CNOT maps X_c -> X_c X_t and Z_t -> Z_c Z_t; the factors commute. *)
let cnot t control target =
  mul_row t ~extra:0 control target;
  mul_row t ~extra:0 (t.n + target) (t.n + control)

(* CZ maps X_a -> X_a Z_b and X_b -> Z_a X_b; the Z rows are fixed. *)
let cz t a b =
  mul_row t ~extra:0 a (t.n + b);
  mul_row t ~extra:0 b (t.n + a)

let swap t a b =
  swap_rows t a b;
  swap_rows t (t.n + a) (t.n + b)

let apply_pauli t (p : Pauli.t) =
  for q = 0 to min t.n Sys.int_size - 1 do
    let has_x = p.Pauli.x land (1 lsl q) <> 0 and has_z = p.Pauli.z land (1 lsl q) <> 0 in
    if has_x && has_z then y t q
    else if has_x then x t q
    else if has_z then z t q
  done

(* Total classification of the shared gate set: the planner must decide
   Clifford-ness without exception probing, and a new [Gate.unitary]
   constructor must force a decision here. *)
let supports = function
  | Gate.I | Gate.X | Gate.Y | Gate.Z | Gate.H | Gate.S | Gate.Sdag | Gate.X90
  | Gate.Xm90 | Gate.Y90 | Gate.Ym90 | Gate.Cnot | Gate.Cz | Gate.Swap ->
      true
  | Gate.T | Gate.Tdag | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Cphase _
  | Gate.Crk _ | Gate.Toffoli ->
      false

let operand_string ops =
  String.concat "," (Array.to_list (Array.map string_of_int ops))

let apply_gate t u ops =
  match u, ops with
  | Gate.I, _ -> ()
  | Gate.X, [| q |] -> x t q
  | Gate.Y, [| q |] -> y t q
  | Gate.Z, [| q |] -> z t q
  | Gate.H, [| q |] -> h t q
  | Gate.S, [| q |] -> s t q
  | Gate.Sdag, [| q |] -> sdag t q
  | Gate.X90, [| q |] ->
      (* Rx(pi/2) = H S H up to phase *)
      h t q;
      s t q;
      h t q
  | Gate.Xm90, [| q |] ->
      h t q;
      sdag t q;
      h t q
  | Gate.Y90, [| q |] ->
      (* Ry(pi/2) = H Z: Z first, then H *)
      z t q;
      h t q
  | Gate.Ym90, [| q |] ->
      (* Ry(-pi/2) = Z H *)
      h t q;
      z t q
  | Gate.Cnot, [| c; tg |] -> cnot t c tg
  | Gate.Cz, [| a; b |] -> cz t a b
  | Gate.Swap, [| a; b |] -> swap t a b
  | (Gate.T | Gate.Tdag | Gate.Rx _ | Gate.Ry _ | Gate.Rz _ | Gate.Cphase _ | Gate.Crk _ | Gate.Toffoli), _ ->
      invalid_arg
        (Printf.sprintf "Tableau.apply_gate: non-Clifford gate %s on qubits [%s]"
           (Gate.name u) (operand_string ops))
  | (Gate.X | Gate.Y | Gate.Z | Gate.H | Gate.S | Gate.Sdag | Gate.X90 | Gate.Xm90
    | Gate.Y90 | Gate.Ym90 | Gate.Cnot | Gate.Cz | Gate.Swap), _ ->
      invalid_arg
        (Printf.sprintf
           "Tableau.apply_gate: gate %s expects %d operand(s), got [%s]"
           (Gate.name u) (Gate.arity u) (operand_string ops))

(* --- measurement -------------------------------------------------------- *)

(* The lowest qubit k where row U^dag Z_q U carries X or Y, or -1 when the
   row is a Z string and the measurement is deterministic. *)
let pivot t q =
  let o = (t.n + q) * t.w in
  let i = ref 0 in
  while !i < t.w && t.xs.(o + !i) = 0 do
    incr i
  done;
  if !i = t.w then -1
  else
    let word = t.xs.(o + !i) in
    (!i * word_bits) + popcount ((word land -word) - 1)

let[@inline] bit words o word mask = if words.(o + word) land mask = 0 then 0 else 1

(* Collapse Z_q onto [outcome], given its pivot p, by prepending gates to
   the circuit (U -> U V): conjugating every row by V is a column update.
   1. CNOT from p onto every other qubit in [spread] (the row's other x
      bits). p is still |0> at that point in time, so the state is
      unchanged, and afterwards row n + q has its only x bit at p.
   2. H (row has X at p) or H_YZ (row has Y at p) turns that factor into
      Z: the new state is an eigenstate of the measured observable, with
      the sign of row n + q as its outcome.
   3. X at p, if that sign disagrees with [outcome].
   The CNOTs share their control, so they are applied at once: for a row
   with x_p = 1 and z bits T on [spread] (m = |T|), applying them in
   increasing target order flips the sign by
   m (1 + z_p) + |T & x| + m (m - 1) / 2 (mod 2). *)
let collapse t q p outcome =
  let w = t.w in
  let zrow = (t.n + q) * w in
  let pw = p / word_bits and pm = 1 lsl (p mod word_bits) in
  let spread = t.spread in
  for i = 0 to w - 1 do
    spread.(i) <- t.xs.(zrow + i)
  done;
  spread.(pw) <- spread.(pw) land lnot pm;
  (* Which of H / H_YZ: the z bit at p of row n + q after step 1. *)
  let yz =
    let par = ref (bit t.zs zrow pw pm) in
    for i = 0 to w - 1 do
      par := !par + popcount (t.zs.(zrow + i) land spread.(i))
    done;
    !par land 1 = 1
  in
  let xs = t.xs and zs = t.zs and signs = t.signs in
  for r = 0 to (2 * t.n) - 1 do
    let o = r * w in
    let m = ref 0 and tx = ref 0 in
    for i = 0 to w - 1 do
      let tz = Array.unsafe_get zs (o + i) land Array.unsafe_get spread i in
      if tz <> 0 then begin
        m := !m + popcount tz;
        tx := !tx + popcount (tz land Array.unsafe_get xs (o + i))
      end
    done;
    let xw = Array.unsafe_get xs (o + pw) and zw = Array.unsafe_get zs (o + pw) in
    (* Rows with I at p and no Z on the CNOT targets are fixed. *)
    if (xw lor zw) land pm <> 0 || !m <> 0 then begin
      let m = !m in
      let xp = if xw land pm = 0 then 0 else 1 in
      let zp = if zw land pm = 0 then 0 else 1 in
      if xp = 1 then begin
        for i = 0 to w - 1 do
          xs.(o + i) <- xs.(o + i) lxor spread.(i)
        done;
        signs.(r) <- signs.(r) lxor (((m * (1 - zp)) + !tx + (m * (m - 1) / 2)) land 1)
      end;
      let zp = zp lxor (m land 1) in
      (* Step 2 on the pivot column. H_YZ: X -> -X, Y <-> Z. H: X <-> Z,
         Y -> -Y. *)
      let nx = if yz then xp lxor zp else zp in
      let nz = if yz then zp else xp in
      signs.(r) <- signs.(r) lxor (xp land if yz then 1 - zp else zp);
      xs.(o + pw) <- (if nx = 1 then xs.(o + pw) lor pm else xs.(o + pw) land lnot pm);
      zs.(o + pw) <- (if nz = 1 then zw lor pm else zw land lnot pm)
    end
  done;
  if t.signs.(t.n + q) <> outcome then
    for r = 0 to (2 * t.n) - 1 do
      (* X^dag P X flips the sign of P wherever it has Z or Y at p. *)
      t.signs.(r) <- t.signs.(r) lxor bit t.zs (r * w) pw pm
    done

let measure_with t q ~random_outcome =
  match pivot t q with
  | -1 -> t.signs.(t.n + q)
  | p ->
      collapse t q p random_outcome;
      random_outcome

let measure t rng q =
  match pivot t q with
  | -1 -> t.signs.(t.n + q)
  | p ->
      let outcome = if Rng.bool rng then 1 else 0 in
      collapse t q p outcome;
      outcome

let measure_all t rng =
  let out = Array.make t.n 0 in
  for q = 0 to t.n - 1 do
    out.(q) <- measure t rng q
  done;
  out

let expectation_z t q = if pivot t q = -1 then Some t.signs.(t.n + q) else None

(* The stabilizer generators U Z_k U^dag, read off the inverse tableau. By
   symplectic inversion the generator for k has X on qubit j iff row
   U^dag Z_j U has an x bit at k, and Z on j iff row U^dag X_j U does. Its
   sign s satisfies U^dag P U = s Z_k for the unsigned string P, so it is
   the phase of the product of the rows that make up P. *)
let stabilizer_strings t =
  let n = t.n and w = t.w in
  (* One scratch row (index 0) accumulating products of copied rows. *)
  let acc_x = Array.make ((2 * n + 1) * w) 0 and acc_z = Array.make ((2 * n + 1) * w) 0 in
  Array.blit t.xs 0 acc_x w (2 * n * w);
  Array.blit t.zs 0 acc_z w (2 * n * w);
  let has words row k = bit words (row * w) (k / word_bits) (1 lsl (k mod word_bits)) = 1 in
  let generator k =
    Array.fill acc_x 0 w 0;
    Array.fill acc_z 0 w 0;
    let phase = ref 0 and body = Bytes.create n in
    for j = 0 to n - 1 do
      let px = has t.xs (n + j) k and pz = has t.xs j k in
      (* Y = i X Z *)
      if px && pz then incr phase;
      if px then phase := !phase + (2 * t.signs.(j)) + mul_words acc_x acc_z 0 (j + 1) w;
      if pz then
        phase := !phase + (2 * t.signs.(n + j)) + mul_words acc_x acc_z 0 (n + j + 1) w;
      Bytes.set body j
        (match px, pz with
        | false, false -> 'I'
        | true, false -> 'X'
        | true, true -> 'Y'
        | false, true -> 'Z')
    done;
    (if !phase land 3 = 2 then "-" else "+") ^ Bytes.to_string body
  in
  List.init n generator
