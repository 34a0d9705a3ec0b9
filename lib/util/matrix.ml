type t = { rows : int; cols : int; data : Cplx.t array }

let make rows cols f =
  let data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) in
  { rows; cols; data }

let of_arrays arr =
  let rows = Array.length arr in
  assert (rows > 0);
  let cols = Array.length arr.(0) in
  Array.iter (fun row -> assert (Array.length row = cols)) arr;
  make rows cols (fun r c -> arr.(r).(c))

let rows m = m.rows
let cols m = m.cols
let get m r c = m.data.((r * m.cols) + c)

let identity n = make n n (fun r c -> if r = c then Cplx.one else Cplx.zero)
let zero rows cols = make rows cols (fun _ _ -> Cplx.zero)

let add a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  make a.rows a.cols (fun r c -> Cplx.add (get a r c) (get b r c))

let mul a b =
  assert (a.cols = b.rows);
  (* [acc + x * y] in unboxed floats: the operations of Complex.add and
     Complex.mul in the same order, so every entry is bit-identical to
     folding those, without allocating a complex per term. *)
  let dot r c =
    let re = ref 0.0 and im = ref 0.0 in
    for k = 0 to a.cols - 1 do
      let x = get a r k and y = get b k c in
      re := !re +. ((x.Complex.re *. y.Complex.re) -. (x.Complex.im *. y.Complex.im));
      im := !im +. ((x.Complex.re *. y.Complex.im) +. (x.Complex.im *. y.Complex.re))
    done;
    { Complex.re = !re; im = !im }
  in
  make a.rows b.cols dot

let scale s m = make m.rows m.cols (fun r c -> Cplx.mul s (get m r c))

let kron a b =
  make (a.rows * b.rows) (a.cols * b.cols) (fun r c ->
      let ra = r / b.rows and rb = r mod b.rows in
      let ca = c / b.cols and cb = c mod b.cols in
      Cplx.mul (get a ra ca) (get b rb cb))

let adjoint m = make m.cols m.rows (fun r c -> Cplx.conj (get m c r))

let trace m =
  assert (m.rows = m.cols);
  let acc = ref Cplx.zero in
  for k = 0 to m.rows - 1 do
    acc := Cplx.add !acc (get m k k)
  done;
  !acc

let apply m v =
  assert (m.cols = Array.length v);
  Array.init m.rows (fun r ->
      let acc = ref Cplx.zero in
      for c = 0 to m.cols - 1 do
        acc := Cplx.add !acc (Cplx.mul (get m r c) v.(c))
      done;
      !acc)

let approx_equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Cplx.approx_equal ~eps x y) a.data b.data

let equal_up_to_phase ?(eps = 1e-9) a b =
  if a.rows <> b.rows || a.cols <> b.cols then false
  else
    (* Find the first entry of b with significant modulus to fix the phase. *)
    let n = Array.length a.data in
    let rec find k =
      if k = n then None
      else if Cplx.abs b.data.(k) > eps then Some k
      else if Cplx.abs a.data.(k) > eps then (* a nonzero where b zero *) None
      else find (k + 1)
    in
    match find 0 with
    | None -> approx_equal ~eps a b
    | Some k ->
        let phase = Complex.div a.data.(k) b.data.(k) in
        if Float.abs (Cplx.abs phase -. 1.0) > eps then false
        else approx_equal ~eps a (scale phase b)

let is_unitary ?(eps = 1e-9) m =
  m.rows = m.cols && approx_equal ~eps (mul (adjoint m) m) (identity m.rows)
