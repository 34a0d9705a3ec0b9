(* The 64-bit splitmix state lives in an 8-byte buffer rather than a
   mutable [int64] field: reading and writing it through the bytes
   primitives keeps the arithmetic unboxed, so a draw allocates nothing
   beyond its boxed [float] result. The buffer is only ever read back
   through the same primitive, so its byte order does not matter. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  set64 t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let state = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 state;
  mix64 state

let split t = of_state (mix64 (bits64 t))

(* One parent draw per stream, taken in index order: slicing a batch of k
   streams into windows and deriving window-by-window from the same parent
   yields exactly the same streams as deriving all k at once. *)
let streams t k =
  assert (k >= 0);
  if k = 0 then [||]
  else begin
    let out = Array.make k t in
    for i = 0 to k - 1 do
      out.(i) <- split t
    done;
    out
  end

let[@inline] int t bound =
  assert (bound > 0);
  (* Truncate to OCaml's native int width and clear the sign bit. *)
  let mask = Int64.to_int (bits64 t) land max_int in
  mask mod bound

let[@inline] float t bound =
  (* 53 random bits scaled into [0, 1) then into [0, bound). *)
  let mantissa = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int mantissa /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] bernoulli t p = float t 1.0 < p

let gaussian t =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 0.0 then draw () else u
  in
  let u1 = draw () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let choose_weighted t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  assert (total > 0.0);
  let target = float t total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0
