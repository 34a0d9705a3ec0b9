type t = Complex.t

let zero = Complex.zero
let one = Complex.one
let i = Complex.i

let make re im : t = { Complex.re; im }
let re (z : t) = z.Complex.re
let im (z : t) = z.Complex.im

let add = Complex.add
let sub = Complex.sub
let mul = Complex.mul
let conj = Complex.conj
let scale s (z : t) : t = { Complex.re = s *. z.Complex.re; im = s *. z.Complex.im }

let cis theta : t = { Complex.re = cos theta; im = sin theta }

let norm2 (z : t) = (z.Complex.re *. z.Complex.re) +. (z.Complex.im *. z.Complex.im)
let abs = Complex.norm

let approx_equal ?(eps = 1e-9) (a : t) (b : t) =
  Float.abs (a.Complex.re -. b.Complex.re) <= eps
  && Float.abs (a.Complex.im -. b.Complex.im) <= eps
