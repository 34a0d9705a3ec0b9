let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else
    let m = mean xs in
    let sum = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sum /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let minimum xs = Array.fold_left Float.min infinity xs
let maximum xs = Array.fold_left Float.max neg_infinity xs

let histogram ~bins ~lo ~hi xs =
  assert (bins > 0 && hi > lo);
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  let bin_of x =
    let b = int_of_float (Float.floor ((x -. lo) /. width)) in
    if b < 0 then 0 else if b >= bins then bins - 1 else b
  in
  Array.iter (fun x -> counts.(bin_of x) <- counts.(bin_of x) + 1) xs;
  counts

let linear_fit points =
  let n = float_of_int (Array.length points) in
  assert (n >= 2.0);
  let sx = Array.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = Array.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxx = Array.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let sxy = Array.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let denom = (n *. sxx) -. (sx *. sx) in
  assert (Float.abs denom > 1e-12);
  let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. n in
  (slope, intercept)

let exponential_decay_fit points =
  let logged =
    Array.map
      (fun (x, y) ->
        assert (y > 0.0);
        (x, log y))
      points
  in
  let slope, intercept = linear_fit logged in
  (exp intercept, exp slope)
