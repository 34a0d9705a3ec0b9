module Bits = Qca_util.Bits
module Rng = Qca_util.Rng
module Gate = Qca_circuit.Gate

type t = { x : int; z : int }

let identity = { x = 0; z = 0 }

let single q = function
  | 'X' -> { x = 1 lsl q; z = 0 }
  | 'Y' -> { x = 1 lsl q; z = 1 lsl q }
  | 'Z' -> { x = 0; z = 1 lsl q }
  | c -> invalid_arg (Printf.sprintf "Pauli.single: unknown Pauli '%c'" c)

let of_string s =
  let acc = ref identity in
  String.iteri
    (fun q c ->
      match c with
      | 'I' -> ()
      | 'X' | 'Y' | 'Z' -> acc := { x = !acc.x lor (single q c).x; z = !acc.z lor (single q c).z }
      | _ -> invalid_arg (Printf.sprintf "Pauli.of_string: unknown Pauli '%c'" c))
    s;
  !acc

let to_string ~width p =
  String.init width (fun q ->
      match Bits.test p.x q, Bits.test p.z q with
      | false, false -> 'I'
      | true, false -> 'X'
      | true, true -> 'Y'
      | false, true -> 'Z')

let mul a b = { x = a.x lxor b.x; z = a.z lxor b.z }

let weight p = Bits.popcount (p.x lor p.z)

let commutes a b = Bits.parity ((a.x land b.z) lxor (a.z land b.x)) = 0

let is_identity p = p.x = 0 && p.z = 0
let equal a b = a.x = b.x && a.z = b.z

let support p =
  let mask = p.x lor p.z in
  let rec go q acc =
    if 1 lsl q > mask then List.rev acc
    else if Bits.test mask q then go (q + 1) (q :: acc)
    else go (q + 1) acc
  in
  go 0 []

let rec touches ops mask i =
  i < Array.length ops && (Bits.test mask ops.(i) || touches ops mask (i + 1))

(* The one Pauli-propagation rule table (the frame of Gidney's Stim,
   arXiv:2103.02202). A gate that repeats an operand takes the last rule. *)
let conjugate u ops p =
  let { x; z } = p in
  let bit v q = (v lsr q) land 1 in
  (* [v] with its bits at [a] and [b] exchanged *)
  let exchange v a b =
    let d = ((v lsr a) lxor (v lsr b)) land 1 in
    v lxor ((d lsl a) lor (d lsl b))
  in
  match (u, ops) with
  | (Gate.I | Gate.X | Gate.Y | Gate.Z), _ -> Some p
  | Gate.H, [| q |] ->
      let m = 1 lsl q in
      Some { x = (x land lnot m) lor (z land m); z = (z land lnot m) lor (x land m) }
  | (Gate.S | Gate.Sdag), [| q |] -> Some { x; z = z lxor (x land (1 lsl q)) }
  | Gate.Cnot, [| c; t |] when c <> t ->
      Some { x = x lxor (bit x c lsl t); z = z lxor (bit z t lsl c) }
  | Gate.Cz, [| a; b |] when a <> b ->
      Some { x; z = z lxor (bit x b lsl a) lxor (bit x a lsl b) }
  | Gate.Swap, [| a; b |] -> Some { x = exchange x a b; z = exchange z a b }
  | (Gate.T | Gate.Tdag | Gate.Rz _ | Gate.Cphase _ | Gate.Crk _), _ ->
      if touches ops x 0 then None else Some p
  | _ -> if touches ops (x lor z) 0 then None else Some p

let depolarizing_error rng n p =
  let acc = ref identity in
  for q = 0 to n - 1 do
    if Rng.bernoulli rng p then begin
      let which = [| 'X'; 'Y'; 'Z' |].(Rng.int rng 3) in
      acc := mul !acc (single q which)
    end
  done;
  !acc

let xz_error rng n ~px ~pz =
  let acc = ref identity in
  for q = 0 to n - 1 do
    if Rng.bernoulli rng px then acc := mul !acc (single q 'X');
    if Rng.bernoulli rng pz then acc := mul !acc (single q 'Z')
  done;
  !acc
