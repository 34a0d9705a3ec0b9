module Matrix = Qca_util.Matrix
module Cplx = Qca_util.Cplx

type unitary =
  | I
  | X
  | Y
  | Z
  | H
  | S
  | Sdag
  | T
  | Tdag
  | X90
  | Xm90
  | Y90
  | Ym90
  | Rx of float
  | Ry of float
  | Rz of float
  | Cnot
  | Cz
  | Swap
  | Cphase of float
  | Crk of int
  | Toffoli

type t =
  | Unitary of unitary * int array
  | Conditional of int * unitary * int array
  | Prep of int
  | Measure of int
  | Barrier of int array

let arity = function
  | I | X | Y | Z | H | S | Sdag | T | Tdag | X90 | Xm90 | Y90 | Ym90 | Rx _ | Ry _
  | Rz _ ->
      1
  | Cnot | Cz | Swap | Cphase _ | Crk _ -> 2
  | Toffoli -> 3

let c re im = Cplx.make re im
let inv_sqrt2 = 1.0 /. sqrt 2.0

let rotation_x theta =
  let h = theta /. 2.0 in
  Matrix.of_arrays
    [| [| c (cos h) 0.0; c 0.0 (-.sin h) |]; [| c 0.0 (-.sin h); c (cos h) 0.0 |] |]

let rotation_y theta =
  let h = theta /. 2.0 in
  Matrix.of_arrays
    [| [| c (cos h) 0.0; c (-.sin h) 0.0 |]; [| c (sin h) 0.0; c (cos h) 0.0 |] |]

let rotation_z theta =
  let h = theta /. 2.0 in
  Matrix.of_arrays
    [| [| Cplx.cis (-.h); Cplx.zero |]; [| Cplx.zero; Cplx.cis h |] |]

let controlled_phase phi =
  Matrix.make 4 4 (fun r col ->
      if r <> col then Cplx.zero else if r = 3 then Cplx.cis phi else Cplx.one)

let matrix = function
  | I -> Matrix.identity 2
  | X -> Matrix.of_arrays [| [| Cplx.zero; Cplx.one |]; [| Cplx.one; Cplx.zero |] |]
  | Y -> Matrix.of_arrays [| [| Cplx.zero; c 0.0 (-1.0) |]; [| Cplx.i; Cplx.zero |] |]
  | Z -> Matrix.of_arrays [| [| Cplx.one; Cplx.zero |]; [| Cplx.zero; c (-1.0) 0.0 |] |]
  | H ->
      Matrix.of_arrays
        [|
          [| c inv_sqrt2 0.0; c inv_sqrt2 0.0 |];
          [| c inv_sqrt2 0.0; c (-.inv_sqrt2) 0.0 |];
        |]
  | S -> Matrix.of_arrays [| [| Cplx.one; Cplx.zero |]; [| Cplx.zero; Cplx.i |] |]
  | Sdag ->
      Matrix.of_arrays [| [| Cplx.one; Cplx.zero |]; [| Cplx.zero; c 0.0 (-1.0) |] |]
  | T ->
      Matrix.of_arrays
        [| [| Cplx.one; Cplx.zero |]; [| Cplx.zero; Cplx.cis (Float.pi /. 4.0) |] |]
  | Tdag ->
      Matrix.of_arrays
        [| [| Cplx.one; Cplx.zero |]; [| Cplx.zero; Cplx.cis (-.Float.pi /. 4.0) |] |]
  | X90 -> rotation_x (Float.pi /. 2.0)
  | Xm90 -> rotation_x (-.Float.pi /. 2.0)
  | Y90 -> rotation_y (Float.pi /. 2.0)
  | Ym90 -> rotation_y (-.Float.pi /. 2.0)
  | Rx theta -> rotation_x theta
  | Ry theta -> rotation_y theta
  | Rz theta -> rotation_z theta
  | Cnot ->
      (* Control is the high bit: basis order 00,01,10,11. *)
      Matrix.make 4 4 (fun r col ->
          let target r = if r < 2 then r else if r = 2 then 3 else 2 in
          if col = target r then Cplx.one else Cplx.zero)
  | Cz ->
      Matrix.make 4 4 (fun r col ->
          if r <> col then Cplx.zero
          else if r = 3 then c (-1.0) 0.0
          else Cplx.one)
  | Swap ->
      Matrix.make 4 4 (fun r col ->
          let target = function 0 -> 0 | 1 -> 2 | 2 -> 1 | _ -> 3 in
          if col = target r then Cplx.one else Cplx.zero)
  | Cphase phi -> controlled_phase phi
  | Crk k -> controlled_phase (2.0 *. Float.pi /. float_of_int (1 lsl k))
  | Toffoli ->
      Matrix.make 8 8 (fun r col ->
          let target r = if r = 6 then 7 else if r = 7 then 6 else r in
          if col = target r then Cplx.one else Cplx.zero)

let adjoint = function
  | I -> I
  | X -> X
  | Y -> Y
  | Z -> Z
  | H -> H
  | S -> Sdag
  | Sdag -> S
  | T -> Tdag
  | Tdag -> T
  | X90 -> Xm90
  | Xm90 -> X90
  | Y90 -> Ym90
  | Ym90 -> Y90
  | Rx theta -> Rx (-.theta)
  | Ry theta -> Ry (-.theta)
  | Rz theta -> Rz (-.theta)
  | Cnot -> Cnot
  | Cz -> Cz
  | Swap -> Swap
  | Cphase phi -> Cphase (-.phi)
  | Crk k -> Cphase (-.(2.0 *. Float.pi /. float_of_int (1 lsl k)))
  | Toffoli -> Toffoli

let is_diagonal = function
  | I | Z | S | Sdag | T | Tdag | Rz _ | Cz | Cphase _ | Crk _ -> true
  | X | Y | H | X90 | Xm90 | Y90 | Ym90 | Rx _ | Ry _ | Cnot | Swap | Toffoli -> false

let is_clifford = function
  | I | X | Y | Z | H | S | Sdag | X90 | Xm90 | Y90 | Ym90 | Cnot | Cz | Swap -> true
  | T | Tdag | Rx _ | Ry _ | Rz _ | Cphase _ | Crk _ | Toffoli -> false

let kinds =
  [|
    I; X; Y; Z; H; S; Sdag; T; Tdag; X90; Xm90; Y90; Ym90; Rx 0.; Ry 0.; Rz 0.; Cnot; Cz;
    Swap; Cphase 0.; Crk 0; Toffoli;
  |]

let kind = function
  | I -> 0
  | X -> 1
  | Y -> 2
  | Z -> 3
  | H -> 4
  | S -> 5
  | Sdag -> 6
  | T -> 7
  | Tdag -> 8
  | X90 -> 9
  | Xm90 -> 10
  | Y90 -> 11
  | Ym90 -> 12
  | Rx _ -> 13
  | Ry _ -> 14
  | Rz _ -> 15
  | Cnot -> 16
  | Cz -> 17
  | Swap -> 18
  | Cphase _ -> 19
  | Crk _ -> 20
  | Toffoli -> 21

let name = function
  | I -> "i"
  | X -> "x"
  | Y -> "y"
  | Z -> "z"
  | H -> "h"
  | S -> "s"
  | Sdag -> "sdag"
  | T -> "t"
  | Tdag -> "tdag"
  | X90 -> "x90"
  | Xm90 -> "mx90"
  | Y90 -> "y90"
  | Ym90 -> "my90"
  | Rx _ -> "rx"
  | Ry _ -> "ry"
  | Rz _ -> "rz"
  | Cnot -> "cnot"
  | Cz -> "cz"
  | Swap -> "swap"
  | Cphase _ -> "cphase"
  | Crk _ -> "cr"
  | Toffoli -> "toffoli"

let kind_names = Array.map name kinds

let kind_of_name s =
  let rec find k =
    if k = Array.length kind_names then None
    else if String.equal kind_names.(k) s then Some k
    else find (k + 1)
  in
  find 0

let qubits = function
  | Unitary (_, operands) | Conditional (_, _, operands) -> Array.copy operands
  | Prep q | Measure q -> [| q |]
  | Barrier qs -> Array.copy qs

let active_qubits = function
  | Unitary (_, operands) -> operands
  | Conditional (bit, _, operands) -> Array.append [| bit |] operands
  | Prep q | Measure q -> [| q |]
  | Barrier _ -> [||]

let map_qubits f = function
  | Unitary (u, operands) -> Unitary (u, Array.map f operands)
  | Conditional (bit, u, operands) ->
      (* The classical bit is indexed by the measured qubit, so a uniform
         renumbering applies to it too. *)
      Conditional (f bit, u, Array.map f operands)
  | Prep q -> Prep (f q)
  | Measure q -> Measure (f q)
  | Barrier qs -> Barrier (Array.map f qs)

let angle_equal a b = Float.abs (a -. b) <= 1e-12

let unitary_equal a b =
  match a, b with
  | Rx x, Rx y | Ry x, Ry y | Rz x, Rz y | Cphase x, Cphase y -> angle_equal x y
  | Crk j, Crk k -> j = k
  | ( ( I | X | Y | Z | H | S | Sdag | T | Tdag | X90 | Xm90 | Y90 | Ym90 | Cnot | Cz
      | Swap | Toffoli ),
      _ ) ->
      a = b
  | (Rx _ | Ry _ | Rz _ | Cphase _ | Crk _), _ -> false

let equal a b =
  match a, b with
  | Unitary (u, ops), Unitary (v, ops') -> unitary_equal u v && ops = ops'
  | Conditional (bit, u, ops), Conditional (bit', v, ops') ->
      bit = bit' && unitary_equal u v && ops = ops'
  | Prep q, Prep q' | Measure q, Measure q' -> q = q'
  | Barrier qs, Barrier qs' -> qs = qs'
  | (Unitary _ | Conditional _ | Prep _ | Measure _ | Barrier _), _ -> false

let operand_string operands =
  operands |> Array.to_list
  |> List.map (Printf.sprintf "q[%d]")
  |> String.concat ", "

let unitary_to_string u operands =
  let operand_part = operand_string operands in
  match u with
  | Rx theta | Ry theta | Rz theta | Cphase theta ->
      Printf.sprintf "%s %s, %.10g" (name u) operand_part theta
  | Crk k -> Printf.sprintf "cr %s, %d" operand_part k
  | I | X | Y | Z | H | S | Sdag | T | Tdag | X90 | Xm90 | Y90 | Ym90 | Cnot | Cz
  | Swap | Toffoli ->
      Printf.sprintf "%s %s" (name u) operand_part

let to_string = function
  | Unitary (u, operands) -> unitary_to_string u operands
  | Conditional (bit, u, operands) ->
      let base = unitary_to_string u operands in
      (match String.index_opt base ' ' with
      | Some i ->
          Printf.sprintf "c-%s b[%d],%s" (String.sub base 0 i) bit
            (String.sub base i (String.length base - i))
      | None -> Printf.sprintf "c-%s b[%d]" base bit)
  | Prep q -> Printf.sprintf "prep_z q[%d]" q
  | Measure q -> Printf.sprintf "measure q[%d]" q
  | Barrier qs -> Printf.sprintf "barrier %s" (operand_string qs)
