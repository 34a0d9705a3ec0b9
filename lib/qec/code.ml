module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Bits = Qca_util.Bits

type t = {
  name : string;
  n : int;
  stabilizers : Pauli.t array;
  logical_x : Pauli.t;
  logical_z : Pauli.t;
  distance : int;
}

let syndrome code error =
  let s = ref 0 in
  Array.iteri
    (fun i stab -> if not (Pauli.commutes stab error) then s := Bits.set !s i)
    code.stabilizers;
  !s

let is_valid code =
  let ok = ref true in
  let m = Array.length code.stabilizers in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      if not (Pauli.commutes code.stabilizers.(i) code.stabilizers.(j)) then ok := false
    done;
    if not (Pauli.commutes code.stabilizers.(i) code.logical_x) then ok := false;
    if not (Pauli.commutes code.stabilizers.(i) code.logical_z) then ok := false
  done;
  if Pauli.commutes code.logical_x code.logical_z then ok := false;
  !ok

let in_stabilizer_group code op =
  let m = Array.length code.stabilizers in
  assert (m <= 20);
  let rec scan subset =
    if subset = 1 lsl m then false
    else begin
      let product = ref Pauli.identity in
      for i = 0 to m - 1 do
        if Bits.test subset i then product := Pauli.mul !product code.stabilizers.(i)
      done;
      if Pauli.equal !product op then true else scan (subset + 1)
    end
  in
  scan 0

let logical_effect code residual =
  let flips_z = not (Pauli.commutes residual code.logical_z) in
  let flips_x = not (Pauli.commutes residual code.logical_x) in
  match flips_z, flips_x with
  | false, false -> `None
  | true, false -> `X (* acts like logical X: flips the Z eigenvalue *)
  | false, true -> `Z
  | true, true -> `Y

let bit_flip_repetition d =
  if d < 3 || d mod 2 = 0 then invalid_arg "Code.bit_flip_repetition: odd d >= 3";
  let stabilizers =
    Array.init (d - 1) (fun i ->
        Pauli.mul (Pauli.single i 'Z') (Pauli.single (i + 1) 'Z'))
  in
  let all_x = List.fold_left (fun acc q -> Pauli.mul acc (Pauli.single q 'X')) Pauli.identity (List.init d Fun.id) in
  {
    name = Printf.sprintf "repetition-%d" d;
    n = d;
    stabilizers;
    logical_x = all_x;
    logical_z = Pauli.single 0 'Z';
    distance = d;
  }

let phase_flip_repetition d =
  if d < 3 || d mod 2 = 0 then invalid_arg "Code.phase_flip_repetition: odd d >= 3";
  let stabilizers =
    Array.init (d - 1) (fun i ->
        Pauli.mul (Pauli.single i 'X') (Pauli.single (i + 1) 'X'))
  in
  let all_z = List.fold_left (fun acc q -> Pauli.mul acc (Pauli.single q 'Z')) Pauli.identity (List.init d Fun.id) in
  {
    name = Printf.sprintf "phase-repetition-%d" d;
    n = d;
    stabilizers;
    logical_x = Pauli.single 0 'X';
    logical_z = all_z;
    distance = d;
  }

(* Rotated distance-3 surface code. Data layout:
     0 1 2
     3 4 5
     6 7 8
   Z faces {0,1,3,4} {4,5,7,8} {2,5} {3,6}; X faces {1,2,4,5} {3,4,6,7}
   {0,1} {7,8}. Validity (commutation, logical anticommutation) is enforced
   by the test suite via [is_valid]. *)
let surface_17 =
  let zs qubits =
    List.fold_left (fun acc q -> Pauli.mul acc (Pauli.single q 'Z')) Pauli.identity qubits
  in
  let xs qubits =
    List.fold_left (fun acc q -> Pauli.mul acc (Pauli.single q 'X')) Pauli.identity qubits
  in
  {
    name = "surface-17";
    n = 9;
    stabilizers =
      [|
        zs [ 0; 1; 3; 4 ];
        zs [ 4; 5; 7; 8 ];
        zs [ 2; 5 ];
        zs [ 3; 6 ];
        xs [ 1; 2; 4; 5 ];
        xs [ 3; 4; 6; 7 ];
        xs [ 0; 1 ];
        xs [ 7; 8 ];
      |];
    logical_z = zs [ 0; 1; 2 ];
    logical_x = xs [ 0; 3; 6 ];
    distance = 3;
  }

(* Rotated surface code of odd distance d: data qubits on a d x d grid,
   interior faces alternating Z/X by (row + col) parity, boundary half-faces
   on top/bottom (X-type) and left/right (Z-type). Logical Z runs along the
   top row, logical X down the left column. *)
let rotated_surface d =
  if d < 3 || d mod 2 = 0 then invalid_arg "Code.rotated_surface: odd d >= 3";
  let q r c = (r * d) + c in
  let zs qubits =
    List.fold_left (fun acc i -> Pauli.mul acc (Pauli.single i 'Z')) Pauli.identity qubits
  in
  let xs qubits =
    List.fold_left (fun acc i -> Pauli.mul acc (Pauli.single i 'X')) Pauli.identity qubits
  in
  let stabilizers = ref [] in
  (* interior faces *)
  for r = 0 to d - 2 do
    for c = 0 to d - 2 do
      let corners = [ q r c; q r (c + 1); q (r + 1) c; q (r + 1) (c + 1) ] in
      let stab = if (r + c) mod 2 = 0 then zs corners else xs corners in
      stabilizers := stab :: !stabilizers
    done
  done;
  (* top and bottom X half-faces *)
  for c = 0 to d - 2 do
    if (-1 + c) mod 2 <> 0 then
      stabilizers := xs [ q 0 c; q 0 (c + 1) ] :: !stabilizers;
    if (d - 1 + c) mod 2 = 1 then
      stabilizers := xs [ q (d - 1) c; q (d - 1) (c + 1) ] :: !stabilizers
  done;
  (* left and right Z half-faces *)
  for r = 0 to d - 2 do
    if (r - 1) mod 2 = 0 then stabilizers := zs [ q r 0; q (r + 1) 0 ] :: !stabilizers;
    if (r + d - 1) mod 2 = 0 then
      stabilizers := zs [ q r (d - 1); q (r + 1) (d - 1) ] :: !stabilizers
  done;
  {
    name = Printf.sprintf "surface-%d" d;
    n = d * d;
    stabilizers = Array.of_list (List.rev !stabilizers);
    logical_z = zs (List.init d (fun c -> q 0 c));
    logical_x = xs (List.init d (fun r -> q r 0));
    distance = d;
  }

(* Steane [[7,1,3]]: stabilizers from the [7,4] Hamming parity checks, one
   X-type and one Z-type copy of each. *)
let steane =
  let checks = [ [ 3; 4; 5; 6 ]; [ 1; 2; 5; 6 ]; [ 0; 2; 4; 6 ] ] in
  let build letter positions =
    List.fold_left
      (fun acc q -> Pauli.mul acc (Pauli.single q letter))
      Pauli.identity positions
  in
  let all = List.init 7 Fun.id in
  {
    name = "steane-7";
    n = 7;
    stabilizers =
      Array.of_list
        (List.map (build 'X') checks @ List.map (build 'Z') checks);
    logical_x = build 'X' all;
    logical_z = build 'Z' all;
    distance = 3;
  }

let ancilla_count code = Array.length code.stabilizers
let physical_qubits code = code.n + ancilla_count code

(* One syndrome round: ancilla i measures stabilizer i.
   Z-type stabilizer: ancilla in |0>, CNOT(data -> ancilla) per qubit.
   X-type: ancilla in |+>, CNOT(ancilla -> data), H, measure. *)
let syndrome_circuit code =
  let n = code.n in
  let total = n + ancilla_count code in
  let instrs = ref [] in
  let emit i = instrs := i :: !instrs in
  Array.iteri
    (fun i stab ->
      let ancilla = n + i in
      emit (Gate.Prep ancilla);
      let support = Pauli.support stab in
      let is_x = stab.Pauli.x <> 0 in
      if is_x then begin
        emit (Gate.Unitary (Gate.H, [| ancilla |]));
        List.iter (fun q -> emit (Gate.Unitary (Gate.Cnot, [| ancilla; q |]))) support;
        emit (Gate.Unitary (Gate.H, [| ancilla |]))
      end
      else
        List.iter (fun q -> emit (Gate.Unitary (Gate.Cnot, [| q; ancilla |]))) support;
      emit (Gate.Measure ancilla))
    code.stabilizers;
  Circuit.of_list ~name:(code.name ^ "-syndrome") total (List.rev !instrs)

let cycle_circuit ?(rounds = 1) code =
  if rounds < 1 then invalid_arg "Code.cycle_circuit: rounds must be positive";
  Circuit.repeat rounds (syndrome_circuit code)
