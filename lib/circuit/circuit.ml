module Matrix = Qca_util.Matrix
module Cplx = Qca_util.Cplx
module Bits = Qca_util.Bits

type t = { name : string; qubit_count : int; rev_instructions : Gate.t list; length : int }

let validate_qubit qubit_count instr q =
  if q < 0 || q >= qubit_count then
    invalid_arg
      (Printf.sprintf "Circuit: qubit %d out of range [0, %d) in '%s'" q qubit_count
         (Gate.to_string instr))

let duplicated instr q =
  invalid_arg
    (Printf.sprintf "Circuit: duplicated operand q[%d] in '%s'" q (Gate.to_string instr))

(* The operands are read in place: the checks run on every instruction of
   every circuit the compiler builds. A duplicate among up to three
   operands is found pairwise (three operands hold at most one duplicated
   value); longer barriers sort a copy and report the smallest duplicate. *)
let validate_operands qubit_count instr ops =
  for i = 0 to Array.length ops - 1 do
    validate_qubit qubit_count instr ops.(i)
  done;
  match Array.length ops with
  | 0 | 1 -> ()
  | 2 -> if ops.(0) = ops.(1) then duplicated instr ops.(0)
  | 3 ->
      if ops.(0) = ops.(1) || ops.(0) = ops.(2) then duplicated instr ops.(0)
      else if ops.(1) = ops.(2) then duplicated instr ops.(1)
  | n ->
      let sorted = Array.copy ops in
      Array.sort Int.compare sorted;
      for i = 0 to n - 2 do
        if sorted.(i) = sorted.(i + 1) then duplicated instr sorted.(i)
      done

let validate_instruction qubit_count instr =
  match instr with
  | Gate.Unitary (u, ops) | Gate.Conditional (_, u, ops) -> (
      validate_operands qubit_count instr ops;
      if Array.length ops <> Gate.arity u then
        invalid_arg
          (Printf.sprintf "Circuit: gate '%s' expects %d operands, got %d" (Gate.name u)
             (Gate.arity u) (Array.length ops));
      (* The classical bit is indexed by the qubit measured into it. *)
      match instr with
      | Gate.Conditional (bit, _, _) when bit < 0 || bit >= qubit_count ->
          invalid_arg
            (Printf.sprintf "Circuit: classical bit %d out of range [0, %d) in '%s'" bit
               qubit_count (Gate.to_string instr))
      | _ -> ())
  | Gate.Prep q | Gate.Measure q -> validate_qubit qubit_count instr q
  | Gate.Barrier qs -> validate_operands qubit_count instr qs

let create ?(name = "circuit") qubit_count =
  if qubit_count <= 0 then invalid_arg "Circuit.create: qubit_count must be positive";
  { name; qubit_count; rev_instructions = []; length = 0 }

let add c instr =
  validate_instruction c.qubit_count instr;
  { c with rev_instructions = instr :: c.rev_instructions; length = c.length + 1 }

let of_list ?name qubit_count instrs =
  let c = create ?name qubit_count in
  let rec build rev length = function
    | [] -> { c with rev_instructions = rev; length }
    | instr :: rest ->
        validate_instruction qubit_count instr;
        build (instr :: rev) (length + 1) rest
  in
  build [] 0 instrs

let name c = c.name
let qubit_count c = c.qubit_count
let instructions c = List.rev c.rev_instructions
let length c = c.length

let append a b =
  if a.qubit_count <> b.qubit_count then
    invalid_arg "Circuit.append: mismatched qubit counts";
  {
    a with
    rev_instructions = b.rev_instructions @ a.rev_instructions;
    length = a.length + b.length;
  }

let repeat k c =
  if k < 0 then invalid_arg "Circuit.repeat: negative count";
  let rec go acc k = if k = 0 then acc else go (append acc c) (k - 1) in
  go { c with rev_instructions = []; length = 0 } k

let inverse c =
  let invert = function
    | Gate.Unitary (u, ops) -> Gate.Unitary (Gate.adjoint u, ops)
    | Gate.Barrier qs -> Gate.Barrier qs
    | Gate.Conditional _ | Gate.Prep _ | Gate.Measure _ ->
        invalid_arg "Circuit.inverse: circuit contains non-unitary instructions"
  in
  (* rev_instructions is already reversed order, which is what inversion needs. *)
  List.fold_left
    (fun acc instr -> add acc (invert instr))
    (create ~name:(c.name ^ "_inv") c.qubit_count)
    c.rev_instructions

type figures = { gates : int; two_qubit_gates : int; depth : int }

(* One walk, last instruction first: the longest chain of instructions
   that share a qubit is as long read backwards, so the depth is the one
   a forward walk finds. *)
let figures c =
  let ready = Array.make c.qubit_count 0 in
  let gates = ref 0 and two_qubit_gates = ref 0 and depth = ref 0 in
  let finish ops =
    let start = ref 0 in
    for i = 0 to Array.length ops - 1 do
      start := Int.max !start ready.(ops.(i))
    done;
    for i = 0 to Array.length ops - 1 do
      ready.(ops.(i)) <- !start + 1
    done;
    depth := Int.max !depth (!start + 1)
  in
  List.iter
    (fun instr ->
      match instr with
      | Gate.Unitary (u, ops) | Gate.Conditional (_, u, ops) ->
          incr gates;
          if Gate.arity u >= 2 then incr two_qubit_gates;
          finish ops
      | Gate.Prep q | Gate.Measure q ->
          ready.(q) <- ready.(q) + 1;
          depth := Int.max !depth ready.(q)
      | Gate.Barrier qs -> finish qs)
    c.rev_instructions;
  { gates = !gates; two_qubit_gates = !two_qubit_gates; depth = !depth }

let gate_count c = (figures c).gates
let two_qubit_gate_count c = (figures c).two_qubit_gates
let depth c = (figures c).depth

let qubits_used c =
  let used = Array.make c.qubit_count false in
  List.iter (fun instr -> Array.iter (fun q -> used.(q) <- true) (Gate.qubits instr))
    c.rev_instructions;
  let acc = ref [] in
  for q = c.qubit_count - 1 downto 0 do
    if used.(q) then acc := q :: !acc
  done;
  !acc

let active_of_used used =
  let keep = ref [] in
  for q = Array.length used - 1 downto 0 do
    if used.(q) then keep := q :: !keep
  done;
  match !keep with [] -> [| 0 |] | keep -> Array.of_list keep

let active_qubits c =
  let used = Array.make c.qubit_count false in
  List.iter
    (fun instr -> Array.iter (fun q -> used.(q) <- true) (Gate.active_qubits instr))
    c.rev_instructions;
  active_of_used used

(* Barriers only order instructions, so they keep just their active
   operands; the relabelled circuit is built directly (every instruction
   was validated on the declared register, and an order-preserving
   relabel keeps operands distinct and in range). *)
let compact c =
  let active = active_qubits c in
  if Array.length active = c.qubit_count then None
  else begin
    let index = Array.make c.qubit_count (-1) in
    Array.iteri (fun i q -> index.(q) <- i) active;
    let relabel = function
      | Gate.Barrier qs ->
          Gate.Barrier
            (Array.of_list
               (List.filter_map
                  (fun q -> if index.(q) < 0 then None else Some index.(q))
                  (Array.to_list qs)))
      | instr -> Gate.map_qubits (fun q -> index.(q)) instr
    in
    Some
      ( {
          c with
          qubit_count = Array.length active;
          rev_instructions = List.map relabel c.rev_instructions;
        },
        active )
  end

(* Expand a k-qubit unitary into the full 2^n space. Operand order in
   [ops] is most-significant-first to match Gate.matrix conventions. *)
let embed qubit_count u ops =
  let small = Gate.matrix u in
  let k = Array.length ops in
  let dim = 1 lsl qubit_count in
  let index_of_basis basis =
    (* Map global basis state to the small matrix's row index. *)
    let rec go i acc =
      if i = k then acc
      else go (i + 1) ((acc lsl 1) lor if Bits.test basis ops.(i) then 1 else 0)
    in
    go 0 0
  in
  Matrix.make dim dim (fun row col ->
      (* Nonzero only when row and col agree outside the operand qubits. *)
      let mask = Array.fold_left (fun m q -> m lor (1 lsl q)) 0 ops in
      if row land lnot mask <> col land lnot mask then Cplx.zero
      else Matrix.get small (index_of_basis row) (index_of_basis col))

let unitary_matrix c =
  if c.qubit_count > 10 then invalid_arg "Circuit.unitary_matrix: too many qubits";
  let dim = 1 lsl c.qubit_count in
  let accumulate acc instr =
    match instr with
    | Gate.Unitary (u, ops) -> Matrix.mul (embed c.qubit_count u ops) acc
    | Gate.Barrier _ -> acc
    | Gate.Conditional _ | Gate.Prep _ | Gate.Measure _ ->
        invalid_arg "Circuit.unitary_matrix: non-unitary instruction"
  in
  List.fold_left accumulate (Matrix.identity dim) (instructions c)

let equal a b =
  a.qubit_count = b.qubit_count
  && a.length = b.length
  && List.for_all2 Gate.equal a.rev_instructions b.rev_instructions

let to_string c =
  let body = instructions c |> List.map Gate.to_string |> String.concat "\n" in
  Printf.sprintf "# %s (%d qubits)\n%s" c.name c.qubit_count body
