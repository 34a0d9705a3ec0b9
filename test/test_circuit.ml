(* Tests for the circuit IR: gate algebra, circuit structure, cQASM. *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module Cqasm = Qca_circuit.Cqasm
module Matrix = Qca_util.Matrix
module Cplx = Qca_util.Cplx
module Rng = Qca_util.Rng

let all_simple_unitaries =
  [
    Gate.I; Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.Sdag; Gate.T; Gate.Tdag;
    Gate.X90; Gate.Xm90; Gate.Y90; Gate.Ym90; Gate.Rx 0.3; Gate.Ry 0.7; Gate.Rz 1.1;
    Gate.Cnot; Gate.Cz; Gate.Swap; Gate.Cphase 0.5; Gate.Crk 3; Gate.Toffoli;
  ]

(* --- gates --- *)

let test_all_matrices_unitary () =
  List.iter
    (fun u ->
      Alcotest.(check bool)
        (Printf.sprintf "%s unitary" (Gate.name u))
        true
        (Matrix.is_unitary (Gate.matrix u)))
    all_simple_unitaries

let test_adjoint_inverts () =
  List.iter
    (fun u ->
      let m = Gate.matrix u and madj = Gate.matrix (Gate.adjoint u) in
      let product = Matrix.mul madj m in
      Alcotest.(check bool)
        (Printf.sprintf "%s adjoint inverts" (Gate.name u))
        true
        (Matrix.equal_up_to_phase product (Matrix.identity (Matrix.rows m))))
    all_simple_unitaries

let test_matrix_dims_match_arity () =
  List.iter
    (fun u ->
      Alcotest.(check int)
        (Gate.name u)
        (1 lsl Gate.arity u)
        (Matrix.rows (Gate.matrix u)))
    all_simple_unitaries

let test_pauli_relations () =
  let x = Gate.matrix Gate.X and y = Gate.matrix Gate.Y and z = Gate.matrix Gate.Z in
  (* XY = iZ *)
  Alcotest.(check bool) "XY = iZ" true
    (Matrix.approx_equal (Matrix.mul x y) (Matrix.scale Cplx.i z));
  (* HXH = Z *)
  let h = Gate.matrix Gate.H in
  Alcotest.(check bool) "HXH = Z" true
    (Matrix.approx_equal (Matrix.mul h (Matrix.mul x h)) z)

let test_s_squared_is_z () =
  let s = Gate.matrix Gate.S in
  Alcotest.(check bool) "S^2 = Z" true
    (Matrix.approx_equal (Matrix.mul s s) (Gate.matrix Gate.Z))

let test_t_squared_is_s () =
  let t = Gate.matrix Gate.T in
  Alcotest.(check bool) "T^2 = S" true
    (Matrix.approx_equal (Matrix.mul t t) (Gate.matrix Gate.S))

let test_x90_squared_is_x () =
  let m = Gate.matrix Gate.X90 in
  Alcotest.(check bool) "X90^2 ~ X" true
    (Matrix.equal_up_to_phase (Matrix.mul m m) (Gate.matrix Gate.X))

let test_crk_is_cphase () =
  Alcotest.(check bool) "crk2 = cphase(pi/2)" true
    (Matrix.approx_equal (Gate.matrix (Gate.Crk 2)) (Gate.matrix (Gate.Cphase (Float.pi /. 2.0))))

let test_diagonal_flags () =
  Alcotest.(check bool) "cz diagonal" true (Gate.is_diagonal Gate.Cz);
  Alcotest.(check bool) "h not diagonal" false (Gate.is_diagonal Gate.H);
  List.iter
    (fun u ->
      if Gate.is_diagonal u then begin
        let m = Gate.matrix u in
        let dim = Matrix.rows m in
        for r = 0 to dim - 1 do
          for c = 0 to dim - 1 do
            if r <> c then
              Alcotest.(check bool)
                (Printf.sprintf "%s off-diagonal zero" (Gate.name u))
                true
                (Cplx.approx_equal (Matrix.get m r c) Cplx.zero)
          done
        done
      end)
    all_simple_unitaries

let test_map_qubits () =
  let instr = Gate.Unitary (Gate.Cnot, [| 0; 1 |]) in
  let mapped = Gate.map_qubits (fun q -> q + 2) instr in
  Alcotest.(check (array int)) "mapped" [| 2; 3 |] (Gate.qubits mapped)

let test_gate_to_string () =
  Alcotest.(check string) "cnot" "cnot q[0], q[1]"
    (Gate.to_string (Gate.Unitary (Gate.Cnot, [| 0; 1 |])));
  Alcotest.(check string) "measure" "measure q[3]" (Gate.to_string (Gate.Measure 3))

(* --- circuits --- *)

let test_circuit_validation () =
  let c = Circuit.create 2 in
  Alcotest.check_raises "out of range" (Invalid_argument "Circuit: qubit 2 out of range [0, 2) in 'x q[2]'")
    (fun () -> ignore (Circuit.add c (Gate.Unitary (Gate.X, [| 2 |]))));
  Alcotest.check_raises "duplicate operand"
    (Invalid_argument "Circuit: duplicated operand q[0] in 'cnot q[0], q[0]'") (fun () ->
      ignore (Circuit.add c (Gate.Unitary (Gate.Cnot, [| 0; 0 |]))))

(* The messages validation reports for each operand shape: the pairwise
   duplicate check (up to three operands), the sorted one (longer
   barriers), a conditional's qubit operand and its classical bit. *)
let test_circuit_validation_messages () =
  let raises name msg n instr =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Circuit.add (Circuit.create n) instr))
  in
  raises "toffoli duplicate" "Circuit: duplicated operand q[1] in 'toffoli q[1], q[2], q[1]'" 3
    (Gate.Unitary (Gate.Toffoli, [| 1; 2; 1 |]));
  raises "toffoli trailing duplicate"
    "Circuit: duplicated operand q[0] in 'toffoli q[2], q[0], q[0]'" 3
    (Gate.Unitary (Gate.Toffoli, [| 2; 0; 0 |]));
  raises "barrier duplicate (smallest reported)"
    "Circuit: duplicated operand q[1] in 'barrier q[3], q[1], q[4], q[1], q[3]'" 5
    (Gate.Barrier [| 3; 1; 4; 1; 3 |]);
  raises "conditional operand out of range"
    "Circuit: qubit 5 out of range [0, 2) in 'c-x b[0], q[5]'" 2
    (Gate.Conditional (0, Gate.X, [| 5 |]));
  raises "conditional bit out of range"
    "Circuit: classical bit 7 out of range [0, 2) in 'c-x b[7], q[1]'" 2
    (Gate.Conditional (7, Gate.X, [| 1 |]));
  raises "negative conditional bit"
    "Circuit: classical bit -1 out of range [0, 2) in 'c-x b[-1], q[1]'" 2
    (Gate.Conditional (-1, Gate.X, [| 1 |]));
  raises "operand reported before bit"
    "Circuit: qubit 3 out of range [0, 2) in 'c-x b[9], q[3]'" 2
    (Gate.Conditional (9, Gate.X, [| 3 |]));
  ignore (Circuit.add (Circuit.create 2) (Gate.Conditional (1, Gate.X, [| 0 |])))

(* The operand checks as they were written before operands were read in
   place: every operand range-checked, then a sorted copy scanned for the
   smallest duplicate, then the arity. *)
let reference_validate qubit_count instr =
  let operands = Gate.qubits instr in
  Array.iter
    (fun q ->
      if q < 0 || q >= qubit_count then
        invalid_arg
          (Printf.sprintf "Circuit: qubit %d out of range [0, %d) in '%s'" q qubit_count
             (Gate.to_string instr)))
    operands;
  let sorted = Array.copy operands in
  Array.sort compare sorted;
  for i = 0 to Array.length sorted - 2 do
    if sorted.(i) = sorted.(i + 1) then
      invalid_arg
        (Printf.sprintf "Circuit: duplicated operand q[%d] in '%s'" sorted.(i)
           (Gate.to_string instr))
  done;
  match instr with
  | Gate.Unitary (u, ops) | Gate.Conditional (_, u, ops) ->
      if Array.length ops <> Gate.arity u then
        invalid_arg
          (Printf.sprintf "Circuit: gate '%s' expects %d operands, got %d" (Gate.name u)
             (Gate.arity u) (Array.length ops))
  | Gate.Prep _ | Gate.Measure _ | Gate.Barrier _ -> ()

let prop_validation_matches_reference =
  QCheck.Test.make ~name:"validation reports what the sorting check reported" ~count:2000
    (QCheck.make
       ~print:(fun (kind, ops) ->
         Printf.sprintf "kind=%d ops=[%s]" kind
           (String.concat ";" (List.map string_of_int ops)))
       QCheck.Gen.(pair (int_range 0 5) (list_size (int_range 0 6) (int_range (-1) 4))))
    (fun (kind, ops) ->
      let arr = Array.of_list ops in
      let first = match ops with q :: _ -> q | [] -> 0 in
      let instr =
        match kind with
        | 0 -> Gate.Unitary (Gate.H, arr)
        | 1 -> Gate.Unitary (Gate.Cnot, arr)
        | 2 -> Gate.Unitary (Gate.Toffoli, arr)
        | 3 -> Gate.Conditional (0, Gate.Cz, arr)
        | 4 -> Gate.Barrier arr
        | _ -> Gate.Measure first
      in
      let outcome f = match f 4 instr with () -> None | exception Invalid_argument m -> Some m in
      outcome Circuit.validate_instruction = outcome reference_validate)

let test_circuit_counts () =
  let c = Library.ghz 4 in
  Alcotest.(check int) "gate count" 4 (Circuit.gate_count c);
  Alcotest.(check int) "2q count" 3 (Circuit.two_qubit_gate_count c);
  Alcotest.(check int) "depth" 4 (Circuit.depth c)

let test_circuit_append_repeat () =
  let b = Library.bell () in
  let twice = Circuit.repeat 2 b in
  Alcotest.(check int) "length" 4 (Circuit.length twice);
  let joined = Circuit.append b b in
  Alcotest.(check bool) "repeat = append" true (Circuit.equal twice joined)

let test_circuit_inverse_identity () =
  let c = Library.qft 3 in
  let id = Circuit.append c (Circuit.inverse c) in
  let m = Circuit.unitary_matrix id in
  Alcotest.(check bool) "qft * qft^-1 = I" true
    (Matrix.equal_up_to_phase m (Matrix.identity 8))

let test_circuit_inverse_rejects_measure () =
  let c = Circuit.of_list 1 [ Gate.Measure 0 ] in
  Alcotest.check_raises "non-unitary"
    (Invalid_argument "Circuit.inverse: circuit contains non-unitary instructions")
    (fun () -> ignore (Circuit.inverse c))

let test_qubits_used () =
  let c = Circuit.of_list 5 [ Gate.Unitary (Gate.Cnot, [| 1; 3 |]) ] in
  Alcotest.(check (list int)) "used" [ 1; 3 ] (Circuit.qubits_used c)

let test_bell_unitary () =
  let m = Circuit.unitary_matrix (Library.bell ()) in
  (* Column 0 should be the Bell state (|00> + |11>)/sqrt2. *)
  let inv_sqrt2 = 1.0 /. sqrt 2.0 in
  Alcotest.(check bool) "amp 00" true
    (Cplx.approx_equal (Matrix.get m 0 0) (Cplx.make inv_sqrt2 0.0));
  Alcotest.(check bool) "amp 11" true
    (Cplx.approx_equal (Matrix.get m 3 0) (Cplx.make inv_sqrt2 0.0));
  Alcotest.(check bool) "amp 01" true (Cplx.approx_equal (Matrix.get m 1 0) Cplx.zero)

(* QFT matrix entry (j,k) = w^{jk} / sqrt(N) with w = exp(2 pi i / N). *)
let test_qft_matrix () =
  let n = 3 in
  let dim = 1 lsl n in
  let m = Circuit.unitary_matrix (Library.qft n) in
  let w = 2.0 *. Float.pi /. float_of_int dim in
  let expected =
    Matrix.make dim dim (fun j k ->
        Cplx.scale (1.0 /. sqrt (float_of_int dim)) (Cplx.cis (w *. float_of_int (j * k))))
  in
  Alcotest.(check bool) "qft matrix" true (Matrix.equal_up_to_phase ~eps:1e-9 m expected)

let test_mcx_truth_table () =
  (* 3 controls, 1 ancilla, target: verify action on every basis state. *)
  let n = 5 in
  let mcx = Library.multi_controlled_x ~controls:[ 0; 1; 2 ] ~ancillas:[ 3 ] ~target:4 n in
  let m = Circuit.unitary_matrix mcx in
  for basis = 0 to (1 lsl n) - 1 do
    if basis land 0b01000 = 0 then begin
      (* ancilla must be clean *)
      let expected =
        if basis land 0b111 = 0b111 then basis lxor 0b10000 else basis
      in
      let amp = Matrix.get m expected basis in
      Alcotest.(check bool)
        (Printf.sprintf "basis %d -> %d" basis expected)
        true
        (Cplx.approx_equal amp Cplx.one)
    end
  done

let test_cuccaro_adds () =
  (* k=2: verify a + b for all 4x4 inputs via the unitary's permutation. *)
  let k = 2 in
  let circ = Library.cuccaro_adder k in
  let m = Circuit.unitary_matrix circ in
  for a = 0 to 3 do
    for b = 0 to 3 do
      let input = a lor (b lsl k) in
      let sum = a + b in
      let expected = a lor ((sum land 3) lsl k) lor ((sum lsr 2) lsl (2 * k + 1)) in
      let amp = Matrix.get m expected input in
      Alcotest.(check bool)
        (Printf.sprintf "%d+%d" a b)
        true
        (Cplx.approx_equal amp Cplx.one)
    done
  done

let test_phase_flip_oracle () =
  let n = 3 in
  let pattern = [| true; false; true |] in
  let oracle = Library.phase_flip_on ~pattern ~qubits:[ 0; 1; 2 ] ~ancillas:[] n in
  let m = Circuit.unitary_matrix oracle in
  (* pattern q0=1,q1=0,q2=1 -> basis index 0b101 = 5 *)
  for basis = 0 to 7 do
    let expected = if basis = 5 then Cplx.make (-1.0) 0.0 else Cplx.one in
    Alcotest.(check bool)
      (Printf.sprintf "basis %d" basis)
      true
      (Cplx.approx_equal (Matrix.get m basis basis) expected)
  done

(* --- conditionals --- *)

let test_conditional_to_string () =
  Alcotest.(check string) "c-x" "c-x b[1], q[2]"
    (Gate.to_string (Gate.Conditional (1, Gate.X, [| 2 |])));
  Alcotest.(check string) "c-rz" "c-rz b[0], q[1], 0.5"
    (Gate.to_string (Gate.Conditional (0, Gate.Rz 0.5, [| 1 |])))

let test_conditional_counts_as_gate () =
  let c = Circuit.of_list 3 [ Gate.Conditional (0, Gate.Cnot, [| 1; 2 |]) ] in
  Alcotest.(check int) "gate count" 1 (Circuit.gate_count c);
  Alcotest.(check int) "2q count" 1 (Circuit.two_qubit_gate_count c)

let test_conditional_cqasm_roundtrip () =
  Alcotest.(check bool) "teleport roundtrips" true
    (Cqasm.roundtrip_equal (Library.teleport ()))

let test_conditional_parse () =
  let src = "version 1.0\nqubits 2\nmeasure q[0]\nc-x b[0], q[1]\n" in
  let c = Cqasm.parse_circuit src in
  match Circuit.instructions c with
  | [ Gate.Measure 0; Gate.Conditional (0, Gate.X, [| 1 |]) ] -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_conditional_rejects_in_inverse () =
  let c = Circuit.of_list 2 [ Gate.Conditional (0, Gate.X, [| 1 |]) ] in
  match Circuit.inverse c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "conditional inverse accepted"

(* --- cQASM --- *)

let test_cqasm_emit_contains () =
  let src = Cqasm.emit_circuit (Library.bell ()) in
  Alcotest.(check bool) "version" true (String.length src > 0 && String.sub src 0 11 = "version 1.0");
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "qubits line" true (contains "qubits 2" src);
  Alcotest.(check bool) "cnot line" true (contains "cnot q[0], q[1]" src)

let test_cqasm_roundtrip_library () =
  List.iter
    (fun circ ->
      Alcotest.(check bool) (Circuit.name circ) true (Cqasm.roundtrip_equal circ))
    [ Library.bell (); Library.ghz 5; Library.qft 4; Library.cuccaro_adder 2 ]

let test_cqasm_parse_subcircuits () =
  let src = "version 1.0\nqubits 2\n.init\n  prep_z q[0]\n.body(3)\n  x q[0]\n.meas\n  measure q[0]\n" in
  let program = Cqasm.parse src in
  Alcotest.(check int) "subcircuit count" 3 (List.length program.Cqasm.subcircuits);
  let flat = Cqasm.flatten program in
  (* prep + 3x + measure = 5 instructions *)
  Alcotest.(check int) "flattened length" 5 (Circuit.length flat)

let test_cqasm_parse_angles () =
  let src = "version 1.0\nqubits 1\nrx q[0], 1.5708\nrz q[0], -0.5\n" in
  let c = Cqasm.parse_circuit src in
  match Circuit.instructions c with
  | [ Gate.Unitary (Gate.Rx a, _); Gate.Unitary (Gate.Rz b, _) ] ->
      Alcotest.(check (float 1e-9)) "rx angle" 1.5708 a;
      Alcotest.(check (float 1e-9)) "rz angle" (-0.5) b
  | _ -> Alcotest.fail "unexpected parse"

let test_cqasm_parse_errors () =
  let expect_error src =
    match Cqasm.parse src with
    | exception Qca_util.Error.Error
        { Qca_util.Error.kind = Qca_util.Error.Syntax _; _ } ->
        ()
    | _ -> Alcotest.fail "expected parse error"
  in
  expect_error "qubits 2\nx q[0]\n";
  (* no version *)
  expect_error "version 1.0\nx q[0]\n";
  (* instruction before qubits *)
  expect_error "version 1.0\nqubits 2\nfrobnicate q[0]\n";
  expect_error "version 1.0\nqubits 2\nx q[0], q[1]\n";
  expect_error "version 1.0\nqubits 2\ncnot q[0]\n";
  (* a negative repeat count is a parse error, not a crash in flatten *)
  expect_error "version 1.0\nqubits 2\n.x(-5)\nh q[0]\n"

let test_cqasm_comments_and_measure_all () =
  let src = "version 1.0\n# a comment\nqubits 2\nx q[0] # trailing\nmeasure_all\n" in
  let c = Cqasm.parse_circuit src in
  Alcotest.(check int) "x + 2 measures" 3 (Circuit.length c)

let test_cqasm_error_model_roundtrip () =
  let src = "version 1.0\nqubits 1\nerror_model depolarizing_channel, 0.001\nx q[0]\n" in
  let program = Cqasm.parse src in
  Alcotest.(check bool) "parsed" true
    (program.Cqasm.error_model = Some ("depolarizing_channel", 0.001));
  let emitted = Cqasm.emit program in
  let reparsed = Cqasm.parse emitted in
  Alcotest.(check bool) "roundtrips" true
    (reparsed.Cqasm.error_model = Some ("depolarizing_channel", 0.001))

let test_cqasm_out_of_range_rejected () =
  let src = "version 1.0\nqubits 2\nx q[5]\n" in
  match Cqasm.parse src with
  | exception Qca_util.Error.Error
      { Qca_util.Error.kind = Qca_util.Error.Syntax { line; token; _ }; _ } ->
      (* The range error points at the offending line and token. *)
      Alcotest.(check int) "line" 3 line;
      Alcotest.(check string) "token" "x" token
  | _ -> Alcotest.fail "expected failure"

(* An error_model rate is a probability: nan, inf and values outside
   [0, 1] are parse errors at the directive's line, naming the rate; the
   bounds themselves parse. *)
let test_cqasm_error_model_rate_checked () =
  let src rate = Printf.sprintf "version 1.0\nqubits 1\nerror_model depolarizing_channel, %s\nx q[0]\n" rate in
  List.iter
    (fun rate ->
      match Cqasm.parse (src rate) with
      | exception Qca_util.Error.Error
          { Qca_util.Error.kind = Qca_util.Error.Syntax { line; token; _ }; _ } ->
          Alcotest.(check int) (rate ^ ": line") 3 line;
          Alcotest.(check string) (rate ^ ": token") rate token
      | _ -> Alcotest.failf "rate %s parsed" rate)
    [ "nan"; "inf"; "-inf"; "1.5"; "-0.1"; "1e400" ];
  List.iter
    (fun (rate, value) ->
      Alcotest.(check bool) (rate ^ " parses") true
        ((Cqasm.parse (src rate)).Cqasm.error_model = Some ("depolarizing_channel", value)))
    [ ("0", 0.0); ("1", 1.0); ("0.25", 0.25) ]

(* --- properties --- *)

let circuit_gen =
  QCheck.Gen.(
    let* qubits = int_range 2 5 in
    let* gates = int_range 0 30 in
    let* seed = int_range 0 10000 in
    return (Library.random_circuit (Rng.create seed) ~qubits ~gates))

let arb_circuit = QCheck.make ~print:Circuit.to_string circuit_gen

let prop_roundtrip = QCheck.Test.make ~name:"cqasm roundtrip random" ~count:100 arb_circuit Cqasm.roundtrip_equal

let prop_depth_bounds =
  QCheck.Test.make ~name:"depth <= length" ~count:100 arb_circuit (fun c ->
      Circuit.depth c <= Circuit.length c)

let prop_inverse_unitary =
  QCheck.Test.make ~name:"inverse composes to identity" ~count:30 arb_circuit (fun c ->
      let id = Circuit.append c (Circuit.inverse c) in
      Matrix.equal_up_to_phase ~eps:1e-7
        (Circuit.unitary_matrix id)
        (Matrix.identity (1 lsl Circuit.qubit_count c)))

(* [Cqasm.tokenize] is one scan of the line; the reference is the split
   it replaces: commas become spaces, split on spaces, empty fields
   dropped. Tabs are no separator in either. *)
let reference_tokenize line =
  line
  |> String.map (fun c -> if c = ',' then ' ' else c)
  |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")

let prop_tokenize_matches_split =
  let alphabet = [| ' '; ' '; ','; ','; '\t'; 'q'; '['; '3'; ']'; 'h'; '.'; '-' |] in
  let line =
    QCheck.make
      ~print:(fun s -> Printf.sprintf "%S" s)
      QCheck.Gen.(string_size ~gen:(oneofa alphabet) (int_bound 40))
  in
  QCheck.Test.make ~name:"tokenize = split on spaces and commas" ~count:2000 line (fun l ->
      Cqasm.tokenize l = reference_tokenize l)

let () =
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "qca_circuit"
    [
      ( "gate",
        [
          Alcotest.test_case "all matrices unitary" `Quick test_all_matrices_unitary;
          Alcotest.test_case "adjoint inverts" `Quick test_adjoint_inverts;
          Alcotest.test_case "dims match arity" `Quick test_matrix_dims_match_arity;
          Alcotest.test_case "pauli relations" `Quick test_pauli_relations;
          Alcotest.test_case "S^2 = Z" `Quick test_s_squared_is_z;
          Alcotest.test_case "T^2 = S" `Quick test_t_squared_is_s;
          Alcotest.test_case "X90^2 ~ X" `Quick test_x90_squared_is_x;
          Alcotest.test_case "crk = cphase" `Quick test_crk_is_cphase;
          Alcotest.test_case "diagonal flags" `Quick test_diagonal_flags;
          Alcotest.test_case "map qubits" `Quick test_map_qubits;
          Alcotest.test_case "to_string" `Quick test_gate_to_string;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "validation" `Quick test_circuit_validation;
          Alcotest.test_case "validation messages" `Quick test_circuit_validation_messages;
          qtest prop_validation_matches_reference;
          Alcotest.test_case "counts" `Quick test_circuit_counts;
          Alcotest.test_case "append/repeat" `Quick test_circuit_append_repeat;
          Alcotest.test_case "inverse identity" `Quick test_circuit_inverse_identity;
          Alcotest.test_case "inverse rejects measure" `Quick test_circuit_inverse_rejects_measure;
          Alcotest.test_case "qubits used" `Quick test_qubits_used;
        ] );
      ( "library",
        [
          Alcotest.test_case "bell unitary" `Quick test_bell_unitary;
          Alcotest.test_case "qft matrix" `Quick test_qft_matrix;
          Alcotest.test_case "mcx truth table" `Quick test_mcx_truth_table;
          Alcotest.test_case "cuccaro adds" `Quick test_cuccaro_adds;
          Alcotest.test_case "phase flip oracle" `Quick test_phase_flip_oracle;
        ] );
      ( "conditional",
        [
          Alcotest.test_case "to_string" `Quick test_conditional_to_string;
          Alcotest.test_case "counts as gate" `Quick test_conditional_counts_as_gate;
          Alcotest.test_case "cqasm roundtrip" `Quick test_conditional_cqasm_roundtrip;
          Alcotest.test_case "parse" `Quick test_conditional_parse;
          Alcotest.test_case "no inverse" `Quick test_conditional_rejects_in_inverse;
        ] );
      ( "cqasm",
        [
          Alcotest.test_case "emit structure" `Quick test_cqasm_emit_contains;
          Alcotest.test_case "roundtrip library" `Quick test_cqasm_roundtrip_library;
          Alcotest.test_case "subcircuits" `Quick test_cqasm_parse_subcircuits;
          Alcotest.test_case "angles" `Quick test_cqasm_parse_angles;
          Alcotest.test_case "parse errors" `Quick test_cqasm_parse_errors;
          Alcotest.test_case "comments and measure_all" `Quick test_cqasm_comments_and_measure_all;
          Alcotest.test_case "error_model directive" `Quick test_cqasm_error_model_roundtrip;
          Alcotest.test_case "out of range" `Quick test_cqasm_out_of_range_rejected;
          Alcotest.test_case "error_model rate checked" `Quick
            test_cqasm_error_model_rate_checked;
          qtest prop_tokenize_matches_split;
          qtest prop_roundtrip;
          qtest prop_depth_bounds;
          qtest prop_inverse_unitary;
        ] );
    ]
