type program = {
  qubit_count : int;
  error_model : (string * float) option;
  subcircuits : (string * int * Circuit.t) list;
}

(* All parse failures carry the 1-based source line and the offending token
   through [Qca_util.Error.Syntax] so callers (CLI, checker) can point at
   the exact source location. *)
let syntax_error ?(token = "") line reason =
  Qca_util.Error.fail ~site:"Cqasm.parse"
    (Qca_util.Error.Syntax { line; token; reason })

let max_qubits = 1 lsl 20

let emit_instruction buffer instr =
  Buffer.add_string buffer "  ";
  Buffer.add_string buffer (Gate.to_string instr);
  Buffer.add_char buffer '\n'

let emit program =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "version 1.0\n";
  Buffer.add_string buffer (Printf.sprintf "qubits %d\n" program.qubit_count);
  (match program.error_model with
  | Some (model, rate) ->
      Buffer.add_string buffer (Printf.sprintf "error_model %s, %g\n" model rate)
  | None -> ());
  List.iter
    (fun (name, iterations, circuit) ->
      if iterations = 1 then Buffer.add_string buffer (Printf.sprintf "\n.%s\n" name)
      else Buffer.add_string buffer (Printf.sprintf "\n.%s(%d)\n" name iterations);
      List.iter (emit_instruction buffer) (Circuit.instructions circuit))
    program.subcircuits;
  Buffer.contents buffer

let of_circuit circuit =
  {
    qubit_count = Circuit.qubit_count circuit;
    error_model = None;
    subcircuits = [ (Circuit.name circuit, 1, circuit) ];
  }

let emit_circuit circuit = emit (of_circuit circuit)

let max_instructions = 1 lsl 24

(* Refuse a program whose unrolled length passes [max_instructions] before
   unrolling anything. The running total stops at the first subcircuit
   that crosses the limit, so [iterations * length] never overflows. *)
let flatten program =
  ignore
    (List.fold_left
       (fun total (name, iterations, circuit) ->
         let length = Circuit.length circuit in
         if length > 0 && iterations > (max_instructions - total) / length then
           Qca_util.Error.fail ~site:"Cqasm.flatten"
             (Qca_util.Error.Invalid
                (Printf.sprintf
                   "subcircuit .%s(%d) unrolls the program past the %d-instruction \
                    limit"
                   name iterations max_instructions))
         else total + (iterations * length))
       0 program.subcircuits);
  List.fold_left
    (fun acc (_, iterations, circuit) -> Circuit.append acc (Circuit.repeat iterations circuit))
    (Circuit.create program.qubit_count)
    program.subcircuits

(* ------------------------------------------------------------------ *)
(* Parser *)

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokenize line =
  line
  |> String.map (fun c -> if c = ',' then ' ' else c)
  |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")

let parse_qubit lineno token =
  let fail () =
    syntax_error ~token lineno
      (Printf.sprintf "expected qubit operand, got '%s'" token)
  in
  let len = String.length token in
  if len >= 4 && String.sub token 0 2 = "q[" && token.[len - 1] = ']' then
    match int_of_string_opt (String.sub token 2 (len - 3)) with
    | Some q -> q
    | None -> fail ()
  else fail ()

let parse_float lineno token =
  match float_of_string_opt token with
  | Some f -> f
  | None ->
      syntax_error ~token lineno (Printf.sprintf "expected angle, got '%s'" token)

let parse_int lineno token =
  match int_of_string_opt token with
  | Some k -> k
  | None ->
      syntax_error ~token lineno (Printf.sprintf "expected integer, got '%s'" token)

let parse_bit lineno token =
  let fail () =
    syntax_error ~token lineno
      (Printf.sprintf "expected classical bit operand, got '%s'" token)
  in
  let len = String.length token in
  if len >= 4 && String.sub token 0 2 = "b[" && token.[len - 1] = ']' then
    match int_of_string_opt (String.sub token 2 (len - 3)) with
    | Some b -> b
    | None -> fail ()
  else fail ()

let rec parse_instruction lineno qubit_count tokens =
  let q = parse_qubit lineno in
  match tokens with
  | [] -> None
  | [ "display" ] -> None
  | [ "measure_all" ] ->
      Some (List.init qubit_count (fun i -> Gate.Measure i))
  | mnemonic :: bit_token :: rest
    when String.length mnemonic > 2 && String.sub mnemonic 0 2 = "c-" -> begin
      (* Binary-controlled gate: c-<gate> b[k], <operands...> *)
      let bit = parse_bit lineno bit_token in
      let inner = String.sub mnemonic 2 (String.length mnemonic - 2) in
      match parse_instruction lineno qubit_count (inner :: rest) with
      | Some [ Gate.Unitary (u, ops) ] -> Some [ Gate.Conditional (bit, u, ops) ]
      | Some _ | None ->
          syntax_error ~token:mnemonic lineno
            "c- prefix requires a single unitary gate"
    end
  | mnemonic :: operands -> begin
      let single u =
        match operands with
        | [ t ] -> Some [ Gate.Unitary (u, [| q t |]) ]
        | _ ->
            syntax_error ~token:mnemonic lineno (mnemonic ^ ": expected one operand")
      in
      let double u =
        match operands with
        | [ t1; t2 ] -> Some [ Gate.Unitary (u, [| q t1; q t2 |]) ]
        | _ ->
            syntax_error ~token:mnemonic lineno (mnemonic ^ ": expected two operands")
      in
      match mnemonic with
      | "i" -> single Gate.I
      | "x" -> single Gate.X
      | "y" -> single Gate.Y
      | "z" -> single Gate.Z
      | "h" -> single Gate.H
      | "s" -> single Gate.S
      | "sdag" -> single Gate.Sdag
      | "t" -> single Gate.T
      | "tdag" -> single Gate.Tdag
      | "x90" -> single Gate.X90
      | "mx90" -> single Gate.Xm90
      | "y90" -> single Gate.Y90
      | "my90" -> single Gate.Ym90
      | "rx" | "ry" | "rz" -> begin
          match operands with
          | [ t; angle ] ->
              let theta = parse_float lineno angle in
              let u =
                match mnemonic with
                | "rx" -> Gate.Rx theta
                | "ry" -> Gate.Ry theta
                | _ -> Gate.Rz theta
              in
              Some [ Gate.Unitary (u, [| q t |]) ]
          | _ ->
              syntax_error ~token:mnemonic lineno
                (mnemonic ^ ": expected qubit and angle")
        end
      | "cnot" -> double Gate.Cnot
      | "cz" -> double Gate.Cz
      | "swap" -> double Gate.Swap
      | "cphase" -> begin
          match operands with
          | [ t1; t2; angle ] ->
              Some
                [ Gate.Unitary (Gate.Cphase (parse_float lineno angle), [| q t1; q t2 |]) ]
          | _ ->
              syntax_error ~token:"cphase" lineno "cphase: expected two qubits and angle"
        end
      | "cr" -> begin
          match operands with
          | [ t1; t2; k ] ->
              Some [ Gate.Unitary (Gate.Crk (parse_int lineno k), [| q t1; q t2 |]) ]
          | _ -> syntax_error ~token:"cr" lineno "cr: expected two qubits and integer"
        end
      | "toffoli" -> begin
          match operands with
          | [ t1; t2; t3 ] ->
              Some [ Gate.Unitary (Gate.Toffoli, [| q t1; q t2; q t3 |]) ]
          | _ -> syntax_error ~token:"toffoli" lineno "toffoli: expected three operands"
        end
      | "prep_z" -> begin
          match operands with
          | [ t ] -> Some [ Gate.Prep (q t) ]
          | _ -> syntax_error ~token:"prep_z" lineno "prep_z: expected one operand"
        end
      | "measure" -> begin
          match operands with
          | [ t ] -> Some [ Gate.Measure (q t) ]
          | _ -> syntax_error ~token:"measure" lineno "measure: expected one operand"
        end
      | "barrier" -> Some [ Gate.Barrier (Array.of_list (List.map q operands)) ]
      | other ->
          syntax_error ~token:other lineno
            (Printf.sprintf "unknown mnemonic '%s'" other)
    end

let parse_subcircuit_header lineno line =
  (* ".name" or ".name(k)" *)
  let body = String.sub line 1 (String.length line - 1) in
  match String.index_opt body '(' with
  | None -> (body, 1)
  | Some i ->
      if String.length body < i + 2 || body.[String.length body - 1] <> ')' then
        syntax_error ~token:body lineno "malformed subcircuit header"
      else
        let name = String.sub body 0 i in
        let count_str = String.sub body (i + 1) (String.length body - i - 2) in
        let count = parse_int lineno count_str in
        if count < 0 then
          syntax_error ~token:count_str lineno
            (Printf.sprintf "negative subcircuit repeat count %d" count)
        else (name, count)

let parse source =
  let lines = String.split_on_char '\n' source in
  let qubit_count = ref 0 in
  let seen_version = ref false in
  let error_model = ref None in
  let subcircuits = ref [] in
  (* Current subcircuit accumulation: (name, iterations, reversed instrs). *)
  let current = ref ("default", 1, []) in
  let flush () =
    let name, iterations, rev_instrs = !current in
    if rev_instrs <> [] then begin
      let circuit = Circuit.of_list ~name !qubit_count (List.rev rev_instrs) in
      subcircuits := (name, iterations, circuit) :: !subcircuits
    end
  in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim (strip_comment raw) in
      if line <> "" then
        if String.length line > 1 && line.[0] = '.' then begin
          flush ();
          let name, iterations = parse_subcircuit_header lineno line in
          current := (name, iterations, [])
        end
        else
          match tokenize line with
          | "version" :: _ -> seen_version := true
          | [ "qubits"; n ] ->
              qubit_count := parse_int lineno n;
              if !qubit_count > max_qubits then
                syntax_error ~token:n lineno
                  (Printf.sprintf "qubits %d exceeds the %d-qubit limit" !qubit_count
                     max_qubits)
          | [ "error_model"; model; rate ] ->
              error_model := Some (model, parse_float lineno rate)
          | tokens -> begin
              if !qubit_count = 0 then
                syntax_error
                  ~token:(match tokens with t :: _ -> t | [] -> "")
                  lineno "instruction before 'qubits' declaration";
              match parse_instruction lineno !qubit_count tokens with
              | None -> ()
              | Some instrs ->
                  (* Validate operands here so range errors point at the
                     offending source line, not the end-of-parse flush. *)
                  List.iter
                    (fun instr ->
                      try Circuit.validate_instruction !qubit_count instr
                      with Invalid_argument reason ->
                        syntax_error
                          ~token:(match tokens with t :: _ -> t | [] -> "")
                          lineno reason)
                    instrs;
                  let name, iterations, rev_instrs = !current in
                  current := (name, iterations, List.rev_append instrs rev_instrs)
            end)
    lines;
  flush ();
  if not !seen_version then syntax_error 1 "missing 'version' header";
  if !qubit_count <= 0 then syntax_error 1 "missing or invalid 'qubits' declaration";
  {
    qubit_count = !qubit_count;
    error_model = !error_model;
    subcircuits = List.rev !subcircuits;
  }

let parse_circuit source = flatten (parse source)

let roundtrip_equal circuit =
  let parsed = parse_circuit (emit_circuit circuit) in
  Circuit.equal circuit parsed
