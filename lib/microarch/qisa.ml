module Eqasm = Qca_compiler.Eqasm

type condition = Always | Eq | Ne | Lt | Ge

type instruction =
  | Label of string
  | Ldi of int * int
  | Mov of int * int
  | Add of int * int * int
  | Sub of int * int * int
  | Cmp of int * int
  | Br of condition * string
  | Fmr of int * int
  | Quantum of Eqasm.instruction
  | Halt

let register_count = 32

type program = {
  qisa_name : string;
  qubit_count : int;
  cycle_ns : int;
  code : instruction array;
  labels : (string, int) Hashtbl.t;
}

let check_range what ~limit k =
  if k < 0 || k >= limit then invalid_arg (Printf.sprintf "Qisa: %s%d out of range" what k)

let check_register = check_range "register r" ~limit:register_count
let check_qubit qubit_count what = check_range (what ^ " qubit ") ~limit:qubit_count

let check_mask ~two_qubit =
  check_range (if two_qubit then "mask register t" else "mask register s")
    ~limit:Eqasm.register_limit

let check_wait what cycles =
  if cycles < 0 then invalid_arg (Printf.sprintf "Qisa: negative %s %d" what cycles)

let validate qubit_count labels instr =
  match instr with
  | Label _ | Halt -> ()
  | Ldi (rd, _) -> check_register rd
  | Mov (rd, rs) | Cmp (rd, rs) ->
      check_register rd;
      check_register rs
  | Add (rd, rs, rt) | Sub (rd, rs, rt) ->
      check_register rd;
      check_register rs;
      check_register rt
  | Br (_, target) ->
      if not (Hashtbl.mem labels target) then
        invalid_arg (Printf.sprintf "Qisa: unknown label '%s'" target)
  | Fmr (rd, q) ->
      check_register rd;
      check_qubit qubit_count "FMR" q
  | Quantum (Eqasm.Smis (r, qs)) ->
      check_mask ~two_qubit:false r;
      List.iter (check_qubit qubit_count "SMIS") qs
  | Quantum (Eqasm.Smit (r, ps)) ->
      check_mask ~two_qubit:true r;
      List.iter
        (fun (a, b) ->
          check_qubit qubit_count "SMIT" a;
          check_qubit qubit_count "SMIT" b)
        ps
  | Quantum (Eqasm.Qwait cycles) -> check_wait "QWAIT" cycles
  | Quantum (Eqasm.Bundle (pre_interval, ops)) ->
      check_wait "bundle pre-interval" pre_interval;
      List.iter
        (fun (op : Eqasm.quantum_op) ->
          check_mask ~two_qubit:op.Eqasm.two_qubit op.Eqasm.mask;
          Option.iter (check_qubit qubit_count "condition") op.Eqasm.condition)
        ops

let assemble ~name ~qubit_count ~cycle_ns instructions =
  if qubit_count <= 0 then invalid_arg "Qisa.assemble: qubit_count must be positive";
  let code = Array.of_list instructions in
  let labels = Hashtbl.create 8 in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Label l ->
          if Hashtbl.mem labels l then
            invalid_arg (Printf.sprintf "Qisa: duplicate label '%s'" l);
          Hashtbl.replace labels l pc
      | Ldi _ | Mov _ | Add _ | Sub _ | Cmp _ | Br _ | Fmr _ | Quantum _ | Halt -> ())
    code;
  Array.iter (validate qubit_count labels) code;
  { qisa_name = name; qubit_count; cycle_ns; code; labels }

let condition_to_string = function
  | Always -> "always"
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"

let instruction_to_string = function
  | Label l -> l ^ ":"
  | Ldi (rd, imm) -> Printf.sprintf "  LDI r%d, %d" rd imm
  | Mov (rd, rs) -> Printf.sprintf "  MOV r%d, r%d" rd rs
  | Add (rd, rs, rt) -> Printf.sprintf "  ADD r%d, r%d, r%d" rd rs rt
  | Sub (rd, rs, rt) -> Printf.sprintf "  SUB r%d, r%d, r%d" rd rs rt
  | Cmp (rs, rt) -> Printf.sprintf "  CMP r%d, r%d" rs rt
  | Br (c, l) -> Printf.sprintf "  BR.%s %s" (condition_to_string c) l
  | Fmr (rd, q) -> Printf.sprintf "  FMR r%d, q%d" rd q
  | Quantum eq -> begin
      let rendered =
        Eqasm.to_string
          {
            Eqasm.platform_name = "";
            qubit_count = 0;
            cycle_ns = 0;
            instructions = [ eq ];
            makespan_cycles = 0;
          }
      in
      (* drop the header line, keep the instruction *)
      match String.split_on_char '\n' rendered with
      | _header :: line :: _ -> "  " ^ line
      | _ -> "  <quantum>"
    end
  | Halt -> "  HALT"

let to_string p =
  Printf.sprintf "# QISA program %s (%d qubits)\n%s\n" p.qisa_name p.qubit_count
    (String.concat "\n" (Array.to_list (Array.map instruction_to_string p.code)))

exception Parse_error of int * string

(* --- assembler ------------------------------------------------------- *)

let strip_comment line =
  match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line

let parse_register lineno token =
  let token = String.trim token in
  let len = String.length token in
  if len >= 2 && (token.[0] = 'r' || token.[0] = 'R') then
    match int_of_string_opt (String.sub token 1 (len - 1)) with
    | Some r -> r
    | None -> raise (Parse_error (lineno, "bad register " ^ token))
  else raise (Parse_error (lineno, "expected register, got " ^ token))

let parse_qubit_operand lineno token =
  let token = String.trim token in
  let len = String.length token in
  if len >= 2 && (token.[0] = 'q' || token.[0] = 'Q') then
    match int_of_string_opt (String.sub token 1 (len - 1)) with
    | Some q -> q
    | None -> raise (Parse_error (lineno, "bad qubit " ^ token))
  else raise (Parse_error (lineno, "expected qubit, got " ^ token))

let parse_int_token lineno token =
  match int_of_string_opt (String.trim token) with
  | Some k -> k
  | None -> raise (Parse_error (lineno, "expected integer, got " ^ token))

let split_commas s = String.split_on_char ',' s |> List.map String.trim

(* "{0, 1, 2}" -> [0; 1; 2] *)
let parse_brace_list lineno s =
  let s = String.trim s in
  let len = String.length s in
  if len < 2 || s.[0] <> '{' || s.[len - 1] <> '}' then
    raise (Parse_error (lineno, "expected {...}, got " ^ s));
  let inner = String.trim (String.sub s 1 (len - 2)) in
  if inner = "" then [] else split_commas inner

(* "(0,1)" pairs appear comma-separated inside braces: re-split on ')' *)
let parse_pair_list lineno s =
  let s = String.trim s in
  let len = String.length s in
  if len < 2 || s.[0] <> '{' || s.[len - 1] <> '}' then
    raise (Parse_error (lineno, "expected {...}, got " ^ s));
  let inner = String.sub s 1 (len - 2) in
  let chunks = String.split_on_char ')' inner in
  List.filter_map
    (fun chunk ->
      let chunk = String.trim chunk in
      let chunk =
        if String.length chunk > 0 && (chunk.[0] = ',' || chunk.[0] = ' ') then
          String.trim (String.sub chunk 1 (String.length chunk - 1))
        else chunk
      in
      if chunk = "" then None
      else if chunk.[0] = '(' then begin
        match split_commas (String.sub chunk 1 (String.length chunk - 1)) with
        | [ a; b ] -> Some (parse_int_token lineno a, parse_int_token lineno b)
        | _ -> raise (Parse_error (lineno, "bad pair " ^ chunk))
      end
      else raise (Parse_error (lineno, "bad pair " ^ chunk)))
    chunks

let parse_quantum_op lineno text =
  let text = String.trim text in
  (* optional [if rN] prefix *)
  let condition, rest =
    if String.length text > 4 && String.sub text 0 3 = "[if" then begin
      match String.index_opt text ']' with
      | Some close ->
          let reg = String.trim (String.sub text 3 (close - 3)) in
          (Some (parse_register lineno reg), String.trim (String.sub text (close + 1) (String.length text - close - 1)))
      | None -> raise (Parse_error (lineno, "unterminated [if ...]"))
    end
    else (None, text)
  in
  match String.index_opt rest ' ' with
  | None -> raise (Parse_error (lineno, "quantum op needs a mask target: " ^ rest))
  | Some i ->
      let mnemonic = String.lowercase_ascii (String.sub rest 0 i) in
      let operand_text = String.trim (String.sub rest i (String.length rest - i)) in
      let parts = split_commas operand_text in
      let target, angle =
        match parts with
        | [ t ] -> (t, None)
        | [ t; a ] -> (t, Some (float_of_string a))
        | _ -> raise (Parse_error (lineno, "bad quantum operands: " ^ operand_text))
      in
      let two_qubit =
        match target.[0] with
        | 't' | 'T' -> true
        | 's' | 'S' -> false
        | _ -> raise (Parse_error (lineno, "mask target must be sN or tN: " ^ target))
      in
      let mask = parse_int_token lineno (String.sub target 1 (String.length target - 1)) in
      { Eqasm.mnemonic; angle; mask; two_qubit; condition }

let condition_of_string lineno = function
  | "always" -> Always
  | "eq" -> Eq
  | "ne" -> Ne
  | "lt" -> Lt
  | "ge" -> Ge
  | c -> raise (Parse_error (lineno, "unknown branch condition " ^ c))

let parse_line lineno line =
  let line = String.trim (strip_comment line) in
  if line = "" then None
  else begin
    (* bundle: "<pre>: op | op | ..." where the head before ':' is a number *)
    let bundle =
      match String.index_opt line ':' with
      | Some i when i > 0 -> begin
          match int_of_string_opt (String.trim (String.sub line 0 i)) with
          | Some pre when i < String.length line - 1 ->
              let ops_text = String.sub line (i + 1) (String.length line - i - 1) in
              let ops =
                String.split_on_char '|' ops_text |> List.map (parse_quantum_op lineno)
              in
              Some (Quantum (Eqasm.Bundle (pre, ops)))
          | Some _ | None -> None
        end
      | Some _ | None -> None
    in
    match bundle with
    | Some instr -> Some instr
    | None ->
        (* label? *)
        if String.length line > 1 && line.[String.length line - 1] = ':' then
          Some (Label (String.trim (String.sub line 0 (String.length line - 1))))
        else begin
          let head, rest =
            match String.index_opt line ' ' with
            | Some i ->
                ( String.sub line 0 i,
                  String.trim (String.sub line i (String.length line - i)) )
            | None -> (line, "")
          in
          let upper = String.uppercase_ascii head in
          match upper with
          | "HALT" -> Some Halt
          | "LDI" -> begin
              match split_commas rest with
              | [ rd; imm ] ->
                  Some (Ldi (parse_register lineno rd, parse_int_token lineno imm))
              | _ -> raise (Parse_error (lineno, "LDI rd, imm"))
            end
          | "MOV" -> begin
              match split_commas rest with
              | [ rd; rs ] -> Some (Mov (parse_register lineno rd, parse_register lineno rs))
              | _ -> raise (Parse_error (lineno, "MOV rd, rs"))
            end
          | "ADD" | "SUB" -> begin
              match split_commas rest with
              | [ rd; rs; rt ] ->
                  let rd = parse_register lineno rd
                  and rs = parse_register lineno rs
                  and rt = parse_register lineno rt in
                  Some (if upper = "ADD" then Add (rd, rs, rt) else Sub (rd, rs, rt))
              | _ -> raise (Parse_error (lineno, upper ^ " rd, rs, rt"))
            end
          | "CMP" -> begin
              match split_commas rest with
              | [ rs; rt ] -> Some (Cmp (parse_register lineno rs, parse_register lineno rt))
              | _ -> raise (Parse_error (lineno, "CMP rs, rt"))
            end
          | "FMR" -> begin
              match split_commas rest with
              | [ rd; q ] ->
                  Some (Fmr (parse_register lineno rd, parse_qubit_operand lineno q))
              | _ -> raise (Parse_error (lineno, "FMR rd, qN"))
            end
          | "QWAIT" -> Some (Quantum (Eqasm.Qwait (parse_int_token lineno rest)))
          | "SMIS" -> begin
              match String.index_opt rest ',' with
              | Some i ->
                  let reg = String.trim (String.sub rest 0 i) in
                  let qubits =
                    parse_brace_list lineno
                      (String.sub rest (i + 1) (String.length rest - i - 1))
                    |> List.map (parse_int_token lineno)
                  in
                  let r = parse_int_token lineno (String.sub reg 1 (String.length reg - 1)) in
                  Some (Quantum (Eqasm.Smis (r, qubits)))
              | None -> raise (Parse_error (lineno, "SMIS sN, {..}"))
            end
          | "SMIT" -> begin
              match String.index_opt rest ',' with
              | Some i ->
                  let reg = String.trim (String.sub rest 0 i) in
                  let pairs =
                    parse_pair_list lineno
                      (String.sub rest (i + 1) (String.length rest - i - 1))
                  in
                  let r = parse_int_token lineno (String.sub reg 1 (String.length reg - 1)) in
                  Some (Quantum (Eqasm.Smit (r, pairs)))
              | None -> raise (Parse_error (lineno, "SMIT tN, {..}"))
            end
          | other when String.length other > 3 && String.sub other 0 3 = "BR." ->
              let cond =
                condition_of_string lineno
                  (String.lowercase_ascii (String.sub other 3 (String.length other - 3)))
              in
              Some (Br (cond, rest))
          | _ -> raise (Parse_error (lineno, "unknown mnemonic " ^ head))
        end
  end

let parse ~name ~qubit_count ~cycle_ns source =
  let lines = String.split_on_char '\n' source in
  let instrs =
    List.concat (List.mapi (fun idx line -> Option.to_list (parse_line (idx + 1) line)) lines)
  in
  assemble ~name ~qubit_count ~cycle_ns instrs

type run_result = {
  controller : Controller.result;
  registers : int array;
  executed : int;
}

let execute ?noise ?rng ?(max_steps = 100_000) technology p =
  let active =
    Controller.active_qubits ~qubit_count:p.qubit_count
      (List.filter_map
         (function Quantum q -> Some q | _ -> None)
         (Array.to_list p.code))
  in
  let session =
    Controller.start ?noise ?rng ~active technology ~qubit_count:p.qubit_count
      ~cycle_ns:p.cycle_ns
  in
  let registers = Array.make register_count 0 in
  let flag = ref 0 in
  let executed = ref 0 in
  let pc = ref 0 in
  let running = ref true in
  while !running && !pc < Array.length p.code do
    if !executed > max_steps then
      Qca_util.Error.fail ~site:"Qisa.execute"
        ~context:
          [ ("program", p.qisa_name); ("max_steps", string_of_int max_steps) ]
        (Qca_util.Error.Non_convergence "step budget exceeded");
    incr executed;
    (match p.code.(!pc) with
    | Label _ -> ()
    | Ldi (rd, imm) -> registers.(rd) <- imm
    | Mov (rd, rs) -> registers.(rd) <- registers.(rs)
    | Add (rd, rs, rt) -> registers.(rd) <- registers.(rs) + registers.(rt)
    | Sub (rd, rs, rt) -> registers.(rd) <- registers.(rs) - registers.(rt)
    | Cmp (rs, rt) -> flag := compare registers.(rs) registers.(rt)
    | Br (cond, target) ->
        let taken =
          match cond with
          | Always -> true
          | Eq -> !flag = 0
          | Ne -> !flag <> 0
          | Lt -> !flag < 0
          | Ge -> !flag >= 0
        in
        if taken then pc := Hashtbl.find p.labels target - 1
    | Fmr (rd, q) -> registers.(rd) <- Controller.classical_bit session q
    | Quantum eq -> Controller.step session eq
    | Halt -> running := false);
    pc := !pc + 1
  done;
  { controller = Controller.finish session; registers; executed = !executed }
