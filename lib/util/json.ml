type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printer ------------------------------------------------------------ *)

let add_string buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buffer "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

(* The shortest of %.15g/%.16g/%.17g that reads back exactly (%.17g always
   does). %g prints no trailing fraction, so an integral float comes out as
   plain digits, or with an exponent past 15 digits. *)
let number_text f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let print ~lines v =
  let buffer = Buffer.create 256 in
  let comma i = if i > 0 then Buffer.add_char buffer ',' in
  let rec emit = function
    | Null -> Buffer.add_string buffer "null"
    | Bool b -> Buffer.add_string buffer (string_of_bool b)
    | Int i -> Buffer.add_string buffer (string_of_int i)
    | Float f -> Buffer.add_string buffer (number_text f)
    | String s -> add_string buffer s
    | List items ->
        let records =
          lines && items <> [] && List.for_all (function Obj _ -> true | _ -> false) items
        in
        let newline () = if records then Buffer.add_char buffer '\n' in
        Buffer.add_char buffer '[';
        List.iteri (fun i item -> comma i; newline (); emit item) items;
        newline ();
        Buffer.add_char buffer ']'
    | Obj fields ->
        Buffer.add_char buffer '{';
        List.iteri
          (fun i (key, value) ->
            comma i;
            add_string buffer key;
            Buffer.add_char buffer ':';
            emit value)
          fields;
        Buffer.add_char buffer '}'
  in
  emit v;
  Buffer.contents buffer

let to_string v = print ~lines:false v
let to_lines v = print ~lines:true v

(* --- parser ------------------------------------------------------------- *)

let max_depth = 512

exception Fail of string

let parse text =
  let n = String.length text and pos = ref 0 in
  let fail what = raise (Fail (Printf.sprintf "%s at byte %d" what !pos)) in
  (* Past the end reads as NUL, which no rule below accepts. *)
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let next () = let c = peek () in incr pos; c in
  let rec skip_ws () = if String.contains " \t\n\r" (peek ()) then (incr pos; skip_ws ()) in
  let expect c = if next () <> c then fail (Printf.sprintf "expected '%c'" c) in
  let literal word v = String.iter expect word; v in
  let hex4 () =
    let digit () =
      match next () with
      | '0' .. '9' as c -> Char.code c - 48
      | 'a' .. 'f' as c -> Char.code c - 87
      | 'A' .. 'F' as c -> Char.code c - 55
      | _ -> fail "invalid \\u escape"
    in
    let code = ref 0 in
    for _ = 1 to 4 do code := (!code lsl 4) lor digit () done;
    !code
  in
  (* A \u escape, joining a UTF-16 surrogate pair into one code point. *)
  let code_point () =
    let surrogate lo c = c >= lo && c < lo + 0x400 in
    match hex4 () with
    | c when surrogate 0xDC00 c -> fail "unpaired surrogate"
    | c when not (surrogate 0xD800 c) -> c
    | high ->
        expect '\\';
        expect 'u';
        let low = hex4 () in
        if not (surrogate 0xDC00 low) then fail "unpaired surrogate";
        0x10000 + ((high - 0xD800) lsl 10) + (low - 0xDC00)
  in
  let string_body () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match next () with
      | '"' -> Buffer.contents buffer
      | '\\' ->
          (match next () with
          | 'u' -> Buffer.add_utf_8_uchar buffer (Uchar.of_int (code_point ()))
          | c -> (
              match String.index_opt "\"\\/bfnrt" c with
              | Some i -> Buffer.add_char buffer "\"\\/\b\012\n\r\t".[i]
              | None -> fail "invalid escape"));
          go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c -> Buffer.add_char buffer c; go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let skip c = peek () = c && (incr pos; true) in
    let digits () =
      let from = !pos in
      while peek () >= '0' && peek () <= '9' do incr pos done;
      if !pos = from then fail "expected digit"
    in
    ignore (skip '-');
    if not (skip '0') then digits ();
    let fraction = skip '.' in
    if fraction then digits ();
    let exponent = skip 'e' || skip 'E' in
    if exponent then (ignore (skip '+' || skip '-'); digits ());
    let s = String.sub text start (!pos - start) in
    match if fraction || exponent then None else int_of_string_opt s with
    | Some i -> Int i
    | None -> Float (float_of_string s)
  in
  (* [depth] counts the enclosing arrays and objects. *)
  let rec value depth =
    skip_ws ();
    let container close item =
      if depth >= max_depth then fail "nesting too deep";
      incr pos;
      skip_ws ();
      if peek () = close then (incr pos; [])
      else
        let rec go acc =
          let acc = item () :: acc in
          skip_ws ();
          match next () with
          | ',' -> go acc
          | c when c = close -> List.rev acc
          | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
        in
        go []
    in
    match peek () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (string_body ())
    | '-' | '0' .. '9' -> number ()
    | '[' -> List (container ']' (fun () -> value (depth + 1)))
    | '{' ->
        let field () =
          skip_ws ();
          let key = string_body () in
          skip_ws ();
          expect ':';
          (key, value (depth + 1))
        in
        Obj (container '}' field)
    | _ -> fail (if !pos >= n then "unexpected end of input" else "unexpected character")
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

(* --- helpers ------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let option f = function None -> Null | Some x -> f x

(* Past 2^52 every double is already integral at the scaled precision. *)
let round digits x =
  let scale = 10.0 ** float_of_int digits in
  if Float.abs x *. scale < 0x1p52 then Float.round (x *. scale) /. scale else x

let round_sig digits x =
  if Float.is_finite x then float_of_string (Printf.sprintf "%.*g" digits x) else x
