module Trace = Qca_util.Trace

type severity = Error | Warning | Hint

type t = {
  severity : severity;
  code : string;
  check : string;
  site : string;
  message : string;
  fixit : string option;
}

let make ?fixit severity ~code ~check ~site message =
  { severity; code; check; site; message; fixit }

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let severity_rank = function Error -> 2 | Warning -> 1 | Hint -> 0

let counts diags =
  List.fold_left
    (fun (e, w, h) d ->
      match d.severity with
      | Error -> (e + 1, w, h)
      | Warning -> (e, w + 1, h)
      | Hint -> (e, w, h + 1))
    (0, 0, 0) diags

let max_severity diags =
  List.fold_left
    (fun acc d ->
      match acc with
      | None -> Some d.severity
      | Some s -> if severity_rank d.severity > severity_rank s then Some d.severity else acc)
    None diags

(* Hints inform but never gate: the ladder is clean(0) / warnings(1) /
   errors(2), matching `qxc check`'s documented exit codes. *)
let exit_code diags =
  match max_severity diags with
  | Some Error -> 2
  | Some Warning -> 1
  | Some Hint | None -> 0

let to_string d =
  Printf.sprintf "%s[%s %s] %s: %s%s" (severity_label d.severity) d.code d.check
    d.site d.message
    (match d.fixit with None -> "" | Some f -> Printf.sprintf " (fix: %s)" f)

let plural n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s")

let summary diags =
  match counts diags with
  | 0, 0, 0 -> "clean"
  | e, w, h ->
      Printf.sprintf "%s, %s, %s" (plural e "error") (plural w "warning")
        (plural h "hint")

let render diags =
  String.concat "" (List.map (fun d -> to_string d ^ "\n") diags) ^ summary diags ^ "\n"

let to_json d =
  Printf.sprintf
    "{\"severity\":\"%s\",\"code\":\"%s\",\"check\":\"%s\",\"site\":\"%s\",\"message\":\"%s\"%s}"
    (severity_label d.severity) (Trace.json_escape d.code) (Trace.json_escape d.check)
    (Trace.json_escape d.site) (Trace.json_escape d.message)
    (match d.fixit with
    | None -> ""
    | Some f -> Printf.sprintf ",\"fixit\":\"%s\"" (Trace.json_escape f))

let json_of_list diags =
  "[" ^ String.concat "," (List.map to_json diags) ^ "]"
