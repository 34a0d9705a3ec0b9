(* JSON-key lint: every JSON document is built as a Qca_util.Json value,
   so no source file outside lib/util/json.ml may spell a JSON object key
   by hand. A hand-built key is an escaped quote, a key without quotes,
   an escaped quote and a colon inside an OCaml string literal, e.g. the
   text between the backticks of `"{\"plan\":%s}"`. Each hit is reported
   as FILE:LINE and fails `dune runtest` (via the lint-docs alias).

   Usage: lint_json_keys.exe SOURCE.ml... *)

let read_file path =
  let ic = open_in_bin path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  content

(* The line numbers of the hand-built keys in one file. *)
let hand_built_keys content =
  let n = String.length content in
  let escaped_quote i = i + 1 < n && content.[i] = '\\' && content.[i + 1] = '"' in
  let line = ref 1 and hits = ref [] in
  let rec key_end j =
    if j >= n || content.[j] = '"' || content.[j] = '\n' then None
    else if escaped_quote j then Some j
    else key_end (j + 1)
  in
  for i = 0 to n - 1 do
    if content.[i] = '\n' then incr line
    else if escaped_quote i then
      match key_end (i + 2) with
      | Some j when j + 2 < n && content.[j + 2] = ':' ->
          if not (List.mem !line !hits) then hits := !line :: !hits
      | _ -> ()
  done;
  List.rev !hits

let is_json_module path =
  Filename.basename path = "json.ml" && Filename.basename (Filename.dirname path) = "util"

let () =
  let sources = List.tl (Array.to_list Sys.argv) in
  let failures =
    List.concat_map
      (fun path ->
        if is_json_module path then []
        else List.map (fun line -> (path, line)) (hand_built_keys (read_file path)))
      sources
  in
  List.iter
    (fun (path, line) ->
      Printf.eprintf "%s:%d: hand-built JSON key; build a Qca_util.Json value instead\n" path
        line)
    failures;
  if failures <> [] then exit 1
