(* Export lint: every `val` in a library interface (lib/*/*.mli) must be
   named somewhere outside its own module. A value is "named" when its
   identifier appears as a whole word in any other source file given on
   the command line; a use site always spells the name (qualified, opened
   or aliased), so a value in use is never flagged. The check is loose the
   other way: a dead value whose name is also a word elsewhere (say
   `to_string`) passes. Each hit is reported as FILE:LINE and fails
   `dune runtest` (via the lint-docs alias).

   Usage: lint_exports.exe INTERFACE.mli... -- SOURCE... *)

let read_file path =
  let ic = open_in_bin path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  content

let ident_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* Every maximal identifier run in [content]. *)
let words content =
  let table = Hashtbl.create 1024 in
  let n = String.length content in
  let start = ref (-1) in
  for i = 0 to n do
    if i < n && ident_char content.[i] then (if !start < 0 then start := i)
    else if !start >= 0 then begin
      Hashtbl.replace table (String.sub content !start (i - !start)) ();
      start := -1
    end
  done;
  table

(* The (line, name) of each `val name` declaration in an interface. *)
let vals content =
  List.concat
    (List.mapi
       (fun i line ->
         match String.split_on_char ' ' (String.trim line) with
         | "val" :: name :: _ when name <> "" && ident_char name.[0] ->
             let k = ref 0 in
             while !k < String.length name && ident_char name.[!k] do incr k done;
             [ (i + 1, String.sub name 0 !k) ]
         | _ -> [])
       (String.split_on_char '\n' content))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let interfaces, sources = split [] args in
  let words_of = List.map (fun path -> (path, words (read_file path))) sources in
  let failures =
    List.concat_map
      (fun mli ->
        let own = [ mli; Filename.chop_suffix mli ".mli" ^ ".ml" ] in
        let named name =
          List.exists
            (fun (path, table) -> (not (List.mem path own)) && Hashtbl.mem table name)
            words_of
        in
        List.filter_map
          (fun (line, name) -> if named name then None else Some (mli, line, name))
          (vals (read_file mli)))
      interfaces
  in
  List.iter
    (fun (path, line, name) ->
      Printf.eprintf "%s:%d: val %s is named nowhere outside its module; drop the export\n"
        path line name)
    failures;
  if failures <> [] then exit 1
