(* Clock lint: every timer in lib/, bin/ and bench/ reads
   Qca_util.Clock.now, a monotonic wall clock, so no source file there
   may call Sys.time (process CPU time, which sums the domains and
   leaves out waits). Spool.now_ms reads the epoch clock through
   Unix.gettimeofday, which this lint does not touch. Each hit is
   reported as FILE:LINE and fails `dune runtest` (via the lint-docs
   alias).

   Usage: lint_clock.exe SOURCE.ml... *)

let read_file path =
  let ic = open_in_bin path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  content

let needle = "Sys.time"

let ident_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

(* The line numbers of the Sys.time references in one file: the name not
   glued to a longer identifier on either side. *)
let sys_time_lines content =
  let n = String.length content and k = String.length needle in
  let line = ref 1 and hits = ref [] in
  for i = 0 to n - 1 do
    if content.[i] = '\n' then incr line
    else if
      i + k <= n
      && String.sub content i k = needle
      && (i = 0 || not (ident_char content.[i - 1] || content.[i - 1] = '.'))
      && (i + k = n || not (ident_char content.[i + k]))
      && not (List.mem !line !hits)
    then hits := !line :: !hits
  done;
  List.rev !hits

let () =
  let sources = List.tl (Array.to_list Sys.argv) in
  let failures =
    List.concat_map
      (fun path -> List.map (fun line -> (path, line)) (sys_time_lines (read_file path)))
      sources
  in
  List.iter
    (fun (path, line) ->
      Printf.eprintf "%s:%d: Sys.time; time with Qca_util.Clock.now instead\n" path line)
    failures;
  if failures <> [] then exit 1
