(* JSON well-formedness check for the cram tests: parse each file named on
   the command line with Qca_util.Json and print "FILE: ok" or
   "FILE: <parse error>". Exits 1 when any file fails to parse. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let ok =
    List.fold_left
      (fun ok file ->
        match Qca_util.Json.parse (read_file file) with
        | Ok _ ->
            Printf.printf "%s: ok\n" file;
            ok
        | Error msg ->
            Printf.printf "%s: %s\n" file msg;
            false)
      true files
  in
  exit (if ok then 0 else 1)
