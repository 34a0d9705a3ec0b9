(* One workload of the stack's end-to-end benchmark, run from the root of a
   source checkout:

     stackbench --workload W --seed N --seconds S --trace 0|1 [--qxd PATH]

   Untraced (--trace 0), it prints every end-to-end metric; traced
   (--trace 1), it runs the workload again with a span around each call
   into a layer and prints every per-layer metric. The last line of
   standard output is one JSON object: correct, attempted, failed, metrics.
   README.md in this directory says why each workload was chosen. *)

let workdir = ".stackbench"

let fixture name =
  In_channel.with_open_bin (Filename.concat "stackbench/fixtures" (name ^ ".qasm"))
    In_channel.input_all

(* Set-up time of a fresh process, measured in a child that only sets up. *)
let setup_in_child ~workload ~seed =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--setup-only"; "--workload"; workload; "--seed"; string_of_int seed |]
  in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt (String.trim line)) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith "stackbench: set-up child failed"

(* The closed loops run on one domain. On a 2-vCPU virtual machine their
   two-domain runs varied by 25-35% from one run to the next, set by the
   host rather than the code (one-domain runs of the same inputs varied
   by 1%), which no bound a regression check could use would absorb. *)
let run_closed ~workload ~make ~seed ~seconds ~trace ~smoke ~setup_only =
  Qca_util.Parallel.set_domain_count 1;
  let setup () =
    let t0 = Span.now () in
    let w = make ~seed ~smoke in
    Closed_loop.warm_up w.Closed_loop.kinds;
    (w, Span.now () -. t0)
  in
  if setup_only then begin
    Printf.printf "%.9f\n" (snd (setup ()));
    exit 0
  end;
  let w, own = setup () in
  let round = w.Closed_loop.round in
  let untraced = Closed_loop.run_phase ~seconds ~round (fun job i -> job.Closed_loop.untraced i) in
  Closed_loop.describe_kinds w untraced;
  let peak_rss = Report.peak_rss_mib () in
  let checks = w.Closed_loop.checks untraced in
  (* Set-up is measured three times, each in a fresh process: this one's
     before the timed phase and two more after it, so that they fall in
     different spells of the host; the fastest is reported, the set-up
     counterpart of a job's fast decile. *)
  let others =
    if smoke || trace then [] else List.init 2 (fun _ -> setup_in_child ~workload ~seed)
  in
  let setups = own :: others in
  Printf.printf "# set-up: %s s\n" (String.concat ", " (List.map (Printf.sprintf "%.4f") setups));
  let setup_s = List.fold_left Float.min own others in
  let traced =
    if not trace then None
    else begin
      let spans = Span.create () in
      let g0 = Gc.quick_stat () in
      let p = Closed_loop.run_phase ~seconds ~round (fun job i -> job.Closed_loop.traced spans i) in
      let g1 = Gc.quick_stat () in
      Span.write_json spans
        (Filename.concat workdir (Printf.sprintf "%s-seed%d.trace.json" workload seed));
      let same =
        Hashtbl.fold
          (fun i (o : Closed_loop.out) acc ->
            acc
            &&
            match Hashtbl.find_opt untraced.Closed_loop.outputs i with
            | None -> true
            | Some u -> u.Closed_loop.histogram = o.Closed_loop.histogram && u.counts = o.counts)
          p.Closed_loop.outputs true
      in
      let figures =
        Closed_loop.per_layer ~traced:p ~untraced
          ~gc_minor:(g1.Gc.minor_words -. g0.Gc.minor_words)
          ~gc_major:(g1.Gc.major_collections - g0.Gc.major_collections)
          (Span.summarise spans)
      in
      Some (p, same, figures)
    end
  in
  let phases = untraced :: (match traced with Some (p, _, _) -> [ p ] | None -> []) in
  let errors = List.concat_map (fun p -> p.Closed_loop.errors) phases in
  List.iter (Printf.printf "# failed: %s\n") errors;
  let checks =
    (("every job returned a histogram of its requested shots", errors = []) :: checks)
    @
    match traced with
    | Some (_, same, _) -> [ ("the traced calls reproduce the untraced outputs", same) ]
    | None -> []
  in
  {
    Report.correct = List.for_all snd checks;
    attempted = List.fold_left (fun acc p -> acc + p.Closed_loop.jobs) 0 phases;
    failed = List.length errors;
    checks;
    metrics =
      (match traced with
      | Some (_, _, figures) -> Report.per_layer figures
      | None -> Closed_loop.end_to_end ~setup_s ~peak_rss w untraced);
  }

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let qxd = ref "_build/default/bin/qxd.exe" and smoke = ref false and setup_only = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W serve | qec-clifford | noisy-trajectory | compile-exec");
      ("--seed", Arg.Set_int seed, "N workload seed: the same seed gives the same inputs");
      ("--seconds", Arg.Set_float seconds, "S length of each timed phase");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--qxd", Arg.Set_string qxd, "PATH the qxd executable (serve)");
      ("--smoke", Arg.Set smoke, " seconds-long sizes; exit 1 unless every check passes");
      ("--setup-only", Arg.Set setup_only, " set up, print the set-up seconds and exit");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "stackbench --workload W --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  let seconds = if !smoke then Float.min !seconds 1.0 else !seconds in
  let trace = !trace = 1 and smoke = !smoke and setup_only = !setup_only and seed = !seed in
  let closed make = run_closed ~workload:!workload ~make ~seed ~seconds ~trace ~smoke ~setup_only in
  let result =
    match !workload with
    | "serve" -> Serve.run ~qxd:!qxd ~fixture ~workdir ~seed ~seconds ~trace ~smoke
    | "qec-clifford" -> closed Engine_loops.qec
    | "noisy-trajectory" -> closed Engine_loops.noisy
    | "compile-exec" -> closed (Compile_exec.workload ~fixture)
    | w ->
        Printf.eprintf "stackbench: unknown workload %S\n" w;
        exit 2
  in
  Report.print ~machine:(Report.machine_json ~qxd_flags:Serve.qxd_flags) result;
  if smoke && not result.Report.correct then exit 1
