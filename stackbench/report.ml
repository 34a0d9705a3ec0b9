(* What one run prints: the machine block, the output-check verdicts, every
   metric by name and unit, and the final one-line JSON result. *)

type value = Float of float | Int of int

type metric = { name : string; value : value; unit_ : string }

let metric name unit_ v = { name; value = Float v; unit_ }
let count name unit_ n = { name; value = Int n; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  checks : (string * bool) list;  (** Output checks, each with its verdict. *)
}

(* The compiler stages as the per-layer metrics name them. *)
let compiler_passes =
  [ "pre-opt"; "decompose"; "map-route"; "expand-swaps"; "optimize"; "schedule"; "eqasm" ]

(* Every per-layer metric with its unit, in print order. Times are self
   seconds per completed job unless the unit says otherwise. *)
let per_layer_units =
  [
    ("qxd.startup_s", "s");
    ("qxd.cpu_s", "s");
    ("spool.submit_s", "s/job");
    ("spool.pending_s", "s/job");
    ("spool.claim_s", "s/job");
    ("spool.write_result_s", "s/job");
    ("spool.complete_s", "s/job");
    ("spool.calls", "calls/job");
    ("service.preflight_s", "s/job");
    ("service.submit_s", "s/job");
    ("service.step_s", "s/job");
    ("service.queue_wait_s", "s/job");
    ("service.slices", "count");
    ("service.cache_hits", "count");
    ("service.shared_analyses", "count");
    ("service.rejected", "count");
    ("cqasm.parse_s", "s/job");
    ("cqasm.parse_calls", "calls/job");
    ("estimate.s", "s/job");
    ("verify.s", "s/job");
  ]
  @ List.map (fun pass -> ("compiler." ^ pass ^ "_s", "s/job")) compiler_passes
  @ [
      ("compiler.swaps", "count");
      ("compiler.gates_out", "count");
      ("engine.analyse_s", "s/job");
      ("engine.simulate_s", "s/job");
      ("engine.sample_s", "s/job");
      ("engine.run_s", "s/job");
      ("engine.reported_s", "s/job");
      ("engine.gate_applies", "count");
      ("engine.measurements", "count");
      ("microarch.run_s", "s/job");
      ("microarch.bundles", "count");
      ("microarch.micro_ops", "count");
      ("microarch.sim_ns", "ns");
      ("runner.run_s", "s/job");
      ("gc.minor_words_per_shot", "words/shot");
      ("gc.major_collections", "count/job");
      ("trace.overhead_pct", "%");
      ("serve.layer_coverage", "ratio");
    ]

(* All per-layer metrics from the figures a workload measured; a layer the
   workload never calls reads 0. *)
let per_layer figures =
  List.map
    (fun (name, unit_) ->
      { name; unit_; value = Option.value (List.assoc_opt name figures) ~default:(Int 0) })
    per_layer_units

(* --- statistics ------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

(* The 10th percentile of a job's repeated times. The hosts this runs on
   are shared: for seconds at a time other tenants slow every job by 15 to
   80%, and how much of a run such spells cover changes from run to run.
   A fixed loop timed in 10-second windows had medians 20% apart
   (quartile distance over median) and 10th percentiles 7% apart. Slow
   code is slow in every spell, so a regression moves this figure too. *)
let fast_decile xs = percentile xs 10.0

(* --- process measurements --------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

(* Peak resident set (VmHWM) of a process, in MiB; [pid] None is this one. *)
let peak_rss_mib ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  List.fold_left
    (fun acc line ->
      match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
      | kb -> float_of_int kb /. 1024.0
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> acc)
    nan (read_lines path)

(* User and system CPU seconds of another process, all its threads, from
   /proc/PID/stat fields 14 and 15, counted in USER_HZ ticks, which Linux
   fixes at 100 a second. *)
let proc_cpu_s pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | line :: _ -> (
      (* The command name may hold spaces; the fields after it start at
         field 3. *)
      let after = String.rindex line ')' + 2 in
      let rest = String.sub line after (String.length line - after) in
      match List.filteri (fun i _ -> i = 11 || i = 12) (String.split_on_char ' ' rest) with
      | [ utime; stime ] ->
          (float_of_int (int_of_string utime) /. 100.0, float_of_int (int_of_string stime) /. 100.0)
      | _ -> (nan, nan))
  | [] -> (nan, nan)

(* User CPU seconds of this process, all domains included. *)
let self_cpu_s () = (Unix.times ()).Unix.tms_utime

(* --- machine block ------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> "null"
  | ic ->
      let n = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if int_of_string_opt n = None then "null" else n

(* The commit the checkout was built from, when it is a git work tree. *)
let git_rev () =
  match read_lines ".git/HEAD" with
  | [ line ] when String.starts_with ~prefix:"ref: " line -> (
      let ref_ = String.sub line 5 (String.length line - 5) in
      match read_lines (Filename.concat ".git" ref_) with
      | [ rev ] -> rev
      | _ ->
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ rev; r ] when r = ref_ -> Some rev
              | _ -> None)
            (read_lines ".git/packed-refs")
          |> Option.value ~default:"unknown")
  | [ rev ] -> rev
  | _ -> "none (not a git checkout)"

let machine_json ~qxd_flags =
  let field k v = Printf.sprintf "%s:%s" (json_string k) v in
  let env name =
    match Sys.getenv_opt name with Some v -> [ field name (json_string v) ] | None -> []
  in
  "{"
  ^ String.concat ","
      ([
         field "nproc" (nproc ());
         field "domains" (string_of_int (Qca_util.Parallel.domain_count ()));
       ]
      @ env "QCA_DOMAINS" @ env "QCA_PARALLEL_THRESHOLD"
      @ [
          field "ocaml" (json_string Sys.ocaml_version);
          field "git_rev" (json_string (git_rev ()));
          field "qxd_flags" (json_string qxd_flags);
        ])
  ^ "}"

(* --- output ------------------------------------------------------------------- *)

let number = function
  | Int n -> string_of_int n
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ -> "null"

let print ~machine r =
  Printf.printf "# machine %s\n" machine;
  List.iter
    (fun (what, ok) -> Printf.printf "# check %s: %s\n" what (if ok then "ok" else "FAILED"))
    r.checks;
  Printf.printf "# failed_share %.6f (%d of %d attempted)\n"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  List.iter
    (fun m -> Printf.printf "%-28s %24s %s\n" m.name (number m.value) m.unit_)
    r.metrics;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    r.correct r.attempted r.failed
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string m.name)
              (number m.value) (json_string m.unit_))
          r.metrics));
  flush stdout
