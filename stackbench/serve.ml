(* serve: three independent tenants submit jobs to a real `qxd serve`
   daemon through Qca_service.Spool.submit (the call behind `qxc submit`),
   as an open loop on a fixed schedule. The jobs are the five fixture
   programs; one job in four repeats the exact spec of a job whose result
   is already cached, so the result cache hits by construction.

   The daemon's insides cannot be timed from outside, so the traced run
   replays in this process the calls `qxd serve` makes, in its order
   (pending_ids -> preflight -> claim -> Service.submit -> step -> poll ->
   write_result -> complete), on the same schedule, with the same default
   configuration and idle sleep. *)

module Spool = Qca_service.Spool
module Service = Qca_service.Service
module Job_spec = Qca.Job_spec
module Runner = Qca.Runner
module Engine = Qca_qx.Engine
module Cqasm = Qca_circuit.Cqasm
module Error = Qca_util.Error
module Rng = Qca_util.Rng

(* Jobs per second. At 100 the daemon handled about five jobs per wake-up,
   and in the host's slow spells those batches ran long enough that
   latency_p99_ms more than doubled; at 50 its batches are half as long. *)
let rate = 50.0
let idle_sleep = 0.05 (* qxd serve's default --poll-interval *)

let qxd_flags =
  let c = Service.default_config in
  Printf.sprintf
    "serve --spool DIR (defaults: --poll-interval %g --workers %d --max-queue %d \
     --degrade-above %d --slice-shots %d --cache %d --max-attempts 3)"
    idle_sleep c.Service.workers c.Service.max_queue c.Service.degrade_above
    c.Service.slice_shots c.Service.cache_capacity

type job = { tenant : string; spec : Job_spec.t }

let tenants = [| "alice"; "bob"; "carol" |]
let fixtures = [| "bell"; "ghz5"; "qft4"; "rus"; "teleport" |]

(* Ten warm-up jobs (two per fixture) and the [n] timed jobs. A repeat at
   index i copies a fresh job from 50 to 100 jobs earlier, or a warm-up job
   for the first 50: its result is cached by then, and fewer than the
   cache's 128 entries were added since. *)
let make_jobs ~fixture ~seed ~n ~shots =
  let rng = Rng.create seed in
  let texts = Array.map (fun f -> (f, fixture f)) fixtures in
  let job (name, text) =
    {
      tenant = Rng.pick rng tenants;
      spec =
        Job_spec.make ~label:name ~shots ~seed:(Rng.int rng 0x3FFF_FFFF)
          (Job_spec.Source { name; text });
    }
  in
  let warm = Array.init 10 (fun k -> job texts.(k mod Array.length texts)) in
  let jobs = Array.make n warm.(0) in
  for i = 0 to n - 1 do
    jobs.(i) <-
      (if i mod 4 <> 3 then job (Rng.pick rng texts)
       else
         let rec earlier () =
           let j = max 0 (i - 50 - Rng.int rng 51) in
           if j mod 4 = 3 then earlier () else jobs.(j)
         in
         let original = if i < 50 then Rng.pick rng warm else earlier () in
         { tenant = Rng.pick rng tenants; spec = original.spec })
  done;
  (warm, jobs)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_spool path =
  remove_tree path;
  Spool.init path

(* Sleep until [t] on the monotonic clock, at most [cap] seconds. *)
let sleep_until ?(cap = 0.001) t =
  let d = Float.min cap (t -. Span.now ()) in
  if d > 0.0 then Unix.sleepf d

(* --- results -------------------------------------------------------------- *)

(* The histogram of a `done` result line, as qxd publishes it. *)
let done_histogram line =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length line then None
      else if String.sub line i n = sub then Some (i + n)
      else go (i + 1)
    in
    go from
  in
  match (find "\"status\":\"done\"" 0, find "\"histogram\":{" 0) with
  | Some _, Some start -> (
      let stop = String.index_from line start '}' in
      let body = String.sub line start (stop - start) in
      try
        Some
          (List.map
             (fun kv -> Scanf.sscanf kv "%S:%d" (fun k v -> (k, v)))
             (String.split_on_char ',' body))
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
  | _ -> None

(* Every served histogram equals Runner.run on the same spec (the service's
   bit-identity contract) and sums to the requested shots. *)
let wrong_outputs ~(jobs : job array) (histograms : (string * int) list option array) =
  let expected = Hashtbl.create 64 in
  let runner_histogram (spec : Job_spec.t) =
    let key = (spec.Job_spec.label, spec.Job_spec.seed) in
    match Hashtbl.find_opt expected key with
    | Some h -> h
    | None ->
        let h =
          match Runner.run spec with
          | Ok o -> Some (List.sort compare o.Runner.histogram)
          | Error _ -> None
        in
        Hashtbl.replace expected key h;
        h
  in
  let wrong = ref 0 in
  Array.iteri
    (fun i h ->
      match h with
      | None -> ()
      | Some h ->
          let spec = jobs.(i).spec in
          if
            (not (Closed_loop.histogram_ok ~shots:spec.Job_spec.shots h))
            || runner_histogram spec <> Some (List.sort compare h)
          then begin
            Printf.printf "# wrong output: job %d (%s, seed %d, %d shots)\n" i spec.Job_spec.label
              (Option.value spec.Job_spec.seed ~default:(-1))
              (List.fold_left (fun acc (_, c) -> acc + c) 0 h);
            incr wrong
          end)
    histograms;
  !wrong

(* --- the real daemon ---------------------------------------------------------- *)

type daemon = { pid : int; dir : string }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

let start_daemon ~qxd ~dir =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process qxd [| qxd; "serve"; "--spool"; dir |] Unix.stdin devnull Unix.stderr
  in
  Unix.close devnull;
  let d = { pid; dir } in
  let deadline = Span.now () +. 60.0 in
  let rec wait () =
    match Spool.read_heartbeat ~dir with
    | Some hb when hb.Spool.hb_pid = pid && hb.Spool.hb_state = "serving" -> ()
    | _ ->
        if Span.now () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
          stop_daemon d;
          failwith "stackbench: qxd did not reach its serving heartbeat"
        end;
        Unix.sleepf 0.001;
        wait ()
  in
  wait ();
  d

(* Submit every job at its due time and watch for its result file.
   Returns each job's result line (None if it never appeared) and the time
   it became visible, plus the end of the phase. *)
let open_loop ~dir ~(jobs : job array) ~t0 ~timeout =
  let n = Array.length jobs in
  let due i = t0 +. (float_of_int i /. rate) in
  let ids = Array.make n "" and lines = Array.make n None and seen = Array.make n nan in
  let next = ref 0 and outstanding = ref [] and finished = ref 0 and late = ref 0.0 in
  (* Spool.next_id scans results/ before active/, so a job the daemon
     publishes during the scan is missed and its id issued again; the
     daemon then drops the new job as already published. Such a job is
     submitted again at once, its latency still counted from its due time. *)
  let issued = Hashtbl.create 1024 and reissued = ref 0 in
  let rec submit j =
    match Spool.submit ~dir ~tenant:j.tenant j.spec with
    | Ok id when Hashtbl.mem issued id ->
        incr reissued;
        submit j
    | Ok id ->
        Hashtbl.replace issued id ();
        Ok id
    | Error e -> Error e
  in
  let give_up = t0 +. (float_of_int n /. rate) +. timeout in
  while !finished < n && Span.now () < give_up do
    let now = Span.now () in
    while !next < n && due !next <= now do
      let j = jobs.(!next) in
      (match submit j with
      | Ok id ->
          ids.(!next) <- id;
          outstanding := !next :: !outstanding
      | Error _ -> incr finished);
      late := Float.max !late (Span.now () -. due !next);
      incr next
    done;
    outstanding :=
      List.filter
        (fun i ->
          match Spool.read_result ~dir ids.(i) with
          | Some line ->
              seen.(i) <- Span.now ();
              lines.(i) <- Some line;
              incr finished;
              false
          | None -> true)
        !outstanding;
    sleep_until (if !next < n then due !next else now +. 0.001)
  done;
  (lines, seen, Span.now (), !late, !reissued)

(* One set-up: inputs, a fresh daemon up to its serving heartbeat, and the
   warm-up jobs served. Returns the daemon, the jobs and the two times. *)
let setup ~qxd ~dir ~fixture ~seed ~n ~shots =
  let t0 = Span.now () in
  let warm, jobs = make_jobs ~fixture ~seed ~n ~shots in
  fresh_spool dir;
  let spawned = Span.now () in
  let d = start_daemon ~qxd ~dir in
  let startup = Span.now () -. spawned in
  let lines, _, _, _, _ = open_loop ~dir ~jobs:warm ~t0:(Span.now ()) ~timeout:60.0 in
  if Array.exists Option.is_none lines then begin
    stop_daemon d;
    failwith "stackbench: qxd did not serve the warm-up jobs"
  end;
  (d, warm, jobs, Span.now () -. t0, startup)

type served = {
  histograms : (string * int) list option array;
  latencies_ms : float list;
  wall_s : float;
  daemon_user_s : float;  (** The daemon's user CPU over the phase. *)
  daemon_sys_s : float;  (** Its system CPU. *)
  daemon_rss : float;
  generator_late_s : float;
  reissued : int;  (** Submissions given an id already issued. *)
}

let serve_phase ~d ~(jobs : job array) ~seconds =
  let user0, sys0 = Report.proc_cpu_s d.pid in
  let t0 = Span.now () +. 0.01 in
  let lines, seen, t_end, late, reissued = open_loop ~dir:d.dir ~jobs ~t0 ~timeout:(60.0 +. seconds) in
  let user1, sys1 = Report.proc_cpu_s d.pid in
  let daemon_rss = Report.peak_rss_mib ~pid:d.pid () in
  let latencies_ms =
    List.filter_map
      (fun i ->
        if Float.is_nan seen.(i) then None
        else Some ((seen.(i) -. (t0 +. (float_of_int i /. rate))) *. 1000.0))
      (List.init (Array.length jobs) Fun.id)
  in
  {
    histograms = Array.map (fun l -> Option.bind l done_histogram) lines;
    latencies_ms;
    wall_s = t_end -. t0;
    daemon_user_s = user1 -. user0;
    daemon_sys_s = sys1 -. sys0;
    daemon_rss;
    generator_late_s = late;
    reissued;
  }

(* --- the in-process replay ------------------------------------------------------ *)

let result_line ~id ~tenant ~label status body =
  Printf.sprintf "{\"id\":%s,\"tenant\":%s,\"label\":%s,\"status\":\"%s\"%s}"
    (Report.json_string id) (Report.json_string tenant) (Report.json_string label) status body

let done_line ~id ~tenant ~label (o : Runner.outcome) =
  result_line ~id ~tenant ~label "done"
    (Printf.sprintf ",\"histogram\":{%s},\"report\":%s"
       (String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s:%d" (Report.json_string k) v) o.Runner.histogram))
       (Engine.report_to_json o.Runner.report))

let error_line ~id ~tenant ~label status (e : Error.t) =
  result_line ~id ~tenant ~label status
    (Printf.sprintf ",\"error\":{\"kind\":%s,\"message\":%s}"
       (Report.json_string (Error.kind_label e.Error.kind))
       (Report.json_string (Error.to_string e)))

type tracked = {
  tr_id : string;
  tr_job : int;
  tr_tenant : string;
  tr_label : string;
  tr_handle : Service.handle;
  tr_admitted : float;
  mutable tr_published : bool;
}

(* Wraps one call into a layer; the untraced replay just makes the call. *)
type wrap = { span : 'a. string -> job:int -> (unit -> 'a) -> 'a }

type replayed = {
  r_histograms : (string * int) list option array;
  busy_s : float;  (** Wall time of the phase minus the idle sleeps. *)
  queue_wait_s : float;  (** Summed over jobs. *)
  stats : Service.stats;
}

(* The calls `qxd serve` makes, in its order, with the generator's due
   submissions interleaved; [span] wraps each call into a layer. Warm-up
   jobs (index < 0) run first, untimed, so the result cache holds what the
   daemon's held. *)
let replay { span } ~dir ~(warm : job array) ~(jobs : job array) =
  fresh_spool dir;
  let pid = Unix.getpid () in
  let started_at_ms = Spool.now_ms () in
  let heartbeat state =
    span "spool.heartbeat" ~job:(-1) (fun () -> Spool.write_heartbeat ~dir ~pid ~state ~started_at_ms)
  in
  heartbeat "starting";
  ignore (Spool.sweep_tmp ~dir);
  let service = Service.create ~config:Service.default_config () in
  let index_of = Hashtbl.create 1024 in
  let tracked = ref [] and waits = ref 0.0 and last_step = ref 0.0 and idle = ref 0.0 in
  let finished = ref 0 (* result lines written, plus submissions refused *) in
  let histograms = Array.make (Array.length jobs) None in
  let publish_line ~job id line =
    incr finished;
    span "spool.write_result" ~job (fun () -> Spool.write_result ~dir ~id line);
    span "spool.complete" ~job (fun () -> Spool.complete ~dir id);
    span "spool.clear_cancel" ~job (fun () -> Spool.clear_cancel ~dir id)
  in
  let admit ~job ~id = function
    | Error e -> publish_line ~job id (error_line ~id ~tenant:"unknown" ~label:"?" "rejected" e)
    | Ok { Spool.tenant; spec; _ } -> (
        let label = spec.Job_spec.label in
        if span "spool.cancel_requested" ~job (fun () -> Spool.cancel_requested ~dir id) then
          publish_line ~job id (result_line ~id ~tenant ~label "cancelled" "")
        else
          match span "service.submit" ~job (fun () -> Service.submit service ~tenant spec) with
          | Ok h ->
              tracked :=
                {
                  tr_id = id;
                  tr_job = job;
                  tr_tenant = tenant;
                  tr_label = label;
                  tr_handle = h;
                  tr_admitted = Span.now ();
                  tr_published = false;
                }
                :: !tracked
          | Error e -> publish_line ~job id (error_line ~id ~tenant ~label "rejected" e))
  in
  let claim_inbox () =
    List.iter
      (fun (id, entry) ->
        let job = Option.value (Hashtbl.find_opt index_of id) ~default:(-1) in
        if span "spool.read_result" ~job (fun () -> Spool.read_result ~dir id) <> None then
          span "spool.consume" ~job (fun () -> Spool.consume ~dir id)
        else
          let rejected =
            match entry with
            | Ok { Spool.tenant; spec; _ } -> (
                match span "service.preflight" ~job (fun () -> Service.preflight service spec) with
                | Ok () -> false
                | Error e ->
                    let label = spec.Job_spec.label in
                    incr finished;
                    span "spool.write_result" ~job (fun () ->
                        Spool.write_result ~dir ~id (error_line ~id ~tenant ~label "rejected" e));
                    span "spool.consume" ~job (fun () -> Spool.consume ~dir id);
                    true)
            | Error _ -> false
          in
          if (not rejected) && span "spool.claim" ~job (fun () -> Spool.claim ~dir ~pid id) then
            admit ~job ~id entry)
      (span "spool.pending" ~job:(-1) (fun () -> Spool.pending_ids ~dir))
  in
  let apply_cancels () =
    List.iter
      (fun tr ->
        if
          (not tr.tr_published)
          && span "spool.cancel_requested" ~job:tr.tr_job (fun () ->
                 Spool.cancel_requested ~dir tr.tr_id)
        then ignore (Service.cancel service tr.tr_handle))
      !tracked
  in
  let publish () =
    List.iter
      (fun tr ->
        if not tr.tr_published then
          let job = tr.tr_job and id = tr.tr_id and tenant = tr.tr_tenant and label = tr.tr_label in
          let line =
            match span "service.poll" ~job (fun () -> Service.poll service tr.tr_handle) with
            | Service.Queued _ | Service.Running _ -> None
            | Service.Done o ->
                if job >= 0 then histograms.(job) <- Some o.Runner.histogram;
                Some (done_line ~id ~tenant ~label o)
            | Service.Failed e -> Some (error_line ~id ~tenant ~label "failed" e)
            | Service.Cancelled -> Some (result_line ~id ~tenant ~label "cancelled" "")
          in
          match line with
          | None -> ()
          | Some line ->
              if job >= 0 then waits := !waits +. Float.max 0.0 (!last_step -. tr.tr_admitted);
              publish_line ~job id line;
              tr.tr_published <- true)
      (List.sort (fun a b -> compare a.tr_id b.tr_id) !tracked)
  in
  let serve_schedule (sched : job array) ~index =
    let n = Array.length sched in
    let t0 = Span.now () in
    let due i = t0 +. (float_of_int i /. rate) in
    let next = ref 0 and base = !finished in
    let submit_due () =
      while !next < n && due !next <= Span.now () do
        let j = sched.(!next) and job = index !next in
        (match span "spool.submit" ~job (fun () -> Spool.submit ~dir ~tenant:j.tenant j.spec) with
        | Ok id -> Hashtbl.replace index_of id job
        | Error _ -> incr finished);
        incr next
      done
    in
    let give_up = due n +. 120.0 in
    let stop = ref false in
    while not !stop do
      submit_due ();
      claim_inbox ();
      apply_cancels ();
      last_step := Span.now ();
      let progressed = span "service.step" ~job:(-1) (fun () -> Service.step service) in
      publish ();
      heartbeat "serving";
      if (!next = n && !finished - base = n) || Span.now () > give_up then stop := true
      else if not progressed then begin
        (* qxd's idle sleep; the generator keeps submitting meanwhile. *)
        let wake = Span.now () +. idle_sleep in
        while Span.now () < wake do
          submit_due ();
          let s = Span.now () in
          sleep_until ~cap:idle_sleep (if !next < n then Float.min wake (due !next) else wake);
          idle := !idle +. (Span.now () -. s)
        done
      end
    done;
    Span.now () -. t0
  in
  heartbeat "serving";
  ignore (serve_schedule warm ~index:(fun _ -> -1));
  idle := 0.0;
  waits := 0.0;
  let wall = serve_schedule jobs ~index:Fun.id in
  heartbeat "drained";
  { r_histograms = histograms; busy_s = wall -. !idle; queue_wait_s = !waits; stats = Service.stats service }

(* --- the workload ------------------------------------------------------------------ *)

let run ~qxd ~fixture ~workdir ~seed ~seconds ~trace ~smoke =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let shots = if smoke then 200 else 250 in
  let dir = Filename.concat workdir (Printf.sprintf "spool-%d" (Unix.getpid ())) in
  (* Three set-ups, each with a fresh daemon; the median is reported and
     the last daemon serves the timed phase. *)
  let cycles = if smoke then 1 else 3 in
  let setups =
    List.init cycles (fun k ->
        let ((d, _, _, _, _) as s) = setup ~qxd ~dir ~fixture ~seed ~n ~shots in
        if k < cycles - 1 then stop_daemon d;
        s)
  in
  let d, warm, jobs, _, _ = List.nth setups (cycles - 1) in
  let setup_s = Report.median (List.map (fun (_, _, _, s, _) -> s) setups) in
  let startup_s = Report.median (List.map (fun (_, _, _, _, s) -> s) setups) in
  let served =
    Fun.protect ~finally:(fun () -> stop_daemon d) (fun () -> serve_phase ~d ~jobs ~seconds)
  in
  let completed = Array.fold_left (fun acc h -> if h = None then acc else acc + 1) 0 served.histograms in
  let wrong = wrong_outputs ~jobs served.histograms in
  let failed = n - completed + wrong in
  let daemon_cpu_s = served.daemon_user_s +. served.daemon_sys_s in
  Printf.printf "# serve: daemon CPU per job %.3f ms user, %.3f ms system\n"
    (served.daemon_user_s *. 1000.0 /. float_of_int (max 1 completed))
    (served.daemon_sys_s *. 1000.0 /. float_of_int (max 1 completed));
  Printf.printf
    "# serve: %d jobs at %g/s, generator at most %.3f ms late, %d submissions resubmitted after \
     Spool.next_id issued an id twice\n"
    n rate (served.generator_late_s *. 1000.0) served.reissued;
  let checks =
    [
      ( Printf.sprintf "every job served (%d of %d, %d rejected or failed)" completed n (n - completed),
        completed = n );
      ( Printf.sprintf "served histograms equal Runner.run on the same spec (%d differ)" wrong,
        wrong = 0 );
    ]
  in
  let per_job x = x /. float_of_int (max 1 completed) in
  let metrics, checks =
    if not trace then
      let gates, two_q, depth, cycles =
        Engine_loops.perfect_quality
          (List.map (fun f -> Cqasm.parse_circuit (fixture f)) (Array.to_list fixtures))
      in
      ( Report.
          [
            metric "setup_s" "s" setup_s;
            metric "jobs_per_s" "1/s" (float_of_int completed /. served.wall_s);
            metric "shots_per_s" "1/s" (float_of_int (completed * shots) /. served.wall_s);
            metric "latency_p50_ms" "ms" (percentile served.latencies_ms 50.0);
            metric "latency_p99_ms" "ms" (percentile served.latencies_ms 99.0);
            metric "cpu_ms_per_job" "ms" (per_job (served.daemon_user_s *. 1000.0));
            metric "peak_rss_mb" "MiB" served.daemon_rss;
            count "compiled_gates" "count" gates;
            count "compiled_2q_gates" "count" two_q;
            count "compiled_depth" "count" depth;
            count "device_cycles" "cycles" cycles;
          ],
        checks )
    else begin
      let plain = replay { span = (fun _ ~job:_ f -> f ()) } ~dir ~warm ~jobs in
      let spans = Span.create () in
      let g0 = Gc.quick_stat () in
      let traced = replay { span = (fun name ~job f -> Span.with_span spans name ~job f) } ~dir ~warm ~jobs in
      let g1 = Gc.quick_stat () in
      (* Cqasm and the estimator run inside Spool and Service, out of a
         span's reach: each submitted program is parsed and estimated once
         more here, after the replay, to price those two layers. *)
      Array.iteri
        (fun job j ->
          match j.spec.Job_spec.payload with
          | Job_spec.Source { text; _ } ->
              ignore (Span.with_span spans "cqasm.parse" ~job (fun () -> Cqasm.parse text));
              ignore (Span.with_span spans "estimate" ~job (fun () -> Job_spec.estimate j.spec))
          | Job_spec.Circuit _ -> ())
        jobs;
      Span.write_json spans (Filename.concat workdir (Printf.sprintf "serve-seed%d.trace.json" seed));
      let table = Span.summarise spans in
      let per_job_s name = Report.Float (per_job (Span.self_s table name)) in
      let spool_calls =
        Hashtbl.fold
          (fun name (x : Span.totals) acc ->
            if String.starts_with ~prefix:"spool." name then acc + x.Span.calls else acc)
          table 0
      in
      let daemon_layers =
        Span.self_s_of_prefixes table [ "spool."; "service." ] -. Span.self_s table "spool.submit"
      in
      let replay_same = traced.r_histograms = served.histograms && plain.r_histograms = served.histograms in
      let s = traced.stats in
      ( Report.per_layer
          [
            ("qxd.startup_s", Report.Float startup_s);
            ("qxd.cpu_s", Report.Float daemon_cpu_s);
            ("spool.submit_s", per_job_s "spool.submit");
            ("spool.pending_s", per_job_s "spool.pending");
            ("spool.claim_s", per_job_s "spool.claim");
            ("spool.write_result_s", per_job_s "spool.write_result");
            ("spool.complete_s", per_job_s "spool.complete");
            ("spool.calls", Report.Float (per_job (float_of_int spool_calls)));
            ("service.preflight_s", per_job_s "service.preflight");
            ("service.submit_s", per_job_s "service.submit");
            ("service.step_s", per_job_s "service.step");
            ("service.queue_wait_s", Report.Float (per_job traced.queue_wait_s));
            ("service.slices", Report.Int s.Service.slices);
            ("service.cache_hits", Report.Int s.Service.cache_hits);
            ("service.shared_analyses", Report.Int s.Service.shared_analyses);
            ("service.rejected", Report.Int s.Service.rejected);
            ("cqasm.parse_s", per_job_s "cqasm.parse");
            ("cqasm.parse_calls", Report.Float (per_job (float_of_int (Span.calls table "cqasm.parse"))));
            ("estimate.s", per_job_s "estimate");
            ( "gc.minor_words_per_shot",
              Report.Float ((g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int (max 1 (completed * shots))) );
            ( "gc.major_collections",
              Report.Float (per_job (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))) );
            ("trace.overhead_pct", Report.Float (((traced.busy_s /. plain.busy_s) -. 1.0) *. 100.0));
            ( "serve.layer_coverage",
              Report.Float (per_job daemon_layers /. per_job daemon_cpu_s) );
          ],
        checks @ [ ("the in-process replay reproduces the daemon's histograms", replay_same) ] )
    end
  in
  remove_tree dir;
  {
    Report.correct = List.for_all snd checks;
    attempted = n;
    failed;
    checks;
    metrics;
  }
