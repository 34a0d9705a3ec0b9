(* qxd: the multi-tenant quantum job daemon.

   `qxd serve --spool DIR` turns a spool directory (populated by
   `qxc submit`) into a running Qca_service.Service instance: inbox
   entries are claimed into the DIR/active journal, admitted under
   their tenant, scheduled by weighted fair queuing, and published as
   one JSON line each under DIR/results/. There is no network; the
   filesystem is the protocol (docs/service.md).

   Crash safety: a job is either in inbox/ (unclaimed), journaled in
   active/ (claimed, possibly running), or terminal (results/ or
   failed/). The daemon never deletes a job file before its result
   exists, so a crash at any point leaves the job recoverable; startup
   recovery re-executes orphaned journal entries bit-identically and
   retires jobs that crash the daemon more than --max-attempts times
   (docs/resilience.md). *)

module Engine = Qca_qx.Engine
module Error = Qca_util.Error
module Json = Qca_util.Json
module Job_spec = Qca.Job_spec
module Runner = Qca.Runner
module Service = Qca_service.Service
module Spool = Qca_service.Spool

open Cmdliner

let result_line ~id ~tenant ~label status body =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.String id); ("tenant", Json.String tenant); ("label", Json.String label);
          ("status", Json.String status) ]
       @ body))

let done_line ~id ~tenant ~label (o : Runner.outcome) =
  result_line ~id ~tenant ~label "done" (Runner.outcome_fields o)

let error_line ~id ~tenant ~label status (e : Error.t) =
  result_line ~id ~tenant ~label status
    [ ( "error",
        Json.Obj
          [ ("kind", Json.String (Error.kind_label e.Error.kind));
            ("message", Json.String (Error.to_string e)) ] ) ]

(* One admitted job the daemon is tracking: spool id + service handle. *)
type tracked = {
  tr_id : string;
  tr_tenant : string;
  tr_label : string;
  tr_handle : Service.handle;
}

let serve_command dir once interval workers max_queue degrade_above slice_shots
    cache_capacity max_bytes max_sim_ns max_attempts durable verbose print_stats =
  Spool.init dir;
  let pid = Unix.getpid () in
  let say fmt =
    Printf.ksprintf (fun s -> if verbose then print_endline ("qxd: " ^ s)) fmt
  in
  (* Refuse to double-serve a spool another live daemon owns: two
     daemons would race on claims and publish duplicate results. *)
  (match Spool.read_heartbeat ~dir with
  | Some hb
    when hb.Spool.hb_pid <> pid
         && Spool.pid_alive hb.Spool.hb_pid
         && (String.equal hb.Spool.hb_state "serving"
            || String.equal hb.Spool.hb_state "draining") ->
      Printf.eprintf "qxd: spool %s is already served by pid %d\n" dir
        hb.Spool.hb_pid;
      exit 1
  | _ -> ());
  let started_at_ms = Spool.now_ms () in
  let heartbeat state = Spool.write_heartbeat ~dir ~pid ~state ~started_at_ms in
  heartbeat "starting";
  let swept = Spool.sweep_tmp ~dir in
  if swept > 0 then say "swept %d stale tmp file(s)" swept;
  let config =
    {
      Service.default_config with
      Service.workers;
      max_queue;
      degrade_above;
      slice_shots;
      cache_capacity;
      admission_max_bytes = max_bytes;
      admission_max_ns = max_sim_ns;
    }
  in
  let service = Service.create ~config () in
  let tracked = ref [] (* jobs in flight; published in id order *) in
  let publish_line id line =
    (* The result file is the commit point: write it first, then clear
       the journal entry and any consumed cancel marker. Re-crashing
       between these steps is safe — recovery sees the result and
       finishes the cleanup without re-running the job. *)
    Spool.write_result ~durable ~dir ~id line;
    Spool.complete ~dir id;
    Spool.clear_cancel ~dir id
  in
  (* Admit one claimed (journaled) entry into the service. The cancel
     marker is honoured even though the job is already claimed: a
     cancel that raced the claim still wins as long as execution has
     not finished. *)
  let admit_entry ~id ~attempt entry =
    match entry with
    | Error e ->
        say "rejected malformed job %s" id;
        publish_line id (error_line ~id ~tenant:"unknown" ~label:"?" "rejected" e)
    | Ok { Spool.entry_id = _; tenant; spec } ->
        let label = spec.Job_spec.label in
        if Spool.cancel_requested ~dir id then begin
          say "cancelled %s before execution" id;
          publish_line id (result_line ~id ~tenant ~label "cancelled" [])
        end
        else begin
          match Service.submit service ~tenant spec with
          | Ok h ->
              if attempt > 1 then
                say "admitted %s (%s, %d shots, attempt %d)" id tenant
                  spec.Job_spec.shots attempt
              else
                say "admitted %s (%s, %d shots)" id tenant spec.Job_spec.shots;
              tracked :=
                {
                  tr_id = id;
                  tr_tenant = tenant;
                  tr_label = label;
                  tr_handle = h;
                }
                :: !tracked
          | Error e ->
              say "refused %s (%s): %s" id tenant (Error.kind_label e.Error.kind);
              publish_line id (error_line ~id ~tenant ~label "rejected" e)
        end
  in
  let recover () =
    List.iter
      (fun r ->
        match r with
        | Spool.Already_published id ->
            say "recovered %s: result already published" id
        | Spool.Busy { id; owner } ->
            say "leaving %s alone: claimed by live pid %d" id owner
        | Spool.Poison { id; attempts; tenant; label } ->
            say "retiring poison job %s after %d attempts" id attempts;
            let e =
              Error.make ~site:"qxd.recover"
                ~context:[ ("job", id); ("tenant", tenant) ]
                (Error.Crash_loop { attempts })
            in
            publish_line id (error_line ~id ~tenant ~label "failed" e)
        | Spool.Replay { id; entry; attempt } ->
            say "replaying %s (attempt %d)" id attempt;
            admit_entry ~id ~attempt entry)
      (Spool.recover ~dir ~pid ~max_attempts)
  in
  (* Reject an inbox entry without ever claiming it: result first (the
     commit point), then drop the inbox file. A crash in between leaves
     both; the result-exists guard below finishes the cleanup. *)
  let reject_preclaim ~id ~tenant ~label e =
    Spool.write_result ~durable ~dir ~id (error_line ~id ~tenant ~label "rejected" e);
    Spool.consume ~dir id;
    Spool.clear_cancel ~dir id
  in
  let claim_inbox () =
    List.iter
      (fun (id, entry) ->
        if Spool.read_result ~dir id <> None then
          (* A previous run published this id (e.g. crashed between a
             pre-claim rejection's result write and the inbox removal):
             the result is the commit point, so just finish the cleanup. *)
          Spool.consume ~dir id
        else
          let rejected =
            (* The admission oracle runs before the claim, so an
               infeasible job is never journaled: no attempt is spent,
               recovery never replays it. *)
            match entry with
            | Ok { Spool.tenant; spec; _ } -> (
                match Service.preflight service spec with
                | Ok () -> false
                | Error e ->
                    say "rejected %s pre-claim (%s): %s" id tenant
                      (Error.kind_label e.Error.kind);
                    reject_preclaim ~id ~tenant ~label:spec.Job_spec.label e;
                    true)
            | Error _ -> false
          in
          if not rejected then
            if Spool.claim ~dir ~pid id then admit_entry ~id ~attempt:1 entry)
      (Spool.pending_ids ~dir)
  in
  let apply_cancels () =
    List.iter
      (fun tr ->
        if Spool.cancel_requested ~dir tr.tr_id then
          if Service.cancel service tr.tr_handle then
            say "cancelled %s" tr.tr_id)
      !tracked
  in
  (* A published job leaves [tracked], so each loop sorts and polls only
     the jobs still in flight. *)
  let publish () =
    tracked :=
      List.filter
        (fun tr ->
          let id, tenant, label = (tr.tr_id, tr.tr_tenant, tr.tr_label) in
          let line =
            match Service.poll service tr.tr_handle with
            | Service.Queued _ | Service.Running _ -> None
            | Service.Done o -> Some (done_line ~id ~tenant ~label o)
            | Service.Failed e -> Some (error_line ~id ~tenant ~label "failed" e)
            | Service.Cancelled -> Some (result_line ~id ~tenant ~label "cancelled" [])
          in
          match line with
          | None -> true
          | Some line ->
              publish_line tr.tr_id line;
              say "published %s" tr.tr_id;
              false)
        (List.sort (fun a b -> compare a.tr_id b.tr_id) !tracked)
  in
  let finish () =
    if print_stats then print_endline (Service.stats_to_json service);
    0
  in
  if once then begin
    (* Drain mode: recover the journal, take everything currently
       spooled, honour cancel markers present now, run to completion,
       publish, exit. *)
    recover ();
    claim_inbox ();
    apply_cancels ();
    let rec pump () =
      if Service.step service then begin
        apply_cancels ();
        publish ();
        pump ()
      end
    in
    pump ();
    publish ();
    heartbeat "stopped";
    finish ()
  end
  else begin
    let drain = ref false in
    let on_signal _ =
      if !drain then
        (* Second signal: stop now. In-flight jobs stay journaled and
           are replayed by the next daemon's recovery. *)
        Stdlib.exit 130
      else drain := true
    in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    recover ();
    say "serving %s (%d workers, queue %d)" dir config.Service.workers
      config.Service.max_queue;
    heartbeat "serving";
    let stop = ref false in
    while not !stop do
      if not !drain then claim_inbox ();
      apply_cancels ();
      let progressed = Service.step service in
      publish ();
      heartbeat (if !drain then "draining" else "serving");
      if !drain then begin
        (* Graceful drain: no new claims; finish what is in flight,
           publish it, then leave. *)
        if not progressed then begin
          say "drained";
          stop := true
        end
      end
      else if not progressed then Unix.sleepf interval
    done;
    publish ();
    heartbeat "drained";
    finish ()
  end

let spool_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "spool" ] ~docv:"DIR" ~doc:"Spool directory shared with $(b,qxc submit).")

let once_flag =
  Arg.(
    value & flag
    & info [ "once" ]
        ~doc:
          "Drain the spool and exit instead of serving forever (used by tests \
           and batch pipelines).")

let interval_arg =
  Arg.(
    value
    & opt float 0.05
    & info [ "poll-interval" ] ~docv:"SECONDS"
        ~doc:"Idle sleep between spool scans.")

let workers_arg =
  Arg.(
    value
    & opt int Qca_service.Service.default_config.Qca_service.Service.workers
    & info [ "workers" ] ~docv:"N" ~doc:"Scheduler slices per tick.")

let max_queue_arg =
  Arg.(
    value
    & opt int Qca_service.Service.default_config.Qca_service.Service.max_queue
    & info [ "max-queue" ] ~docv:"N"
        ~doc:"Global backlog capacity; submissions beyond it are rejected.")

let degrade_above_arg =
  Arg.(
    value
    & opt int
        Qca_service.Service.default_config.Qca_service.Service.degrade_above
    & info [ "degrade-above" ] ~docv:"N"
        ~doc:
          "Backlog at which new jobs are admitted degraded (shot cap / \
           realistic-QX fallback) before the queue rejects outright.")

let slice_arg =
  Arg.(
    value
    & opt int Qca_service.Service.default_config.Qca_service.Service.slice_shots
    & info [ "slice-shots" ] ~docv:"N"
        ~doc:"Preemption granularity: shots per scheduler slice.")

let cache_arg =
  Arg.(
    value
    & opt int
        Qca_service.Service.default_config.Qca_service.Service.cache_capacity
    & info [ "cache" ] ~docv:"N" ~doc:"Result-cache capacity (0 disables).")

let max_bytes_arg =
  Arg.(
    value
    & opt float
        Qca_service.Service.default_config
          .Qca_service.Service.admission_max_bytes
    & info [ "max-bytes" ] ~docv:"BYTES"
        ~doc:
          "Admission-oracle cap on a job's estimated simulation state \
           memory; infeasible jobs are rejected before they are claimed \
           (0 disables; docs/estimate.md).")

let max_sim_ns_arg =
  Arg.(
    value
    & opt float
        Qca_service.Service.default_config.Qca_service.Service.admission_max_ns
    & info [ "max-sim-ns" ] ~docv:"NS"
        ~doc:
          "Admission-oracle cap on a job's estimated simulation time; \
           direct jobs over it are degraded (shot budget capped), the \
           rest rejected pre-claim (0 disables).")

let max_attempts_arg =
  Arg.(
    value
    & opt int 3
    & info [ "max-attempts" ] ~docv:"N"
        ~doc:
          "Execution attempts a job may consume (claims plus recovery \
           replays) before it is retired to failed/ as poison.")

let durable_flag =
  Arg.(
    value & flag
    & info [ "durable" ]
        ~doc:
          "fsync result files and spool directories around atomic renames, \
           so published results survive power loss.")

let verbose_flag =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Narrate admissions and publications.")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print the service counters as JSON on exit (schema in docs/service.md).")

let serve_term =
  Term.(
    const serve_command $ spool_arg $ once_flag $ interval_arg $ workers_arg
    $ max_queue_arg $ degrade_above_arg $ slice_arg $ cache_arg
    $ max_bytes_arg $ max_sim_ns_arg $ max_attempts_arg $ durable_flag
    $ verbose_flag $ stats_flag)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a spool directory: claim submitted jobs into the durable \
          journal, schedule them fairly under their tenants, publish results; \
          recover orphaned jobs from a previous crash first.")
    serve_term

let () =
  let doc = "multi-tenant quantum job service daemon" in
  let main = Cmd.group (Cmd.info "qxd" ~version:"1.0" ~doc) [ serve_cmd ] in
  match Cmd.eval' ~catch:false main with
  | code -> exit code
  | exception Qca_util.Error.Error e ->
      Printf.eprintf "qxd: error: %s\n" (Qca_util.Error.to_string e);
      exit 2
  | exception Failure msg ->
      Printf.eprintf "qxd: error: %s\n" msg;
      exit 2
