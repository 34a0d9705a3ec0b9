module Engine = Qca_qx.Engine
module Circuit = Qca_circuit.Circuit
module Compiler = Qca_compiler.Compiler
module Error = Qca_util.Error
module Rng = Qca_util.Rng
module Trace = Qca_util.Trace
module Clock = Qca_util.Clock
module Job_spec = Qca.Job_spec
module Runner = Qca.Runner

type quota = { max_running : int; max_queued : int; weight : float }

type config = {
  workers : int;
  max_queue : int;
  degrade_above : int;
  slice_shots : int;
  degraded_shot_cap : int;
  default_quota : quota;
  quotas : (string * quota) list;
  cache_capacity : int;
  service_seed : int;
  admission_max_bytes : float;
  admission_max_ns : float;
}

let default_quota = { max_running = 4; max_queued = 16; weight = 1.0 }

let default_config =
  {
    workers = 2;
    max_queue = 64;
    degrade_above = 48;
    slice_shots = 256;
    degraded_shot_cap = 128;
    default_quota;
    quotas = [];
    cache_capacity = 128;
    service_seed = 0xD0_5EED;
    admission_max_bytes = Qca_analysis.Estimate.host_bytes_default;
    admission_max_ns = 0.0;
  }

(* How a started job executes across scheduler slices. *)
type exec_kind =
  | Prepared
      (* Direct job without fault injection: prepared once (or shared,
         see [prepare_job]) at its first slice, then sampled slice by
         slice on the job's threaded RNG, so the merged result is
         bit-identical to one uninterrupted run. *)
  | Atomic
      (* Compiled-route or fault-injected job: one runner call, full
         cost in a single slice. *)

type active = {
  kind : exec_kind;
  rng : Rng.t;
  faults : Qca_util.Fault.t option;
  started_at : float;  (* Clock.now (), for deadline_ms enforcement *)
  mutable remaining : int;
  mutable done_shots : int;
  acc : (string, int ref) Hashtbl.t;
  mutable prepared : Engine.prepared option;  (* a Prepared job's, from its first slice *)
  mutable acc_report : Engine.run_report option;
  mutable a_compiled : Compiler.output option;
  mutable a_microarch : Qca_microarch.Controller.run_stats option;
}

type phase =
  | Waiting
  | Active of active
  | Finished of (Runner.outcome, Error.t) result
  | Cancelled_job

type job = {
  id : int;
  tenant : string;
  spec : Job_spec.t;
  circuit : Circuit.t;
  digest : string;
  key : string option;
  degraded_note : string option;
  mutable phase : phase;
}

type tenant_state = {
  t_name : string;
  quota : quota;
  waiting : int Queue.t;
  mutable active_ids : int list;
  mutable running : int;
  mutable vtime : float;
  mutable t_completed : int;
}

type handle = { h_id : int; h_tenant : string }

let job_id h = h.h_id
let job_tenant h = h.h_tenant

type status =
  | Queued of int
  | Running of { done_shots : int; total_shots : int }
  | Done of Runner.outcome
  | Failed of Error.t
  | Cancelled

(* A table that keeps at most [cache_capacity] entries, evicting the
   oldest first. *)
type 'a fifo = { table : (string, 'a) Hashtbl.t; order : string Queue.t }

let fifo () = { table = Hashtbl.create 32; order = Queue.create () }

type t = {
  config : config;
  jobs : (int, job) Hashtbl.t;
  tenants : (string, tenant_state) Hashtbl.t;
  mutable next_id : int;
  prepared_cache : Engine.prepared fifo;
  result_cache : Runner.outcome fifo;
  mutable s_submitted : int;
  mutable s_accepted : int;
  mutable s_completed : int;
  mutable s_failed : int;
  mutable s_deadline : int;
  mutable s_cancelled : int;
  mutable s_rejected : int;
  mutable s_rejected_estimate : int;
  mutable s_degraded : int;
  mutable s_cache_hits : int;
  mutable s_shared : int;
  mutable s_slices : int;
  exec_log : (string * int) array;
      (* the newest slices: slice [k] (from 0) at [k mod execution_log_length] *)
}

let execution_log_length = 1024

let create ?(config = default_config) () =
  let config =
    {
      config with
      workers = max 1 config.workers;
      slice_shots = max 1 config.slice_shots;
      degraded_shot_cap = max 1 config.degraded_shot_cap;
    }
  in
  {
    config;
    jobs = Hashtbl.create 64;
    tenants = Hashtbl.create 8;
    next_id = 1;
    prepared_cache = fifo ();
    result_cache = fifo ();
    s_submitted = 0;
    s_accepted = 0;
    s_completed = 0;
    s_failed = 0;
    s_deadline = 0;
    s_cancelled = 0;
    s_rejected = 0;
    s_rejected_estimate = 0;
    s_degraded = 0;
    s_cache_hits = 0;
    s_shared = 0;
    s_slices = 0;
    exec_log = Array.make execution_log_length ("", 0);
  }

let tenant_state t name =
  match Hashtbl.find_opt t.tenants name with
  | Some ts -> ts
  | None ->
      let quota =
        Option.value ~default:t.config.default_quota
          (List.assoc_opt name t.config.quotas)
      in
      let quota = { quota with weight = Float.max quota.weight 1e-6 } in
      (* Join at the minimum live virtual time: a newcomer neither starves
         behind long-lived tenants nor banks unbounded credit. *)
      let vmin =
        Hashtbl.fold
          (fun _ ts acc -> Float.min acc ts.vtime)
          t.tenants infinity
      in
      let ts =
        {
          t_name = name;
          quota;
          waiting = Queue.create ();
          active_ids = [];
          running = 0;
          vtime = (if vmin = infinity then 0.0 else vmin);
          t_completed = 0;
        }
      in
      Hashtbl.replace t.tenants name ts;
      ts

let queued_total t =
  Hashtbl.fold (fun _ ts acc -> acc + Queue.length ts.waiting) t.tenants 0

(* ---- histogram / report merging ------------------------------------- *)

let merge_into acc hist =
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt acc k with
      | Some c -> c := !c + v
      | None -> Hashtbl.add acc k (ref v))
    hist

let sorted_hist tbl =
  Hashtbl.fold (fun k v l -> (k, !v) :: l) tbl []
  |> List.sort (fun (ka, va) (kb, vb) ->
         match Int.compare vb va with 0 -> String.compare ka kb | c -> c)

let apply_degraded_note job (r : Engine.run_report) =
  match job.degraded_note with
  | None -> r
  | Some note ->
      let degraded =
        match r.Engine.resilience.Engine.degraded with
        | None -> Some note
        | Some existing -> Some (existing ^ "; " ^ note)
      in
      {
        r with
        Engine.resilience = { r.Engine.resilience with Engine.degraded };
      }

(* ---- result cache ---------------------------------------------------- *)

let cache_store t cache key v =
  if t.config.cache_capacity > 0 then begin
    if not (Hashtbl.mem cache.table key) then begin
      Queue.add key cache.order;
      if Queue.length cache.order > t.config.cache_capacity then
        Hashtbl.remove cache.table (Queue.pop cache.order)
    end;
    Hashtbl.replace cache.table key v
  end

let cache_hit_outcome (cached : Runner.outcome) =
  {
    cached with
    Runner.report =
      {
        cached.Runner.report with
        Engine.cache =
          {
            cached.Runner.report.Engine.cache with
            Engine.cache_hits = 1;
          };
      };
  }

(* ---- admission ------------------------------------------------------- *)

let degrade t (spec : Job_spec.t) =
  match spec.Job_spec.route with
  | Job_spec.Compiled
      ({ mode = Compiler.Real; technology = Some _; _ } as c) ->
      ( {
          spec with
          Job_spec.route =
            Job_spec.Compiled
              { c with mode = Compiler.Realistic; technology = None };
        },
        "service overload: micro-architecture degraded to realistic QX" )
  | _ ->
      let cap = t.config.degraded_shot_cap in
      if spec.Job_spec.shots > cap then
        ( { spec with Job_spec.shots = cap },
          Printf.sprintf "service overload: shot budget capped to %d" cap )
      else (spec, "service overload: admitted under degraded policy")

(* ---- the admission oracle -------------------------------------------- *)

(* Static resource estimate against the configured caps
   (docs/estimate.md): O(program body), no simulation — cheap enough that
   qxd runs it on every inbox entry before claiming ({!preflight}). The
   memory cap is a hard reject; a blown time cap degrades direct jobs by
   capping their shot budget (re-estimated, since the planner's choice is
   shots-dependent) and rejects only when even one shot cannot fit. *)
let resource_error ~resource ~needed ~limit est =
  Error.make ~site:"Service.admission"
    ~context:
      [
        ("plan", Engine.plan_to_string est.Qca_analysis.Estimate.plan);
        ("qubits", string_of_int est.Qca_analysis.Estimate.qubits);
      ]
    (Error.Resource_exceeded { resource; needed; limit })

let admission t spec =
  let open Qca_analysis.Estimate in
  let cap_bytes = t.config.admission_max_bytes in
  let cap_ns = t.config.admission_max_ns in
  if cap_bytes <= 0.0 && cap_ns <= 0.0 then Ok (spec, None)
  else
    match Job_spec.estimate spec with
    | Error _ ->
        (* Unparseable payload: let resolve report the syntax error. *)
        Ok (spec, None)
    | Ok est ->
        if cap_bytes > 0.0 && est.state_bytes > cap_bytes then
          Error
            (resource_error ~resource:"memory-bytes" ~needed:est.state_bytes
               ~limit:cap_bytes est)
        else if cap_ns > 0.0 && est.sim_ns > cap_ns then begin
          let reject () =
            Error
              (resource_error ~resource:"sim-ns" ~needed:est.sim_ns
                 ~limit:cap_ns est)
          in
          match spec.Job_spec.route with
          | Job_spec.Direct when spec.Job_spec.shots > 1 ->
              let capped =
                max 1
                  (int_of_float
                     (float_of_int spec.Job_spec.shots *. cap_ns /. est.sim_ns))
              in
              let spec' = { spec with Job_spec.shots = capped } in
              (match Job_spec.estimate spec' with
              | Ok est' when est'.sim_ns <= cap_ns ->
                  Ok
                    ( spec',
                      Some
                        (Printf.sprintf
                           "admission estimate: shot budget capped to %d"
                           capped) )
              | Ok _ | Error _ -> reject ())
          | _ -> reject ()
        end
        else Ok (spec, None)

let preflight t spec =
  match admission t spec with
  | Ok _ -> Ok ()
  | Error e ->
      t.s_submitted <- t.s_submitted + 1;
      t.s_rejected <- t.s_rejected + 1;
      t.s_rejected_estimate <- t.s_rejected_estimate + 1;
      Trace.add_counter "service.rejected_estimate" 1;
      Error e

let submit t ~tenant spec =
  t.s_submitted <- t.s_submitted + 1;
  match Job_spec.elaborate spec with
  | Error e ->
      t.s_rejected <- t.s_rejected + 1;
      Error e
  | Ok (spec, circuit) -> (
      let ts = tenant_state t tenant in
      let digest = Job_spec.digest circuit in
      let key = Job_spec.cache_key spec ~digest in
      let id = t.next_id in
      let make_job spec note phase =
        { id; tenant; spec; circuit; digest; key; degraded_note = note; phase }
      in
      let admit job =
        t.next_id <- id + 1;
        Hashtbl.replace t.jobs id job;
        Ok { h_id = id; h_tenant = tenant }
      in
      match key with
      | Some k when Hashtbl.mem t.result_cache.table k ->
          (* Cache hits cost nothing: served immediately, even under
             overload, and never consume queue capacity. *)
          let outcome = cache_hit_outcome (Hashtbl.find t.result_cache.table k) in
          t.s_cache_hits <- t.s_cache_hits + 1;
          t.s_completed <- t.s_completed + 1;
          ts.t_completed <- ts.t_completed + 1;
          Trace.add_counter "service.cache_hit" 1;
          admit (make_job spec None (Finished (Ok outcome)))
      | _ -> (
          match admission t spec with
          | Error e ->
              t.s_rejected <- t.s_rejected + 1;
              t.s_rejected_estimate <- t.s_rejected_estimate + 1;
              Trace.add_counter "service.rejected_estimate" 1;
              Error e
          | Ok (spec, estimate_note) ->
              if estimate_note <> None then begin
                t.s_degraded <- t.s_degraded + 1;
                Trace.add_counter "service.degraded" 1
              end;
              let waiting_here = Queue.length ts.waiting in
              if waiting_here >= ts.quota.max_queued then begin
                t.s_rejected <- t.s_rejected + 1;
                Error
                  (Error.make ~site:"Service.submit"
                     (Error.Quota_exceeded
                        {
                          tenant;
                          queued = waiting_here;
                          limit = ts.quota.max_queued;
                        }))
              end
              else
                let backlog = queued_total t in
                if backlog >= t.config.max_queue then begin
                  t.s_rejected <- t.s_rejected + 1;
                  Error
                    (Error.make ~site:"Service.submit"
                       (Error.Overloaded
                          { queued = backlog; capacity = t.config.max_queue }))
                end
                else begin
                  let spec, note =
                    if backlog >= t.config.degrade_above then begin
                      t.s_degraded <- t.s_degraded + 1;
                      Trace.add_counter "service.degraded" 1;
                      let spec, n = degrade t spec in
                      (spec, Some n)
                    end
                    else (spec, None)
                  in
                  let note =
                    match (estimate_note, note) with
                    | Some a, Some b -> Some (a ^ "; " ^ b)
                    | Some a, None -> Some a
                    | None, n -> n
                  in
                  t.s_accepted <- t.s_accepted + 1;
                  Queue.add id ts.waiting;
                  admit (make_job spec note Waiting)
                end))

(* ---- execution ------------------------------------------------------- *)

(* A job's engine preparation, shared through [prepared_cache] between
   jobs whose circuit, plan override and fusion agree. Only ideal values
   are shared (so the noise model is the same for every entry): a noisy
   one holds up to 512 KiB of checkpoints. A shared value's work is
   charged to the job that prepared it. *)
let prepare_job t job =
  let spec = job.spec in
  let key =
    if Qca_qx.Noise.is_ideal (Job_spec.noise_model spec) then
      Some
        (Printf.sprintf "%s|plan=%s|fusion=%b" job.digest
           (Option.fold ~none:"auto" ~some:Engine.plan_to_string spec.Job_spec.plan)
           spec.Job_spec.fusion)
    else None
  in
  let report p = { (Engine.prepared_report p) with Engine.seed = spec.Job_spec.seed } in
  match Option.bind key (Hashtbl.find_opt t.prepared_cache.table) with
  | Some p when Engine.plan_holds p ~shots:spec.Job_spec.shots ->
      t.s_shared <- t.s_shared + 1;
      Trace.add_counter "service.shared_analysis" 1;
      Ok
        ( p,
          {
            (report p) with
            Engine.wall = { Engine.analyse_s = 0.0; simulate_s = 0.0; sample_s = 0.0 };
            cache = { Engine.cache_hits = 0; cache_shared = 1 };
          } )
  | _ ->
      Result.map
        (fun p ->
          Option.iter (fun k -> cache_store t t.prepared_cache k p) key;
          (p, report p))
        (Runner.prepare spec job.circuit)

let activate t job =
  let seed =
    match job.spec.Job_spec.seed with
    | Some s -> s
    | None ->
        (* Deterministic per-job stream for unseeded jobs: the service as
           a whole stays reproducible for a given submission order. *)
        (t.config.service_seed + (job.id * 0x9E3779B1)) land max_int
  in
  job.phase <-
    Active
      {
        kind =
          (match job.spec.Job_spec.route with
          | Job_spec.Direct when job.spec.Job_spec.fault_rate = None -> Prepared
          | Job_spec.Direct | Job_spec.Compiled _ -> Atomic);
        rng = Rng.create seed;
        faults = Job_spec.faults job.spec;
        started_at = Clock.now ();
        remaining = job.spec.Job_spec.shots;
        done_shots = 0;
        acc = Hashtbl.create 16;
        prepared = None;
        acc_report = None;
        a_compiled = None;
        a_microarch = None;
      }

(* Take the waiting job with the lowest (priority, id): spec priority
   orders a tenant's own queue, submission order breaks ties. *)
let start_next t ts =
  let pending = Queue.to_seq ts.waiting |> List.of_seq in
  let rank id =
    let job = Hashtbl.find t.jobs id in
    (job.spec.Job_spec.priority, id)
  in
  let best =
    List.fold_left
      (fun best id ->
        match best with
        | None -> Some id
        | Some b -> if rank id < rank b then Some id else best)
      None pending
  in
  match best with
  | None -> ()
  | Some id -> (
      Queue.clear ts.waiting;
      List.iter
        (fun i -> if i <> id then Queue.add i ts.waiting)
        pending;
      let job = Hashtbl.find t.jobs id in
      match job.phase with
      | Waiting ->
          activate t job;
          ts.running <- ts.running + 1;
          ts.active_ids <- ts.active_ids @ [ id ]
      | _ -> ())

let fail_job t ts job e =
  job.phase <- Finished (Error e);
  ts.running <- ts.running - 1;
  t.s_failed <- t.s_failed + 1

let finish_job t ts job (a : active) report =
  let report = apply_degraded_note job report in
  let outcome =
    {
      Runner.histogram = sorted_hist a.acc;
      report;
      compiled = a.a_compiled;
      microarch_stats = a.a_microarch;
    }
  in
  job.phase <- Finished (Ok outcome);
  ts.running <- ts.running - 1;
  ts.t_completed <- ts.t_completed + 1;
  t.s_completed <- t.s_completed + 1;
  match job.key with
  | Some key when job.degraded_note = None -> cache_store t t.result_cache key outcome
  | _ -> ()

let exec_slice t ts job (a : active) =
  Qca_util.Fault.crash_point "slice";
  let slice =
    match a.kind with
    | Atomic -> a.remaining
    | Prepared -> min a.remaining t.config.slice_shots
  in
  let span =
    if Trace.enabled () then
      Trace.begin_span "service.slice"
        ~attrs:
          [
            ("tenant", Trace.String ts.t_name);
            ("job", Trace.Int job.id);
            ("shots", Trace.Int slice);
          ]
    else Trace.null_span
  in
  (match a.kind with
  | Prepared -> (
      let ready =
        match (a.prepared, a.acc_report) with
        | Some p, Some report -> Ok (p, report)
        | _ -> prepare_job t job
      in
      match ready with
      | Error e -> fail_job t ts job e
      | Ok (p, into) ->
          let r = Engine.sample ~into ~rng:a.rng ~shots:slice p in
          merge_into a.acc r.Engine.histogram;
          a.prepared <- Some p;
          a.acc_report <- Some r.Engine.report;
          a.remaining <- a.remaining - slice;
          a.done_shots <- a.done_shots + slice)
  | Atomic -> (
      match Runner.run ~rng:a.rng ?faults:a.faults job.spec with
      | Error e -> fail_job t ts job e
      | Ok o ->
          merge_into a.acc o.Runner.histogram;
          a.acc_report <- Some o.Runner.report;
          a.a_compiled <- o.Runner.compiled;
          a.a_microarch <- o.Runner.microarch_stats;
          a.done_shots <- a.done_shots + a.remaining;
          a.remaining <- 0));
  ts.vtime <- ts.vtime +. (float_of_int slice /. ts.quota.weight);
  t.exec_log.(t.s_slices mod execution_log_length) <- (ts.t_name, job.id);
  t.s_slices <- t.s_slices + 1;
  Trace.end_span span

(* Cooperative deadline enforcement: the budget is checked at every slice
   boundary, before the slice runs, so a job can overshoot by at most one
   slice of work already in flight — never start new work past its
   deadline. [deadline_ms = 0] therefore fails deterministically at the
   first boundary (the form the tests pin). *)
let deadline_expired job (a : active) =
  match job.spec.Job_spec.deadline_ms with
  | None -> None
  | Some deadline_ms ->
      let elapsed_ms =
        int_of_float ((Clock.now () -. a.started_at) *. 1000.0)
      in
      if elapsed_ms >= deadline_ms then Some (deadline_ms, elapsed_ms)
      else None

let run_one t ts =
  if ts.active_ids = [] then start_next t ts;
  match ts.active_ids with
  | [] -> ()
  | id :: rest -> (
      let job = Hashtbl.find t.jobs id in
      match job.phase with
      | Active a -> (
          match deadline_expired job a with
          | Some (deadline_ms, elapsed_ms) ->
              t.s_deadline <- t.s_deadline + 1;
              Trace.add_counter "service.deadline_exceeded" 1;
              fail_job t ts job
                (Error.make ~site:"Service.step"
                   ~context:
                     [
                       ("job", string_of_int job.id); ("tenant", ts.t_name);
                       ("done_shots", string_of_int a.done_shots);
                     ]
                   (Error.Deadline_exceeded { deadline_ms; elapsed_ms }));
              ts.active_ids <- rest
          | None -> (
              exec_slice t ts job a;
              match job.phase with
              | Active ({ remaining; acc_report = Some report; _ } as a) when remaining <= 0 ->
                  finish_job t ts job a report;
                  ts.active_ids <- rest
              | Active _ -> ts.active_ids <- rest @ [ id ]
              | _ -> ts.active_ids <- rest))
      | _ -> ts.active_ids <- rest)

let eligible ts =
  ts.active_ids <> []
  || ((not (Queue.is_empty ts.waiting)) && ts.running < ts.quota.max_running)

(* The WFQ decision: serve the eligible tenant with the smallest virtual
   time; ties break on the tenant name so scheduling never depends on
   hash-table iteration order. *)
let pick t =
  Hashtbl.fold
    (fun _ ts best ->
      if not (eligible ts) then best
      else
        match best with
        | None -> Some ts
        | Some b ->
            if
              ts.vtime < b.vtime
              || (ts.vtime = b.vtime && ts.t_name < b.t_name)
            then Some ts
            else best)
    t.tenants None

let step t =
  let did = ref false in
  (try
     for _ = 1 to t.config.workers do
       match pick t with
       | None -> raise Exit
       | Some ts ->
           did := true;
           run_one t ts
     done
   with Exit -> ());
  !did

let rec drain t = if step t then drain t

(* ---- client surface -------------------------------------------------- *)

let poll t h =
  match Hashtbl.find_opt t.jobs h.h_id with
  | None ->
      Failed
        (Error.make ~site:"Service.poll"
           ~context:[ ("job", string_of_int h.h_id) ]
           (Error.Invalid "unknown job handle"))
  | Some job -> (
      match job.phase with
      | Waiting ->
          (* Jobs submitted earlier and still waiting, under any tenant:
             the tenants' queues hold exactly the waiting jobs (at most
             [max_queue]), while [t.jobs] keeps every job not yet
             released. *)
          let earlier _ ts n =
            Queue.fold (fun n id -> if id < job.id then n + 1 else n) n ts.waiting
          in
          Queued (Hashtbl.fold earlier t.tenants 0)
      | Active a ->
          Running
            {
              done_shots = a.done_shots;
              total_shots = job.spec.Job_spec.shots;
            }
      | Finished (Ok o) -> Done o
      | Finished (Error e) -> Failed e
      | Cancelled_job -> Cancelled)

let rec await t h =
  match poll t h with
  | Done o -> Ok o
  | Failed e -> Error e
  | Cancelled ->
      Error
        (Error.make ~site:"Service.await"
           (Error.Cancelled (Printf.sprintf "job %d" h.h_id)))
  | Queued _ | Running _ ->
      if step t then await t h
      else
        Error
          (Error.make ~site:"Service.await"
             ~context:[ ("job", string_of_int h.h_id) ]
             (Error.Invalid "service stalled: job is not runnable"))

let cancel t h =
  match Hashtbl.find_opt t.jobs h.h_id with
  | None -> false
  | Some job -> (
      match job.phase with
      | Finished _ | Cancelled_job -> false
      | Waiting ->
          let ts = tenant_state t job.tenant in
          let keep =
            Queue.to_seq ts.waiting |> List.of_seq
            |> List.filter (fun i -> i <> job.id)
          in
          Queue.clear ts.waiting;
          List.iter (fun i -> Queue.add i ts.waiting) keep;
          job.phase <- Cancelled_job;
          t.s_cancelled <- t.s_cancelled + 1;
          true
      | Active _ ->
          let ts = tenant_state t job.tenant in
          ts.active_ids <- List.filter (fun i -> i <> job.id) ts.active_ids;
          ts.running <- ts.running - 1;
          job.phase <- Cancelled_job;
          t.s_cancelled <- t.s_cancelled + 1;
          true)

(* A finished job's record is only read by [poll]; a long-lived caller
   that has taken the outcome drops it here, so the table holds the jobs
   in flight rather than every job ever seen. *)
let release t h =
  match Hashtbl.find_opt t.jobs h.h_id with
  | Some { phase = Finished _ | Cancelled_job; _ } ->
      Hashtbl.remove t.jobs h.h_id;
      true
  | Some _ | None -> false

(* ---- observability --------------------------------------------------- *)

type stats = {
  submitted : int;
  accepted : int;
  completed : int;
  failed : int;
  deadline_exceeded : int;
  cancelled : int;
  rejected : int;
  rejected_estimate : int;
  degraded : int;
  cache_hits : int;
  shared_analyses : int;
  slices : int;
  per_tenant : (string * int) list;
}

let stats t =
  let per_tenant =
    Hashtbl.fold (fun name ts acc -> (name, ts.t_completed) :: acc) t.tenants []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    submitted = t.s_submitted;
    accepted = t.s_accepted;
    completed = t.s_completed;
    failed = t.s_failed;
    deadline_exceeded = t.s_deadline;
    cancelled = t.s_cancelled;
    rejected = t.s_rejected;
    rejected_estimate = t.s_rejected_estimate;
    degraded = t.s_degraded;
    cache_hits = t.s_cache_hits;
    shared_analyses = t.s_shared;
    slices = t.s_slices;
    per_tenant;
  }

let stats_to_json t =
  let s = stats t in
  let open Qca_util.Json in
  to_string
    (Obj
       [ ( "service",
           Obj
             [ ("submitted", Int s.submitted); ("accepted", Int s.accepted);
               ("completed", Int s.completed); ("failed", Int s.failed);
               ("deadline_exceeded", Int s.deadline_exceeded); ("cancelled", Int s.cancelled);
               ("rejected", Int s.rejected); ("rejected_estimate", Int s.rejected_estimate);
               ("degraded", Int s.degraded); ("cache_hits", Int s.cache_hits);
               ("shared_analyses", Int s.shared_analyses); ("slices", Int s.slices);
               ("tenants", Obj (List.map (fun (name, n) -> (name, Int n)) s.per_tenant)) ] ) ])

let execution_log t =
  let kept = min t.s_slices execution_log_length in
  List.init kept (fun i -> t.exec_log.((t.s_slices - kept + i) mod execution_log_length))
