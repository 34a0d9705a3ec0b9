(* Tests for the multi-tenant job service: bit-identity of sliced/batched
   execution, the result cache, quotas, weighted fairness, backpressure
   degradation, cancellation, and the qxc<->qxd spool protocol. *)

module Service = Qca_service.Service
module Spool = Qca_service.Spool
module Job_spec = Qca.Job_spec
module Runner = Qca.Runner
module Engine = Qca_qx.Engine
module Circuit = Qca_circuit.Circuit
module Gate = Qca_circuit.Gate
module Library = Qca_circuit.Library
module Error = Qca_util.Error
module Fault = Qca_util.Fault

let measured_all n base =
  Circuit.append base
    (Circuit.of_list n (List.init n (fun q -> Gate.Measure q)))

let bell () = measured_all 2 (Library.bell ())
let ghz n = measured_all n (Library.ghz n)

(* Histograms compared as canonical (key-sorted) multisets: the service
   merges slice histograms through its own table, so count-tied keys may
   legally order differently than a single engine run. *)
let canon h = List.sort compare h

let total h = List.fold_left (fun acc (_, c) -> acc + c) 0 h

let spec ?(shots = 1000) ?seed ?noise ?(trajectory = false) ?deadline_ms circuit
    =
  let base = Job_spec.of_circuit circuit in
  {
    base with
    Job_spec.shots;
    seed;
    noise;
    plan = (if trajectory then Some Qca_qx.Engine.Trajectory else None);
    deadline_ms;
  }

let submit_ok svc ~tenant s =
  match Service.submit svc ~tenant s with
  | Ok h -> h
  | Error e -> Alcotest.failf "submit failed: %s" (Error.to_string e)

let await_ok svc h =
  match Service.await svc h with
  | Ok o -> o
  | Error e -> Alcotest.failf "await failed: %s" (Error.to_string e)

let hist_testable = Alcotest.(list (pair string int))

(* --- bit-identity of the service execution paths --- *)

let test_batched_bit_identity () =
  (* slice_shots 64 over 1000 shots: the job crosses ~16 scheduler slices,
     sampling from a shared distribution with its own threaded RNG. *)
  let config = { Service.default_config with Service.slice_shots = 64 } in
  let svc = Service.create ~config () in
  let h = submit_ok svc ~tenant:"alice" (spec ~seed:7 (bell ())) in
  let o = await_ok svc h in
  let direct = Engine.run ~seed:7 ~shots:1000 (bell ()) in
  Alcotest.check hist_testable "sliced sampling == one engine run"
    (canon direct.Engine.histogram)
    (canon o.Runner.histogram);
  Alcotest.(check int) "report shots" 1000 o.Runner.report.Engine.shots

let test_trajectory_bit_identity () =
  let config = { Service.default_config with Service.slice_shots = 16 } in
  let svc = Service.create ~config () in
  let h =
    submit_ok svc ~tenant:"alice" (spec ~shots:100 ~seed:11 ~trajectory:true (bell ()))
  in
  let o = await_ok svc h in
  let direct =
    Engine.run ~seed:11 ~plan:Engine.Trajectory ~shots:100 (bell ())
  in
  Alcotest.check hist_testable "sliced trajectories == one engine run"
    (canon direct.Engine.histogram)
    (canon o.Runner.histogram);
  Alcotest.(check int) "merged report shots" 100 o.Runner.report.Engine.shots

let test_noisy_bit_identity () =
  let config = { Service.default_config with Service.slice_shots = 32 } in
  let svc = Service.create ~config () in
  let h =
    submit_ok svc ~tenant:"alice" (spec ~shots:100 ~seed:3 ~noise:0.05 (bell ()))
  in
  let o = await_ok svc h in
  let direct =
    Engine.run ~noise:(Qca_qx.Noise.depolarizing 0.05) ~seed:3 ~shots:100
      (bell ())
  in
  Alcotest.check hist_testable "sliced noisy run == one engine run"
    (canon direct.Engine.histogram)
    (canon o.Runner.histogram)

(* --- result cache and cross-request shot batching --- *)

let test_cache_hit () =
  let svc = Service.create () in
  let s = spec ~seed:5 (bell ()) in
  let o1 = await_ok svc (submit_ok svc ~tenant:"alice" s) in
  let o2 = await_ok svc (submit_ok svc ~tenant:"bob" s) in
  Alcotest.check hist_testable "identical histograms"
    (canon o1.Runner.histogram) (canon o2.Runner.histogram);
  Alcotest.(check int) "first run is not a hit" 0
    o1.Runner.report.Engine.cache.Engine.cache_hits;
  Alcotest.(check int) "second run served from cache" 1
    o2.Runner.report.Engine.cache.Engine.cache_hits;
  Alcotest.(check int) "stats count the hit" 1 (Service.stats svc).Service.cache_hits

let test_cache_seed_miss () =
  let svc = Service.create () in
  let _ = await_ok svc (submit_ok svc ~tenant:"alice" (spec ~seed:5 (bell ()))) in
  let _ = await_ok svc (submit_ok svc ~tenant:"alice" (spec ~seed:6 (bell ()))) in
  Alcotest.(check int) "different seed misses" 0
    (Service.stats svc).Service.cache_hits

let test_unseeded_not_cached () =
  let svc = Service.create () in
  let _ = await_ok svc (submit_ok svc ~tenant:"alice" (spec (bell ()))) in
  let _ = await_ok svc (submit_ok svc ~tenant:"alice" (spec (bell ()))) in
  Alcotest.(check int) "unseeded jobs never hit the cache" 0
    (Service.stats svc).Service.cache_hits

let test_shared_distribution () =
  let svc = Service.create () in
  let h1 = submit_ok svc ~tenant:"alice" (spec ~seed:1 (ghz 4)) in
  let h2 = submit_ok svc ~tenant:"bob" (spec ~seed:2 (ghz 4)) in
  let o1 = await_ok svc h1 and o2 = await_ok svc h2 in
  Alcotest.(check int) "one analysis shared" 1
    (Service.stats svc).Service.shared_analyses;
  (* Sharing the distribution must not perturb either job's results. *)
  let d1 = Engine.run ~seed:1 ~shots:1000 (ghz 4) in
  let d2 = Engine.run ~seed:2 ~shots:1000 (ghz 4) in
  Alcotest.check hist_testable "job 1 bit-identical"
    (canon d1.Engine.histogram) (canon o1.Runner.histogram);
  Alcotest.check hist_testable "job 2 bit-identical"
    (canon d2.Engine.histogram) (canon o2.Runner.histogram);
  Alcotest.(check int) "share recorded in the report" 1
    o2.Runner.report.Engine.cache.Engine.cache_shared

(* --- quotas and backpressure --- *)

let test_tenant_quota () =
  let config =
    {
      Service.default_config with
      Service.default_quota =
        { Service.default_quota with Service.max_queued = 2 };
    }
  in
  let svc = Service.create ~config () in
  let _ = submit_ok svc ~tenant:"greedy" (spec ~seed:1 (bell ())) in
  let _ = submit_ok svc ~tenant:"greedy" (spec ~seed:2 (bell ())) in
  (match Service.submit svc ~tenant:"greedy" (spec ~seed:3 (bell ())) with
  | Ok _ -> Alcotest.fail "third job should exceed the quota"
  | Error e -> (
      match e.Error.kind with
      | Error.Quota_exceeded { tenant; queued; limit } ->
          Alcotest.(check string) "tenant named" "greedy" tenant;
          Alcotest.(check int) "queued" 2 queued;
          Alcotest.(check int) "limit" 2 limit
      | _ -> Alcotest.failf "wrong error: %s" (Error.to_string e)));
  (* Another tenant is unaffected. *)
  let _ = submit_ok svc ~tenant:"polite" (spec ~seed:4 (bell ())) in
  Alcotest.(check int) "one rejection" 1 (Service.stats svc).Service.rejected

let test_overload_ladder () =
  (* degrade_above 2, max_queue 4: jobs 3 and 4 are admitted degraded
     (shot cap), job 5 is rejected with a structured Overloaded error —
     degraded-then-rejected, never a crash. *)
  let config =
    {
      Service.default_config with
      Service.max_queue = 4;
      degrade_above = 2;
      degraded_shot_cap = 50;
    }
  in
  let svc = Service.create ~config () in
  let handles =
    List.map
      (fun seed -> submit_ok svc ~tenant:"flood" (spec ~seed (bell ())))
      [ 1; 2; 3; 4 ]
  in
  (match Service.submit svc ~tenant:"flood" (spec ~seed:5 (bell ())) with
  | Ok _ -> Alcotest.fail "fifth job should be rejected"
  | Error e -> (
      match e.Error.kind with
      | Error.Overloaded { queued; capacity } ->
          Alcotest.(check int) "queued" 4 queued;
          Alcotest.(check int) "capacity" 4 capacity;
          Alcotest.(check bool) "overload is transient" true e.Error.transient
      | _ -> Alcotest.failf "wrong error: %s" (Error.to_string e)));
  let outcomes = List.map (await_ok svc) handles in
  let degraded =
    List.filter
      (fun o ->
        o.Runner.report.Engine.resilience.Engine.degraded <> None)
      outcomes
  in
  Alcotest.(check int) "two jobs admitted degraded" 2 (List.length degraded);
  List.iter
    (fun o ->
      Alcotest.(check int) "degraded job ran capped shots" 50
        (total o.Runner.histogram))
    degraded;
  let s = Service.stats svc in
  Alcotest.(check int) "stats.degraded" 2 s.Service.degraded;
  Alcotest.(check int) "stats.rejected" 1 s.Service.rejected

(* --- the static-estimate admission oracle (docs/estimate.md) --- *)

(* 20 qubits with a T gate: non-Clifford, so the state vector is the only
   backend and the estimate is 2^20 * 16 bytes — over a 1 MB cap. *)
let wide_t () =
  measured_all 20
    (Circuit.of_list 20 [ Gate.Unitary (Gate.T, [| 0 |]) ])

let test_admission_memory_rejection () =
  let config =
    { Service.default_config with Service.admission_max_bytes = 1e6 }
  in
  let svc = Service.create ~config () in
  (match Service.submit svc ~tenant:"alice" (spec ~seed:1 (wide_t ())) with
  | Ok _ -> Alcotest.fail "oversized job should be rejected pre-admission"
  | Error e -> (
      match e.Error.kind with
      | Error.Resource_exceeded { resource; needed; limit } ->
          Alcotest.(check string) "resource named" "memory-bytes" resource;
          Alcotest.(check bool) "needed over limit" true (needed > limit);
          Alcotest.(check bool) "estimate rejection is terminal" false
            e.Error.transient
      | _ -> Alcotest.failf "wrong error: %s" (Error.to_string e)));
  (* A small job on the same service is untouched. *)
  let h = submit_ok svc ~tenant:"alice" (spec ~seed:2 (bell ())) in
  let _ = await_ok svc h in
  let s = Service.stats svc in
  Alcotest.(check int) "stats.rejected" 1 s.Service.rejected;
  Alcotest.(check int) "stats.rejected_estimate" 1 s.Service.rejected_estimate;
  Alcotest.(check int) "stats.completed" 1 s.Service.completed

let test_admission_time_degrade () =
  (* A direct job whose full shot budget blows the time cap is degraded —
     shots capped to fit — rather than rejected; the note rides the same
     resilience field as the backpressure ladder. *)
  let c = bell () in
  let per_shot_ns =
    match Job_spec.estimate (spec ~shots:1 ~seed:1 ~trajectory:true c) with
    | Ok est -> est.Qca_analysis.Estimate.sim_ns
    | Error e -> Alcotest.failf "estimate failed: %s" (Error.to_string e)
  in
  let config =
    {
      Service.default_config with
      Service.admission_max_ns = per_shot_ns *. 10.5;
    }
  in
  let svc = Service.create ~config () in
  let h =
    submit_ok svc ~tenant:"alice"
      (spec ~shots:1000 ~seed:1 ~trajectory:true c)
  in
  let o = await_ok svc h in
  (match o.Runner.report.Engine.resilience.Engine.degraded with
  | Some note ->
      Alcotest.(check bool) "note names the admission estimate" true
        (String.length note >= 18
        && String.sub note 0 18 = "admission estimate")
  | None -> Alcotest.fail "time-capped job should carry a degradation note");
  Alcotest.(check bool) "shots were capped" true (total o.Runner.histogram < 1000);
  let s = Service.stats svc in
  Alcotest.(check int) "stats.degraded" 1 s.Service.degraded;
  Alcotest.(check int) "stats.rejected_estimate" 0 s.Service.rejected_estimate

let test_preflight_accounting () =
  let config =
    { Service.default_config with Service.admission_max_bytes = 1e6 }
  in
  let svc = Service.create ~config () in
  (* Ok performs no accounting: the later submit owns the counters. *)
  (match Service.preflight svc (spec ~seed:1 (bell ())) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "small job failed preflight: %s" (Error.to_string e));
  Alcotest.(check int) "ok preflight is unaccounted" 0
    (Service.stats svc).Service.submitted;
  (* An Error is accounted exactly as a rejected submission. *)
  (match Service.preflight svc (spec ~seed:2 (wide_t ())) with
  | Ok () -> Alcotest.fail "oversized job should fail preflight"
  | Error e -> (
      match e.Error.kind with
      | Error.Resource_exceeded _ -> ()
      | _ -> Alcotest.failf "wrong error: %s" (Error.to_string e)));
  let s = Service.stats svc in
  Alcotest.(check int) "submitted" 1 s.Service.submitted;
  Alcotest.(check int) "rejected" 1 s.Service.rejected;
  Alcotest.(check int) "rejected_estimate" 1 s.Service.rejected_estimate

(* --- cancellation --- *)

let test_cancel_while_queued () =
  let svc = Service.create () in
  let h1 = submit_ok svc ~tenant:"alice" (spec ~seed:1 (bell ())) in
  let h2 = submit_ok svc ~tenant:"alice" (spec ~seed:2 (bell ())) in
  Alcotest.(check bool) "cancel queued job" true (Service.cancel svc h2);
  (match Service.await svc h2 with
  | Ok _ -> Alcotest.fail "cancelled job must not complete"
  | Error e -> (
      match e.Error.kind with
      | Error.Cancelled _ -> ()
      | _ -> Alcotest.failf "wrong error: %s" (Error.to_string e)));
  let _ = await_ok svc h1 in
  Alcotest.(check bool) "double cancel is a no-op" false (Service.cancel svc h2);
  Alcotest.(check int) "stats.cancelled" 1 (Service.stats svc).Service.cancelled

(* Queue positions are global across tenants, in submission order, and
   only waiting jobs count. *)
let test_queue_position () =
  let svc = Service.create () in
  let submit tenant seed = submit_ok svc ~tenant (spec ~seed (bell ())) in
  let a1 = submit "alice" 1 in
  let b1 = submit "bob" 2 in
  let a2 = submit "alice" 3 in
  let b2 = submit "bob" 4 in
  let position h = match Service.poll svc h with Service.Queued p -> Some p | _ -> None in
  let positions = Alcotest.(check (list (option int))) in
  positions "submission order across tenants" [ Some 0; Some 1; Some 2; Some 3 ]
    (List.map position [ a1; b1; a2; b2 ]);
  Alcotest.(check bool) "cancel" true (Service.cancel svc b1);
  positions "a cancelled job leaves the queue" [ Some 0; None; Some 1; Some 2 ]
    (List.map position [ a1; b1; a2; b2 ]);
  ignore (Service.step svc);
  let waiting = List.filter_map position [ a1; a2; b2 ] in
  Alcotest.(check bool) "a step starts work" true (List.length waiting < 3);
  Alcotest.(check (list int)) "started jobs leave, the rest close up"
    (List.init (List.length waiting) Fun.id) waiting;
  Service.drain svc;
  positions "finished jobs do not count" [ Some 0 ] [ position (submit "bob" 5) ]

let test_cancel_while_running () =
  let config = { Service.default_config with Service.slice_shots = 64 } in
  let svc = Service.create ~config () in
  let h = submit_ok svc ~tenant:"alice" (spec ~seed:1 (bell ())) in
  ignore (Service.step svc);
  (match Service.poll svc h with
  | Service.Running { done_shots; total_shots } ->
      Alcotest.(check bool) "made partial progress" true
        (done_shots > 0 && done_shots < total_shots)
  | _ -> Alcotest.fail "job should be mid-flight after one step");
  Alcotest.(check bool) "cancel running job" true (Service.cancel svc h);
  (match Service.poll svc h with
  | Service.Cancelled -> ()
  | _ -> Alcotest.fail "job should report cancelled");
  Service.drain svc;
  Alcotest.(check int) "no completion recorded" 0
    (Service.stats svc).Service.completed

let test_cancel_completed_fails () =
  let svc = Service.create () in
  let h = submit_ok svc ~tenant:"alice" (spec ~seed:1 (bell ())) in
  let _ = await_ok svc h in
  Alcotest.(check bool) "too late to cancel" false (Service.cancel svc h)

(* --- fairness --- *)

let test_weighted_fairness () =
  (* heavy (weight 3) and light (weight 1) each submit one 16-slice job;
     WFQ must complete heavy's job well before light's. *)
  let config =
    {
      Service.default_config with
      Service.slice_shots = 64;
      workers = 1;
      quotas =
        [
          ("heavy", { Service.default_quota with Service.weight = 3.0 });
          ("light", Service.default_quota);
        ];
    }
  in
  let svc = Service.create ~config () in
  let hh = submit_ok svc ~tenant:"heavy" (spec ~seed:1 ~shots:1024 (bell ())) in
  let hl = submit_ok svc ~tenant:"light" (spec ~seed:2 ~shots:1024 (bell ())) in
  let _ = await_ok svc hh and _ = await_ok svc hl in
  let log = Service.execution_log svc in
  let last_index tenant =
    List.mapi (fun i (t, _) -> (i, t)) log
    |> List.filter (fun (_, t) -> t = tenant)
    |> List.map fst |> List.fold_left max 0
  in
  Alcotest.(check bool) "heavy tenant finishes first" true
    (last_index "heavy" < last_index "light");
  let heavy_early =
    List.filteri (fun i _ -> i < 8) log
    |> List.filter (fun (t, _) -> t = "heavy")
    |> List.length
  in
  Alcotest.(check bool) "heavy gets the 3:1 share early" true (heavy_early >= 5)

let prop_no_tenant_starves =
  QCheck.Test.make ~name:"WFQ: every tenant's first slice lands in round one"
    ~count:30
    QCheck.(pair (int_range 2 4) (int_range 1 3))
    (fun (tenants, jobs_each) ->
      let config =
        { Service.default_config with Service.slice_shots = 64; workers = 1 }
      in
      let svc = Service.create ~config () in
      let handles = ref [] in
      for t = 0 to tenants - 1 do
        for j = 0 to jobs_each - 1 do
          let tenant = Printf.sprintf "tenant-%d" t in
          let s = spec ~seed:((t * 100) + j) ~shots:256 (ghz 3) in
          handles := (tenant, submit_ok svc ~tenant s) :: !handles
        done
      done;
      Service.drain svc;
      (* no starvation: every accepted job completed *)
      let all_done =
        List.for_all
          (fun (_, h) ->
            match Service.poll svc h with Service.Done _ -> true | _ -> false)
          !handles
      in
      (* fairness: with equal weights, the first [tenants] slices contain
         every tenant exactly once (round-robin over virtual time) *)
      let log = Service.execution_log svc in
      let first_round =
        List.filteri (fun i _ -> i < tenants) log |> List.map fst
      in
      let distinct = List.sort_uniq compare first_round in
      all_done && List.length distinct = tenants)

let prop_cache_key_soundness =
  QCheck.Test.make
    ~name:"cache: same digest+seed+shots hits bit-identically, new seed misses"
    ~count:25
    QCheck.(pair (int_range 0 9999) (int_range 50 200))
    (fun (seed, shots) ->
      let svc = Service.create () in
      let s = spec ~seed ~shots (ghz 3) in
      let o1 = await_ok svc (submit_ok svc ~tenant:"a" s) in
      let o2 = await_ok svc (submit_ok svc ~tenant:"b" s) in
      let hits_after_same = (Service.stats svc).Service.cache_hits in
      let s' = spec ~seed:(seed + 1) ~shots (ghz 3) in
      let _ = await_ok svc (submit_ok svc ~tenant:"a" s') in
      let hits_after_diff = (Service.stats svc).Service.cache_hits in
      canon o1.Runner.histogram = canon o2.Runner.histogram
      && hits_after_same = 1
      && hits_after_diff = 1)

let prop_cancel_queued_or_running =
  QCheck.Test.make ~name:"cancel: queued or running, never after completion"
    ~count:30
    QCheck.(int_range 0 20)
    (fun steps ->
      let config = { Service.default_config with Service.slice_shots = 32 } in
      let svc = Service.create ~config () in
      let h = submit_ok svc ~tenant:"a" (spec ~seed:1 ~shots:512 (bell ())) in
      for _ = 1 to steps do
        ignore (Service.step svc)
      done;
      let finished =
        match Service.poll svc h with Service.Done _ -> true | _ -> false
      in
      let cancelled = Service.cancel svc h in
      (* exactly one of: cancel succeeded, or the job already finished *)
      cancelled <> finished
      &&
      match Service.poll svc h with
      | Service.Cancelled -> cancelled
      | Service.Done _ -> finished
      | _ -> false)

(* --- the spool protocol --- *)

let temp_spool name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  (* start from a clean slate: the spool layout is flat, so removing the
     files in each subdirectory is a full reset *)
  List.iter
    (fun sub ->
      let d = Filename.concat dir sub in
      if Sys.file_exists d && Sys.is_directory d then
        Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d))
    [ "inbox"; "active"; "results"; "failed"; "cancel"; "tmp" ];
  Spool.init dir;
  dir

let test_spool_roundtrip () =
  let s =
    {
      (spec ~seed:42 ~shots:500 (bell ())) with
      Job_spec.label = "bell-roundtrip";
      priority = 2;
      fault_rate = Some 0.05;
      fault_seed = 9;
    }
  in
  match Spool.encode ~tenant:"alice" s with
  | Error e -> Alcotest.failf "encode failed: %s" (Error.to_string e)
  | Ok text -> (
      match Spool.decode ~id:"000042" text with
      | Error e -> Alcotest.failf "decode failed: %s" (Error.to_string e)
      | Ok entry ->
          Alcotest.(check string) "tenant" "alice" entry.Spool.tenant;
          Alcotest.(check string) "id" "000042" entry.Spool.entry_id;
          let d = entry.Spool.spec in
          Alcotest.(check int) "shots" 500 d.Job_spec.shots;
          Alcotest.(check (option int)) "seed" (Some 42) d.Job_spec.seed;
          Alcotest.(check int) "priority" 2 d.Job_spec.priority;
          Alcotest.(check (option (float 1e-9))) "fault rate" (Some 0.05)
            d.Job_spec.fault_rate;
          Alcotest.(check int) "fault seed" 9 d.Job_spec.fault_seed;
          (* the payload survives as an equivalent circuit *)
          let c1 = Result.get_ok (Job_spec.resolve s) in
          let c2 = Result.get_ok (Job_spec.resolve d) in
          Alcotest.(check string) "circuit digest survives"
            (Job_spec.digest c1) (Job_spec.digest c2))

let test_spool_queue_cycle () =
  let dir = temp_spool "qca-spool-cycle" in
  let s = spec ~seed:7 ~shots:100 (bell ()) in
  let id =
    match Spool.submit ~dir ~tenant:"alice" s with
    | Ok id -> id
    | Error e -> Alcotest.failf "spool submit failed: %s" (Error.to_string e)
  in
  Alcotest.(check bool) "in inbox" true (Spool.in_inbox ~dir id);
  (match Spool.pending ~dir with
  | [ Ok entry ] ->
      Alcotest.(check string) "entry id" id entry.Spool.entry_id;
      Alcotest.(check string) "tenant" "alice" entry.Spool.tenant
  | _ -> Alcotest.fail "expected exactly one pending entry");
  Spool.consume ~dir id;
  Alcotest.(check bool) "consumed" false (Spool.in_inbox ~dir id);
  Spool.write_result ~dir ~id "{\"status\":\"done\"}";
  (match Spool.read_result ~dir id with
  | Some line ->
      Alcotest.(check bool) "result readable" true
        (String.length (String.trim line) > 0)
  | None -> Alcotest.fail "result missing");
  Alcotest.(check bool) "cancel after result fails" false
    (Spool.request_cancel ~dir id)

let test_spool_decode_rejects_garbage () =
  (match Spool.decode ~id:"000001" "tenant=alice\nno separator" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing separator must fail");
  match Spool.decode ~id:"000002" "wibble=1\n---\nversion 1.0\nqubits 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown keys must fail"

(* --- deadlines --- *)

let test_deadline_exceeded () =
  (* deadline 0: the budget is exhausted before the first slice, so the
     check at the slice boundary fails the job deterministically. *)
  let svc = Service.create () in
  let h = submit_ok svc ~tenant:"alice" (spec ~seed:1 ~deadline_ms:0 (bell ())) in
  (match Service.await svc h with
  | Ok _ -> Alcotest.fail "deadline-0 job must not complete"
  | Error e -> (
      match e.Error.kind with
      | Error.Deadline_exceeded { deadline_ms; _ } ->
          Alcotest.(check int) "deadline echoed" 0 deadline_ms
      | _ -> Alcotest.failf "wrong error: %s" (Error.to_string e)));
  let s = Service.stats svc in
  Alcotest.(check int) "stats.deadline_exceeded" 1 s.Service.deadline_exceeded;
  Alcotest.(check int) "also counted failed" 1 s.Service.failed

let test_deadline_generous_completes () =
  let svc = Service.create () in
  let h =
    submit_ok svc ~tenant:"alice" (spec ~seed:7 ~deadline_ms:3_600_000 (bell ()))
  in
  let o = await_ok svc h in
  let direct = Engine.run ~seed:7 ~shots:1000 (bell ()) in
  Alcotest.check hist_testable "an unexercised deadline changes nothing"
    (canon direct.Engine.histogram)
    (canon o.Runner.histogram);
  Alcotest.(check int) "no deadline failures" 0
    (Service.stats svc).Service.deadline_exceeded

let test_deadline_spool_roundtrip () =
  let s = { (spec ~seed:5 ~deadline_ms:250 (bell ())) with Job_spec.label = "dl" } in
  match Spool.encode ~tenant:"alice" s with
  | Error e -> Alcotest.failf "encode failed: %s" (Error.to_string e)
  | Ok text -> (
      match Spool.decode ~id:"000001" text with
      | Error e -> Alcotest.failf "decode failed: %s" (Error.to_string e)
      | Ok entry ->
          Alcotest.(check (option int)) "deadline survives the header"
            (Some 250) entry.Spool.spec.Job_spec.deadline_ms)

(* --- the durable lifecycle journal --- *)

(* A pid far above any live process: claims owned by it read as orphaned
   (the probe's kill-0 reports ESRCH), which is exactly what a crashed
   daemon leaves behind. *)
let dead_pid = 999_999_999

let run_entry (entry : Spool.entry) =
  match Runner.run entry.Spool.spec with
  | Ok o -> o
  | Error e -> Alcotest.failf "replay run failed: %s" (Error.to_string e)

let test_journal_replay_bit_identity () =
  let dir = temp_spool "qca-spool-replay" in
  let s = spec ~seed:7 ~shots:300 (bell ()) in
  let id = Result.get_ok (Spool.submit ~dir ~tenant:"alice" s) in
  Alcotest.(check bool) "claimed" true (Spool.claim ~dir ~pid:dead_pid id);
  Alcotest.(check bool) "left the inbox" false (Spool.in_inbox ~dir id);
  Alcotest.(check (list string)) "journaled" [ id ] (Spool.active ~dir);
  let me = Unix.getpid () in
  (match Spool.recover ~dir ~pid:me ~max_attempts:3 with
  | [ Spool.Replay { id = rid; entry = Ok entry; attempt } ] ->
      Alcotest.(check string) "same id" id rid;
      Alcotest.(check int) "attempt bumped" 2 attempt;
      (match Spool.read_claim ~dir id with
      | Some c ->
          Alcotest.(check int) "claim re-owned" me c.Spool.claim_pid;
          Alcotest.(check int) "claim attempt" 2 c.Spool.attempt
      | None -> Alcotest.fail "claim sidecar missing after recovery");
      (* the replay is bit-identical to an uncrashed run *)
      let o = run_entry entry in
      let direct = Engine.run ~seed:7 ~shots:300 (bell ()) in
      Alcotest.check hist_testable "replay == uncrashed run"
        (canon direct.Engine.histogram)
        (canon o.Runner.histogram)
  | rs -> Alcotest.failf "expected one replay, got %d entries" (List.length rs));
  Spool.write_result ~dir ~id "{\"status\":\"done\"}";
  Spool.complete ~dir id;
  Alcotest.(check (list string)) "journal cleared" [] (Spool.active ~dir)

let test_recover_already_published () =
  let dir = temp_spool "qca-spool-published" in
  let id =
    Result.get_ok (Spool.submit ~dir ~tenant:"alice" (spec ~seed:1 (bell ())))
  in
  ignore (Spool.claim ~dir ~pid:dead_pid id);
  (* the crash hit between the result write and the journal cleanup *)
  Spool.write_result ~dir ~id "{\"status\":\"done\"}";
  (match Spool.recover ~dir ~pid:(Unix.getpid ()) ~max_attempts:3 with
  | [ Spool.Already_published rid ] -> Alcotest.(check string) "id" id rid
  | _ -> Alcotest.fail "expected Already_published");
  Alcotest.(check (list string)) "journal cleared, not re-run" []
    (Spool.active ~dir)

let test_recover_poison_after_cap () =
  let dir = temp_spool "qca-spool-poison" in
  let id =
    Result.get_ok (Spool.submit ~dir ~tenant:"alice" (spec ~seed:1 (bell ())))
  in
  ignore (Spool.claim ~dir ~pid:dead_pid id);
  let me = Unix.getpid () in
  (* two recoveries consume attempts 2 and 3; the third trips the cap *)
  (match Spool.recover ~dir ~pid:me ~max_attempts:3 with
  | [ Spool.Replay { attempt = 2; _ } ] -> ()
  | _ -> Alcotest.fail "first recovery should replay (attempt 2)");
  (match Spool.recover ~dir ~pid:me ~max_attempts:3 with
  | [ Spool.Replay { attempt = 3; _ } ] -> ()
  | _ -> Alcotest.fail "second recovery should replay (attempt 3)");
  (match Spool.recover ~dir ~pid:me ~max_attempts:3 with
  | [ Spool.Poison { id = rid; attempts; tenant; _ } ] ->
      Alcotest.(check string) "id" id rid;
      Alcotest.(check int) "attempts recorded" 3 attempts;
      Alcotest.(check string) "tenant decoded for the error" "alice" tenant
  | _ -> Alcotest.fail "third recovery should retire the job as poison");
  Alcotest.(check (list string)) "journal cleared" [] (Spool.active ~dir);
  Alcotest.(check bool) "job file rests in failed/" true
    (Sys.file_exists (Filename.concat (Filename.concat dir "failed") (id ^ ".job")))

let test_recover_respects_live_owner () =
  let dir = temp_spool "qca-spool-busy" in
  let id =
    Result.get_ok (Spool.submit ~dir ~tenant:"alice" (spec ~seed:1 (bell ())))
  in
  (* pid 1 is always alive (kill-0 reports EPERM, which means exists) *)
  ignore (Spool.claim ~dir ~pid:1 id);
  (match Spool.recover ~dir ~pid:(Unix.getpid ()) ~max_attempts:3 with
  | [ Spool.Busy { id = rid; owner } ] ->
      Alcotest.(check string) "id" id rid;
      Alcotest.(check int) "owner reported" 1 owner
  | _ -> Alcotest.fail "a live owner's claim must be left alone");
  (match Spool.read_claim ~dir id with
  | Some c -> Alcotest.(check int) "claim untouched" 1 c.Spool.claim_pid
  | None -> Alcotest.fail "claim missing");
  Alcotest.(check (list string)) "still journaled" [ id ] (Spool.active ~dir)

let test_cancel_after_claim_still_wins () =
  let dir = temp_spool "qca-spool-cancel-race" in
  let id =
    Result.get_ok (Spool.submit ~dir ~tenant:"alice" (spec ~seed:1 (bell ())))
  in
  ignore (Spool.claim ~dir ~pid:dead_pid id);
  (* no result yet, so the cancel lands even though the job is claimed *)
  Alcotest.(check bool) "cancel accepted after claim" true
    (Spool.request_cancel ~dir id);
  Alcotest.(check bool) "marker visible" true (Spool.cancel_requested ~dir id);
  (* the daemon publishes the cancellation and cleans both artefacts up *)
  Spool.write_result ~dir ~id "{\"status\":\"cancelled\"}";
  Spool.complete ~dir id;
  Spool.clear_cancel ~dir id;
  Alcotest.(check bool) "marker consumed, not leaked" false
    (Spool.cancel_requested ~dir id);
  Alcotest.(check (list string)) "journal cleared" [] (Spool.active ~dir);
  Alcotest.(check bool) "cancel after the result is refused" false
    (Spool.request_cancel ~dir id)

let test_sweep_tmp () =
  let dir = temp_spool "qca-spool-sweep" in
  let tmp = Filename.concat dir "tmp" in
  List.iter
    (fun f -> close_out (open_out (Filename.concat tmp f)))
    [ "stale-1.job"; "stale-2.json" ];
  Alcotest.(check int) "two stale files swept" 2 (Spool.sweep_tmp ~dir);
  Alcotest.(check int) "second sweep finds nothing" 0 (Spool.sweep_tmp ~dir)

let test_durable_submit_roundtrip () =
  let dir = temp_spool "qca-spool-durable" in
  let s = spec ~seed:11 ~shots:200 (bell ()) in
  let id = Result.get_ok (Spool.submit ~durable:true ~dir ~tenant:"alice" s) in
  (match Spool.pending ~dir with
  | [ Ok entry ] ->
      Alcotest.(check string) "id" id entry.Spool.entry_id;
      Alcotest.(check (option int)) "seed survives" (Some 11)
        entry.Spool.spec.Job_spec.seed
  | _ -> Alcotest.fail "durable submit must land in the inbox");
  Spool.write_result ~durable:true ~dir ~id "{\"status\":\"done\"}";
  Alcotest.(check bool) "durable result readable" true
    (Spool.read_result ~dir id <> None)

let test_heartbeat_roundtrip () =
  let dir = temp_spool "qca-spool-heartbeat" in
  let me = Unix.getpid () in
  Spool.write_heartbeat ~dir ~pid:me ~state:"serving" ~started_at_ms:123;
  (match Spool.read_heartbeat ~dir with
  | Some hb ->
      Alcotest.(check int) "pid" me hb.Spool.hb_pid;
      Alcotest.(check string) "state" "serving" hb.Spool.hb_state;
      Alcotest.(check int) "started" 123 hb.Spool.hb_started_at_ms;
      Alcotest.(check bool) "this process is alive" true
        (Spool.pid_alive hb.Spool.hb_pid)
  | None -> Alcotest.fail "heartbeat missing");
  Alcotest.(check bool) "a dead pid reads dead" false (Spool.pid_alive dead_pid);
  (* The reader parses JSON and looks fields up: layout and field order do
     not matter, a truncated or mistyped file reads as no heartbeat. *)
  let read_text text =
    let oc = open_out (Filename.concat dir "daemon.json") in
    output_string oc text;
    close_out oc;
    Option.map (fun hb -> hb.Spool.hb_state) (Spool.read_heartbeat ~dir)
  in
  let state = Alcotest.(check (option string)) in
  state "reordered, spaced" (Some "draining")
    (read_text
       {| { "updated_at_ms": 2, "state": "draining", "pid": 7, "started_at_ms": 1 } |});
  state "truncated" None (read_text {|{"pid":7,"state":"serving","started_at_ms":1,"upd|});
  state "mistyped" None
    (read_text {|{"pid":"7","state":"serving","started_at_ms":1,"updated_at_ms":2}|})

let prop_replay_bit_identity =
  QCheck.Test.make
    ~name:"journal: recovery replay is bit-identical to the uncrashed run"
    ~count:20
    QCheck.(pair (int_range 0 9999) (int_range 50 300))
    (fun (seed, shots) ->
      let dir = temp_spool "qca-spool-replay-prop" in
      let s = spec ~seed ~shots (ghz 3) in
      let id = Result.get_ok (Spool.submit ~dir ~tenant:"p" s) in
      ignore (Spool.claim ~dir ~pid:dead_pid id);
      match Spool.recover ~dir ~pid:(Unix.getpid ()) ~max_attempts:3 with
      | [ Spool.Replay { entry = Ok entry; attempt = 2; _ } ] ->
          let o = run_entry entry in
          let direct = Engine.run ~seed ~shots (ghz 3) in
          canon o.Runner.histogram = canon direct.Engine.histogram
      | _ -> false)

(* The robustness machinery must be ~free when dormant: a disabled kill
   point is one ref read, and must cost well under 5% of even the
   cheapest job the service handles (a cache hit). *)
let test_disabled_crash_point_overhead () =
  Fault.set_crash_at None;
  let calls = 200_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to calls do
    Fault.crash_point "slice"
  done;
  let per_call = (Unix.gettimeofday () -. t0) /. float_of_int calls in
  let svc = Service.create () in
  let s = spec ~seed:5 (bell ()) in
  let _ = await_ok svc (submit_ok svc ~tenant:"a" s) in
  let jobs = 200 in
  let t1 = Unix.gettimeofday () in
  for _ = 1 to jobs do
    ignore (await_ok svc (submit_ok svc ~tenant:"a" s))
  done;
  let per_hot_job = (Unix.gettimeofday () -. t1) /. float_of_int jobs in
  Alcotest.(check bool)
    (Printf.sprintf "disabled kill point (%.1f ns) < 5%% of a cache-hot job (%.0f ns)"
       (per_call *. 1e9) (per_hot_job *. 1e9))
    true
    (per_call < 0.05 *. per_hot_job)

let () =
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "qca_service"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "batched sampling" `Quick test_batched_bit_identity;
          Alcotest.test_case "sliced trajectories" `Quick
            test_trajectory_bit_identity;
          Alcotest.test_case "sliced noisy run" `Quick test_noisy_bit_identity;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit" `Quick test_cache_hit;
          Alcotest.test_case "seed miss" `Quick test_cache_seed_miss;
          Alcotest.test_case "unseeded uncached" `Quick test_unseeded_not_cached;
          Alcotest.test_case "shared distribution" `Quick
            test_shared_distribution;
        ] );
      ( "admission",
        [
          Alcotest.test_case "tenant quota" `Quick test_tenant_quota;
          Alcotest.test_case "overload ladder" `Quick test_overload_ladder;
          Alcotest.test_case "estimate oracle: memory rejection" `Quick
            test_admission_memory_rejection;
          Alcotest.test_case "estimate oracle: time degrade" `Quick
            test_admission_time_degrade;
          Alcotest.test_case "estimate oracle: preflight accounting" `Quick
            test_preflight_accounting;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "while queued" `Quick test_cancel_while_queued;
          Alcotest.test_case "queue position" `Quick test_queue_position;
          Alcotest.test_case "while running" `Quick test_cancel_while_running;
          Alcotest.test_case "after completion" `Quick
            test_cancel_completed_fails;
        ] );
      ( "fairness",
        [ Alcotest.test_case "weighted shares" `Quick test_weighted_fairness ] );
      ( "properties",
        List.map qtest
          [
            prop_no_tenant_starves;
            prop_cache_key_soundness;
            prop_cancel_queued_or_running;
          ] );
      ( "spool",
        [
          Alcotest.test_case "roundtrip" `Quick test_spool_roundtrip;
          Alcotest.test_case "queue cycle" `Quick test_spool_queue_cycle;
          Alcotest.test_case "garbage rejected" `Quick
            test_spool_decode_rejects_garbage;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "exhausted budget fails" `Quick
            test_deadline_exceeded;
          Alcotest.test_case "generous budget is inert" `Quick
            test_deadline_generous_completes;
          Alcotest.test_case "header roundtrip" `Quick
            test_deadline_spool_roundtrip;
        ] );
      ( "journal",
        [
          Alcotest.test_case "replay bit-identity" `Quick
            test_journal_replay_bit_identity;
          Alcotest.test_case "already published" `Quick
            test_recover_already_published;
          Alcotest.test_case "poison after attempt cap" `Quick
            test_recover_poison_after_cap;
          Alcotest.test_case "live owner respected" `Quick
            test_recover_respects_live_owner;
          Alcotest.test_case "cancel/claim race" `Quick
            test_cancel_after_claim_still_wins;
          Alcotest.test_case "tmp sweep" `Quick test_sweep_tmp;
          Alcotest.test_case "durable submit" `Quick
            test_durable_submit_roundtrip;
          Alcotest.test_case "heartbeat" `Quick test_heartbeat_roundtrip;
          Alcotest.test_case "disabled kill-point overhead" `Quick
            test_disabled_crash_point_overhead;
        ] );
      ( "journal-properties",
        List.map qtest [ prop_replay_bit_identity ] );
    ]
