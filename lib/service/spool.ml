module Circuit = Qca_circuit.Circuit
module Cqasm = Qca_circuit.Cqasm
module Platform = Qca_compiler.Platform
module Compiler = Qca_compiler.Compiler
module Error = Qca_util.Error
module Fault = Qca_util.Fault
module Json = Qca_util.Json
module Job_spec = Qca.Job_spec

type entry = { entry_id : string; tenant : string; spec : Job_spec.t }

(* ---- serialisation --------------------------------------------------- *)

let encode ~tenant spec =
  match Job_spec.elaborate spec with
  | Error e -> Error e
  | Ok (spec, circuit) ->
      let b = Buffer.create 512 in
      let add k v = Printf.bprintf b "%s=%s\n" k v in
      add "tenant" tenant;
      add "label" spec.Job_spec.label;
      add "shots" (string_of_int spec.Job_spec.shots);
      (match spec.Job_spec.seed with
      | Some s -> add "seed" (string_of_int s)
      | None -> ());
      (match spec.Job_spec.noise with
      | Some p -> add "noise" (string_of_float p)
      | None -> ());
      (* [--trajectory] keeps its historical key so pre-planner job files
         stay byte-stable; only the two new forces use the [plan] key. *)
      (match spec.Job_spec.plan with
      | None -> ()
      | Some Qca_qx.Engine.Trajectory -> add "trajectory" "true"
      | Some Qca_qx.Engine.Sampled -> add "plan" "sampled"
      | Some Qca_qx.Engine.Clifford -> add "plan" "clifford");
      (match spec.Job_spec.fault_rate with
      | Some p ->
          add "fault-rate" (string_of_float p);
          add "fault-seed" (string_of_int spec.Job_spec.fault_seed);
          add "max-retries" (string_of_int spec.Job_spec.max_retries)
      | None -> ());
      if spec.Job_spec.priority <> 0 then
        add "priority" (string_of_int spec.Job_spec.priority);
      (match spec.Job_spec.deadline_ms with
      | Some d -> add "deadline-ms" (string_of_int d)
      | None -> ());
      let route =
        match spec.Job_spec.route with
        | Job_spec.Direct -> Ok ()
        | Job_spec.Compiled { platform; mode; technology = _; ladder; router } -> (
            (* Headers store the vocabulary name, not the platform's
               display name, so they re-parse. *)
            match Job_spec.platform_name platform with
            | None ->
                Error
                  (Error.make ~site:"Spool.encode"
                     ~context:[ ("platform", platform.Platform.name) ]
                     (Error.Invalid "platform has no vocabulary name"))
            | Some name ->
                add "platform" name;
                add "mode" (Compiler.mode_to_string mode);
                if ladder then add "ladder" "true";
                (* Only a non-default router is spooled, so pre-router job
                   files stay decodable and byte-stable. *)
                if router <> Qca_compiler.Mapping.default_strategy then
                  add "router" (Qca_compiler.Mapping.strategy_to_string router);
                Ok ())
      in
      Result.map
        (fun () ->
          Buffer.add_string b "---\n";
          Buffer.add_string b (Cqasm.emit_circuit circuit);
          Buffer.contents b)
        route

let decode ~id text =
  let invalid msg =
    Stdlib.Error
      (Error.make ~site:"Spool.decode" ~context:[ ("job", id) ]
         (Error.Invalid msg))
  in
  (* Split at the first line that is exactly "---". *)
  let lines = String.split_on_char '\n' text in
  (

      let rec split acc = function
        | [] -> None
        | "---" :: rest -> Some (List.rev acc, String.concat "\n" rest)
        | line :: rest -> split (line :: acc) rest
      in
      match split [] lines with
      | None -> invalid "missing '---' separator"
      | Some (header, body) -> (
          let fields = ref [] in
          let bad = ref None in
          List.iter
            (fun line ->
              let line = String.trim line in
              if line <> "" && !bad = None then
                match String.index_opt line '=' with
                | None -> bad := Some ("malformed header line: " ^ line)
                | Some i ->
                    fields :=
                      ( String.sub line 0 i,
                        String.sub line (i + 1) (String.length line - i - 1) )
                      :: !fields)
            header;
          match !bad with
          | Some msg -> invalid msg
          | None -> (
              let fields = List.rev !fields in
              let known =
                [
                  "tenant"; "label"; "shots"; "seed"; "noise"; "trajectory";
                  "plan"; "fusion"; "fault-rate"; "fault-seed"; "max-retries";
                  "priority"; "deadline-ms"; "platform"; "mode"; "ladder";
                  "router";
                ]
              in
              match
                List.find_opt (fun (k, _) -> not (List.mem k known)) fields
              with
              | Some (k, _) -> invalid (Printf.sprintf "unknown key '%s'" k)
              | None -> (
                  let get k = List.assoc_opt k fields in
                  let int_field k default =
                    match get k with
                    | None -> Ok default
                    | Some v -> (
                        match int_of_string_opt v with
                        | Some n -> Ok n
                        | None ->
                            Error (Printf.sprintf "%s: not an integer: %s" k v))
                  in
                  let float_field k =
                    match get k with
                    | None -> Ok None
                    | Some v -> (
                        match float_of_string_opt v with
                        | Some f -> Ok (Some f)
                        | None ->
                            Error (Printf.sprintf "%s: not a number: %s" k v))
                  in
                  let bool_field k =
                    match get k with
                    | None | Some "false" -> Ok false
                    | Some "true" -> Ok true
                    | Some v ->
                        Error (Printf.sprintf "%s: not a boolean: %s" k v)
                  in
                  let ( let* ) r f =
                    match r with Ok v -> f v | Error m -> invalid m
                  in
                  let tenant = Option.value ~default:"anonymous" (get "tenant") in
                  let label = Option.value ~default:("job-" ^ id) (get "label") in
                  let payload = Job_spec.Source { name = label; text = body } in
                  match Job_spec.resolve (Job_spec.make ~label payload) with
                  | Error e -> Stdlib.Error e
                  | Ok circuit ->
                      let* shots = int_field "shots" 1024 in
                      let* seed =
                        match get "seed" with
                        | None -> Ok None
                        | Some v -> (
                            match int_of_string_opt v with
                            | Some n -> Ok (Some n)
                            | None -> Error ("seed: not an integer: " ^ v))
                      in
                      let* noise = float_field "noise" in
                      let* force_trajectory = bool_field "trajectory" in
                      let* plan =
                        match (get "plan", force_trajectory) with
                        | None, false -> Ok None
                        | None, true -> Ok (Some Qca_qx.Engine.Trajectory)
                        | Some "sampled", false ->
                            Ok (Some Qca_qx.Engine.Sampled)
                        | Some "clifford", false ->
                            Ok (Some Qca_qx.Engine.Clifford)
                        | Some ("sampled" | "clifford"), true ->
                            Error "plan: conflicts with trajectory=true"
                        | Some v, _ ->
                            Error
                              (Printf.sprintf
                                 "plan: expected sampled or clifford, got %s" v)
                      in
                      (* Files written before gate fusion was removed may
                         carry a [fusion] key: a boolean is accepted and
                         ignored. *)
                      let* () =
                        match get "fusion" with
                        | None | Some ("true" | "false") -> Ok ()
                        | Some v -> Error ("fusion: not a boolean: " ^ v)
                      in
                      let* fault_rate = float_field "fault-rate" in
                      let* fault_seed =
                        int_field "fault-seed" Qca_util.Fault.default_seed
                      in
                      let* max_retries =
                        int_field "max-retries"
                          Qca_util.Resilience.default_policy
                            .Qca_util.Resilience.max_retries
                      in
                      let* priority = int_field "priority" 0 in
                      let* deadline_ms =
                        match get "deadline-ms" with
                        | None -> Ok None
                        | Some v -> (
                            match int_of_string_opt v with
                            | Some n when n >= 0 -> Ok (Some n)
                            | _ ->
                                Error
                                  ("deadline-ms: not a non-negative integer: "
                                 ^ v))
                      in
                      let* ladder = bool_field "ladder" in
                      let mode =
                        Option.value
                          ~default:(Compiler.mode_to_string Compiler.Realistic)
                          (get "mode")
                      in
                      let* router =
                        match get "router" with
                        | None -> Ok Qca_compiler.Mapping.default_strategy
                        | Some v -> (
                            match Qca_compiler.Mapping.strategy_of_string v with
                            | Ok r -> Ok r
                            | Error m -> Error ("router: " ^ m))
                      in
                      let* route =
                        Job_spec.route_of_names ~router ~platform:(get "platform") ~mode
                          ~ladder ~qubits:(Circuit.qubit_count circuit) ()
                      in
                      if shots < 1 then invalid "shots must be positive"
                      else
                        let base = Job_spec.make ~label payload in
                        let spec =
                          {
                            base with
                            Job_spec.route;
                            shots;
                            seed;
                            noise;
                            plan;
                            fault_rate;
                            fault_seed;
                            max_retries;
                            priority;
                            deadline_ms;
                          }
                        in
                        Ok { entry_id = id; tenant; spec }))))

(* ---- spool directories ----------------------------------------------- *)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if parent <> path then mkdir_p parent;
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

let inbox dir = Filename.concat dir "inbox"
let results dir = Filename.concat dir "results"
let cancels dir = Filename.concat dir "cancel"
let tmp dir = Filename.concat dir "tmp"
let active_dir dir = Filename.concat dir "active"
let failed_dir dir = Filename.concat dir "failed"

let init dir =
  mkdir_p (inbox dir);
  mkdir_p (results dir);
  mkdir_p (cancels dir);
  mkdir_p (tmp dir);
  mkdir_p (active_dir dir);
  mkdir_p (failed_dir dir)

let ids_in path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter_map (fun f -> int_of_string_opt (Filename.remove_extension f))
  else []

(* active/ and failed/ participate: a claimed or retired job's id must not
   be reissued while its journal entry is still alive. Directories are
   scanned in lifecycle order, so a job the daemon moves on mid-scan lands
   in a directory not yet read instead of one already passed. *)
let next_id dir =
  1
  + List.fold_left
      (fun acc d -> List.fold_left max acc (ids_in d))
      0
      [ inbox dir; active_dir dir; results dir; failed_dir dir; cancels dir ]

let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* Write-then-rename so readers never observe a partial file. With
   [durable], the data and both directories are fsynced around the rename —
   rename alone orders nothing on a real disk. *)
let atomic_write ?(durable = false) dir ~target content =
  let staging = Filename.concat (tmp dir) (Filename.basename target) in
  let oc = open_out staging in
  output_string oc content;
  if durable then begin
    flush oc;
    Unix.fsync (Unix.descr_of_out_channel oc)
  end;
  close_out oc;
  Sys.rename staging target;
  if durable then begin
    fsync_dir (Filename.dirname target);
    fsync_dir (tmp dir)
  end

let sweep_tmp ~dir =
  let d = tmp dir in
  if Sys.file_exists d && Sys.is_directory d then
    Array.fold_left
      (fun n f ->
        match Sys.remove (Filename.concat d f) with
        | () -> n + 1
        | exception Sys_error _ -> n)
      0 (Sys.readdir d)
  else 0

(* Staging names are unique per writer: the process id, then a counter
   for the writers inside one process. *)
let staged = Atomic.make 0

(* Two submitters can read the same [next_id]. Each stages its job under a
   name of its own and publishes it with [Unix.link], which fails with
   EEXIST where a rename would replace the other's file: the one that
   loses takes the next id. *)
let submit ?(durable = false) ~dir ~tenant spec =
  match encode ~tenant spec with
  | Error e -> Error e
  | Ok text ->
      init dir;
      let staging =
        Filename.concat (tmp dir)
          (Printf.sprintf "submit-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add staged 1))
      in
      Out_channel.with_open_bin staging (fun oc ->
          output_string oc text;
          if durable then begin
            flush oc;
            Unix.fsync (Unix.descr_of_out_channel oc)
          end);
      let rec publish floor =
        let n = max floor (next_id dir) in
        let id = Printf.sprintf "%06d" n in
        match Unix.link staging (Filename.concat (inbox dir) (id ^ ".job")) with
        | () -> id
        | exception Unix.Unix_error (Unix.EEXIST, _, _) -> publish (n + 1)
      in
      let id = Fun.protect ~finally:(fun () -> Sys.remove staging) (fun () -> publish 1) in
      if durable then begin
        fsync_dir (inbox dir);
        fsync_dir (tmp dir)
      end;
      Ok id

let read_file path = In_channel.with_open_bin path In_channel.input_all

let job_files d =
  if Sys.file_exists d && Sys.is_directory d then
    Sys.readdir d |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".job")
    |> List.sort compare
  else []

let pending_ids ~dir =
  let d = inbox dir in
  job_files d
  |> List.map (fun f ->
         let id = Filename.remove_extension f in
         (id, decode ~id (read_file (Filename.concat d f))))

let pending ~dir = List.map snd (pending_ids ~dir)

let in_inbox ~dir id =
  Sys.file_exists (Filename.concat (inbox dir) (id ^ ".job"))

let consume ~dir id =
  let path = Filename.concat (inbox dir) (id ^ ".job") in
  if Sys.file_exists path then Sys.remove path

let result_path dir id = Filename.concat (results dir) (id ^ ".json")

let read_result ~dir id =
  let path = result_path dir id in
  if Sys.file_exists path then Some (read_file path) else None

let write_result ?durable ~dir ~id line =
  init dir;
  Fault.crash_point "publish-pre";
  atomic_write ?durable dir ~target:(result_path dir id) (line ^ "\n");
  Fault.crash_point "publish-post"

let request_cancel ~dir id =
  if Sys.file_exists (result_path dir id) then false
  else begin
    init dir;
    atomic_write dir ~target:(Filename.concat (cancels dir) id) "cancel\n";
    true
  end

let cancel_requested ~dir id =
  Sys.file_exists (Filename.concat (cancels dir) id)

let clear_cancel ~dir id =
  let path = Filename.concat (cancels dir) id in
  if Sys.file_exists path then Sys.remove path

(* ---- the lifecycle journal -------------------------------------------- *)

type claim = { claim_pid : int; attempt : int; claimed_at_ms : int }

let now_ms () = int_of_float (Unix.gettimeofday () *. 1000.0)

let active_job_path dir id = Filename.concat (active_dir dir) (id ^ ".job")
let claim_path dir id = Filename.concat (active_dir dir) (id ^ ".claim")

let write_claim dir ~id c =
  atomic_write dir ~target:(claim_path dir id)
    (Printf.sprintf "pid=%d\nattempt=%d\nclaimed-at-ms=%d\n" c.claim_pid
       c.attempt c.claimed_at_ms)

let read_claim ~dir id =
  let path = claim_path dir id in
  if not (Sys.file_exists path) then None
  else
    let fields =
      String.split_on_char '\n' (read_file path)
      |> List.filter_map (fun line ->
             match String.index_opt line '=' with
             | None -> None
             | Some i ->
                 Some
                   ( String.sub line 0 i,
                     String.sub line (i + 1) (String.length line - i - 1) ))
    in
    let int_of k =
      Option.value ~default:0
        (Option.bind (List.assoc_opt k fields) int_of_string_opt)
    in
    Some
      {
        claim_pid = int_of "pid";
        attempt = int_of "attempt";
        claimed_at_ms = int_of "claimed-at-ms";
      }

let in_active ~dir id =
  if Sys.file_exists (active_job_path dir id) then
    match read_claim ~dir id with
    | Some c -> Some c
    | None -> Some { claim_pid = 0; attempt = 0; claimed_at_ms = 0 }
  else None

let claim ~dir ~pid id =
  let src = Filename.concat (inbox dir) (id ^ ".job") in
  if not (Sys.file_exists src) then false
  else begin
    Fault.crash_point "claim-pre";
    Sys.rename src (active_job_path dir id);
    write_claim dir ~id
      { claim_pid = pid; attempt = 1; claimed_at_ms = now_ms () };
    Fault.crash_point "claim-post";
    true
  end

let complete ~dir id =
  let job = active_job_path dir id in
  if Sys.file_exists job then Sys.remove job;
  let c = claim_path dir id in
  if Sys.file_exists c then Sys.remove c

let retire ~dir id =
  let job = active_job_path dir id in
  if Sys.file_exists job then begin
    mkdir_p (failed_dir dir);
    Sys.rename job (Filename.concat (failed_dir dir) (id ^ ".job"))
  end;
  let c = claim_path dir id in
  if Sys.file_exists c then Sys.remove c

let active ~dir =
  job_files (active_dir dir) |> List.map Filename.remove_extension

(* ---- daemon heartbeat ------------------------------------------------- *)

type heartbeat = {
  hb_pid : int;
  hb_state : string;
  hb_started_at_ms : int;
  hb_updated_at_ms : int;
}

let heartbeat_path dir = Filename.concat dir "daemon.json"

let write_heartbeat ~dir ~pid ~state ~started_at_ms =
  init dir;
  atomic_write dir ~target:(heartbeat_path dir)
    (Json.to_string
       (Json.Obj
          [ ("pid", Json.Int pid); ("state", Json.String state);
            ("started_at_ms", Json.Int started_at_ms); ("updated_at_ms", Json.Int (now_ms ())) ])
    ^ "\n")

let read_heartbeat ~dir =
  let path = heartbeat_path dir in
  if not (Sys.file_exists path) then None
  else
    let doc = Json.parse (read_file path) in
    let field k = Result.fold ~ok:(Json.member k) ~error:(fun _ -> None) doc in
    match (field "pid", field "state", field "started_at_ms", field "updated_at_ms") with
    | Some (Json.Int p), Some (Json.String s), Some (Json.Int a), Some (Json.Int u) ->
        Some { hb_pid = p; hb_state = s; hb_started_at_ms = a; hb_updated_at_ms = u }
    | _ -> None

let pid_alive pid =
  pid > 0
  &&
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
  | exception Unix.Unix_error _ -> false

(* ---- crash recovery --------------------------------------------------- *)

type recovered =
  | Replay of {
      id : string;
      entry : (entry, Qca_util.Error.t) result;
      attempt : int;
    }
  | Already_published of string
  | Poison of { id : string; attempts : int; tenant : string; label : string }
  | Busy of { id : string; owner : int }

let recover ~dir ~pid ~max_attempts =
  init dir;
  active ~dir
  |> List.map (fun id ->
         if read_result ~dir id <> None then begin
           (* The result is the commit point: a crash after publish but
              before journal cleanup must not re-execute the job. *)
           complete ~dir id;
           Already_published id
         end
         else
           match read_claim ~dir id with
           | Some c when pid_alive c.claim_pid && c.claim_pid <> pid ->
               (* A live daemon owns this claim (daemon.json names it too):
                  stealing it would run the job twice. *)
               Busy { id; owner = c.claim_pid }
           | claim_opt ->
               let attempts =
                 match claim_opt with Some c -> c.attempt | None -> 0
               in
               let text = read_file (active_job_path dir id) in
               if attempts + 1 > max_attempts then begin
                 let tenant, label =
                   match decode ~id text with
                   | Ok e -> (e.tenant, e.spec.Job_spec.label)
                   | Error _ -> ("unknown", "?")
                 in
                 retire ~dir id;
                 Poison { id; attempts; tenant; label }
               end
               else begin
                 write_claim dir ~id
                   {
                     claim_pid = pid;
                     attempt = attempts + 1;
                     claimed_at_ms = now_ms ();
                   };
                 Replay { id; entry = decode ~id text; attempt = attempts + 1 }
               end)
