(** File-based submit/status/cancel protocol between [qxc] and [qxd],
    with a durable lifecycle journal.

    No network: a spool directory is the queue. [qxc submit] drops a job
    file into [DIR/inbox] (written to [DIR/tmp] first, then renamed, so
    the daemon never sees a partial file); [qxd serve] {!claim}s inbox
    entries into [DIR/active] (the journal: the job file plus a [.claim]
    sidecar carrying the daemon pid, attempt count and claim time), feeds
    them to {!Service}, and writes one JSON line per job to
    [DIR/results/<id>.json] before clearing the journal entry; [qxc
    cancel] drops a marker into [DIR/cancel]. A daemon crash leaves the
    claimed job in [active/]; on restart {!recover} re-executes it —
    bit-identical to an uncrashed run, because specs are fully seeded —
    or retires it to [DIR/failed] once it exhausts the attempt cap.
    Everything is plain text so a spool survives inspection and
    hand-editing ([docs/service.md] documents the format and the
    journal's state machine). *)

(** The lifecycle, as directories ([docs/service.md]):

    {v
    inbox/   submitted, unclaimed            (qxc submit)
    active/  claimed by a daemon, running    (journal: .job + .claim)
    results/ terminal: one JSON line         (the commit point)
    failed/  terminal: poison, attempt cap   (crash-looping job files)
    cancel/  cancellation markers            (cleared once consumed)
    tmp/     staging for atomic renames      (swept at daemon startup)
    v}

    A job file is a [key=value] header, a [---] separator, then the cQASM
    program:

    {v
    tenant=alice
    label=bell
    shots=1000
    seed=7
    ---
    version 1.0
    qubits 2
    ...
    v}

    Header keys mirror {!Qca.Job_spec.t} (and the [qxc] flags):
    [tenant], [label], [shots], [seed], [noise], [trajectory], [fusion],
    [fault-rate], [fault-seed], [max-retries], [priority], and the route
    triple [platform]/[mode]/[ladder] ([platform] absent means the direct
    engine route). Unknown keys are a structured error, not a warning. *)

type entry = {
  entry_id : string;  (** Zero-padded sequence number, e.g. ["000007"]. *)
  tenant : string;
  spec : Qca.Job_spec.t;
}

(** {2 Shared name parsing}

    One vocabulary for platform/mode names across [qxc] flags, [qxd]
    flags and spool headers. *)

val platform_of_string :
  string -> int -> (Qca_compiler.Platform.t, string) result
(** [platform_of_string name qubits]: [superconducting],
    [semiconducting] or [perfect] (sized to [qubits]). *)

val mode_of_string : string -> (Qca_compiler.Compiler.mode, string) result

val technology_of_platform : string -> Qca_microarch.Controller.technology
(** The micro-architecture configuration conventionally paired with a
    platform name ([semiconducting] or the superconducting default). *)

val route_of_names :
  ?router:Qca_compiler.Mapping.strategy ->
  platform:string option ->
  mode:string ->
  ladder:bool ->
  qubits:int ->
  unit ->
  (Qca.Job_spec.route, string) result
(** The route a [--platform]/[--mode]/[--ladder] flag triple denotes:
    [None] platform is the direct engine route; Real mode picks up the
    platform's paired technology. [router] (default
    {!Qca_compiler.Mapping.default_strategy}) is the [--route] routing
    strategy. *)

(** {2 Spool directories} *)

val init : string -> unit
(** Create the spool skeleton ([inbox/], [active/], [results/],
    [failed/], [cancel/], [tmp/]); idempotent. *)

val sweep_tmp : dir:string -> int
(** Remove stale staging files left in [tmp/] by a crashed writer,
    returning how many were removed. Called at daemon startup — never
    concurrently with live submitters. *)

val submit :
  ?durable:bool ->
  dir:string ->
  tenant:string ->
  Qca.Job_spec.t ->
  (string, Qca_util.Error.t) result
(** Serialise a spec into [inbox/], returning the new job id. The payload
    is resolved first (a spec that cannot run is rejected at submit
    time). With [~durable:true] the job file and the directories around
    the rename are fsynced, so the submission survives power loss —
    rename-without-fsync alone does not (default [false]: tests and
    benches stay fast). *)

val pending : dir:string -> (entry, Qca_util.Error.t) result list
(** Inbox entries in id order; a malformed file surfaces as its own
    [Error] (the daemon rejects it without stopping the queue). *)

val pending_ids : dir:string -> (string * (entry, Qca_util.Error.t) result) list
(** Like {!pending}, but each entry is paired with the id derived from
    its filename — available even when decoding failed, so the daemon
    can claim and reject a malformed file instead of leaving it queued
    forever. *)

val in_inbox : dir:string -> string -> bool
(** The job file is still waiting in the inbox. *)

val consume : dir:string -> string -> unit
(** Remove a job file from the inbox without journaling it. Retained for
    tests and one-shot tooling; the daemon uses {!claim} so a crash can
    never lose the job. *)

val request_cancel : dir:string -> string -> bool
(** Drop a cancel marker for a job id. [false] when the job already has a
    result (too late to cancel). *)

val cancel_requested : dir:string -> string -> bool

val clear_cancel : dir:string -> string -> unit
(** Remove a consumed cancel marker (after the cancellation has been
    published) so markers do not accumulate in [cancel/]. *)

val write_result :
  ?durable:bool -> dir:string -> id:string -> string -> unit
(** Publish a job's one-line JSON result (atomic rename, like {!submit};
    same [durable] semantics). The result file is the job's {e commit
    point}: once it exists the job is terminal, and recovery will never
    re-execute it. Kill sites [publish-pre]/[publish-post] surround the
    write ({!Qca_util.Fault.crash_point}). *)

val read_result : dir:string -> string -> string option

(** {2 The lifecycle journal} *)

type claim = {
  claim_pid : int;  (** Daemon that claimed the job. *)
  attempt : int;  (** 1 on first claim; bumped by {!recover}. *)
  claimed_at_ms : int;  (** Unix epoch milliseconds. *)
}

val claim : dir:string -> pid:int -> string -> bool
(** Atomically move a job from [inbox/] to [active/] and journal the
    claim. [false] when the job is no longer in the inbox. Kill sites:
    [claim-pre] (before the rename — the job survives in the inbox) and
    [claim-post] (after — the job survives in the journal). *)

val complete : dir:string -> string -> unit
(** Remove a job's journal entry (after its result was published or its
    cancellation recorded); idempotent. *)

val retire : dir:string -> string -> unit
(** Move a journaled job file to [failed/] and drop its claim: the
    resting place of poison jobs that crash the daemon on every
    attempt. *)

val active : dir:string -> string list
(** Ids currently journaled in [active/], in id order. *)

val in_active : dir:string -> string -> claim option
(** The job's claim, if it is journaled ([attempt = 0] when the claim
    sidecar is missing — a crash landed between rename and claim
    write). *)

val read_claim : dir:string -> string -> claim option

type recovered =
  | Replay of {
      id : string;
      entry : (entry, Qca_util.Error.t) result;
      attempt : int;
    }
      (** Orphaned: re-claimed by this daemon ([attempt] already bumped);
          re-execute it. Fully-seeded specs make the replay bit-identical
          to the run the crash destroyed. *)
  | Already_published of string
      (** The crash hit after the result write but before journal
          cleanup; the journal entry has been cleared, nothing runs. *)
  | Poison of { id : string; attempts : int; tenant : string; label : string }
      (** The job exhausted the attempt cap; its file has been moved to
          [failed/]. The caller publishes a structured
          {!Qca_util.Error.Crash_loop} result. *)
  | Busy of { id : string; owner : int }
      (** A live daemon (per its claim pid) still owns the job; left
          untouched. *)

val recover :
  dir:string -> pid:int -> max_attempts:int -> recovered list
(** Walk [active/] in id order and classify every journal entry, taking
    the recovery action described on each constructor. Crash-safe to
    crash again during: every step is an atomic rename or remove. *)

(** {2 Daemon heartbeat} *)

type heartbeat = {
  hb_pid : int;
  hb_state : string;  (** ["serving"], ["draining"], ["drained"], ... *)
  hb_started_at_ms : int;
  hb_updated_at_ms : int;
}

val write_heartbeat :
  dir:string -> pid:int -> state:string -> started_at_ms:int -> unit
(** Atomically (re)write [DIR/daemon.json]. *)

val read_heartbeat : dir:string -> heartbeat option

val pid_alive : int -> bool
(** Whether a process with this pid exists ([kill 0] probe). *)

val now_ms : unit -> int
(** Unix epoch milliseconds (the clock used by claims/heartbeats). *)

(** {2 Serialisation} (exposed for tests) *)

val encode : tenant:string -> Qca.Job_spec.t -> (string, Qca_util.Error.t) result
val decode : id:string -> string -> (entry, Qca_util.Error.t) result
