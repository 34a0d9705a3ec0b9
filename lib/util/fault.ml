type site =
  | Microcode_lookup
  | Pulse_dropout
  | Queue_overflow
  | Channel_loss
  | Backend_transient

let all_sites =
  [ Microcode_lookup; Pulse_dropout; Queue_overflow; Channel_loss; Backend_transient ]

let site_index = function
  | Microcode_lookup -> 0
  | Pulse_dropout -> 1
  | Queue_overflow -> 2
  | Channel_loss -> 3
  | Backend_transient -> 4

let site_label = function
  | Microcode_lookup -> "microcode-lookup"
  | Pulse_dropout -> "pulse-dropout"
  | Queue_overflow -> "queue-overflow"
  | Channel_loss -> "channel-loss"
  | Backend_transient -> "backend-transient"

type spec = {
  microcode_miss : float;
  pulse_dropout : float;
  queue_overflow : float;
  channel_loss : float;
  backend : float;
}

let off =
  {
    microcode_miss = 0.0;
    pulse_dropout = 0.0;
    queue_overflow = 0.0;
    channel_loss = 0.0;
    backend = 0.0;
  }

let uniform p =
  if p < 0.0 || p > 1.0 then invalid_arg "Fault.uniform: rate must be in [0, 1]";
  {
    microcode_miss = p;
    pulse_dropout = p;
    queue_overflow = p;
    channel_loss = p;
    backend = p;
  }

type t = { spec : spec; rng : Rng.t; counts : int array }

let default_seed = 0xFA17

let make ?(seed = default_seed) spec =
  { spec; rng = Rng.create seed; counts = Array.make (List.length all_sites) 0 }

let rate t = function
  | Microcode_lookup -> t.spec.microcode_miss
  | Pulse_dropout -> t.spec.pulse_dropout
  | Queue_overflow -> t.spec.queue_overflow
  | Channel_loss -> t.spec.channel_loss
  | Backend_transient -> t.spec.backend

let enabled t = List.exists (fun s -> rate t s > 0.0) all_sites

(* A zero-rate site consumes no randomness, so an all-zero injector is
   bit-identical to running with no injector at all. *)
let fires t site =
  let p = rate t site in
  p > 0.0
  && Rng.bernoulli t.rng p
  &&
  (t.counts.(site_index site) <- t.counts.(site_index site) + 1;
   true)

let counts t =
  List.filter_map
    (fun site ->
      let n = t.counts.(site_index site) in
      if n > 0 then Some (site_label site, n) else None)
    all_sites

let total t = Array.fold_left ( + ) 0 t.counts

(* ---- deterministic chaos kill points ---------------------------------- *)

let crash_exit_code = 70

let parse_crash_at v =
  match String.index_opt v ':' with
  | None -> if v = "" then None else Some (v, 1)
  | Some i ->
      let site = String.sub v 0 i in
      let k = String.sub v (i + 1) (String.length v - i - 1) in
      if site = "" then None
      else Some (site, max 1 (Option.value ~default:1 (int_of_string_opt k)))

(* One ref read on the (overwhelmingly common) disabled path: the guarantee
   that leaving crash_point calls plumbed into the spool and scheduler is
   free (the bench guard pins the disabled cost under 5% of a cache-hot
   service slice). *)
let crash_target : (string * int) option ref =
  ref
    (match Sys.getenv_opt "QCA_CRASH_AT" with
    | None -> None
    | Some v -> parse_crash_at v)

let set_crash_at target = crash_target := target

let crash_hits : (string, int) Hashtbl.t = Hashtbl.create 4

let crash_point site =
  match !crash_target with
  | None -> ()
  | Some (s, k) ->
      if String.equal s site then begin
        let n =
          1 + Option.value ~default:0 (Hashtbl.find_opt crash_hits site)
        in
        Hashtbl.replace crash_hits site n;
        if n >= k then begin
          Printf.eprintf "qca: chaos: crashing at %s (hit %d)\n%!" site n;
          Stdlib.exit crash_exit_code
        end
      end
