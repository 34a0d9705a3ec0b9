(** Deterministic, seeded fault injection for the execution stack.

    An injector draws from its own {!Rng.t} stream (independent of the
    simulation RNG) so that enabling faults never perturbs the quantum
    randomness, and a given seed + spec reproduces the exact same fault
    pattern. A site with rate [0.0] consumes no randomness at all, so an
    all-zero injector is bit-identical to running without one — the
    "resilience off means no behaviour change" guarantee.

    Sites model controller-level classical failures (see
    [docs/resilience.md] for the taxonomy):

    - {!Microcode_lookup}: the micro-code unit misses a mnemonic.
    - {!Pulse_dropout}: the ADI drops a pulse on the way to the AWG.
    - {!Queue_overflow}: a per-channel timing queue overflows.
    - {!Channel_loss}: a measurement result never arrives.
    - {!Backend_transient}: the whole execution backend hiccups for a shot. *)

type site =
  | Microcode_lookup
  | Pulse_dropout
  | Queue_overflow
  | Channel_loss
  | Backend_transient

type spec = {
  microcode_miss : float;
  pulse_dropout : float;
  queue_overflow : float;
  channel_loss : float;
  backend : float;
}
(** Per-site fire probabilities, each in [0, 1]. *)

val off : spec
(** All rates zero. *)

val uniform : float -> spec
(** Same rate at every site; raises [Invalid_argument] outside [0, 1]. *)

type t
(** A seeded injector with per-site fire counters. *)

val default_seed : int
(** Seed used by {!make} when none is given (and by [qxc --fault-seed]'s
    default). *)

val make : ?seed:int -> spec -> t
(** Fresh injector with zeroed counters; equal seed + spec gives an
    identical fault pattern. *)

val enabled : t -> bool
(** Whether any site has a positive rate. *)

val fires : t -> site -> bool
(** Draw once at the site's rate and count a fire. Zero-rate sites return
    [false] without consuming randomness. *)

val counts : t -> (string * int) list
(** Cumulative fires per site label (sites that never fired omitted). *)

val total : t -> int
(** Total fires across all sites. *)

(** {2 Deterministic chaos kill points}

    Whereas an injector perturbs {e results}, a kill point kills the
    {e process}: [QCA_CRASH_AT=site:k] in the environment makes the [k]-th
    {!crash_point} hit of the named site abort the process with exit code
    70 ([EX_SOFTWARE]), leaving the filesystem exactly as it was at that
    instant. The spool and scheduler are instrumented at the sites
    [claim-pre], [claim-post], [slice], [publish-pre] and [publish-post]
    (taxonomy in [docs/resilience.md]); the chaos cram harness loops
    submit → crash → restart over every site and checks that recovery is
    bit-identical to an uncrashed run ([docs/service.md]).

    With no target configured, {!crash_point} is one ref read — safe to
    leave plumbed into hot paths. *)

val crash_point : string -> unit
(** Count a hit of [site]; abort the process when the configured target's
    hit count is reached. No-op when chaos is off. *)

val set_crash_at : (string * int) option -> unit
(** Override the target parsed from [QCA_CRASH_AT] (tests/bench). *)
