(** Zero-dependency span/counter tracing for the whole execution stack.

    Every layer of the stack — compiler passes, the execution engine's
    plan/evolve/sample phases, the QX apply loops, the micro-architecture
    controller — carries tracing hooks built on this module. The design
    goal is that the hooks are {e always compiled in} and {e free when
    disabled}: with no sink installed (the default), every entry point
    reduces to one branch on a [ref] read, no allocation, and no RNG
    interaction, so traced and untraced runs are bit-identical
    ([dune exec bench/main.exe -- trace] measures the disabled-path cost;
    [BENCH_trace.json] checks it against a 3% threshold).

    {2 Model}

    - A {e span} is a named, nested interval of work. It records a
      wall-clock duration read from {!Clock.now} (monotonic, so it counts
      time spent blocked and is elapsed time, not the CPU seconds of every
      domain summed), an optional {e simulated-nanosecond} duration
      (the micro-architecture's timing-grid time, unrelated to host time),
      and ordered key/value {e attributes} ([gates_in=7],
      [plan="sampled"], ...).
    - A {e counter} is a named monotonic tally global to the collector
      ([qx.apply.h], [microarch.pulse], ...), incremented from hot loops.
    - A {e sink} receives spans and counters. The default sink is a no-op;
      {!collecting} (or {!install}) attaches a {!collector} that retains
      the span tree for export.

    Spans nest by dynamic scope: a span begun while another is open becomes
    its child. {!with_span} is the safe surface (closes on exception);
    {!begin_span}/{!end_span} exist for spans that cross function
    boundaries. The per-layer instrumentation map and output formats are
    documented in [docs/observability.md]. *)

type value =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool  (** Attribute values (rendered in both exporters). *)

val value_to_string : value -> string
(** Unquoted rendering, e.g. [Int 7 -> "7"], [String "x" -> "x"]. *)

type span
(** A handle to an open span. When tracing is disabled the handle is a
    constant and every operation on it is a no-op. *)

val null_span : span
(** The disabled handle ({!begin_span}'s result when no sink is
    installed). Safe to end, annotate, or ignore. *)

(** {2 Recording} *)

val enabled : unit -> bool
(** Whether a sink is installed. Hot paths guard any argument
    construction (string concatenation, gate counting) behind this so the
    disabled path computes nothing. *)

val begin_span : ?attrs:(string * value) list -> string -> span
(** Open a span as a child of the innermost open span (or as a root).
    No-op returning {!null_span} when disabled. *)

val end_span : ?attrs:(string * value) list -> span -> unit
(** Close a span, appending [attrs] (closing-time facts: gate counts out,
    degradation events). Closing a span that is not the innermost first
    closes any still-open descendants (defensive: a skipped [end_span]
    cannot corrupt the tree). Ending {!null_span} or an already-closed
    span is a no-op. *)

val with_span :
  ?attrs:(string * value) list -> string -> (span -> 'a) -> 'a
(** [with_span name f] runs [f] inside a fresh span, closing it when [f]
    returns {e or raises}. The span handle is passed to [f] for
    {!add_attr}/{!annotate}/{!set_sim_ns}. When disabled, [f] receives
    {!null_span} and the only cost is the [enabled] branch. *)

val add_attr : span -> string -> value -> unit
(** Append one attribute to an open span (no-op when closed/disabled). *)

val annotate : span -> (unit -> (string * value) list) -> unit
(** Lazy {!add_attr}: the thunk runs only when the span is live, so
    attribute computation (e.g. a gate-count walk) costs nothing when
    tracing is disabled. *)

val set_sim_ns : span -> int -> unit
(** Record the span's duration on the {e simulated} clock (nanoseconds on
    the micro-architecture timing grid). Independent of wall time. *)

val add_counter : string -> int -> unit
(** Add to a named counter (created at zero on first use). Guard the name
    construction behind {!enabled} in hot loops. *)

(** {2 Collecting} *)

type node = {
  span_name : string;
  start_s : float;  (** {!Clock.now} at the start, seconds. *)
  wall_s : float;  (** Monotonic wall-clock duration, seconds. *)
  sim_ns : int option;  (** Simulated-clock duration, when recorded. *)
  attrs : (string * value) list;  (** In insertion order. *)
  children : node list;  (** In execution order. *)
}
(** One completed span. *)

type collector
(** A sink that retains completed spans and counter totals. *)

val make_collector : unit -> collector

val install : collector -> unit
(** Make [c] the global sink. Replaces any previous sink. *)

val uninstall : unit -> unit
(** Restore the no-op sink (open spans in the old collector are closed
    first, so its tree is complete). *)

val collecting : collector -> (unit -> 'a) -> 'a
(** [collecting c f]: {!install} [c], run [f], {!uninstall} — also on
    exception. *)

val roots : collector -> node list
(** Completed top-level spans, in execution order. *)

val counters : collector -> (string * int) list
(** Counter totals, sorted by name. *)

val event_count : collector -> int
(** Total recording operations absorbed (span opens + closes + counter
    increments + attribute writes): the hook count a disabled run would
    have branched on, used by the overhead benchmark. *)

(** {2 Exporters} *)

val to_tree_string : ?show_wall:bool -> collector -> string
(** Human-readable span tree, one line per span —
    [- name key=value ... \[0.123ms\]] — followed by a [counters:]
    section. Runs of same-named sibling spans (e.g. one
    [microarch.session] per shot) collapse into one [name xN] line whose
    integer attributes and sim-ns are summed. [show_wall] (default true)
    controls the trailing wall-time bracket; attribute and counter output
    is deterministic for seeded runs. *)

val to_chrome_json : collector -> string
(** Chrome [trace_event]-format JSON (one object with a [traceEvents]
    array): spans as complete ("ph":"X") events with microsecond
    timestamps relative to the first span, attributes (non-finite floats
    as null) and sim-ns under ["args"]; counters as one final counter
    ("ph":"C") event each; one event per line. Loads in Perfetto. *)
