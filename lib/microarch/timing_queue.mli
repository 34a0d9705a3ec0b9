(** Per-channel timing queues (the "queues" block of Figures 5-7).

    Micro-operations are enqueued with absolute nanosecond trigger times;
    the queue drains them in time order and tracks occupancy statistics and
    timing violations (an event issued for a time already in the past —
    section 3.1's "precise up to the nanosecond" requirement). *)

type event = { time_ns : int; micro_op : Microcode.micro_op }

type t

val create : channel:int -> t

val push : t -> Microcode.micro_op -> unit
(** Enqueue; records a violation if the op's trigger time precedes the last
    drained event on this channel. *)

val drain_until : t -> int -> event list
(** Pop all events with [time_ns <= deadline], in time order. *)

val drain_all : t -> event list

val pending : t -> int
val peak_depth : t -> int
(** Maximum number of simultaneously queued events seen. *)

val violations : t -> int

type pool
(** One queue per channel. *)

val create_pool : channels:int -> pool
val queue : pool -> int -> t
val push_pool : pool -> Microcode.micro_op -> unit
val drain_pool_until : pool -> int -> int
(** Release every event due by the deadline across all queues (the
    controller calls this as the timing grid advances); returns how many
    events fired. *)

val pool_stats : pool -> int * int * int
(** (total events, peak depth over all queues, total violations). *)
