(** The one clock every timer in the stack reads.

    {!now} is a monotonic wall clock ([clock_gettime(CLOCK_MONOTONIC)]
    through [bechamel.monotonic_clock], a [noalloc] stub): it counts
    elapsed time, including time spent blocked (sleep, fsync), however
    many domains run meanwhile, and it never steps when the system clock
    is set. Differences of two readings are durations in seconds;
    a single reading has no calendar meaning and must not be persisted or
    compared across processes (the spool's epoch timestamps use
    [Unix.gettimeofday] for that reason). *)

val now : unit -> float
(** Seconds since an arbitrary fixed origin (boot on Linux). *)
