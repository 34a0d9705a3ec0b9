(** Shared domain pool for data-parallel kernels (OCaml 5 [Domain]s).

    The pool runs {e chunked parallel-for} loops with {b fixed chunk
    boundaries}: the index range [0, length) is cut into chunks of
    {!chunk_size} items regardless of how many domains execute them, and
    each chunk is processed left-to-right by exactly one domain. A kernel
    whose chunks touch disjoint state (every QX amplitude kernel does)
    therefore performs {e the same floating-point operations on the same
    elements in the same per-element order} as a sequential run — results
    are bit-identical whatever [QCA_DOMAINS] says. Reductions do not have
    this property and must stay sequential; see [docs/performance.md].

    Worker domains are spawned lazily on the first parallel dispatch, kept
    alive for reuse, and joined by an [at_exit] hook.

    {2 Configuration}

    - [QCA_DOMAINS] — total domains used per loop, caller included
      (default: [Domain.recommended_domain_count ()], capped at 64).
      [QCA_DOMAINS=1] disables the parallel path entirely.
    - [QCA_PARALLEL_THRESHOLD] — minimum qubit count before the state-vector
      layer considers parallel dispatch (default 18). The threshold gate
      lives in the caller ({!threshold_qubits} is read by [Qx.State]);
      {!for_range} itself only checks domain count and range length. *)

val chunk_size : int
(** Items per chunk (16384). Chunk [c] always covers indices
    [c * chunk_size, min ((c+1) * chunk_size, length)); boundaries never
    depend on the domain count. *)

val domain_count : unit -> int
(** Domains used per parallel loop (caller included). *)

val set_domain_count : int -> unit
(** Override {!domain_count} (clamped to [1, 64]); primarily for tests and
    benchmarks. Already-spawned workers are kept (the pool only grows). *)

val threshold_qubits : unit -> int
(** Qubit count below which [Qx.State] keeps every kernel sequential. *)

val set_threshold_qubits : int -> unit
(** Override {!threshold_qubits} (tests/benchmarks). *)

val available : unit -> bool
(** [domain_count () > 1]. *)

val for_range : int -> (int -> int -> unit) -> unit
(** [for_range length f] runs [f lo hi] over half-open sub-ranges that
    exactly cover [0, length). Sequential ([f 0 length]) when the pool has
    one domain, when [length < 2 * chunk_size], or when called from inside
    a parallel section; otherwise the fixed chunks are claimed by the pool.
    [f] must only write state owned by its index range. Exceptions raised
    by [f] are re-raised in the caller (first one wins). *)

val for_tasks : ?chunk:int -> int -> (int -> int -> unit) -> unit
(** [for_tasks ?chunk length f] is {!for_range} for coarse work items
    (shots, jobs) rather than amplitudes: the range is claimed in chunks of
    [chunk] items (default 16, clamped to at least 1), so even a few hundred
    items spread across the pool. Chunk boundaries depend only on [length]
    and [chunk], never on the domain count, preserving the determinism
    contract. Sequential ([f 0 length]) when the pool has one domain, when
    [length <= chunk], or when called from inside a parallel section. [f]
    must only write state owned by its index range; each chunk is executed
    left-to-right by exactly one domain, so per-chunk scratch (one
    simulator instance reused across the chunk's items) is safe. *)

val dispatch_count : unit -> int
(** Number of parallel dispatches performed so far (sequential fallbacks
    not counted) — lets tests assert the parallel path stayed off below
    the qubit threshold. *)
