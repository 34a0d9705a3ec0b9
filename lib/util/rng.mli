(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the library takes an explicit [Rng.t] so
    that experiments and tests are reproducible bit-for-bit. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from a 63-bit seed. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val streams : t -> int -> t array
(** [streams t k] derives [k] independent generators by splitting [t] once
    per stream, in index order. Because each stream costs exactly one parent
    draw, deriving [k] streams in one call is bit-identical to deriving them
    window-by-window from the same parent — the engine relies on this to
    keep sliced, sequential and parallel shot execution interchangeable. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound); requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val below_half : t -> bool
(** [below_half t] is [float t 1.0 < 0.5], drawn the same way and leaving
    [t] in the same state, without computing the float. *)

val skip : t -> int -> unit
(** [skip t k] leaves [t] where [k] draws ([bits64], [float], [int],
    [bool], [below_half] each take one) would, in O(1) time; requires
    [k >= 0]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val threshold : float -> int
(** [threshold p] is [ceil (p * 2^53)], clamped to [[0, 2^53]] (0 for
    NaN): the integer form of [p] that {!below} compares against. *)

val below : t -> int -> bool
(** [below t (threshold p)] is [bernoulli t p], for every float [p]
    (0, 1, NaN, subnormals and out-of-range values included), drawn the
    same way and leaving [t] in the same state, with an integer compare
    of the draw's 53-bit mantissa instead of a float. *)

val gaussian : t -> float
(** Standard normal deviate (Box-Muller). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_weighted : t -> float array -> int
(** [choose_weighted t w] draws index [i] with probability proportional to
    [w.(i)]; weights must be non-negative with a positive sum. *)
