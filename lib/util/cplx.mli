(** Helpers over [Stdlib.Complex] for quantum amplitudes. *)

type t = Complex.t

val zero : t
val one : t
val i : t

val make : float -> float -> t
(** [make re im]. *)

val re : t -> float
val im : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val conj : t -> t
val scale : float -> t -> t

val cis : float -> t
(** [cis theta] is [exp (i * theta)]. *)

val norm2 : t -> float
(** Squared modulus. *)

val abs : t -> float
(** Modulus. *)

val approx_equal : ?eps:float -> t -> t -> bool
(** Component-wise comparison with tolerance (default 1e-9). *)
