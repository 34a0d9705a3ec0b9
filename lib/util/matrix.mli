(** Small dense complex matrices: gate unitaries and Kraus operators. *)

type t
(** Immutable complex matrix. *)

val make : int -> int -> (int -> int -> Cplx.t) -> t
(** [make rows cols f] fills entry (r, c) with [f r c]. *)

val of_arrays : Cplx.t array array -> t
(** From a rectangular row-major array of rows. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Cplx.t

val identity : int -> t
val zero : int -> int -> t

val add : t -> t -> t
val mul : t -> t -> t
val scale : Cplx.t -> t -> t
val kron : t -> t -> t
(** Kronecker (tensor) product. *)

val adjoint : t -> t
(** Conjugate transpose. *)

val trace : t -> Cplx.t

val apply : t -> Cplx.t array -> Cplx.t array
(** Matrix-vector product. *)

val approx_equal : ?eps:float -> t -> t -> bool

val equal_up_to_phase : ?eps:float -> t -> t -> bool
(** True when [a = exp(i phi) b] for some global phase [phi]. *)

val is_unitary : ?eps:float -> t -> bool
