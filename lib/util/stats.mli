(** Descriptive statistics and curve fits for experiment reporting. *)

val mean : float array -> float
(** Arithmetic mean (0 for the empty array). *)

val variance : float array -> float
(** Unbiased sample variance (0 for fewer than two samples). *)

val stddev : float array -> float
(** [sqrt (variance xs)]. *)

val minimum : float array -> float
(** Smallest element ([infinity] for the empty array). *)

val maximum : float array -> float
(** Largest element ([neg_infinity] for the empty array). *)

val histogram : bins:int -> lo:float -> hi:float -> float array -> int array
(** Counts per equal-width bin; values outside [lo, hi) are clamped to the
    edge bins. *)

val linear_fit : (float * float) array -> float * float
(** Least-squares [(slope, intercept)] fit of y = slope x + intercept. *)

val exponential_decay_fit : (float * float) array -> float * float
(** Fit y = a * p^x for positive y by linear regression in log space;
    returns [(a, p)]. Used for randomised-benchmarking decay extraction. *)
