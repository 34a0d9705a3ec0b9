(** Minimum-weight lookup decoder.

    Built by enumerating Pauli errors in order of increasing weight and
    recording the first (hence minimal-weight) error producing each
    syndrome — exact minimum-weight decoding for the small codes here. *)

type t

val build : ?max_weight:int -> Code.t -> t
(** Enumerate errors up to [max_weight] (default: the code distance). *)

val correction : t -> int -> Pauli.t
(** Correction operator for a syndrome; the identity for syndrome 0 or for
    syndromes outside the table (heralded failure). *)

val decode_outcome : Code.t -> t -> Pauli.t -> [ `None | `X | `Z | `Y ]
(** Full cycle on a given data error: syndrome, correction, classify the
    residual's logical effect. [`None] means successful correction. *)

val logical_error_rate :
  ?trials:int ->
  rng:Qca_util.Rng.t ->
  Code.t ->
  t ->
  physical_error:float ->
  float
(** Monte-Carlo code-capacity logical error rate under iid depolarising
    noise at the given physical rate. *)

val logical_error_rate_with_measurement :
  ?trials:int ->
  ?rounds:int ->
  rng:Qca_util.Rng.t ->
  Code.t ->
  t ->
  physical_error:float ->
  measurement_error:float ->
  float
(** Repeated syndrome extraction with faulty measurements: each round's
    syndrome bits flip independently with [measurement_error]; the decoder
    acts on the majority-vote syndrome over [rounds] (default 3). *)
