(** Unboxed 2x2 and 4x4 complex matrices for the optimizer's inner loops.

    A matrix is one flat float array, row-major with real and imaginary
    parts interleaved, so products, phase comparisons and factorisations
    allocate no complex number per entry. Each function performs the
    float operations of its {!Qca_util.Matrix}/[Complex] counterpart in
    the same order, so every result is bit-identical to the boxed
    computation, NaN and signed zeros included. *)

type t
(** A 2x2 or 4x4 complex matrix. *)

val of_matrix : Qca_util.Matrix.t -> t
(** Raises [Invalid_argument] unless the matrix is 2x2 or 4x4. *)

val dim : t -> int
(** 2 or 4. *)

val re : t -> int -> int -> float
val im : t -> int -> int -> float

val identity4 : t

val mul : t -> t -> t
(** {!Qca_util.Matrix.mul}; both of one size. *)

val adjoint : t -> t
(** {!Qca_util.Matrix.adjoint}. *)

val of_gates2 : Qca_circuit.Gate.t list -> t
(** The 4x4 unitary of a gate list on wires 0 and 1 (qubit 0 is the
    least-significant bit): [Circuit.unitary_matrix (Circuit.of_list 2
    gates)], including its [Invalid_argument]s. *)

val product1 : Qca_circuit.Gate.t list -> t
(** The 2x2 product of a run of single-qubit unitaries, the list's first
    gate applied first: the fold of [Matrix.mul (Gate.matrix u)] from the
    identity. Non-unitary instructions are skipped. *)

val equal_up_to_phase : eps:float -> t -> t -> bool
(** {!Qca_util.Matrix.equal_up_to_phase}. *)

val local_factors : t -> (t * t) option
(** If a 4x4 [m] is a scalar multiple of [B ⊗ A] (A acting on qubit 0, B
    on qubit 1), [Some (A, B)], each factor up to a complex scale; the
    reconstruction from the largest-modulus entry must match [m] within
    1e-7. Raises [Invalid_argument] unless [m] is 4x4. *)

val zyz_angles : t -> float * float * float
(** [(alpha, beta, gamma)] with [U ≃ Rz(alpha)·Ry(beta)·Rz(gamma)] up to
    global phase, for any nonzero multiple of a 2x2 unitary. Raises
    [Invalid_argument] unless [m] is 2x2. *)
