(** State-vector backend of the QX simulator.

    Amplitudes are stored little-endian: qubit 0 is the least-significant bit
    of the basis index, matching {!Qca_circuit.Circuit.unitary_matrix}.

    {2 The kernel layer}

    Every gate is dispatched to a mask-specialised kernel: single-qubit
    phases touch only the dim/2 affected amplitudes, controlled gates
    enumerate only their control-set subspace (dim/4 for CNOT/CZ, dim/8
    for Toffoli), and Rz is a single branching sweep. Element-wise kernels
    run on the {!Qca_util.Parallel} domain pool when the state is at or
    above [Parallel.threshold_qubits] — with fixed chunk boundaries, so
    parallel results are bit-identical to sequential ones. Fused kernels
    ({!apply_fused1q}, {!apply_diag_plan}) execute a run of gates in one
    sweep and are bit-identical to applying the run gate by gate (loop
    fusion: same floating-point operations in the same per-element order).
    See [docs/performance.md]. *)

type t

val create : int -> t
(** [create n] is |0...0> on [n] qubits. Raises for n < 1 or n > 30. *)

val qubit_count : t -> int
val dimension : t -> int

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst]'s amplitudes with [src]'s; the qubit counts must match. *)

val reset : t -> unit
(** Back to |0...0>, in place. *)

val of_amplitudes : Qca_util.Cplx.t array -> t
(** Length must be a power of two; the vector is normalised on entry. *)

val widen : t -> qubit_count:int -> int array -> t
(** [widen s ~qubit_count positions] places qubit [i] of [s] at qubit
    [positions.(i)] of a [qubit_count]-qubit register whose other qubits
    are |0>. The amplitudes are copied exactly, with no renormalisation. *)

val amplitude : t -> int -> Qca_util.Cplx.t

val probabilities : t -> float array
(** Full measurement distribution (length [dimension]). *)

val probability_of : t -> int -> float
(** Probability of one basis state. *)

val norm : t -> float
(** 2-norm (1.0 for a valid state). *)

val normalize : t -> unit

val apply : t -> Qca_circuit.Gate.unitary -> int array -> unit
(** Apply a gate in place; operands as in {!Qca_circuit.Gate.t}. *)

val apply_matrix1 : t -> Qca_util.Matrix.t -> int -> unit
(** Apply an arbitrary 2x2 matrix (not necessarily unitary — used for Kraus
    operators; renormalisation is the caller's concern). *)

val prob_one : t -> int -> float
(** Probability that measuring qubit [q] yields 1. *)

val collapse : t -> int -> int -> unit
(** [collapse s q outcome] projects qubit [q] onto [outcome] (0 or 1) and
    renormalises. The projected branch must have nonzero probability. *)

val measure : t -> Qca_util.Rng.t -> int -> int
(** Sample and collapse one qubit; returns the outcome. *)

val measure_run : t -> Qca_util.Rng.t -> int array -> (int -> int -> unit) -> unit
(** [measure_run s rng qubits on_outcome] measures [qubits] in order,
    calling [on_outcome i b] with the [i]th outcome [b] before the next
    draw (a readout-error draw goes there). Draws, outcomes and collapsed
    amplitudes equal successive {!measure} calls bit for bit, but each
    level visits only the amplitudes the earlier outcomes keep, and sums,
    zeroes and scales in two passes over them instead of three over the
    whole vector. A qubit may appear more than once. *)

val sample_index : t -> Qca_util.Rng.t -> int
(** Sample a basis index from the current distribution without collapsing.
    One draw costs an [O(2^n)] cumulative build plus an [O(n)] binary
    search; for repeated draws from the same state build a {!sampler}. *)

type sampler
(** A cumulative distribution snapshot of a state, for repeated draws. *)

val sampler : t -> sampler
(** Build the cumulative array once ([O(2^n)]). The snapshot does not
    track later mutations of the state. *)

val sampler_draw : sampler -> Qca_util.Rng.t -> int
(** One [O(n)] binary-search draw. [sampler_draw (sampler s) rng] is
    bit-identical to [sample_index s rng] (same RNG consumption, same
    index). *)

val overlap : t -> t -> Qca_util.Cplx.t
(** Inner product <a|b>. *)

val fidelity : t -> t -> float
(** |<a|b>|^2. *)

val expectation_diag : t -> (int -> float) -> float
(** Expectation of a computational-basis-diagonal observable. *)

val expectation_pauli : t -> (int * char) list -> float
(** Expectation of a Pauli string, e.g. [[(0, 'X'); (2, 'Z')]] for X0 Z2.
    Letters X, Y, Z; qubits must be distinct. Leaves the state untouched
    (works on a rotated copy). *)

val apply_diagonal_phase : t -> (int -> float) -> unit
(** Multiply each amplitude k by exp(i * f k) — the efficient path for
    diagonal cost Hamiltonians (QAOA phase separation). *)

val apply_permutation : t -> (int -> int) -> unit
(** Classical reversible function as a basis permutation: amplitude of |x>
    moves to |f x|. [f] must be a bijection on the basis range (checked). *)

val apply_controlled_permutation : t -> control:int -> (int -> int) -> unit
(** Apply the permutation only on basis states whose [control] bit is 1;
    [f] must fix the control bit and be a bijection on that subspace —
    the controlled-U_a^2^k building block of order finding. *)

val memory_bytes : int -> int
(** Bytes required by a state on [n] qubits (used by the E5 scaling table). *)

(** {2 Fused kernels}

    Building blocks for the engine's gate-fusion pre-pass
    ([Qx.Engine], [docs/performance.md]). Both are {e loop} fusion — the
    amplitude (pair) is loaded once, every gate of the run is applied to
    it in sequence, and it is stored once — so results are bit-identical
    to applying the run gate by gate. *)

type fused1q_plan
(** A compiled run of single-qubit gates on one qubit. Each gate keeps the
    specialised arithmetic of its standalone kernel (X a swap, phases
    touching only the set-bit element, Rz a branch, dense gates the full
    2x2), so the fused sweep is strictly bit-identical to the unfused
    sequence. *)

val fused1q_plan_of : Qca_circuit.Gate.unitary list -> fused1q_plan
(** Compile a run of single-qubit gates (application order); identities
    are dropped. *)

val apply_fused1q : t -> fused1q_plan -> int -> unit
(** [apply_fused1q s plan q]: apply the run to qubit [q] in one sweep over
    the amplitude pairs. *)

type diag_plan
(** A coalesced run of computational-basis-diagonal gates, applied to
    every amplitude in a single sweep by {!apply_diag_plan}. *)

val diag_plan_of : (Qca_circuit.Gate.unitary * int array) list -> diag_plan option
(** Compile a gate run (application order, with operands) into a diagonal
    sweep. [None] if any gate is not diagonal; identities are dropped. *)

val apply_diag_plan : t -> diag_plan -> unit

(** {2 Seed kernels (benchmark baseline)}

    The pre-kernel-layer gate implementations, kept verbatim so
    [bench kernels] and the runtest perf guard can measure the new
    kernels against them. Not an execution path of the stack. *)
module Reference : sig
  val apply : t -> Qca_circuit.Gate.unitary -> int array -> unit
end
