(** Stabilizer simulator on an inverse tableau, after Gidney, "Stim: a fast
    stabilizer circuit simulator" (Quantum 5, 497, 2021, arXiv:2103.02202).

    For a state U|0...0> the tableau holds, for every qubit k, the Pauli
    rows U{^ †}X{_ k}U and U{^ †}Z{_ k}U as a sign plus bit-packed x/z words
    (62 qubits per [int]). A gate is a row swap, a sign flip or one or two
    word-level row products; a Z measurement is deterministic exactly when
    row U{^ †}Z{_ q}U has no x bits, and its outcome is that row's sign; a
    random one collapses by column updates. Simulates Clifford circuits in
    polynomial time — the workhorse for circuit-level QEC where the
    state-vector simulator would be too small. Cross-validated against the
    QX state vector in the test suite.

    {b Outcome contract.} For every circuit and every sequence of random
    outcomes, whether each measurement is random (takes [random_outcome],
    or draws from the generator in {!measure}) and its outcome when it is
    not are functions of the quantum state alone: the same as any exact
    stabilizer simulator, including the
    Aaronson–Gottesman tableau this module replaced. So seed-pinned
    histograms do not depend on the tableau's internal representation. *)

type t

val max_qubits : int
(** Widest tableau {!create} accepts (4096 qubits). *)

val create : int -> t
(** |0...0> on n qubits; raises [Invalid_argument] naming the limit unless
    [1 <= n <= max_qubits]. *)

val memory_bytes : int -> float
(** Bytes of row storage {!create} allocates for n qubits — the state rows,
    the reset template, the signs and the collapse scratch:
    [8 (8 n w + 2 n + w)] with [w = ceil(n / 62)] words per row. *)

val qubit_count : t -> int
val copy : t -> t

val reset : t -> unit
(** Back to |0...0> in place, without reallocating — the bulk-shot
    primitive: one tableau per domain is reused across thousands of engine
    shots. *)

val h : t -> int -> unit
val s : t -> int -> unit
val sdag : t -> int -> unit
val x : t -> int -> unit
val y : t -> int -> unit
val z : t -> int -> unit
val cnot : t -> int -> int -> unit
(** [cnot tab control target]. *)

val cz : t -> int -> int -> unit
val swap : t -> int -> int -> unit

val apply_pauli : t -> Pauli.t -> unit
(** Apply an error operator. *)

val supports : Qca_circuit.Gate.unitary -> bool
(** Total Clifford classification of the shared gate set: [true] exactly
    when {!apply_gate} accepts the gate. The engine's planner uses this to
    classify circuits without exception probing. *)

val apply_gate : t -> Qca_circuit.Gate.unitary -> int array -> unit
(** Apply any Clifford from the shared gate set; raises [Invalid_argument]
    naming the gate and its operands for non-Clifford gates (those with
    [supports u = false]) or an operand-count mismatch. *)

val measure : t -> Qca_util.Rng.t -> int -> int
(** Z-basis measurement with collapse; deterministic outcomes are returned
    without consuming randomness. *)

val measure_with : t -> int -> random_outcome:int -> int
(** Z-basis measurement with collapse, with the caller deciding random
    outcomes: [random_outcome] must be 0 or 1 and is the outcome only when
    the measurement is genuinely random (a stabilizer anticommutes with
    Z_q). The engine's Clifford plan uses this to mirror the state-vector
    executor's randomness consumption exactly (see [docs/engine.md]). *)

val measure_all : t -> Qca_util.Rng.t -> int array
(** Measure qubits [0 .. n-1] in order, collapsing as it goes. *)

val expectation_z : t -> int -> int option
(** [Some 0]/[Some 1] when the Z measurement of the qubit is deterministic
    (+1/-1 eigenstate), [None] when random. *)

val stabilizer_strings : t -> string list
(** Stabilizer generators U Z{_ k} U{^ †} of the current state, one per
    qubit, with sign prefix, e.g. ["+XX"; "+ZZ"]. They generate the state's
    stabilizer group; after a collapse the generating set may differ from
    the one the Aaronson–Gottesman tableau would have printed. *)
