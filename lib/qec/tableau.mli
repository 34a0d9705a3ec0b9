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
    histograms do not depend on the tableau's internal representation.
    Whether a measurement is random depends only on the gates before it,
    never on earlier outcomes, as long as outcomes steer nothing but Paulis;
    {!measure_symbolic} relies on this to compute every outcome of a run
    as an affine function of its random ones. *)

type t

val max_qubits : int
(** Widest tableau {!create} accepts (4096 qubits). *)

val word_bits : int
(** Bits used per packed [int] (62), in rows and symbolic forms alike. *)

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
val x : t -> int -> unit
val z : t -> int -> unit
val cnot : t -> int -> int -> unit
(** [cnot tab control target]. *)

val apply_pauli : t -> Pauli.t -> unit
(** Apply an error operator. *)

val apply_gate : t -> Qca_circuit.Gate.unitary -> int array -> unit
(** Apply any Clifford from the shared gate set; raises [Invalid_argument]
    naming the gate and its operands for non-Clifford gates (those with
    [Qca_circuit.Gate.is_clifford u = false]) or an operand-count
    mismatch. *)

val measure : t -> Qca_util.Rng.t -> int -> int
(** Z-basis measurement with collapse; deterministic outcomes are returned
    without consuming randomness. *)

val is_random : t -> int -> bool
(** Whether a Z-basis measurement of the qubit would now be random (a
    stabilizer anticommutes with Z{_ q}); reads the tableau only. *)

val measure_with : t -> int -> random_outcome:int -> int
(** Z-basis measurement with collapse, with the caller deciding random
    outcomes: [random_outcome] must be 0 or 1 and is the outcome only when
    the measurement is genuinely random (a stabilizer anticommutes with
    Z_q). The engine's per-shot Clifford executor uses this to mirror the
    state-vector executor's randomness consumption exactly, and its
    symbolic pass is checked against it (see [docs/engine.md]). *)

(** {2 Symbolic signs}

    No x or z bit of any row depends on a measurement outcome; outcomes
    reach the rows only through their signs, by XOR. So one pass over a
    circuit can leave each random outcome as a GF(2) variable: every sign
    is then an affine form [const ⊕ parity(form ∧ coins)] over the coin
    vector of the run's random outcomes, with variable v at bit
    [v mod 62] of word [v / 62]. Evaluating a form at the coins of a
    sequence of [random_outcome]s gives what the concrete tableau
    ({!measure_with}) computes for that sequence, as long as the only
    outcome-dependent operations are Paulis ({!pauli_by}). A tableau that
    never calls {!measure_symbolic} holds no forms and is the concrete
    simulator. *)

val variables : t -> int
(** Random outcomes made variables since {!create} or {!reset}. *)

val measure_symbolic : t -> int -> bool
(** Z-basis measurement with collapse; a random outcome becomes variable
    [variables t] (which then grows by one) and the call returns [true];
    a deterministic one returns [false]. Either way the outcome is then
    {!z_form}[ t q]. *)

val z_form : t -> int -> int * int array
(** The sign of the Z{_ q} row as [(const, words)]: right after a
    measurement of qubit [q], its outcome. [words] is a fresh array of the
    form words in use so far (words past its end are 0). *)

val is_pauli : Qca_circuit.Gate.unitary -> bool
(** [I], [X], [Y] or [Z]: the gates {!pauli_by} accepts. *)

val pauli_by : t -> Qca_circuit.Gate.unitary -> int -> int * int array -> unit
(** [pauli_by tab u q bit] applies the Pauli [u] to qubit [q] when the
    affine [bit] (a {!z_form}) is 1: it XORs the form into the signs the
    gate flips. A conditional Pauli, and a prep's X, stay affine this way;
    raises [Invalid_argument] unless [is_pauli u]. *)

val expectation_z : t -> int -> int option
(** [Some 0]/[Some 1] when the Z measurement of the qubit is deterministic
    (+1/-1 eigenstate), [None] when random. *)

val stabilizer_strings : t -> string list
(** Stabilizer generators U Z{_ k} U{^ †} of the current state, one per
    qubit, with sign prefix, e.g. ["+XX"; "+ZZ"]. They generate the state's
    stabilizer group; after a collapse the generating set may differ from
    the one the Aaronson–Gottesman tableau would have printed. *)
