(** Gate decomposition pass: rewrite every gate into the platform's native
    primitive set (section 2.4's "quantum gate decomposition").

    {b Pass contract}: the output circuit is unitarily equivalent to the
    input up to global phase — every rewrite step in {!expand} is a local
    matrix identity, so the composition preserves the program's semantics
    for every run plan. Measurements, preps, barriers and conditionals
    pass through untouched (a conditional's body gate is rewritten in
    place). The pass neither reorders instructions nor changes qubit
    indices; it only makes circuits longer, which is why
    {!Optimize.pipeline} runs both before it (on the small logical
    circuit) and after routing (to clean up the expansion). *)

val expand : Qca_circuit.Gate.unitary -> int array -> Qca_circuit.Gate.t list
(** One rewrite step toward the {x90, mx90, y90, my90, rz, cz} basis; the
    result may still need further expansion. The returned list is
    matrix-equal to the input gate up to global phase. *)

val run : Platform.t -> Qca_circuit.Circuit.t -> Qca_circuit.Circuit.t
(** Recursively rewrite until every unitary is a platform primitive. Raises
    {!Qca_util.Error.Error} with [Unsupported_gate] if a gate cannot be
    expressed on the platform's primitive set. The pass-verifier re-checks
    the result against the platform's primitive set (code [P02]) when
    compilation runs under {!Qca_analysis.Verify.compile}. *)

val lower : Platform.t -> Qca_circuit.Gate.t list -> Qca_circuit.Gate.t list
(** {!run} on an instruction list, without validating the result against
    a qubit count. *)

val check_equivalent : Qca_circuit.Circuit.t -> Qca_circuit.Circuit.t -> bool
(** Compare full unitaries up to global phase (small circuits only; used by
    tests and by {!Optimize}'s two-qubit block consolidation to validate
    candidate replacements). Circuits must be measurement-free. *)
