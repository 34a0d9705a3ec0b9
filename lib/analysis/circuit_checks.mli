(** Circuit-level static checks (codes C01–C07, P03).

    These run on the {!Qca_circuit.Circuit} IR — a freshly parsed cQASM
    program, or any circuit-level artifact of the compiler pipeline. The
    full catalogue lives in [docs/analysis.md].

    - [C01] qubit-out-of-range (error): operand index beyond the platform's
      qubit range.
    - [C02] bit-out-of-range (error): conditional gate reads a classical
      bit outside the range.
    - [C03] use-after-measure (warning): a unitary acts on a measured qubit
      with no [prep_z] reset in between (conditional gates are exempt —
      classical feedback on the measured qubit is the legitimate pattern).
    - [C04] measure-never-read (hint): a measurement result is overwritten
      by a re-measurement before any conditional gate reads it.
    - [C05] unused-qubit (hint): declared qubits no instruction touches.
    - [C06] redundant-pair (hint): adjacent self-inverse pair (H;H,
      CNOT;CNOT, ...) with no intervening operation on the operands.
    - [C07] non-finite-angle (error): NaN or infinite rotation angle.
    - [P03] duplicate-kernel (warning): two subcircuits share a name. *)

val check_circuit :
  ?platform_qubits:int -> Qca_circuit.Circuit.t -> Diagnostic.t list
(** Run the full circuit suite. [platform_qubits] is the operand range
    bound (default: the circuit's own qubit count); sites are
    ["<name>[<instruction index>]"]. *)

val check_invariants_instrs :
  ?on_instr:(int -> Qca_circuit.Gate.t -> unit) ->
  bound:int ->
  qubit_count:int ->
  string ->
  Qca_circuit.Gate.t list ->
  Diagnostic.t list
(** Correctness subset used by the pass-verifier after each compiler pass,
    on an already-materialised instruction list: C01, C02, C03 and C07.
    The declaration-level checks (C04–C06) are source-level hints and
    would only add noise mid-pipeline. Sites use the given name; the
    operand range bound is [bound]. [on_instr]
    is called once per instruction during the same traversal, so another
    suite (e.g. {!Platform_checks.stream_checker}) can ride along without a
    second walk over the artifact. *)

val non_finite_angle : Qca_circuit.Circuit.t -> Diagnostic.t option
(** The first C07 finding of {!check_circuit}, if any: the first unitary
    or conditional gate whose rotation angle is NaN or infinite. Jobs and
    [qxc compile] refuse such a circuit with this finding's message. *)

val check_program :
  ?platform_qubits:int -> Qca_circuit.Cqasm.program -> Diagnostic.t list
(** {!check_circuit} over the flattened program (instruction indices are
    global, post-flattening) plus the P03 duplicate-kernel check. *)
