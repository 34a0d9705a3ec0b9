(** cQASM 1.0 (common QASM) emitter and parser.

    cQASM is the paper's common quantum assembly language: the contract
    between the OpenQL compiler and the QX simulator. This module supports a
    pragmatic subset: the version header, [qubits n], named subcircuits with
    repetition counts ([.body(3)]), the shared gate set of {!Gate.unitary},
    [prep_z], [measure], [measure_all], [display] and [#] comments. *)

type program = {
  qubit_count : int;
  error_model : (string * float) option;
      (** QX-style error-model directive, e.g.
          [error_model depolarizing_channel, 0.001]. *)
  subcircuits : (string * int * Circuit.t) list;
      (** Ordered (name, iteration count, body) triples. *)
}

val max_qubits : int
(** The widest [qubits n] declaration (2^20, well above the tableau's
    limit); a wider one is a parse error at its line. *)

val emit_circuit : Circuit.t -> string
(** Render one circuit as a complete cQASM file with a single default
    subcircuit. *)

val emit : program -> string
(** Render a program with its subcircuit structure. *)

val max_instructions : int
(** The longest program {!flatten} unrolls (2^24 instructions). *)

val flatten : program -> Circuit.t
(** Expand subcircuit repetitions into one flat circuit. A program that
    would unroll past {!max_instructions} raises {!Qca_util.Error.Error}
    with an [Invalid] kind (site ["Cqasm.flatten"]) naming the subcircuit
    that crosses the limit; nothing is unrolled. *)

val of_circuit : Circuit.t -> program

val tokenize : string -> string list
(** The fields of one comment-free source line, in order: the line split
    on spaces and commas, empty fields dropped. Tabs and other characters
    stay inside fields. *)

val parse : string -> program
(** Parse cQASM source. Malformed input raises
    {!Qca_util.Error.Error} with a {!Qca_util.Error.Syntax} kind carrying
    the 1-based source line and the offending token (site
    ["Cqasm.parse"]). Out-of-range or malformed operands are reported the
    same way, at the line that used them. *)

val parse_circuit : string -> Circuit.t
(** [flatten (parse source)]. *)

val roundtrip_equal : Circuit.t -> bool
(** Debug helper: emit then parse and compare (used by tests). *)
