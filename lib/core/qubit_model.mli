(** The paper's three qubit models (section 2.1): real, realistic and
    perfect qubits, and how each configures the rest of the stack. *)

type t =
  | Perfect
      (** No decoherence, no gate errors, connectivity at the designer's
          discretion — the application-development model (Figure 2b). *)
  | Realistic
      (** Simulated qubits with tunable error models and topology — for
          studying error rates, QEC and routing beyond current hardware. *)
  | Real
      (** Parameters pinned to an experimental device; executed through the
          micro-architecture with strict timing (Figure 2a). *)

val to_string : t -> string

val compiler_mode : t -> Qca_compiler.Compiler.mode

val noise : t -> Qca_compiler.Platform.t -> Qca_qx.Noise.model
(** Effective error model: ideal for Perfect, the platform's model
    otherwise. *)

val respects_connectivity : t -> bool
(** Whether the mapping pass must honour the topology (always for
    Realistic/Real; Perfect leaves it to the designer, default free). *)

val all : t list
