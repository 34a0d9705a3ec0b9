(** Platform-conformance checks on mapped circuits (codes P01–P02).

    These only make sense after place & route: every two-qubit gate must sit
    on a coupled physical pair and every gate must be in the platform's
    primitive set. The pass-verifier ({!Verify}) applies them from the
    ["map/route"] pass onwards.

    - [P01] non-adjacent-two-qubit (error): two-qubit gate on a physical
      pair the topology does not couple.
    - [P02] non-primitive-gate (error): gate outside the platform's
      primitive set ([prep_z]/[measure]/[barrier] are always allowed). *)

val check_mapped :
  ?allow_swap:bool ->
  Qca_compiler.Platform.t ->
  Qca_circuit.Circuit.t ->
  Diagnostic.t list
(** [allow_swap] (default [false]) exempts [swap] from P02 — the routing
    pass legitimately emits swaps that a later pass expands to primitives. *)

val stream_checker :
  ?allow_swap:bool ->
  Qca_compiler.Platform.t ->
  string ->
  (int -> Qca_circuit.Gate.t -> unit) * (unit -> Diagnostic.t list)
(** Streaming form: a per-instruction callback plus a finisher returning the
    accumulated diagnostics in program order. Lets the pass-verifier ride
    along another suite's traversal instead of walking the artifact twice. *)
