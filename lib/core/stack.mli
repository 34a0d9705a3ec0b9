(** The full-stack accelerator instances of section 3, as descriptors: a
    platform, a qubit model and, for real qubits, a micro-architecture. A
    stack runs nothing itself; {!spec} builds the job it denotes
    (OpenQL-style compile, cQASM, then either direct QX execution for
    perfect qubits or eQASM through the cycle-accurate micro-architecture
    driving QX) and {!Runner.run} executes it. *)

type t = {
  stack_name : string;
  platform : Qca_compiler.Platform.t;
  model : Qca_compiler.Compiler.mode;  (** The qubit model (Figure 2). *)
  technology : Qca_microarch.Controller.technology option;
      (** Micro-architecture configuration; required for Real stacks. *)
}

val superconducting : unit -> t
(** Section 3.1: real superconducting qubits on the 17-qubit platform,
    executed through the micro-architecture. *)

val semiconducting : unit -> t
(** Section 3.1's retargeting partner: the same micro-architecture with the
    semiconducting configuration file and micro-code table. *)

val genome : ?qubits:int -> unit -> t
(** Section 3.2: quantum genome sequencing on perfect qubits (default 12). *)

val optimisation : ?qubits:int -> unit -> t
(** Section 3.3: hybrid optimisation on perfect qubits (default 16 — the
    four-city TSP QUBO). *)

val realistic_of : t -> t
(** The same stack with realistic (simulated, noisy) qubits — Figure 2's
    third dimension: same platform, no micro-architecture; the job runs
    on QX under {!Job_spec.route_noise}'s realistic noise. *)

val spec : ?shots:int -> ?seed:int -> t -> Qca_circuit.Circuit.t -> Job_spec.t
(** The job this stack denotes for [circuit], ready for {!Runner.run}: a
    [Compiled] route on the stack's platform, in its qubit model's compiler
    mode, with its micro-architecture and the degradation ladder on
    (micro-architecture -> realistic QX), routed with
    {!Qca_compiler.Mapping.default_strategy}. Default 512 shots; the other
    run parameters take the {!Job_spec.make} defaults and can be overridden
    on the returned record. *)

val describe : t -> string
