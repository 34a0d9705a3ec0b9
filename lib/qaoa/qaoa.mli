(** Quantum Approximate Optimisation Algorithm (section 3.3): the gate-based
    route to QUBO problems, run as a hybrid quantum-classical loop — a
    shallow parameterised circuit iterated while a classical optimiser in
    the host CPU updates the parameters (Figure 8).

    Spin convention: basis-state bit b encodes spin s = 2b - 1. *)

type params = { gammas : float array; betas : float array }
(** One (gamma, beta) pair per QAOA layer. *)

val spin_energy_of_basis : Qca_anneal.Ising.t -> int -> float
(** Ising energy of the spin configuration encoded by a basis index. *)

val evolve : Qca_anneal.Ising.t -> params -> Qca_qx.State.t
(** Prepare |+...+>, then alternate cost-phase and mixer layers; the direct
    state-vector implementation (exact, no Trotter error). *)

val expectation : Qca_anneal.Ising.t -> params -> float
(** <H_cost> of the evolved state: the value the classical optimiser sees. *)

val cost_circuit : Qca_anneal.Ising.t -> float -> Qca_circuit.Circuit.t
(** Gate-level phase-separation layer (Rz + CNOT conjugation), equivalent to
    the diagonal evolution up to global phase — used when executing QAOA
    through the compiler/micro-architecture stack. *)

val full_circuit : Qca_anneal.Ising.t -> params -> Qca_circuit.Circuit.t
(** Hadamard wall + alternating layers, as one circuit. *)

type result = {
  params : params;
  expectation_value : float;
  best_bits : int array;
  best_energy : float;  (** Ising energy of the best sampled configuration. *)
  evaluations : int;  (** Classical-loop circuit evaluations used. *)
}

val optimize :
  ?layers:int ->
  ?restarts:int ->
  ?shots:int ->
  rng:Qca_util.Rng.t ->
  Qca_anneal.Ising.t ->
  result
(** The full hybrid loop: Nelder-Mead over the 2p angles from random starts,
    then sample the optimised state [shots] times and keep the best
    configuration. Defaults: 1 layer, 3 restarts, 256 shots. *)

val solve_qubo :
  ?layers:int -> ?restarts:int -> ?shots:int -> rng:Qca_util.Rng.t -> Qca_anneal.Qubo.t ->
  int array * float
(** QAOA on a QUBO; returns bits and QUBO energy. *)
