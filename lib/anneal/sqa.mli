(** Simulated quantum annealing: path-integral Monte Carlo for the
    transverse-field Ising model.

    The quantum annealer of Figure 3/8 is simulated by the standard
    Suzuki-Trotter mapping: [trotter_slices] replicas of the classical model
    coupled along the imaginary-time direction with strength
    J_perp = -(T/2) ln tanh(Gamma / (P T)), with the transverse field Gamma
    swept from [gamma_start] to ~0 while tunnelling events flip whole chain
    segments. *)

type params = {
  trotter_slices : int;
  temperature : float;
  gamma_start : float;
  gamma_end : float;
  sweeps : int;
  restarts : int;
}

val default_params : params
(** 16 slices, T = 0.05, Gamma 3.0 -> 0.01, 600 sweeps, 2 restarts. *)

type result = {
  spins : int array;  (** Best slice at the end of the anneal. *)
  energy : float;
  tunnelling_events : int;
      (** Accepted moves that flipped a spin against its slice neighbours —
          a proxy for quantum tunnelling activity. *)
}

val minimize_qubo : ?params:params -> rng:Qca_util.Rng.t -> Qubo.t -> int array * float
