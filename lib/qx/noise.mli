(** Error channels for realistic qubits.

    Noise is simulated by Monte-Carlo trajectories: Pauli channels sample an
    error operator, amplitude damping samples a Kraus branch with the correct
    state-dependent probability. This reproduces density-matrix statistics in
    expectation over shots. *)

type channel =
  | Depolarizing of float
      (** With probability p, apply X, Y or Z uniformly at random. *)
  | Bit_flip of float
  | Phase_flip of float
  | Bit_phase_flip of float  (** Y errors. *)
  | Amplitude_damping of float  (** Energy relaxation with decay prob gamma. *)
  | Phase_damping of float

val apply : channel -> State.t -> Qca_util.Rng.t -> int -> unit
(** Apply one channel to one qubit of a state. *)

type model = {
  single_qubit_error : float;  (** Depolarising probability after 1q gates. *)
  two_qubit_error : float;  (** Depolarising probability (per operand) after 2q+ gates. *)
  readout_error : float;  (** Probability of flipping a measurement outcome. *)
  prep_error : float;  (** Probability a prep leaves |1> instead of |0>. *)
  t1_ns : float;  (** Relaxation time; [infinity] disables damping. *)
  t2_ns : float;  (** Dephasing time; [infinity] disables. T2 <= 2 T1. *)
  cycle_ns : float;  (** Wall time per circuit step, for T1/T2 decay. *)
}

val ideal : model
(** Perfect qubits: all rates zero, infinite coherence. *)

val depolarizing : float -> model
(** Uniform depolarising model at the given error rate (paper's baseline
    "simplistic" model of section 2.7), readout at the same rate. *)

val superconducting : model
(** Transmon-flavoured defaults quoted in the paper: ~0.1% gate error
    [Kelly et al.], T1/T2 in the tens of microseconds. *)

val is_ideal : model -> bool


type gate_noise
(** A model's post-gate channels, worked out once per run: depolarising
    rates and the one-cycle T1/T2 damping step with its Kraus operators. *)

val gate_noise : model -> gate_noise

val after_gate :
  gate_noise -> State.t -> Qca_util.Rng.t -> Qca_circuit.Gate.unitary -> int array -> unit
(** Apply the model's post-gate errors (depolarising + decoherence over one
    cycle) to the gate's operand qubits. *)

val flip_readout : model -> Qca_util.Rng.t -> int -> int
(** Apply classical readout error to an outcome bit. *)
