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

(** {2 The noise schedule}

    On a model without T1/T2 decay every error draw is independent of the
    state: which Pauli follows which gate, and whether a prep of a fresh
    qubit fails, can be drawn for a whole program prefix before any
    amplitude is touched. The engine draws each shot's schedule first and
    simulates only the shots that drew an error (docs/engine.md, "Noise
    schedule"). *)

type site =
  | Gate_site of Qca_circuit.Gate.unitary * int array
      (** A gate on its operands: one depolarising draw per operand. *)
  | Prep_site of int
      (** A prep of a qubit no gate has touched: its measurement draw (the
          outcome is 0) and its prep-error draw. *)
  | Quiet_site  (** Draws nothing (a fused kernel). *)

type event = {
  site : int;  (** Index of the site whose draw picked the error. *)
  qubit : int;
  pauli : Qca_circuit.Gate.unitary;  (** [X], [Y] or [Z], applied after the site. *)
}

val pauli_only : model -> bool
(** No T1/T2 decay: every draw of the model is state-independent. *)

val schedule : model -> site array -> Qca_util.Rng.t -> event array
(** [schedule m sites rng] draws one shot's errors over [sites] from [rng]
    in exactly the order {!after_gate} and a prep draw them, and returns
    the errors that fire, in draw order ([[||]] for a clean shot). Raises
    [Invalid_argument] on a model with T1/T2 decay, unless [sites] is
    empty. *)
