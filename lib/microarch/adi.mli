(** Analogue-digital interface (ADI): the pulse store of Figure 6.

    The micro-code unit's codewords index into this library; each entry is a
    sampled analogue envelope that would be fed to the AWG driving a qubit
    control line. *)

type channel_kind =
  | Microwave  (** Single-qubit XY drive. *)
  | Flux  (** Two-qubit flux pulses (CZ). *)
  | Readout  (** Measurement probe tone. *)

type pulse = {
  name : string;
  channel : channel_kind;
  duration_ns : int;
  amplitude : float;  (** Normalised peak amplitude in [-1, 1]. *)
  phase : float;  (** Drive phase in radians (IQ rotation). *)
  samples : float array;  (** Envelope sampled at 1 GS/s. *)
}

val gaussian_envelope : duration_ns:int -> amplitude:float -> float array
(** Truncated-Gaussian envelope (standard for microwave pulses). *)

val square_envelope : duration_ns:int -> amplitude:float -> float array
(** Flat-top envelope (flux and readout pulses). *)

type library
(** Pulse store keyed by pulse name. *)

val find : library -> string -> pulse option
val names : library -> string list

val superconducting_library : unit -> library
(** Pulses for the transmon platform: 20 ns Gaussians for x90/y90 family,
    40 ns flux pulse for cz, 300 ns readout tone. *)

val semiconducting_library : unit -> library
(** Pulses for the spin-qubit platform: 500 ns ESR bursts, 2 us exchange
    pulse, 6 us readout. *)

val energy : pulse -> float
(** Integrated squared amplitude — a proxy for the power budget discussion
    in section 2.5. *)
