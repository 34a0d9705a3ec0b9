(** Heterogeneous accelerator registry (Figure 1): FPGAs, GPUs, NPUs and the
    two new classes the paper adds — gate-based quantum accelerators and
    quantum annealers. *)

type kind =
  | Fpga
  | Gpu
  | Npu
  | Quantum_gate
  | Quantum_annealer

val kind_to_string : kind -> string

type t = {
  name : string;
  kind : kind;
  speed_factor : float;
      (** Throughput on suitable kernels relative to the host CPU. *)
  offload_overhead : float;
      (** Fixed time units per offload (data shipping, Figure 1's bus). *)
  payload : (string -> string) option;
      (** Optional real computation: maps a kernel argument string to an
          output (used to back quantum kernels with actual simulator runs). *)
}

val make :
  ?payload:(string -> string) ->
  name:string ->
  kind:kind ->
  speed_factor:float ->
  offload_overhead:float ->
  unit ->
  t

val default_park : unit -> t list
(** Figure 1's accelerator park: one of each kind, with representative
    speed factors. *)

val run_payload : t -> string -> string
(** Execute the payload (identity when none is attached). *)
