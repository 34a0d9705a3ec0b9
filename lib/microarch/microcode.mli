(** Micro-code unit (Figure 6): translates quantum operations at run time
    into horizontal micro-operations (codewords) on control channels.

    The paper's retargeting result hinges on this table: moving the same
    micro-architecture between superconducting and semiconducting chips only
    changed the compiler configuration and this micro-code table. *)

type codeword = {
  opcode : int;  (** Hardware opcode driven onto the codeword bus. *)
  pulse_name : string;  (** ADI pulse the codeword triggers. *)
  software_phase : float;
      (** Extra IQ frame rotation (used to implement rz in software, the
          standard trick on transmons). *)
}

type table
(** Micro-code store: mnemonic -> codeword. *)

val lookup : table -> string -> codeword option
val mnemonics : table -> string list

val superconducting_table : table
(** Codewords for the transmon technology. *)

val semiconducting_table : table
(** Codewords for the spin-qubit technology (same mnemonics, different
    opcodes and pulses — the retargeting demonstration). *)

type micro_op = {
  time_ns : int;  (** Absolute trigger time. *)
  qubit : int;  (** Control channel (one per qubit per channel kind). *)
  codeword : codeword;
  angle : float option;  (** Resolved rz angle, when applicable. *)
}

val translate :
  table ->
  time_ns:int ->
  mnemonic:string ->
  angle:float option ->
  qubits:int list ->
  micro_op list
(** Expand one eQASM quantum op into per-qubit micro-operations. Raises
    {!Qca_util.Error.Error} with [Unknown_mnemonic] for mnemonics missing
    from the table. *)
