(** Quantum Instruction Set Architecture interpreter (Figure 5).

    Section 2.5: the quantum accelerator has "a series of instructions ...
    some of which are classical logic and others are the quantum
    instructions". This module is that combined ISA: a register machine
    (LDI/ADD/SUB/CMP/BR) with FMR (fetch measurement result) and the eQASM
    quantum instructions embedded, executed by the cycle-accurate
    {!Controller} session. It expresses run-time control the compiler cannot
    resolve statically — repeat-until-success, active reset, hybrid loops. *)

type condition = Always | Eq | Ne | Lt | Ge

type instruction =
  | Label of string
  | Ldi of int * int  (** rd <- immediate *)
  | Mov of int * int  (** rd <- rs *)
  | Add of int * int * int  (** rd <- rs + rt *)
  | Sub of int * int * int
  | Cmp of int * int  (** set the comparison flag from rs - rt *)
  | Br of condition * string  (** conditional branch on the flag *)
  | Fmr of int * int  (** rd <- measurement result of qubit q (0/1; -1 unmeasured) *)
  | Quantum of Qca_compiler.Eqasm.instruction
  | Halt

type program

val assemble :
  name:string -> qubit_count:int -> cycle_ns:int -> instruction list -> program
(** Validates register indices, mask registers (within
    {!Qca_compiler.Eqasm.register_limit}), qubit ranges in FMR, SMIS, SMIT
    and bundle conditions, that waits and bundle pre-intervals are not
    negative, and that every branch target exists; raises
    [Invalid_argument] otherwise. *)

val to_string : program -> string

exception Parse_error of int * string

val parse : name:string -> qubit_count:int -> cycle_ns:int -> string -> program
(** Assemble from the textual form produced by {!to_string}: labels
    ("loop:"), classical ops ("LDI r0, 5", "ADD r2, r0, r1", "CMP r0, r1",
    "BR.ne loop", "FMR r2, q0", "MOV r1, r0", "HALT") and the eQASM quantum
    forms ("SMIS s0, {0, 1}", "SMIT t0, {(0,1)}", "QWAIT n",
    "1: x90 s0 | cz t0", "[if r3] x90 s0" inside bundles). Case-insensitive
    mnemonics; "#" comments. *)

type run_result = {
  controller : Controller.result;  (** Quantum-side outcome, trace, stats. *)
  registers : int array;  (** Final register file. *)
  executed : int;  (** Classical instructions retired. *)
}

val execute :
  ?noise:Qca_qx.Noise.model ->
  ?rng:Qca_util.Rng.t ->
  ?max_steps:int ->
  Controller.technology ->
  program ->
  run_result
(** Run to [Halt] (or the end of code). [max_steps] (default 100000) bounds
    run-away loops; raises {!Qca_util.Error.Error} with [Non_convergence]
    when exceeded. *)
