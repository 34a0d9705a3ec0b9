(** OpenQL-style programming frontend (section 2.4).

    Mirrors the OpenQL API the paper describes: a [program] owns named
    [kernel]s; kernels accumulate gates imperatively; classical structure
    (loops, measurement-conditioned gates) wraps the quantum logic; the
    program lowers to cQASM and compiles through the pass manager.

    {[
      let k = Openql.kernel ~name:"entangle" ~qubits:2 in
      Openql.h k 0;
      Openql.cnot k 0 1;
      Openql.measure_all k;
      let p = Openql.program ~name:"bell" ~qubits:2 in
      Openql.add_kernel p k;
      let histogram = Openql.simulate ~shots:1000 p in
      ...
    ]} *)

type kernel
type program

(* --- kernels --- *)

val kernel : name:string -> qubits:int -> kernel
val kernel_name : kernel -> string

val gate : kernel -> Qca_circuit.Gate.unitary -> int list -> unit
(** Append any unitary by operand list; raises on arity mismatch. *)

val x : kernel -> int -> unit
val y : kernel -> int -> unit
val z : kernel -> int -> unit
val h : kernel -> int -> unit
val s : kernel -> int -> unit
val t : kernel -> int -> unit
val rx : kernel -> int -> float -> unit
val ry : kernel -> int -> float -> unit
val rz : kernel -> int -> float -> unit
val cnot : kernel -> int -> int -> unit
val cz : kernel -> int -> int -> unit
val toffoli : kernel -> int -> int -> int -> unit

val prepare : kernel -> int -> unit
val measure : kernel -> int -> unit
val measure_all : kernel -> unit
val barrier : kernel -> int list -> unit

val cond : kernel -> bit:int -> Qca_circuit.Gate.unitary -> int list -> unit
(** Measurement-conditioned gate (classical decision construct). *)

val circuit_of_kernel : kernel -> Qca_circuit.Circuit.t

(* --- programs --- *)

val program : name:string -> qubits:int -> program
val program_name : program -> string
val qubit_count : program -> int

val add_kernel : ?iterations:int -> program -> kernel -> unit
(** Append a kernel; [iterations] > 1 is the classical for-loop construct
    (lowered to a cQASM subcircuit repetition). Kernel qubit count must
    match the program's. *)

val for_loop : program -> count:int -> kernel -> unit
(** [add_kernel ~iterations:count]. *)

val to_cqasm_program : program -> Qca_circuit.Cqasm.program
val to_cqasm : program -> string
val to_circuit : program -> Qca_circuit.Circuit.t
(** Flattened (loops unrolled). *)

val compile :
  ?strategy:Mapping.strategy ->
  platform:Platform.t ->
  mode:Compiler.mode ->
  program ->
  Compiler.output

val simulate :
  ?noise:Qca_qx.Noise.model ->
  ?rng:Qca_util.Rng.t ->
  ?shots:int ->
  program ->
  (string * int) list
(** Execute the flattened program on QX (default 1024 shots, ideal qubits). *)
