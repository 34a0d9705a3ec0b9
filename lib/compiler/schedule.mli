(** Operation scheduling (section 2.6 "scheduling of operations").

    Maps an instruction list onto cycle-accurate start times while respecting
    qubit dependencies, gate durations from the platform, and optionally a
    limit on simultaneously executing two-qubit gates (the paper's "number of
    available frequencies" constraint). *)

type entry = { start_cycle : int; duration : int; instr : Qca_circuit.Gate.t }

type t = {
  entries : entry list;  (** Sorted by start cycle, ties in program order. *)
  makespan : int;  (** Total cycles to drain the schedule. *)
  qubit_count : int;
}

type policy =
  | Asap  (** Earliest start respecting dependencies. *)
  | Alap  (** Latest start that does not stretch the ASAP makespan. *)

val run :
  ?policy:policy -> ?max_parallel_two_qubit:int -> Platform.t -> Qca_circuit.Circuit.t -> t
(** Schedule a circuit. [max_parallel_two_qubit] bounds how many two-qubit
    gates may overlap in any cycle (unbounded when omitted). *)

val parallelism : t -> float
(** Average number of instructions in flight per busy cycle. *)

val max_concurrency : t -> int
(** Peak number of instructions overlapping in one cycle. *)

val validate : t -> bool
(** No two entries overlap on a qubit; program dependencies preserved. *)
