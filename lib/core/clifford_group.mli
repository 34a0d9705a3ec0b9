(** Clifford groups by closure, and the parts of randomised benchmarking
    (section 3.1) that do not depend on the qubit count: the group, its
    inverse table, random sequences closed by their recovery element, and
    the decay fit. {!Rb} (one qubit) and {!Rb2} (two qubits) run their own
    shots over these.

    Elements are told apart by a phase-canonical key of their matrix, so
    two gate strings that differ only by a global phase are one element. *)

type 'g element
(** One group element: a string of generators and its matrix. *)

type 'g t

val close : identity:Qca_util.Matrix.t -> ('g * Qca_util.Matrix.t) list -> 'g t
(** Close the generators (each with its matrix) under products,
    breadth-first from [identity]: a product joins the group when its key
    is new, so each element keeps the first, shortest string found. *)

val elements : 'g t -> 'g element array
(** In discovery order; element 0 is the identity. *)

val gates : 'g element -> 'g list
(** Generators in application order. *)

val inverse : 'g t -> 'g element -> 'g element
(** Table lookup. *)

val average_gate_count : 'g t -> float
(** Mean generator count per element. *)

val sequence :
  ?interleave:'g * Qca_util.Matrix.t -> 'g t -> Qca_util.Rng.t -> length:int -> 'g list
(** The generators of [length] uniformly drawn elements, each followed by
    [interleave] when given, then of the recovery element that inverts the
    whole product. Raises [Failure] when the interleaved gate takes the
    product out of the group. *)

val survivals :
  lengths:int list -> sequences:int -> (int -> float) -> (int * float) list
(** [(m, mean)] per length [m]: the mean of [survival m] over [sequences]
    calls, each of which draws and runs one sequence of length [m]. *)

val fit_decay : qubits:int -> (int * float) list -> float * float
(** Fit [survival = 1/2^qubits + A p^m] to [(m, survival)] points and
    return [(A, p)], with [p] capped at 1. Points within 1e-3 of the
    offset are left out; with fewer than two left the fit is
    [(1 - 1/2^qubits, 1)]. *)
