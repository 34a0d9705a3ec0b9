(** Ising spin models: the annealer's native abstraction, isomorphic to QUBO
    via x = (1 + s) / 2 (section 3.3). *)

type t = {
  n : int;
  h : float array;  (** Local fields. *)
  couplings : (int * int * float) list;  (** Each pair once, [i < j]. *)
}

val energy : t -> int array -> float
(** [energy m s] with spins in {-1, +1}: sum h_i s_i + sum J_ij s_i s_j. *)

val of_qubo : Qubo.t -> t * float
(** Ising model plus constant offset: [qubo_energy x = ising_energy s + offset]. *)

val to_qubo : t -> Qubo.t * float
(** Inverse transformation. *)

val spins_of_bits : int array -> int array
(** 0 -> -1, 1 -> +1. *)

val bits_of_spins : int array -> int array

val random_spins : Qca_util.Rng.t -> int -> int array

val delta_energy : t -> neighbour_index:(int -> (int * float) list) -> int array -> int -> float
(** Energy change from flipping one spin, given an adjacency accessor (see
    {!build_neighbour_index}); O(degree). *)

val build_neighbour_index : t -> int -> (int * float) list
(** Precomputed adjacency lookup for {!delta_energy} and the annealers. *)
