(** De novo genome assembly (section 3.2's second reconstruction mode:
    "graph-based combinatorial optimisation").

    Reads are stitched without a reference by finding the order maximising
    suffix-prefix overlaps — a maximum-weight Hamiltonian path on the
    overlap graph, the shortest-common-superstring problem. The path
    problem is encoded as a QUBO (via a zero-cost depot converting it to a
    tour) so the annealing and QAOA backends of section 3.3 apply; a greedy
    merge baseline is included. *)

val overlap : Dna.t -> Dna.t -> int
(** Longest suffix of the first read equal to a prefix of the second. *)

val superstring : Dna.t array -> int array -> Dna.t
(** Merge reads in the given order, collapsing pairwise overlaps. *)

type result = {
  order : int array;  (** Read order used. *)
  assembled : Dna.t;
  total_overlap : int;  (** Sum of consumed overlaps (larger = shorter assembly). *)
}

val greedy : Dna.t array -> result
(** Classical baseline: repeatedly merge the pair with the largest overlap. *)

val exact : Dna.t array -> result
(** Optimal order by Held-Karp on the overlap graph (reads <= ~15). *)

val anneal :
  ?params:Qca_anneal.Sa.params -> rng:Qca_util.Rng.t -> Dna.t array -> result
(** Quantum-accelerator route: encode the path problem as a QUBO
    ((reads+1)^2 binary variables) and solve with simulated annealing;
    invalid assignments are repaired. *)

val qubits_needed : int -> int
(** QUBO variables for [n] reads: (n+1)^2 (depot included). *)

val shotgun : Qca_util.Rng.t -> reference:Dna.t -> read_length:int -> coverage:float -> Dna.t array
(** Sample overlapping reads uniformly from a reference (shotgun
    sequencing); coverage ~ total read bases / reference length. *)
