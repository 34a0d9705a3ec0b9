(** Graph minor embedding: map each logical QUBO variable onto a connected
    chain of physical qubits so that every logical interaction is realised
    by at least one physical coupler.

    Finding a minor embedding is NP-hard (section 4.2); this is the standard
    greedy BFS heuristic with random vertex orders and restarts, in the
    spirit of D-Wave's minorminer. *)

type t = {
  chains : int list array;  (** [chains.(logical)] = physical qubits of its chain. *)
  physical_used : int;  (** Total physical qubits consumed. *)
  max_chain_length : int;
}

val embed :
  ?tries:int ->
  rng:Qca_util.Rng.t ->
  logical:Qca_util.Graph.t ->
  Qca_util.Graph.t ->
  t option
(** [embed ~rng ~logical physical] attempts the embedding; [None] when all
    tries fail. *)

val is_valid : logical:Qca_util.Graph.t -> physical:Qca_util.Graph.t -> t -> bool
(** Chains are connected, pairwise disjoint, and every logical edge has a
    physical coupler between the two chains. *)

val chimera_clique : m:int -> n:int -> t
(** The standard deterministic triangular clique embedding of K_n into
    Chimera C_m (n <= 4m): logical 4a+b occupies the cross of vertical lane
    b in column a and horizontal lane b in row a, joined in cell (a, a).
    Every chain has length 2m. Raises [Invalid_argument] when n > 4m. *)

val max_clique_cities : m:int -> int
(** Largest TSP city count whose n^2-variable QUBO is guaranteed embeddable
    via {!chimera_clique}: floor(sqrt(4m)). *)

type method_used = Heuristic | Clique

val embed_in_chimera :
  ?tries:int ->
  rng:Qca_util.Rng.t ->
  m:int ->
  Qca_util.Graph.t ->
  (t * method_used) option
(** Production embedding strategy for Chimera C_m (what D-Wave tooling does
    for dense problems): try the greedy heuristic, then fall back to the
    clique embedding when the vertex count fits K_{4m}. *)
