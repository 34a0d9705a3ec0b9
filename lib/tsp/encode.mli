(** TSP -> QUBO encoding (section 3.3).

    Binary variable x_(c,t) means "city c is visited at time t"; with n
    cities the encoding needs n^2 qubits (the paper's quadratic growth).
    The QUBO combines, exactly as enumerated in the paper:
    (i) a reward for assigning every node,
    (ii) a penalty for one city in two time slots,
    (iii) a penalty for two cities in one time slot,
    (iv) the travel cost of consecutive assignments. *)

val qubits_needed : int -> int
(** n^2. *)

val to_qubo : ?penalty:float -> Tsp.t -> Qca_anneal.Qubo.t
(** [penalty] defaults to 4x the largest distance — strictly larger than any
    cost gain a constraint violation could buy. *)

val decode : Tsp.t -> int array -> int array option
(** Read a tour from a bit assignment; [None] if constraints are violated. *)

val decode_with_repair : Tsp.t -> int array -> int array
(** Greedy repair: every time slot gets the highest-scoring city not yet
    used, then unused cities fill the gaps. Always returns a valid tour. *)

val tour_bits : n:int -> int array -> int array
(** Bits encoding a given tour (for energy comparisons). *)
