(** Qubit placement and routing (section 2.6 "placement and routing").

    Real and realistic qubits only couple to nearest neighbours, so two-qubit
    gates on distant logical qubits require routing the qubit state across
    the topology with SWAPs (the compiler-inserted MOVE operations of
    sections 2.6 and 3.2).

    {b Mapping-permutation invariant.} Every strategy returns a circuit over
    physical indices such that, at any point in the program, logical qubit
    [l]'s state lives on exactly one physical wire, starting at
    [initial_layout.(l)] and ending at [final_layout.(l)]; the routed circuit
    equals the original conjugated by those wire permutations (inserted SWAPs
    included). Measurement outcomes are preserved: classical bit indices
    follow the physical qubit a logical qubit occupied when it was measured,
    and classically-conditioned gates read that recorded bit. Both
    strategies emit every instruction through one shared rule, so the
    invariant holds for each by construction. *)

type strategy =
  | Greedy
      (** The baseline: walk the program in order and, before each
          two-qubit gate, swap its first operand along a shortest path
          until the pair is coupled. *)
  | Sabre
      (** SABRE-style lookahead router (Li, Ding & Xie): keep the front
          layer of dependency-ready gates, execute everything the coupling
          graph allows, and when stuck insert the swap minimising the mean
          front-layer hop distance plus a 0.5-weighted extended-set
          lookahead, damped by a per-qubit decay factor that spreads
          consecutive swaps across wires. Independent instructions may be
          reordered (dependency order per qubit, and measure→conditional
          order, are preserved). Deterministic: ties break on the smallest
          physical edge. *)

val default_strategy : strategy
(** [Sabre]: the router {!run}, {!Compiler.compile}, [qxc --route] and the
    spool use when none is named. *)

val strategy_to_string : strategy -> string
(** Stable vocabulary name: ["greedy"] or ["sabre"] — used by the
    [qxc --route] flag and the spool header. *)

val strategy_of_string : string -> (strategy, string) result
(** Inverse of {!strategy_to_string}. [Error] carries a human-readable
    message. *)

type placement =
  | Trivial  (** Logical qubit i starts on physical qubit i. *)
  | By_degree
      (** Most-interacting logical qubits on best-connected physical qubits. *)

type result = {
  circuit : Qca_circuit.Circuit.t;  (** Physical-operand circuit with SWAPs. *)
  initial_layout : int array;  (** [initial_layout.(logical) = physical]. *)
  final_layout : int array;
  swaps_added : int;
}

val run :
  ?strategy:strategy ->
  ?placement:placement ->
  Platform.t ->
  Qca_circuit.Circuit.t ->
  result
(** Route a circuit onto the platform topology. The input circuit may use at
    most [Platform.qubit_count] qubits; the result uses physical indices.
    [strategy] defaults to {!default_strategy} and [placement] to
    [Trivial]. Raises [Invalid_argument] if the circuit needs more qubits
    than the platform offers or contains >2-qubit unitaries (decompose
    first). *)

val overhead : Platform.t -> result -> original:Qca_circuit.Circuit.t -> float * float
(** [(gate_overhead, latency_overhead)]: ratios of routed/original two-qubit
    gate count and of routed/original ASAP makespan. *)
