module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Graph = Qca_util.Graph

type strategy = Greedy | Sabre
type placement = Trivial | By_degree

let default_strategy = Sabre

let strategy_to_string = function Greedy -> "greedy" | Sabre -> "sabre"

let strategy_of_string = function
  | "greedy" -> Ok Greedy
  | "sabre" -> Ok Sabre
  | s ->
      Error
        (Printf.sprintf "unknown routing strategy '%s' (expected sabre or greedy)" s)

type result = {
  circuit : Circuit.t;
  initial_layout : int array;
  final_layout : int array;
  swaps_added : int;
}

(* Interaction count per logical qubit, for the placement heuristic. *)
let interaction_degrees circuit =
  let n = Circuit.qubit_count circuit in
  let deg = Array.make n 0 in
  List.iter
    (fun instr ->
      match instr with
      | (Gate.Unitary (u, ops) | Gate.Conditional (_, u, ops)) when Gate.arity u >= 2 ->
          Array.iter (fun q -> deg.(q) <- deg.(q) + 1) ops
      | Gate.Unitary _ | Gate.Conditional _ | Gate.Prep _ | Gate.Measure _
      | Gate.Barrier _ ->
          ())
    (Circuit.instructions circuit);
  deg

(* BFS order from the best-connected physical qubit. *)
let physical_order coupling =
  let n = Graph.size coupling in
  let start = ref 0 in
  for v = 1 to n - 1 do
    if Graph.degree coupling v > Graph.degree coupling !start then start := v
  done;
  let seen = Array.make n false in
  let order = ref [] in
  let queue = Queue.create () in
  Queue.add !start queue;
  seen.(!start) <- true;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    List.iter
      (fun (u, _) ->
        if not seen.(u) then begin
          seen.(u) <- true;
          Queue.add u queue
        end)
      (Graph.neighbours coupling v)
  done;
  (* Disconnected leftovers, if any. *)
  for v = 0 to n - 1 do
    if not seen.(v) then order := v :: !order
  done;
  List.rev !order

let initial_layout placement coupling circuit physical_count =
  let logical_count = Circuit.qubit_count circuit in
  match placement with
  | Trivial -> Array.init logical_count Fun.id
  | By_degree ->
      let deg = interaction_degrees circuit in
      let logical_by_degree =
        List.sort
          (fun a b -> compare (deg.(b), a) (deg.(a), b))
          (List.init logical_count Fun.id)
      in
      let phys = physical_order coupling in
      let layout = Array.make logical_count (-1) in
      List.iteri
        (fun i l -> if i < physical_count then layout.(l) <- List.nth phys i)
        logical_by_degree;
      layout

(* The router core both strategies share: the evolving layout, the output
   circuit, and the one rule for putting a logical instruction on physical
   wires. *)
type router = {
  platform : Platform.t;
  coupling : Graph.t;
  initial : int array;  (** logical -> physical at the start *)
  layout : int array;  (** logical -> physical *)
  occupant : int array;  (** physical -> logical, or -1 *)
  measured_at : int array;
      (** physical qubit each logical qubit sat on when last measured, or -1 *)
  mutable out : Circuit.t;
  mutable swaps : int;
}

let create_router placement platform circuit =
  let physical_count = platform.Platform.qubit_count in
  if Circuit.qubit_count circuit > physical_count then
    invalid_arg "Mapping.run: circuit larger than platform";
  let coupling = Platform.connectivity platform in
  let initial = initial_layout placement coupling circuit physical_count in
  let occupant = Array.make physical_count (-1) in
  Array.iteri (fun l p -> occupant.(p) <- l) initial;
  {
    platform;
    coupling;
    initial;
    layout = Array.copy initial;
    occupant;
    measured_at = Array.make (Circuit.qubit_count circuit) (-1);
    out = Circuit.create ~name:(Circuit.name circuit ^ "_mapped") physical_count;
    swaps = 0;
  }

let finish r =
  {
    circuit = r.out;
    initial_layout = r.initial;
    final_layout = Array.copy r.layout;
    swaps_added = r.swaps;
  }

let swap_physical r p1 p2 =
  let l1 = r.occupant.(p1) and l2 = r.occupant.(p2) in
  r.occupant.(p1) <- l2;
  r.occupant.(p2) <- l1;
  if l1 >= 0 then r.layout.(l1) <- p2;
  if l2 >= 0 then r.layout.(l2) <- p1

let emit r instr = r.out <- Circuit.add r.out instr

let emit_swap r p1 p2 =
  emit r (Gate.Unitary (Gate.Swap, [| p1; p2 |]));
  swap_physical r p1 p2;
  r.swaps <- r.swaps + 1

(* Emit a logical instruction on the wires its qubits occupy now. Classical
   bits are indexed by the physical qubit that was measured, so a
   measurement records where its qubit sat and a conditional (of any arity)
   reads the bit recorded there. *)
let emit_logical r instr =
  let phys l = r.layout.(l) in
  match instr with
  | (Gate.Unitary (u, _) | Gate.Conditional (_, u, _)) when Gate.arity u > 2 ->
      invalid_arg "Mapping.run: decompose >2-qubit gates before mapping"
  | Gate.Measure q ->
      r.measured_at.(q) <- phys q;
      emit r (Gate.Measure (phys q))
  | Gate.Conditional (bit, u, ops) ->
      let bit = if r.measured_at.(bit) >= 0 then r.measured_at.(bit) else phys bit in
      emit r (Gate.Conditional (bit, u, Array.map phys ops))
  | Gate.Unitary _ | Gate.Prep _ | Gate.Barrier _ -> emit r (Gate.map_qubits phys instr)

let two_qubit_operands = function
  | (Gate.Unitary (u, ops) | Gate.Conditional (_, u, ops)) when Gate.arity u = 2 ->
      Some (ops.(0), ops.(1))
  | Gate.Unitary _ | Gate.Conditional _ | Gate.Prep _ | Gate.Measure _ | Gate.Barrier _ ->
      None

(* Swap logical [l1] along a shortest path until it is coupled to [l2]. *)
let walk_until_coupled r l1 l2 =
  while not (Platform.are_coupled r.platform r.layout.(l1) r.layout.(l2)) do
    match Graph.shortest_path r.coupling r.layout.(l1) r.layout.(l2) with
    | None | Some ([] | [ _ ]) -> invalid_arg "Mapping: no route between physical qubits"
    | Some (p1 :: next :: _) -> emit_swap r p1 next
  done

(* Qubits an instruction depends on, including a conditional's classical
   source bit so measure→feedback ordering survives SABRE's reordering of
   independent instructions. *)
let instr_deps = function
  | Gate.Unitary (_, ops) -> ops
  | Gate.Conditional (bit, _, ops) -> Array.append [| bit |] ops
  | Gate.Prep q | Gate.Measure q -> [| q |]
  | Gate.Barrier qs -> qs

let dedup_sorted arr =
  let l = List.sort_uniq compare (Array.to_list arr) in
  Array.of_list l

(* SABRE-style router: maintain the front layer of dependency-ready
   instructions, execute everything executable, and when stuck pick the
   swap minimising the summed front-layer distance plus a discounted
   extended-set lookahead, damped by a per-qubit decay factor. *)
let run_sabre ~placement platform circuit =
  let r = create_router placement platform circuit in
  let physical_count = platform.Platform.qubit_count in
  let coupling = r.coupling in
  (* All-pairs BFS hop distances over the coupling graph. *)
  let dist =
    Array.init physical_count (fun s ->
        let d = Array.make physical_count max_int in
        d.(s) <- 0;
        let q = Queue.create () in
        Queue.add s q;
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          List.iter
            (fun (u, _) ->
              if d.(u) = max_int then begin
                d.(u) <- d.(v) + 1;
                Queue.add u q
              end)
            (Graph.neighbours coupling v)
        done;
        d)
  in
  let instrs = Array.of_list (Circuit.instructions circuit) in
  let n = Array.length instrs in
  let fpq = Array.map (fun i -> dedup_sorted (instr_deps i)) instrs in
  let logical_count = Circuit.qubit_count circuit in
  (* Per-qubit program order and cursors: instr [i] is dependency-ready
     iff it is at the head of every operand qubit's list. *)
  let per_qubit =
    let tmp = Array.make logical_count [] in
    for i = n - 1 downto 0 do
      Array.iter (fun q -> tmp.(q) <- i :: tmp.(q)) fpq.(i)
    done;
    Array.map Array.of_list tmp
  in
  let head = Array.make logical_count 0 in
  let is_ready i =
    Array.for_all
      (fun q -> head.(q) < Array.length per_qubit.(q) && per_qubit.(q).(head.(q)) = i)
      fpq.(i)
  in
  let front = ref [] in
  let in_front = Array.make n false in
  for i = n - 1 downto 0 do
    if is_ready i then begin
      front := i :: !front;
      in_front.(i) <- true
    end
  done;
  let executed = Array.make n false in
  let executed_count = ref 0 in
  let two_qubit_pair i = two_qubit_operands instrs.(i) in
  let executable i =
    match two_qubit_pair i with
    | Some (l1, l2) -> Platform.are_coupled platform r.layout.(l1) r.layout.(l2)
    | None -> true
  in
  let exec i =
    emit_logical r instrs.(i);
    executed.(i) <- true;
    in_front.(i) <- false;
    incr executed_count;
    Array.iter (fun q -> head.(q) <- head.(q) + 1) fpq.(i);
    (* Newly unblocked successors join the front layer. *)
    Array.iter
      (fun q ->
        if head.(q) < Array.length per_qubit.(q) then begin
          let j = per_qubit.(q).(head.(q)) in
          if (not in_front.(j)) && (not executed.(j)) && is_ready j then begin
            in_front.(j) <- true;
            front := j :: !front
          end
        end)
      fpq.(i)
  in
  let decay = Array.make physical_count 1.0 in
  let stall = ref 0 in
  let stall_limit = (4 * physical_count) + 16 in
  let ext_size = 20 in
  let extended_pairs () =
    let acc = ref [] and count = ref 0 and i = ref 0 in
    while !count < ext_size && !i < n do
      (if (not executed.(!i)) && not in_front.(!i) then
         match two_qubit_pair !i with
         | Some p ->
             acc := p :: !acc;
             incr count
         | None -> ());
      incr i
    done;
    List.rev !acc
  in
  let pair_dist (l1, l2) = dist.(r.layout.(l1)).(r.layout.(l2)) in
  let mean_dist pairs =
    match pairs with
    | [] -> 0.0
    | _ ->
        float_of_int (List.fold_left (fun acc p -> acc + pair_dist p) 0 pairs)
        /. float_of_int (List.length pairs)
  in
  while !executed_count < n do
    (* Drain everything executable. *)
    let progressed = ref false in
    let continue = ref true in
    while !continue do
      let sorted = List.sort compare !front in
      let execable = List.filter executable sorted in
      match execable with
      | [] -> continue := false
      | _ ->
          front := List.filter (fun i -> not (List.mem i execable)) !front;
          List.iter exec execable;
          progressed := true
    done;
    if !progressed then begin
      Array.fill decay 0 physical_count 1.0;
      stall := 0
    end;
    if !executed_count < n then begin
      let fpairs = List.filter_map two_qubit_pair (List.sort compare !front) in
      assert (fpairs <> []);
      if !stall >= stall_limit then begin
        (* Safety valve: route the first blocked pair the greedy way. *)
        let l1, l2 = List.hd fpairs in
        walk_until_coupled r l1 l2;
        stall := 0
      end
      else begin
        let epairs = extended_pairs () in
        (* Candidate swaps: edges incident to a front-layer qubit. *)
        let candidates =
          List.sort_uniq compare
            (List.concat_map
               (fun (l1, l2) ->
                 List.concat_map
                   (fun p ->
                     List.map
                       (fun (pn, _) -> (min p pn, max p pn))
                       (Graph.neighbours coupling p))
                   [ r.layout.(l1); r.layout.(l2) ])
               fpairs)
        in
        let score (p1, p2) =
          swap_physical r p1 p2;
          let s =
            (mean_dist fpairs +. (0.5 *. mean_dist epairs))
            *. Float.max decay.(p1) decay.(p2)
          in
          swap_physical r p1 p2;
          s
        in
        let best =
          List.fold_left
            (fun best edge ->
              let s = score edge in
              match best with
              | Some (bs, _) when bs <= s -> best
              | _ -> Some (s, edge))
            None candidates
        in
        match best with
        | None -> invalid_arg "Mapping: no route between physical qubits"
        | Some (_, (p1, p2)) ->
            emit_swap r p1 p2;
            decay.(p1) <- decay.(p1) +. 0.01;
            decay.(p2) <- decay.(p2) +. 0.01;
            incr stall
      end
    end
  done;
  finish r

(* The greedy baseline: walk the program in order and, before each
   two-qubit gate, move its first operand until the pair is coupled. *)
let run_greedy ~placement platform circuit =
  let r = create_router placement platform circuit in
  List.iter
    (fun instr ->
      Option.iter (fun (l1, l2) -> walk_until_coupled r l1 l2) (two_qubit_operands instr);
      emit_logical r instr)
    (Circuit.instructions circuit);
  finish r

let run ?(strategy = default_strategy) ?(placement = Trivial) platform circuit =
  match strategy with
  | Sabre -> run_sabre ~placement platform circuit
  | Greedy -> run_greedy ~placement platform circuit

let overhead platform result ~original =
  let routed_2q = Circuit.two_qubit_gate_count result.circuit in
  let original_2q = max 1 (Circuit.two_qubit_gate_count original) in
  let gate_overhead = float_of_int routed_2q /. float_of_int original_2q in
  let widened =
    Circuit.of_list ~name:(Circuit.name original) platform.Platform.qubit_count
      (Circuit.instructions original)
  in
  let t_original = (Schedule.run platform widened).Schedule.makespan in
  let t_routed = (Schedule.run platform result.circuit).Schedule.makespan in
  let latency_overhead = float_of_int t_routed /. float_of_int (max 1 t_original) in
  (gate_overhead, latency_overhead)
