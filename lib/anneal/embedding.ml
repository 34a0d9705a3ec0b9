module Graph = Qca_util.Graph
module Rng = Qca_util.Rng

type t = { chains : int list array; physical_used : int; max_chain_length : int }

(* BFS distances over free physical qubits, seeded at distance 1 from the
   free neighbours of an existing chain. Used qubits are impassable. *)
let distances_from_chain physical used chain =
  let n = Graph.size physical in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  List.iter
    (fun p ->
      List.iter
        (fun (q, _) ->
          if (not used.(q)) && dist.(q) > 1 then begin
            dist.(q) <- 1;
            Queue.add q queue
          end)
        (Graph.neighbours physical p))
    chain;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun (w, _) ->
        if (not used.(w)) && dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
      (Graph.neighbours physical v)
  done;
  dist

(* Multi-source BFS from the free neighbours of the growing chain, through
   free qubits, until reaching a qubit adjacent to the target chain. Returns
   the connecting path of free qubits (possibly empty when the chains are
   already adjacent), or None. *)
let connect physical used blocked chain_v target_chain =
  let in_target = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace in_target p ()) target_chain;
  let adjacent_to_target p =
    List.exists (fun (q, _) -> Hashtbl.mem in_target q) (Graph.neighbours physical p)
  in
  if List.exists adjacent_to_target chain_v then Some []
  else begin
    let n = Graph.size physical in
    let parent = Array.make n (-2) in
    (* -2 = unvisited, -1 = BFS source *)
    let queue = Queue.create () in
    List.iter
      (fun p ->
        List.iter
          (fun (q, _) ->
            if (not used.(q)) && (not (blocked q)) && parent.(q) = -2 then begin
              parent.(q) <- -1;
              Queue.add q queue
            end)
          (Graph.neighbours physical p))
      chain_v;
    let rec build_path p acc =
      if parent.(p) = -1 then p :: acc else build_path parent.(p) (p :: acc)
    in
    let rec search () =
      if Queue.is_empty queue then begin
        if Sys.getenv_opt "QCA_EMBED_DEBUG" <> None then begin
          let free_target =
            List.fold_left
              (fun acc p ->
                acc
                + List.length
                    (List.filter (fun (q, _) -> not used.(q)) (Graph.neighbours physical p)))
              0 target_chain
          in
          Printf.eprintf "connect: BFS exhausted; target free-nbrs=%d chain_v=%d\n"
            free_target (List.length chain_v)
        end;
        None
      end
      else begin
        let p = Queue.pop queue in
        if adjacent_to_target p then Some (build_path p [])
        else begin
          List.iter
            (fun (q, _) ->
              if (not used.(q)) && (not (blocked q)) && parent.(q) = -2 then begin
                parent.(q) <- p;
                Queue.add q queue
              end)
            (Graph.neighbours physical p);
          search ()
        end
      end
    in
    search ()
  end

let try_embed rng logical physical =
  let ln = Graph.size logical and pn = Graph.size physical in
  let used = Array.make pn false in
  let chains = Array.make ln [] in
  (* Vertex order: decreasing degree, random tiebreak. *)
  let order = Array.init ln Fun.id in
  Rng.shuffle rng order;
  Array.sort (fun a b -> compare (Graph.degree logical b) (Graph.degree logical a)) order;
  let mark p = used.(p) <- true in
  (* Enclosure avoidance: a free qubit is "reserved" when it is the unique
     free neighbour of a chain that still needs couplers to vertices not yet
     embedded; consuming it would wall that chain in and doom the try. *)
  let reserved ~current =
    let table = Hashtbl.create 16 in
    Array.iteri
      (fun u chain ->
        if chain <> [] then begin
          let pending =
            List.exists
              (fun (w, _) -> w <> current && chains.(w) = [])
              (Graph.neighbours logical u)
          in
          if pending then begin
            let free_neighbours = Hashtbl.create 8 in
            List.iter
              (fun p ->
                List.iter
                  (fun (q, _) -> if not used.(q) then Hashtbl.replace free_neighbours q ())
                  (Graph.neighbours physical p))
              chain;
            if Hashtbl.length free_neighbours = 1 then
              Hashtbl.iter (fun q () -> Hashtbl.replace table q ()) free_neighbours
          end
        end)
      chains;
    table
  in
  let free_qubits () =
    let acc = ref [] in
    for p = pn - 1 downto 0 do
      if not used.(p) then acc := p :: !acc
    done;
    !acc
  in
  let embed_vertex v =
    let embedded_neighbours =
      List.filter (fun (u, _) -> chains.(u) <> []) (Graph.neighbours logical v)
      |> List.map fst
    in
    let blocked_set = reserved ~current:v in
    let blocked q = Hashtbl.mem blocked_set q in
    if embedded_neighbours = [] then begin
      match List.filter (fun p -> not (blocked p)) (free_qubits ()) with
      | [] ->
          if Sys.getenv_opt "QCA_EMBED_DEBUG" <> None then
            Printf.eprintf "embed: no free seed for v%d\n" v;
          raise Exit
      | free ->
          let p = List.nth free (Rng.int rng (List.length free)) in
          chains.(v) <- [ p ];
          mark p
    end
    else begin
      let dists =
        List.map (fun u -> (u, distances_from_chain physical used chains.(u))) embedded_neighbours
      in
      (* Root: free qubit minimising total distance to the neighbour chains,
         counting unreachable chains with a large penalty (the chain will
         snake toward them from any of its qubits later). *)
      let penalty = 4 * pn in
      let best = ref None in
      for p = 0 to pn - 1 do
        if (not used.(p)) && not (blocked p) then begin
          let reachable_any = List.exists (fun (_, d) -> d.(p) < max_int) dists in
          if reachable_any then begin
            let cost =
              List.fold_left
                (fun acc (_, d) -> acc + if d.(p) < max_int then d.(p) else penalty)
                0 dists
            in
            match !best with
            | Some (_, c) when c <= cost -> ()
            | Some _ | None -> best := Some (p, cost)
          end
        end
      done;
      let free_neighbours_of_chain chain =
        let table = Hashtbl.create 8 in
        List.iter
          (fun p ->
            List.iter
              (fun (q, _) -> if not used.(q) then Hashtbl.replace table q ())
              (Graph.neighbours physical p))
          chain;
        Hashtbl.fold (fun q () acc -> q :: acc) table []
      in
      (* Chain extension: when a target chain is nearly walled in, absorb its
         remaining free neighbours into the chain until it exposes enough
         fresh couplers for this connection plus its future pending edges. *)
      let rec ensure_open u needed budget =
        if budget = 0 then raise Exit;
        let free = free_neighbours_of_chain chains.(u) in
        if List.length free >= needed then ()
        else
          match free with
          | [] -> raise Exit
          | q :: _ ->
              mark q;
              chains.(u) <- q :: chains.(u);
              ensure_open u needed (budget - 1)
      in
      match !best with
      | None ->
          if Sys.getenv_opt "QCA_EMBED_DEBUG" <> None then
            Printf.eprintf "embed: no root for v%d (%d nbrs)\n" v
              (List.length embedded_neighbours);
          raise Exit
      | Some (root, _) ->
          let chain = ref [ root ] in
          mark root;
          (* Connect the growing chain to every neighbour chain in turn. *)
          List.iter
            (fun (u, _) ->
              let pending_other =
                List.exists
                  (fun (w, _) -> w <> v && chains.(w) = [])
                  (Graph.neighbours logical u)
              in
              ensure_open u (if pending_other then 2 else 1) 64;
              (* Recompute reservations as chains grow. *)
              let blocked_set = reserved ~current:v in
              let blocked q = Hashtbl.mem blocked_set q in
              match connect physical used blocked !chain chains.(u) with
              | None ->
                  if Sys.getenv_opt "QCA_EMBED_DEBUG" <> None then
                    Printf.eprintf "embed: cannot connect v%d to u%d\n" v u;
                  raise Exit
              | Some path ->
                  List.iter
                    (fun p ->
                      mark p;
                      chain := p :: !chain)
                    path)
            dists;
          chains.(v) <- !chain
    end
  in
  try
    Array.iter embed_vertex order;
    let physical_used = Array.fold_left (fun acc c -> acc + List.length c) 0 chains in
    let max_chain_length = Array.fold_left (fun acc c -> max acc (List.length c)) 0 chains in
    Some { chains; physical_used; max_chain_length }
  with Exit -> None

let is_valid ~logical ~physical embedding =
  let pn = Graph.size physical in
  let owner = Array.make pn (-1) in
  let ok = ref true in
  (* Disjoint and connected chains. *)
  Array.iteri
    (fun v chain ->
      if chain = [] then ok := false;
      List.iter
        (fun p ->
          if owner.(p) <> -1 then ok := false;
          owner.(p) <- v)
        chain;
      (* connectivity via BFS within the chain *)
      match chain with
      | [] -> ()
      | start :: _ ->
          let in_chain p = List.mem p chain in
          let seen = Hashtbl.create 8 in
          let queue = Queue.create () in
          Queue.add start queue;
          Hashtbl.replace seen start ();
          while not (Queue.is_empty queue) do
            let p = Queue.pop queue in
            List.iter
              (fun (q, _) ->
                if in_chain q && not (Hashtbl.mem seen q) then begin
                  Hashtbl.replace seen q ();
                  Queue.add q queue
                end)
              (Graph.neighbours physical p)
          done;
          if Hashtbl.length seen <> List.length chain then ok := false)
    embedding.chains;
  (* Every logical edge must have a physical coupler between chains. *)
  List.iter
    (fun (u, v, _) ->
      let coupled =
        List.exists
          (fun p ->
            List.exists (fun (q, _) -> List.mem q embedding.chains.(v)) (Graph.neighbours physical p))
          embedding.chains.(u)
      in
      if not coupled then ok := false)
    (Graph.edges logical);
  !ok

let embed ?(tries = 8) ~rng ~logical physical =
  if Graph.size logical = 0 then None
  else
    let rec attempt k =
      if k = 0 then None
      else
        match try_embed rng logical physical with
        | Some e when is_valid ~logical ~physical e -> Some e
        | Some _ ->
            if Sys.getenv_opt "QCA_EMBED_DEBUG" <> None then
              prerr_endline "embedding: candidate failed validation";
            attempt (k - 1)
        | None ->
            if Sys.getenv_opt "QCA_EMBED_DEBUG" <> None then
              prerr_endline "embedding: construction failed";
            attempt (k - 1)
    in
    attempt tries

(* Triangular clique embedding: logical i = 4a + b occupies the vertical
   lane b of every cell in column a plus the horizontal lane b of every cell
   in row a; the two arms couple inside cell (a, a), and the arms of any two
   logicals cross in exactly one cell, where an intra-cell coupler links
   them. *)
let chimera_clique ~m ~n =
  if n > 4 * m then invalid_arg "Embedding.chimera_clique: n > 4m";
  if n < 1 then invalid_arg "Embedding.chimera_clique: n < 1";
  let chains =
    Array.init n (fun i ->
        let a = i / 4 and b = i mod 4 in
        let vertical = List.init m (fun row -> Chimera.index ~m ~row ~col:a ~k:b) in
        let horizontal = List.init m (fun col -> Chimera.index ~m ~row:a ~col ~k:(4 + b)) in
        vertical @ horizontal)
  in
  let physical_used = Array.fold_left (fun acc c -> acc + List.length c) 0 chains in
  { chains; physical_used; max_chain_length = 2 * m }

let max_clique_cities ~m = int_of_float (Float.sqrt (float_of_int (4 * m)))

type method_used = Heuristic | Clique

let embed_in_chimera ?tries ~rng ~m logical =
  let physical = Chimera.graph m in
  match embed ?tries ~rng ~logical physical with
  | Some e -> Some (e, Heuristic)
  | None ->
      let n = Graph.size logical in
      if n <= 4 * m then Some (chimera_clique ~m ~n, Clique) else None
