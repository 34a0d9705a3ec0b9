type value = Int of int | Float of float | String of string | Bool of bool

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | String s -> s
  | Bool b -> string_of_bool b

type node = {
  span_name : string;
  start_s : float;
  wall_s : float;
  sim_ns : int option;
  attrs : (string * value) list;
  children : node list;
}

(* An open span accumulates attributes and children in reverse order; both
   are re-reversed once when the span closes into a [node]. *)
type open_span = {
  o_name : string;
  o_start : float;
  mutable o_attrs : (string * value) list;
  mutable o_sim_ns : int option;
  mutable o_children : node list;
  mutable o_closed : bool;
}

type collector = {
  mutable stack : open_span list;  (* innermost first *)
  mutable finished : node list;  (* completed roots, reversed *)
  counter_table : (string, int) Hashtbl.t;
  mutable events : int;
}

type span = open_span option

let null_span = None

(* The global sink. [None] is the shipping default: every recording entry
   point below branches on this once and does nothing else, so tracing
   hooks can stay compiled into hot paths. *)
let sink : collector option ref = ref None

let enabled () = match !sink with None -> false | Some _ -> true

let make_collector () =
  { stack = []; finished = []; counter_table = Hashtbl.create 32; events = 0 }

let node_of sp now =
  sp.o_closed <- true;
  {
    span_name = sp.o_name;
    start_s = sp.o_start;
    wall_s = Float.max 0.0 (now -. sp.o_start);
    sim_ns = sp.o_sim_ns;
    attrs = List.rev sp.o_attrs;
    children = List.rev sp.o_children;
  }

(* Pop and close stack entries down to and including [sp]. Spans opened
   after [sp] but never ended close here too, so a missed [end_span] in an
   exception path cannot leave the tree dangling. *)
let rec pop_until c sp now =
  match c.stack with
  | [] -> ()
  | top :: rest ->
      c.stack <- rest;
      let node = node_of top now in
      (match rest with
      | parent :: _ -> parent.o_children <- node :: parent.o_children
      | [] -> c.finished <- node :: c.finished);
      if top != sp then pop_until c sp now

let begin_span ?(attrs = []) name =
  match !sink with
  | None -> None
  | Some c ->
      let sp =
        {
          o_name = name;
          o_start = Clock.now ();
          o_attrs = List.rev attrs;
          o_sim_ns = None;
          o_children = [];
          o_closed = false;
        }
      in
      c.stack <- sp :: c.stack;
      c.events <- c.events + 1 + List.length attrs;
      Some sp

let end_span ?(attrs = []) span =
  match span, !sink with
  | None, _ | _, None -> ()
  | Some sp, Some c ->
      if (not sp.o_closed) && List.memq sp c.stack then begin
        List.iter (fun kv -> sp.o_attrs <- kv :: sp.o_attrs) attrs;
        c.events <- c.events + 1 + List.length attrs;
        pop_until c sp (Clock.now ())
      end

let with_span ?attrs name f =
  match !sink with
  | None -> f None
  | Some _ -> (
      let sp = begin_span ?attrs name in
      match f sp with
      | v ->
          end_span sp;
          v
      | exception e ->
          end_span sp;
          raise e)

let add_attr span key v =
  match span with
  | Some sp when not sp.o_closed -> (
      sp.o_attrs <- (key, v) :: sp.o_attrs;
      match !sink with None -> () | Some c -> c.events <- c.events + 1)
  | Some _ | None -> ()

let annotate span f =
  match span with
  | Some sp when not sp.o_closed ->
      List.iter (fun kv -> add_attr span (fst kv) (snd kv)) (f ())
  | Some _ | None -> ()

let set_sim_ns span ns =
  match span with
  | Some sp when not sp.o_closed -> sp.o_sim_ns <- Some ns
  | Some _ | None -> ()

let add_counter name n =
  match !sink with
  | None -> ()
  | Some c ->
      Hashtbl.replace c.counter_table name
        (n + Option.value ~default:0 (Hashtbl.find_opt c.counter_table name));
      c.events <- c.events + 1

(* --- collector lifecycle ----------------------------------------------- *)

let close_open_spans c =
  match c.stack with
  | [] -> ()
  | _ ->
      let now = Clock.now () in
      let rec drain () =
        match c.stack with
        | [] -> ()
        | sp :: _ ->
            pop_until c sp now;
            drain ()
      in
      drain ()

let install c =
  (match !sink with Some old -> close_open_spans old | None -> ());
  sink := Some c

let uninstall () =
  (match !sink with Some c -> close_open_spans c | None -> ());
  sink := None

let collecting c f =
  install c;
  Fun.protect ~finally:uninstall f

let roots c = List.rev c.finished

let counters c =
  Hashtbl.fold (fun name count acc -> (name, count) :: acc) c.counter_table []
  |> List.sort compare

let event_count c = c.events

(* --- tree summary ------------------------------------------------------ *)

(* Runs of same-named siblings (one microarch session per shot, say)
   collapse into a single "name xN" line: integer attributes and sim-ns
   sum across the run, attributes equal everywhere carry over unchanged,
   and mixed non-integer attributes drop out. *)
type rollup = {
  r_name : string;
  r_count : int;
  r_wall : float;
  r_sim : int option;
  r_attrs : (string * value) list;
  r_children : node list;
}

let merge_attrs first rest =
  List.filter_map
    (fun (key, v0) ->
      let values = v0 :: List.filter_map (List.assoc_opt key) rest in
      if List.length values < 1 + List.length rest then None
      else
        match v0 with
        | Int _ ->
            let sum =
              List.fold_left
                (fun acc v -> match v with Int i -> acc + i | _ -> acc)
                0 values
            in
            Some (key, Int sum)
        | _ -> if List.for_all (fun v -> v = v0) values then Some (key, v0) else None)
    first

let rollup_of group =
  match group with
  | [] -> assert false
  | first :: rest ->
      let sim =
        if List.for_all (fun n -> n.sim_ns = None) group then None
        else
          Some
            (List.fold_left
               (fun acc n -> acc + Option.value ~default:0 n.sim_ns)
               0 group)
      in
      {
        r_name = first.span_name;
        r_count = List.length group;
        r_wall = List.fold_left (fun acc n -> acc +. n.wall_s) 0.0 group;
        r_sim = sim;
        r_attrs =
          (if rest = [] then first.attrs
           else merge_attrs first.attrs (List.map (fun n -> n.attrs) rest));
        r_children = List.concat_map (fun n -> n.children) group;
      }

let group_siblings nodes =
  let rec go acc current = function
    | [] -> List.rev (match current with [] -> acc | g -> List.rev g :: acc)
    | n :: rest -> (
        match current with
        | top :: _ when top.span_name = n.span_name -> go acc (n :: current) rest
        | [] -> go acc [ n ] rest
        | g -> go (List.rev g :: acc) [ n ] rest)
  in
  go [] [] nodes

let to_tree_string ?(show_wall = true) c =
  let buffer = Buffer.create 512 in
  let rec emit depth nodes =
    List.iter
      (fun group ->
        let r = rollup_of group in
        Buffer.add_string buffer (String.make (depth * 2) ' ');
        Buffer.add_string buffer "- ";
        Buffer.add_string buffer r.r_name;
        if r.r_count > 1 then Buffer.add_string buffer (Printf.sprintf " x%d" r.r_count);
        List.iter
          (fun (k, v) ->
            Buffer.add_string buffer (Printf.sprintf " %s=%s" k (value_to_string v)))
          r.r_attrs;
        (match r.r_sim with
        | Some ns -> Buffer.add_string buffer (Printf.sprintf " sim=%dns" ns)
        | None -> ());
        if show_wall then
          Buffer.add_string buffer (Printf.sprintf " [%.3fms]" (r.r_wall *. 1000.0));
        Buffer.add_char buffer '\n';
        emit (depth + 1) r.r_children)
      (group_siblings nodes)
  in
  emit 0 (roots c);
  (match counters c with
  | [] -> ()
  | cs ->
      Buffer.add_string buffer "counters:\n";
      List.iter
        (fun (name, count) ->
          Buffer.add_string buffer (Printf.sprintf "  %s %d\n" name count))
        cs);
  Buffer.contents buffer

(* --- Chrome trace_event JSON ------------------------------------------- *)

let json_of_value = function
  | Int i -> Json.Int i | Float f -> Json.Float f | String s -> Json.String s | Bool b -> Json.Bool b

(* Timestamps are microseconds kept to the nanosecond. *)
let micros s = Json.Float (Json.round 3 (s *. 1e6))

let to_chrome_json c =
  let nodes = roots c in
  let epoch = List.fold_left (fun acc n -> Float.min acc n.start_s) infinity nodes in
  let epoch = if Float.is_finite epoch then epoch else 0.0 in
  let end_s = ref 0.0 in
  let event name ph ts timing args =
    Json.Obj
      ([ ("name", Json.String name); ("cat", Json.String "qca"); ("ph", Json.String ph);
         ("ts", micros ts) ]
      @ timing
      @ [ ("pid", Json.Int 1); ("tid", Json.Int 1) ]
      @ if args = [] then [] else [ ("args", Json.Obj args) ])
  in
  let rec spans node =
    let ts = node.start_s -. epoch in
    end_s := Float.max !end_s (ts +. node.wall_s);
    let sim = match node.sim_ns with Some ns -> [ ("sim_ns", Json.Int ns) ] | None -> [] in
    event node.span_name "X" ts [ ("dur", micros node.wall_s) ]
      (sim @ List.map (fun (k, v) -> (k, json_of_value v)) node.attrs)
    :: List.concat_map spans node.children
  in
  (* Spans first: counters sit at the end of the last span. *)
  let span_events = List.concat_map spans nodes in
  let counter (name, count) = event name "C" !end_s [] [ ("value", Json.Int count) ] in
  Json.to_lines
    (Json.Obj
       [ ("traceEvents", Json.List (span_events @ List.map counter (counters c)));
         ("displayTimeUnit", Json.String "ms") ])
  ^ "\n"
