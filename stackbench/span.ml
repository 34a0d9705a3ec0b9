(* Wall-clock spans recorded in memory by the benchmark around its calls
   into each layer's public functions. Nothing is installed inside the
   program under test: Qca_util.Trace stays off, because the engine turns
   shot batching off whenever a trace sink is enabled, and a traced run
   must time the same program as an untraced one. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  name : string;
  job : int;
  parent : int;  (** Index of the enclosing span, -1 at top level. *)
  start : float;
  mutable stop : float;
}

type t = { mutable spans : span array; mutable len : int; mutable open_ : int list }

let create () = { spans = [||]; len = 0; open_ = [] }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

let parent t = match t.open_ with [] -> -1 | p :: _ -> p

let with_span t name ~job f =
  let id = push t { name; job; parent = parent t; start = now (); stop = nan } in
  t.open_ <- id :: t.open_;
  Fun.protect
    ~finally:(fun () ->
      t.spans.(id).stop <- now ();
      t.open_ <- List.tl t.open_)
    f

(* A span whose interval the caller measured, such as one compiler pass
   bounded by two observer calls; it becomes a child of the open span. *)
let record t name ~job ~start ~stop =
  ignore (push t { name; job; parent = parent t; start; stop })

type totals = { self_s : float; total_s : float; calls : int }

(* Per span name: summed self time (duration minus the part its children
   cover), summed duration and call count. *)
let summarise t =
  let covered = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then
      covered.(s.parent) <- covered.(s.parent) +. (s.stop -. s.start)
  done;
  let table = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let d = s.stop -. s.start in
    let prev =
      Option.value (Hashtbl.find_opt table s.name)
        ~default:{ self_s = 0.0; total_s = 0.0; calls = 0 }
    in
    Hashtbl.replace table s.name
      {
        self_s = prev.self_s +. (d -. covered.(i));
        total_s = prev.total_s +. d;
        calls = prev.calls + 1;
      }
  done;
  table

let self_s table name =
  match Hashtbl.find_opt table name with Some x -> x.self_s | None -> 0.0

let calls table name =
  match Hashtbl.find_opt table name with Some x -> x.calls | None -> 0

(* Summed self time of every span whose name starts with one of [prefixes]. *)
let self_s_of_prefixes table prefixes =
  Hashtbl.fold
    (fun name x acc ->
      if List.exists (fun p -> String.starts_with ~prefix:p name) prefixes then
        acc +. x.self_s
      else acc)
    table 0.0

let write_json t path =
  let oc = open_out path in
  output_string oc "[\n";
  let base = if t.len > 0 then t.spans.(0).start else 0.0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc
      "%s{\"id\":%d,\"name\":\"%s\",\"job\":%d,\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
      (if i = 0 then "" else ",")
      i s.name s.job s.parent (s.start -. base) (s.stop -. base)
  done;
  output_string oc "]\n";
  close_out oc
