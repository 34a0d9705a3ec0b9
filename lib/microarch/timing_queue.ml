type event = { time_ns : int; micro_op : Microcode.micro_op }

type t = {
  channel : int;
  mutable events : event list;  (* sorted ascending by time *)
  mutable last_drained_ns : int;
  mutable peak : int;
  mutable violations : int;
  mutable pushed : int;
}

let create ~channel =
  { channel; events = []; last_drained_ns = -1; peak = 0; violations = 0; pushed = 0 }

let push q micro_op =
  let ev = { time_ns = micro_op.Microcode.time_ns; micro_op } in
  if ev.time_ns <= q.last_drained_ns then q.violations <- q.violations + 1;
  let rec insert = function
    | [] -> [ ev ]
    | e :: rest -> if e.time_ns <= ev.time_ns then e :: insert rest else ev :: e :: rest
  in
  q.events <- insert q.events;
  q.pushed <- q.pushed + 1;
  q.peak <- max q.peak (List.length q.events)

let drain_until q deadline =
  let ready, pending = List.partition (fun e -> e.time_ns <= deadline) q.events in
  q.events <- pending;
  (match List.rev ready with
  | last :: _ -> q.last_drained_ns <- max q.last_drained_ns last.time_ns
  | [] -> ());
  ready

let drain_all q = drain_until q max_int

let pending q = List.length q.events
let peak_depth q = q.peak
let violations q = q.violations

type pool = t array

let create_pool ~channels = Array.init channels (fun channel -> create ~channel)
let queue pool c = pool.(c)
let push_pool pool micro_op = push pool.(micro_op.Microcode.qubit) micro_op

let drain_pool_until pool deadline =
  Array.fold_left (fun acc q -> acc + List.length (drain_until q deadline)) 0 pool

let pool_stats pool =
  Array.fold_left
    (fun (total, peak, viol) q -> (total + q.pushed, max peak q.peak, viol + q.violations))
    (0, 0, 0) pool
