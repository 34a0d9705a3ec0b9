module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit

type entry = { start_cycle : int; duration : int; instr : Gate.t }
type t = { entries : entry list; makespan : int; qubit_count : int }
type policy = Asap | Alap

let is_two_qubit_unitary = function
  | Gate.Unitary (u, _) | Gate.Conditional (_, u, _) -> Gate.arity u >= 2
  | Gate.Prep _ | Gate.Measure _ | Gate.Barrier _ -> false

(* Scheduling footprint: a conditional gate also depends on the classical
   bit written by the measurement of that qubit index, so it participates in
   that qubit's timeline too (read-after-write and write-after-read hazards
   on the measurement-result register). *)
let scheduling_qubits instr =
  match instr with
  | Gate.Conditional (bit, _, ops) ->
      if Array.exists (( = ) bit) ops then Array.copy ops
      else Array.append [| bit |] ops
  | Gate.Unitary _ | Gate.Prep _ | Gate.Measure _ | Gate.Barrier _ -> Gate.qubits instr

(* Count how many scheduled two-qubit gates overlap cycle range [start, start+d). *)
let two_qubit_load entries start duration =
  List.fold_left
    (fun acc e ->
      if
        is_two_qubit_unitary e.instr
        && e.start_cycle < start + duration
        && start < e.start_cycle + e.duration
      then acc + 1
      else acc)
    0 entries

let asap ?max_parallel_two_qubit platform circuit =
  let n = Circuit.qubit_count circuit in
  let ready = Array.make n 0 in
  let schedule_one (entries, makespan) instr =
    let duration = Platform.duration_cycles platform instr in
    let operands = scheduling_qubits instr in
    let earliest = Array.fold_left (fun acc q -> max acc ready.(q)) 0 operands in
    let start =
      match max_parallel_two_qubit with
      | Some limit when is_two_qubit_unitary instr ->
          (* Push the start until the 2q-parallelism budget admits it. *)
          let rec probe s =
            if two_qubit_load entries s duration < limit then s else probe (s + 1)
          in
          probe earliest
      | Some _ | None -> earliest
    in
    Array.iter (fun q -> ready.(q) <- start + duration) operands;
    let entry = { start_cycle = start; duration; instr } in
    (entry :: entries, max makespan (start + duration))
  in
  let rev_entries, makespan =
    List.fold_left schedule_one ([], 0) (Circuit.instructions circuit)
  in
  { entries = List.rev rev_entries; makespan; qubit_count = n }

(* ALAP: run ASAP on the reversed instruction list, then mirror times. The
   reversed dependency structure is identical, so mirroring preserves
   validity and the makespan. *)
let alap ?max_parallel_two_qubit platform circuit =
  let reversed =
    Circuit.of_list ~name:(Circuit.name circuit) (Circuit.qubit_count circuit)
      (List.rev (Circuit.instructions circuit))
  in
  let s = asap ?max_parallel_two_qubit platform reversed in
  let mirrored =
    List.map
      (fun e -> { e with start_cycle = s.makespan - (e.start_cycle + e.duration) })
      s.entries
  in
  let entries =
    List.sort (fun a b -> compare a.start_cycle b.start_cycle) (List.rev mirrored)
  in
  { s with entries }

let run ?(policy = Asap) ?max_parallel_two_qubit platform circuit =
  match policy with
  | Asap -> asap ?max_parallel_two_qubit platform circuit
  | Alap -> alap ?max_parallel_two_qubit platform circuit

let parallelism s =
  let busy = Array.make (max 1 s.makespan) 0 in
  List.iter
    (fun e ->
      for c = e.start_cycle to e.start_cycle + e.duration - 1 do
        busy.(c) <- busy.(c) + 1
      done)
    s.entries;
  let busy_cycles = Array.fold_left (fun acc b -> if b > 0 then acc + 1 else acc) 0 busy in
  let work = Array.fold_left ( + ) 0 busy in
  if busy_cycles = 0 then 0.0 else float_of_int work /. float_of_int busy_cycles

let max_concurrency s =
  let busy = Array.make (max 1 s.makespan) 0 in
  List.iter
    (fun e ->
      for c = e.start_cycle to e.start_cycle + e.duration - 1 do
        busy.(c) <- busy.(c) + 1
      done)
    s.entries;
  Array.fold_left max 0 busy

let validate s =
  let per_qubit = Array.make s.qubit_count [] in
  let ok = ref true in
  List.iter
    (fun e ->
      let operands = scheduling_qubits e.instr in
      Array.iter
        (fun q ->
          List.iter
            (fun (start, stop) ->
              if e.start_cycle < stop && start < e.start_cycle + e.duration then ok := false)
            per_qubit.(q);
          per_qubit.(q) <- (e.start_cycle, e.start_cycle + e.duration) :: per_qubit.(q))
        operands;
      if e.start_cycle + e.duration > s.makespan then ok := false)
    s.entries;
  (* Program order on shared qubits must be respected. *)
  let rec pairs = function
    | [] -> ()
    | e :: rest ->
        List.iter
          (fun later ->
            let qa = scheduling_qubits e.instr and qb = scheduling_qubits later.instr in
            let shared = Array.exists (fun q -> Array.exists (( = ) q) qb) qa in
            if shared && later.start_cycle < e.start_cycle + e.duration then ok := false)
          rest;
        pairs rest
  in
  pairs s.entries;
  !ok
