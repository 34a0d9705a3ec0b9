module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Cqasm = Qca_circuit.Cqasm
module Platform = Qca_compiler.Platform
module Compiler = Qca_compiler.Compiler
module Schedule = Qca_compiler.Schedule

type pass_report = {
  pass_name : string;
  diagnostics : Diagnostic.t list;
  introduced : string list;
}

type report = { passes : pass_report list; final : Diagnostic.t list }

(* Linear qubit-exclusivity walk over the entries (sorted by start cycle).
   [Schedule.validate] is exact but quadratic in the entry count — far too
   slow to run after every compile of a large program; this walk never
   false-positives on a valid schedule and stays O(entries · operands). *)
let check_schedule (schedule : Schedule.t) =
  let busy = Array.make (max schedule.Schedule.qubit_count 1) 0 in
  let diags = ref [] in
  let completion = ref 0 in
  (* Hoisted so the per-entry path allocates nothing when the schedule is
     clean. *)
  let touch i (e : Schedule.entry) stop q =
    if q >= 0 && q < Array.length busy then begin
      if e.Schedule.start_cycle < busy.(q) then
        diags :=
          Diagnostic.make Diagnostic.Error ~code:"S01" ~check:"schedule-overlap"
            ~site:(Printf.sprintf "schedule[%d]" i)
            ~fixit:"re-run the scheduler; report a compiler bug if it persists"
            (Printf.sprintf
               "%s starts at cycle %d on qubit %d which is busy until cycle %d"
               (Gate.to_string e.Schedule.instr) e.Schedule.start_cycle q busy.(q))
          :: !diags;
      busy.(q) <- max busy.(q) stop
    end
  in
  List.iteri
    (fun i (e : Schedule.entry) ->
      let stop = e.Schedule.start_cycle + e.Schedule.duration in
      completion := max !completion stop;
      (* Iterate operands in place — [Gate.qubits] copies the array. *)
      match e.Schedule.instr with
      | Gate.Unitary (_, ops) | Gate.Conditional (_, _, ops) ->
          for k = 0 to Array.length ops - 1 do
            touch i e stop ops.(k)
          done
      | Gate.Prep q | Gate.Measure q -> touch i e stop q
      | Gate.Barrier qs ->
          for k = 0 to Array.length qs - 1 do
            touch i e stop qs.(k)
          done)
    schedule.Schedule.entries;
  if !completion > schedule.Schedule.makespan then
    diags :=
      Diagnostic.make Diagnostic.Error ~code:"S01" ~check:"schedule-overlap"
        ~site:"schedule"
        ~fixit:"re-run the scheduler; report a compiler bug if it persists"
        (Printf.sprintf
           "declared makespan is %d cycles but the last entry completes at cycle %d"
           schedule.Schedule.makespan !completion)
      :: !diags;
  List.rev !diags

let check_stage ~mapped ~allow_swap platform artifact =
  match artifact with
  | Compiler.Circuit_stage circuit ->
      (* Materialise the instruction list once and walk it once: the
         platform suite streams along the invariant traversal. *)
      let name = Circuit.name circuit in
      let instrs = Circuit.instructions circuit in
      let bound = platform.Platform.qubit_count in
      let qubit_count = Circuit.qubit_count circuit in
      if mapped then begin
        let on_instr, finish =
          Platform_checks.stream_checker ~allow_swap platform name
        in
        let invariants =
          Circuit_checks.check_invariants_instrs ~on_instr ~bound ~qubit_count
            name instrs
        in
        invariants @ finish ()
      end
      else Circuit_checks.check_invariants_instrs ~bound ~qubit_count name instrs
  | Compiler.Schedule_stage schedule -> check_schedule schedule
  | Compiler.Eqasm_stage program -> Eqasm_checks.check platform program

let codes diags =
  List.sort_uniq compare (List.map (fun d -> d.Diagnostic.code) diags)

let of_stages stages =
  let seen = Hashtbl.create 16 in
  let passes =
    List.map
      (fun (pass_name, diagnostics) ->
        let introduced =
          List.filter (fun c -> not (Hashtbl.mem seen c)) (codes diagnostics)
        in
        List.iter (fun c -> Hashtbl.replace seen c ()) introduced;
        { pass_name; diagnostics; introduced })
      stages
  in
  let final =
    let dedup = Hashtbl.create 16 in
    List.concat_map (fun p -> p.diagnostics) passes
    |> List.filter (fun d ->
           let key = (d.Diagnostic.code, d.Diagnostic.site, d.Diagnostic.message) in
           if Hashtbl.mem dedup key then false
           else begin
             Hashtbl.replace dedup key ();
             true
           end)
  in
  { passes; final }

let compile ?strategy ?optimizer platform mode circuit =
  let stages = ref [] in
  let mapped = ref false in
  let observer pass_name artifact =
    if pass_name = "map/route" then mapped := true;
    let diagnostics =
      check_stage ~mapped:!mapped
        ~allow_swap:(pass_name = "map/route")
        platform artifact
    in
    stages := (pass_name, diagnostics) :: !stages
  in
  let output =
    Compiler.compile ?strategy ?optimizer ~observer platform mode circuit
  in
  (output, of_stages (List.rev !stages))

let source_check ?platform program =
  let platform_qubits =
    Option.map (fun p -> p.Platform.qubit_count) platform
  in
  Circuit_checks.check_program ?platform_qubits program

let blamed_pass report code =
  List.find_map
    (fun p -> if List.mem code p.introduced then Some p.pass_name else None)
    report.passes

let render report =
  let buffer = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buffer
        (Printf.sprintf "pass %-12s %s%s\n" p.pass_name
           (Diagnostic.summary p.diagnostics)
           (if p.introduced = [] then ""
            else Printf.sprintf " (introduced: %s)" (String.concat ", " p.introduced)));
      List.iter
        (fun d -> Buffer.add_string buffer ("  " ^ Diagnostic.to_string d ^ "\n"))
        p.diagnostics)
    report.passes;
  Buffer.add_string buffer
    (Printf.sprintf "verifier: %s\n" (Diagnostic.summary report.final));
  Buffer.contents buffer
