module Engine = Qca_qx.Engine
module Compiler = Qca_compiler.Compiler
module Controller = Qca_microarch.Controller
module Error = Qca_util.Error
module Resilience = Qca_util.Resilience

type outcome = {
  histogram : (string * int) list;
  report : Engine.run_report;
  compiled : Compiler.output option;
  microarch_stats : Controller.run_stats option;
}

let with_degraded report msg =
  let r = report.Engine.resilience in
  { report with Engine.resilience = { r with Engine.degraded = Some msg } }

(* Rung 1 of the degradation ladder (docs/resilience.md): a
   micro-architecture run whose faulted-shot ratio exceeds the policy
   threshold, or that failed outright, is re-executed on QX. *)
let ladder_reason ~policy ~shots = function
  | Error e ->
      Some
        (Printf.sprintf "microarch failed (%s); fell back to realistic QX simulation"
           (Error.to_string e))
  | Ok r ->
      let faulted = r.Controller.report.Engine.resilience.Engine.faulted_shots in
      let ratio = float_of_int faulted /. float_of_int (max 1 shots) in
      if ratio > policy.Resilience.degrade_threshold then
        Some
          (Printf.sprintf
             "microarch faulted %d/%d shots (threshold %.0f%%); fell back to \
              realistic QX simulation"
             faulted shots
             (100.0 *. policy.Resilience.degrade_threshold))
      else None

let prepare (spec : Job_spec.t) circuit =
  Engine.prepare ~noise:(Job_spec.noise_model spec) ?plan:spec.Job_spec.plan
    ~shots:spec.Job_spec.shots circuit

let run ?rng ?faults (spec : Job_spec.t) =
  let ( let* ) = Result.bind in
  let* spec, circuit = Job_spec.elaborate spec in
  let shots = spec.Job_spec.shots and seed = spec.Job_spec.seed in
  let policy = Job_spec.retry_policy spec in
  let faults = match faults with Some _ as f -> f | None -> Job_spec.faults spec in
  let noise = Job_spec.noise_model spec in
  let engine ?faults ?plan ?compiled circuit =
    let* r =
      Engine.run_checked ~noise ?seed ?rng ?plan ~shots ?faults ~policy circuit
    in
    Ok
      {
        histogram = r.Engine.histogram;
        report = r.Engine.report;
        compiled;
        microarch_stats = None;
      }
  in
  match spec.Job_spec.route with
  | Job_spec.Direct -> engine ?faults ?plan:spec.Job_spec.plan circuit
  | Job_spec.Compiled { platform; mode; technology; ladder; router } -> (
      let* compiled =
        Error.protect ~site:"Runner.run" (fun () ->
            Compiler.compile ~strategy:router platform mode circuit)
      in
      (* The QX rung runs the already-compiled program, so histogram keys
         keep the platform width whichever backend produced them. *)
      let on_qx () = engine ~compiled compiled.Compiler.physical in
      match (mode, technology, compiled.Compiler.eqasm) with
      | Compiler.Real, Some technology, Some program -> (
          let microarch =
            Error.protect ~site:"Runner.run" (fun () ->
                Controller.run_shots ~noise ?seed ?rng ~shots ?faults ~policy
                  technology program)
          in
          match
            (microarch, if ladder then ladder_reason ~policy ~shots microarch else None)
          with
          | _, Some reason ->
              let* o = on_qx () in
              Ok { o with report = with_degraded o.report reason }
          | Error e, None -> Error e
          | Ok r, None ->
              Ok
                {
                  histogram = r.Controller.histogram;
                  report = r.Controller.report;
                  compiled = Some compiled;
                  microarch_stats = Some r.Controller.last.Controller.stats;
                })
      | _ -> on_qx ())

let success_probability outcome ~accept =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 outcome.histogram in
  let hits =
    List.fold_left
      (fun acc (key, c) -> if accept key then acc + c else acc)
      0 outcome.histogram
  in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let outcome_fields o =
  let open Qca_util.Json in
  [
    ("histogram", Obj (List.map (fun (key, count) -> (key, Int count)) o.histogram));
    ("report", Engine.report_json o.report);
  ]
