(* Backend swapping: one job, one Job_spec, run on every execution target
   by changing only its route — the QX state-vector engine directly, the
   compiled program on QX under the platform's noise, and the compiled
   eQASM on the cycle-accurate micro-architecture — with the exact
   density-matrix distribution alongside as the oracle.

     dune exec examples/backend_swap.exe *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module Engine = Qca_qx.Engine
module Compiler = Qca_compiler.Compiler
module Platform = Qca_compiler.Platform
module Job_spec = Qca.Job_spec

let show label plan histogram =
  Printf.printf "%-37s plan=%-10s " label (Engine.plan_to_string plan);
  (* Compiled keys are platform-width; show the top outcomes. *)
  List.iteri
    (fun i (key, count) -> if i < 2 then Printf.printf " %s:%d" key count)
    histogram;
  print_newline ()

let () =
  let bell =
    Circuit.append (Library.bell ())
      (Circuit.of_list 2 [ Gate.Measure 0; Gate.Measure 1 ])
  in
  let spec = Job_spec.make ~shots:2000 ~seed:7 (Job_spec.Circuit bell) in
  let compiled mode technology =
    Job_spec.Compiled
      {
        platform = Platform.semiconducting_4;
        mode;
        technology;
        ladder = false;
        router = Qca_compiler.Mapping.Sabre;
      }
  in
  List.iter
    (fun route ->
      let spec = { spec with Job_spec.route } in
      match Qca.Runner.run spec with
      | Ok o ->
          show (Job_spec.route_description spec) o.Qca.Runner.report.Engine.plan
            o.Qca.Runner.histogram
      | Error e -> print_endline (Qca_util.Error.to_string e))
    [
      Job_spec.Direct;
      compiled Compiler.Realistic None;
      compiled Compiler.Real (Some Qca_microarch.Controller.semiconducting);
    ];
  let oracle = Qca_qx.Density.sample ~shots:2000 ~seed:7 bell in
  show "density oracle" oracle.Engine.report.Engine.plan oracle.Engine.histogram;
  print_endline "same Job_spec, only the route changes; the caller never does."
