(* Quickstart: build a circuit with the public API, compile it for the
   perfect-qubit stack and for the superconducting full stack, and run both.

     dune exec examples/quickstart.exe *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module Cqasm = Qca_circuit.Cqasm
module Stack = Qca.Stack
module Runner = Qca.Runner
module Rng = Qca_util.Rng

(* A stack denotes a job; Runner.run executes it. *)
let execute ~shots ~rng stack circuit =
  match Runner.run ~rng (Stack.spec ~shots stack circuit) with
  | Ok outcome -> outcome
  | Error e -> failwith (Qca_util.Error.to_string e)

let () =
  (* 1. Describe the quantum logic: a GHZ state with measurement. *)
  let ghz =
    Circuit.append (Library.ghz 3)
      (Circuit.of_list 3 [ Gate.Measure 0; Gate.Measure 1; Gate.Measure 2 ])
  in
  print_endline "=== quantum logic (cQASM) ===";
  print_string (Cqasm.emit_circuit ghz);

  (* 2. Perfect qubits: verify the algorithm functionally (Figure 2b). *)
  let perfect = Stack.genome ~qubits:3 () in
  let run = execute ~shots:1000 ~rng:(Rng.create 1) perfect ghz in
  print_endline "\n=== perfect-qubit stack ===";
  Printf.printf "%s\n" (Stack.describe perfect);
  Printf.printf "execution plan: %s (%s)\n"
    (Qca_qx.Engine.plan_to_string run.Runner.report.Qca_qx.Engine.plan)
    run.Runner.report.Qca_qx.Engine.plan_reason;
  List.iter (fun (key, count) -> Printf.printf "  %s : %d\n" key count) run.Runner.histogram;

  (* 3. Real qubits: the same logic through compiler, eQASM and the
     micro-architecture on the superconducting platform (Figure 2a). *)
  let sc = Stack.superconducting () in
  let run_sc = execute ~shots:300 ~rng:(Rng.create 2) sc ghz in
  print_endline "\n=== superconducting full stack ===";
  Printf.printf "%s\n" (Stack.describe sc);
  Option.iter (fun c -> print_string (Qca_compiler.Compiler.report c)) run_sc.Runner.compiled;
  (match run_sc.Runner.microarch_stats with
  | Some s ->
      Printf.printf "micro-architecture: %d bundles, %d micro-ops, %d ns wall clock\n"
        s.Qca_microarch.Controller.bundles_issued s.Qca_microarch.Controller.micro_ops
        s.Qca_microarch.Controller.total_ns
  | None -> ());
  let top = match run_sc.Runner.histogram with (k, c) :: _ -> Printf.sprintf "%s (%d)" k c | [] -> "-" in
  Printf.printf "most frequent outcome: %s\n" top;
  let ghz_mass =
    Runner.success_probability run_sc ~accept:(fun key ->
        let n = String.length key in
        let bit i = key.[n - 1 - i] in
        bit 0 = bit 1 && bit 1 = bit 2 && bit 0 <> '-')
  in
  Printf.printf "GHZ-correlated fraction under realistic noise: %.3f\n" ghz_mass
