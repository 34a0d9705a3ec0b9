(* Section 3.1's experimental workload: single-qubit randomised benchmarking
   through the superconducting and semiconducting stacks, demonstrating the
   retargeting story (same micro-architecture, different configuration).

     dune exec examples/rb_experiment.exe *)

module Rb = Qca.Rb
module Noise = Qca_qx.Noise
module Rng = Qca_util.Rng
module Platform = Qca_compiler.Platform
module Compiler = Qca_compiler.Compiler
module Controller = Qca_microarch.Controller

let () =
  (* RB decay under the paper's ~0.1% gate-error regime. *)
  let noise = Noise.superconducting in
  let rng = Rng.create 77 in
  let decay =
    Rb.run ~lengths:[ 1; 2; 4; 8; 16; 32; 64 ] ~sequences:6 ~shots:128 ~noise ~rng ()
  in
  print_endline "randomised benchmarking (superconducting error model):";
  Printf.printf "%-10s %-10s\n" "length" "survival";
  List.iter
    (fun p -> Printf.printf "%-10d %-10.4f\n" p.Rb.sequence_length p.Rb.survival)
    decay.Rb.points;
  Printf.printf "fit: survival = 0.5 + %.3f * %.5f^m  ->  error per Clifford = %.5f\n\n"
    decay.Rb.amplitude decay.Rb.p decay.Rb.error_per_clifford;

  (* One RB sequence pushed through both technologies' micro-architectures:
     identical logic, different codewords, pulses and wall-clock. *)
  let circuit = Rb.sequence_circuit (Rng.create 5) ~qubit:0 ~total_qubits:1 ~length:8 in
  let widen platform =
    Qca_circuit.Circuit.of_list platform.Platform.qubit_count
      (Qca_circuit.Circuit.instructions circuit)
  in
  let run name platform technology =
    let out = Compiler.compile platform Compiler.Real (widen platform) in
    match out.Compiler.eqasm with
    | None -> ()
    | Some program ->
        let result =
          (Controller.run_shots ~shots:1 technology program).Controller.last
        in
        let s = result.Controller.stats in
        Printf.printf "%-16s %6d bundles %6d micro-ops %9d ns  peak queue %d\n" name
          s.Controller.bundles_issued s.Controller.micro_ops s.Controller.total_ns
          s.Controller.peak_queue_depth
  in
  print_endline "retargeting the same RB sequence (Figure 6):";
  run "superconducting" Platform.superconducting_17 Controller.superconducting;
  run "semiconducting" Platform.semiconducting_4 Controller.semiconducting
