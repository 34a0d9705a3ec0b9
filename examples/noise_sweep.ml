(* Section 2.7: sweep error rates from today's 1e-2 down to 1e-6 and watch
   algorithm success probability recover — the error-model study the QX
   simulator exists for, plus the QEC view of the same budget.

     dune exec examples/noise_sweep.exe *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Library = Qca_circuit.Library
module Engine = Qca_qx.Engine
module Noise = Qca_qx.Noise
module Rng = Qca_util.Rng
module Code = Qca_qec.Code
module Decoder = Qca_qec.Decoder
module Qec_experiment = Qca_qec.Qec_experiment

let () =
  let rates = [ 1e-2; 3e-3; 1e-3; 1e-4; 1e-5; 1e-6 ] in
  let ghz =
    Circuit.append (Library.ghz 5)
      (Circuit.of_list 5 (List.init 5 (fun q -> Gate.Measure q)))
  in
  let accept bits = Array.for_all (fun b -> b = bits.(0)) bits in
  print_endline "GHZ-5 success probability vs depolarising error rate:";
  Printf.printf "%-10s %-10s\n" "rate" "success";
  List.iter
    (fun p ->
      let rng = Rng.create 11 in
      let success =
        Engine.success_probability
          (Engine.run ~noise:(Noise.depolarizing p) ~rng ~shots:1500 ghz)
          ~accept
      in
      Printf.printf "%-10.0e %-10.4f\n" p success)
    rates;

  (* QEC: logical error rates for the small codes vs Surface-17. *)
  print_newline ();
  print_endline "logical error rate (code capacity, depolarising):";
  Printf.printf "%-12s" "p_physical";
  let codes = [ Code.bit_flip_repetition 3; Code.bit_flip_repetition 5; Code.surface_17 ] in
  List.iter (fun c -> Printf.printf " %-16s" c.Code.name) codes;
  print_newline ();
  let decoders = List.map (fun c -> (c, Decoder.build c)) codes in
  List.iter
    (fun p ->
      Printf.printf "%-12.0e" p;
      List.iter
        (fun (code, decoder) ->
          let rng = Rng.create 13 in
          let rate =
            Decoder.logical_error_rate ~trials:8000 ~rng code decoder ~physical_error:p
          in
          Printf.printf " %-16.5f" rate)
        decoders;
      print_newline ())
    [ 3e-2; 1e-2; 3e-3; 1e-3 ];

  (* The paper's ">90% of computational activity" claim. *)
  print_newline ();
  let o = Qec_experiment.overhead_of ~rounds_per_logical_op:3 Code.surface_17 in
  Printf.printf
    "surface-17 fault-tolerance overhead: %d QEC ops per round, %d rounds per logical op, \
     %d physical ops per transversal logical op\n"
    o.Qec_experiment.qec_ops_per_round o.Qec_experiment.rounds_per_logical_op
    o.Qec_experiment.logical_op_cost;
  Printf.printf "fraction of activity spent on QEC: %.1f%% (paper: >90%%)\n"
    (100.0 *. o.Qec_experiment.qec_fraction)
