type kind = Fpga | Gpu | Npu | Quantum_gate | Quantum_annealer

let kind_to_string = function
  | Fpga -> "FPGA"
  | Gpu -> "GPU"
  | Npu -> "NPU"
  | Quantum_gate -> "quantum-gate"
  | Quantum_annealer -> "quantum-annealer"

type t = {
  name : string;
  kind : kind;
  speed_factor : float;
  offload_overhead : float;
  payload : (string -> string) option;
}

let make ?payload ~name ~kind ~speed_factor ~offload_overhead () =
  if speed_factor <= 0.0 then invalid_arg "Accelerator.make: speed_factor must be positive";
  if offload_overhead < 0.0 then invalid_arg "Accelerator.make: negative overhead";
  { name; kind; speed_factor; offload_overhead; payload }

let default_park () =
  [
    make ~name:"fpga0" ~kind:Fpga ~speed_factor:20.0 ~offload_overhead:0.5 ();
    make ~name:"gpu0" ~kind:Gpu ~speed_factor:50.0 ~offload_overhead:0.2 ();
    make ~name:"npu0" ~kind:Npu ~speed_factor:80.0 ~offload_overhead:0.3 ();
    make ~name:"qpu0" ~kind:Quantum_gate ~speed_factor:1000.0 ~offload_overhead:2.0 ();
    make ~name:"annealer0" ~kind:Quantum_annealer ~speed_factor:500.0 ~offload_overhead:1.0 ();
  ]

let run_payload t arg = match t.payload with Some f -> f arg | None -> arg
