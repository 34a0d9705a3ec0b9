module Platform = Qca_compiler.Platform
module Compiler = Qca_compiler.Compiler
module Controller = Qca_microarch.Controller
module Circuit = Qca_circuit.Circuit

type t = {
  stack_name : string;
  platform : Platform.t;
  model : Compiler.mode;
  technology : Controller.technology option;
}

(* Real qubits on one of the vocabulary's devices. *)
let device name () =
  let platform, technology = List.assoc name Job_spec.devices in
  { stack_name = name ^ "-full-stack"; platform; model = Compiler.Real; technology = Some technology }

let superconducting = device "superconducting"
let semiconducting = device "semiconducting"

let genome ?(qubits = 12) () =
  {
    stack_name = "genome-sequencing-accelerator";
    platform = Platform.perfect qubits;
    model = Compiler.Perfect;
    technology = None;
  }

let optimisation ?(qubits = 16) () =
  {
    stack_name = "hybrid-optimisation-accelerator";
    platform = Platform.perfect qubits;
    model = Compiler.Perfect;
    technology = None;
  }

let realistic_of stack =
  (* A perfect platform carries an ideal error model; realistic execution
     needs a real one, so fall back to the transmon defaults. *)
  let platform =
    if Qca_qx.Noise.is_ideal stack.platform.Platform.noise then
      { stack.platform with Platform.noise = Qca_qx.Noise.superconducting }
    else stack.platform
  in
  {
    stack with
    platform;
    model = Compiler.Realistic;
    stack_name = stack.stack_name ^ "-realistic";
  }

let spec ?(shots = 512) ?seed stack circuit =
  Job_spec.make ~label:(Circuit.name circuit) ~shots ?seed
    ~route:
      (Job_spec.Compiled
         {
           platform = stack.platform;
           mode = stack.model;
           technology = stack.technology;
           ladder = true;
           router = Qca_compiler.Mapping.default_strategy;
         })
    (Job_spec.Circuit circuit)

let describe stack =
  Printf.sprintf "%s: platform=%s qubits=%s model=%s microarch=%s" stack.stack_name
    stack.platform.Platform.name
    (string_of_int stack.platform.Platform.qubit_count)
    (Compiler.mode_to_string stack.model)
    (match stack.technology with
    | Some t -> t.Controller.tech_name
    | None -> "direct-qx")
