module Platform = Qca_compiler.Platform
module Controller = Qca_microarch.Controller
module Circuit = Qca_circuit.Circuit

type t = {
  stack_name : string;
  platform : Platform.t;
  model : Qubit_model.t;
  technology : Controller.technology option;
}

let superconducting () =
  {
    stack_name = "superconducting-full-stack";
    platform = Platform.superconducting_17;
    model = Qubit_model.Real;
    technology = Some Controller.superconducting;
  }

let semiconducting () =
  {
    stack_name = "semiconducting-full-stack";
    platform = Platform.semiconducting_4;
    model = Qubit_model.Real;
    technology = Some Controller.semiconducting;
  }

let genome ?(qubits = 12) () =
  {
    stack_name = "genome-sequencing-accelerator";
    platform = Platform.perfect qubits;
    model = Qubit_model.Perfect;
    technology = None;
  }

let optimisation ?(qubits = 16) () =
  {
    stack_name = "hybrid-optimisation-accelerator";
    platform = Platform.perfect qubits;
    model = Qubit_model.Perfect;
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
    model = Qubit_model.Realistic;
    stack_name = stack.stack_name ^ "-realistic";
  }

let spec ?(shots = 512) ?seed stack circuit =
  Job_spec.make ~label:(Circuit.name circuit) ~shots ?seed
    ~route:
      (Job_spec.Compiled
         {
           platform = stack.platform;
           mode = Qubit_model.compiler_mode stack.model;
           technology = stack.technology;
           ladder = true;
           router = Qca_compiler.Mapping.default_strategy;
         })
    (Job_spec.Circuit circuit)

let describe stack =
  Printf.sprintf "%s: platform=%s qubits=%s model=%s microarch=%s" stack.stack_name
    stack.platform.Platform.name
    (string_of_int stack.platform.Platform.qubit_count)
    (Qubit_model.to_string stack.model)
    (match stack.technology with
    | Some t -> t.Controller.tech_name
    | None -> "direct-qx")
