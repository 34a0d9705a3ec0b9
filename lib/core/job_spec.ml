module Circuit = Qca_circuit.Circuit
module Cqasm = Qca_circuit.Cqasm
module Gate = Qca_circuit.Gate
module Platform = Qca_compiler.Platform
module Compiler = Qca_compiler.Compiler
module Mapping = Qca_compiler.Mapping
module Controller = Qca_microarch.Controller
module Error = Qca_util.Error
module Fault = Qca_util.Fault
module Resilience = Qca_util.Resilience

type payload =
  | Circuit of Circuit.t
  | Source of { name : string; text : string }

type route =
  | Direct
  | Compiled of {
      platform : Platform.t;
      mode : Compiler.mode;
      technology : Controller.technology option;
      ladder : bool;
      router : Mapping.strategy;
    }

let ( let* ) = Result.bind

(* The stack vocabulary: every platform name the flags and spool headers
   accept. A device pairs one compiler configuration with the
   micro-architecture that runs it, the paper's retargeting unit; perfect
   qubits are sized to the program and have no micro-architecture. *)
type target = Device of Platform.t * Controller.technology | Perfect_qubits

let targets =
  [
    ("superconducting", Device (Platform.superconducting_17, Controller.superconducting));
    ("semiconducting", Device (Platform.semiconducting_4, Controller.semiconducting));
    ("perfect", Perfect_qubits);
  ]

let devices =
  List.filter_map
    (function name, Device (p, t) -> Some (name, (p, t)) | _, Perfect_qubits -> None)
    targets

let platform_of_name name qubits =
  match List.assoc_opt name targets with
  | Some (Device (platform, _)) -> Ok platform
  | Some Perfect_qubits -> Ok (Platform.perfect qubits)
  | None -> Error (Printf.sprintf "unknown platform '%s'" name)

let platform_name (p : Platform.t) =
  List.find_map
    (fun (name, _) ->
      match platform_of_name name p.Platform.qubit_count with
      | Ok q when q.Platform.name = p.Platform.name -> Some name
      | _ -> None)
    targets

let route_of_names ?(router = Mapping.default_strategy) ~platform ~mode ~ladder ~qubits () =
  match platform with
  | None -> Ok Direct
  | Some name -> (
      let* platform = platform_of_name name qubits in
      let* mode = Compiler.mode_of_string mode in
      match (mode, List.assoc_opt name devices) with
      | Compiler.Real, None ->
          Error
            (Printf.sprintf "platform '%s' has no micro-architecture for mode real (expected %s)"
               name
               (String.concat " or " (List.map fst devices)))
      | Compiler.Real, Some (_, technology) ->
          Ok (Compiled { platform; mode; technology = Some technology; ladder; router })
      | (Compiler.Perfect | Compiler.Realistic), _ ->
          Ok (Compiled { platform; mode; technology = None; ladder; router }))

type t = {
  label : string;
  payload : payload;
  route : route;
  shots : int;
  seed : int option;
  noise : float option;
  plan : Qca_qx.Engine.plan option;
  fusion : bool;
  fault_rate : float option;
  fault_seed : int;
  max_retries : int;
  priority : int;
  deadline_ms : int option;
}

let make ?(label = "job") ?(route = Direct) ?(shots = 1024) ?seed ?noise
    ?plan ?fault_rate
    ?(fault_seed = Fault.default_seed)
    ?(max_retries = Resilience.default_policy.Resilience.max_retries) ?deadline_ms
    payload =
  if shots < 1 then invalid_arg "Job_spec.make: shots must be positive";
  (match deadline_ms with
  | Some d when d < 0 ->
      invalid_arg "Job_spec.make: deadline_ms must be non-negative"
  | _ -> ());
  {
    label;
    payload;
    route;
    shots;
    seed;
    noise;
    plan;
    fusion = true;
    fault_rate;
    fault_seed;
    max_retries;
    priority = 0;
    deadline_ms;
  }

let of_circuit ?label circuit = make ?label (Circuit circuit)

let of_source ?(label = "job") text =
  make ~label (Source { name = label; text })

(* The QX convention: a cQASM [error_model depolarizing_channel, p]
   directive sets the noise of a program run without an explicit rate. *)
let program_noise ?noise ?(site = "Job_spec.program_noise") (program : Cqasm.program) =
  match (noise, program.Cqasm.error_model) with
  | Some _, _ | None, None -> Ok noise
  | None, Some ("depolarizing_channel", p) -> Ok (Some p)
  | None, Some (model, _) ->
      Stdlib.Error
        (Error.make ~site
           ~context:[ ("model", model) ]
           (Error.Invalid "unknown error_model (expected depolarizing_channel)"))

let finite_angles ~site circuit =
  match Qca_analysis.Circuit_checks.non_finite_angle circuit with
  | None -> Ok ()
  | Some d ->
      Stdlib.Error
        (Error.make ~site
           ~context:[ ("code", d.Qca_analysis.Diagnostic.code); ("at", d.site) ]
           (Error.Invalid d.message))

let elaborate spec =
  match spec.payload with
  | Circuit c ->
      let* () = finite_angles ~site:("Job_spec.resolve(" ^ spec.label ^ ")") c in
      Ok (spec, c)
  | Source { name; text } ->
      let site = "Job_spec.resolve(" ^ name ^ ")" in
      let* program = Error.protect ~site (fun () -> Cqasm.parse text) in
      let* noise = program_noise ?noise:spec.noise ~site program in
      let* circuit = Error.protect ~site (fun () -> Cqasm.flatten program) in
      let* () = finite_angles ~site circuit in
      Ok ({ spec with noise }, circuit)

let resolve spec = Result.map snd (elaborate spec)

(* The noise a job runs under, decided by its route: the depolarising
   rate on the direct route; on a compiled one, ideal for perfect qubits
   and the platform's own model otherwise, with the transmon defaults
   standing in for realistic qubits on an ideal platform. *)
let route_noise route noise =
  match (route, noise) with
  | Direct, None | Compiled { mode = Compiler.Perfect; _ }, _ -> Qca_qx.Noise.ideal
  | Direct, Some p -> Qca_qx.Noise.depolarizing p
  | Compiled { platform; mode = Compiler.Realistic; _ }, _
    when Qca_qx.Noise.is_ideal platform.Platform.noise ->
      Qca_qx.Noise.superconducting
  | Compiled { platform; _ }, _ -> platform.Platform.noise

let noise_model spec = route_noise spec.route spec.noise

(* The one estimation semantics shared by qxc, the service's admission
   oracle and qxd's pre-claim gate: Source payloads are parsed but NOT
   flattened, so repeated subcircuits estimate symbolically in O(body). *)
let estimate spec =
  let site = "Job_spec.estimate(" ^ spec.label ^ ")" in
  let of_program ~noise program =
    let noisy = not (Qca_qx.Noise.is_ideal (route_noise spec.route noise)) in
    Error.protect ~site (fun () ->
        Qca_analysis.Estimate.of_program ~shots:spec.shots ~noisy ?plan:spec.plan program)
  in
  match spec.payload with
  | Circuit c -> of_program ~noise:spec.noise (Cqasm.of_circuit c)
  | Source { text; _ } ->
      let* program = Error.protect ~site (fun () -> Cqasm.parse text) in
      let* noise = program_noise ?noise:spec.noise ~site program in
      of_program ~noise program

(* The digest covers the semantic content only: qubit count plus the
   instruction list. The circuit's name is presentation, not semantics —
   two identically-shaped circuits submitted under different labels must
   share a distribution. *)
let digest circuit =
  let body =
    Circuit.instructions circuit
    |> List.map Gate.to_string
    |> String.concat "\n"
  in
  Digest.to_hex
    (Digest.string (Printf.sprintf "%d\n%s" (Circuit.qubit_count circuit) body))

let route_router = function
  | Direct -> Mapping.default_strategy
  | Compiled { router; _ } -> router

(* The router participates so compiled results produced by different
   routing strategies never share a cache entry. The default router adds
   no suffix, keeping historical fingerprints stable. *)
let route_fingerprint = function
  | Direct -> "direct"
  | Compiled { platform; mode; technology; ladder; router } ->
      Printf.sprintf "%s/%s/%s%s%s" platform.Platform.name (Compiler.mode_to_string mode)
        (match technology with
        | Some t -> t.Controller.tech_name
        | None -> "direct-qx")
        (if ladder then "+ladder" else "")
        (if router = Mapping.default_strategy then ""
         else "+" ^ Mapping.strategy_to_string router)

let route_description spec = route_fingerprint spec.route

(* The plan override participates like the router: the historical [traj=%b]
   field keeps every pre-planner fingerprint stable (auto was [false],
   --trajectory was [true]), and only the two new forces — sampled and
   clifford — append a suffix. *)
let plan_fingerprint = function
  | None | Some Qca_qx.Engine.Trajectory -> ""
  | Some Qca_qx.Engine.Sampled -> "|plan=sampled"
  | Some Qca_qx.Engine.Clifford -> "|plan=clifford"

let cache_key spec ~digest =
  match spec.seed with
  | None -> None
  | Some seed ->
      Some
        (Printf.sprintf "%s|%s|shots=%d|seed=%d|noise=%s|traj=%b|faults=%s%s"
           digest
           (route_fingerprint spec.route)
           spec.shots seed
           (match spec.noise with
           | None -> "ideal"
           | Some p -> Printf.sprintf "%.17g" p)
           (spec.plan = Some Qca_qx.Engine.Trajectory)
           (match spec.fault_rate with
           | None -> "off"
           | Some p ->
               let d = Resilience.default_policy in
               Printf.sprintf "%.17g:%d:%d:%d:%.17g" p spec.fault_seed
                 spec.max_retries d.Resilience.backoff_ns d.Resilience.degrade_threshold)
           (plan_fingerprint spec.plan))

let faults spec =
  match spec.fault_rate with
  | None -> None
  | Some p -> Some (Fault.make ~seed:spec.fault_seed (Fault.uniform p))

let retry_policy spec =
  { Resilience.default_policy with Resilience.max_retries = spec.max_retries }
