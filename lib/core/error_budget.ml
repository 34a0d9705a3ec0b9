module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Platform = Qca_compiler.Platform
module Compiler = Qca_compiler.Compiler
module Schedule = Qca_compiler.Schedule
module Noise = Qca_qx.Noise

type estimate = {
  gate_survival : float;
  decoherence_survival : float;
  readout_survival : float;
  total : float;
  dominant : string;
  makespan_ns : int;
  gate_count : int;
  measurement_count : int;
}

let of_schedule platform (schedule : Schedule.t) circuit =
  let noise = platform.Platform.noise in
  let gate_survival = ref 1.0 in
  let measurement_count = ref 0 in
  List.iter
    (fun instr ->
      match instr with
      | Gate.Unitary (u, ops) | Gate.Conditional (_, u, ops) ->
          let p =
            if Gate.arity u >= 2 then noise.Noise.two_qubit_error
            else noise.Noise.single_qubit_error
          in
          gate_survival := !gate_survival *. ((1.0 -. p) ** float_of_int (Array.length ops))
      | Gate.Measure _ -> incr measurement_count
      | Gate.Prep _ -> gate_survival := !gate_survival *. (1.0 -. noise.Noise.prep_error)
      | Gate.Barrier _ -> ())
    (Circuit.instructions circuit);
  let makespan_ns = schedule.Schedule.makespan * platform.Platform.cycle_ns in
  let qubits_used = List.length (Circuit.qubits_used circuit) in
  let decoherence_survival =
    if noise.Noise.t1_ns = infinity && noise.Noise.t2_ns = infinity then 1.0
    else begin
      let t1_rate = if noise.Noise.t1_ns = infinity then 0.0 else 1.0 /. noise.Noise.t1_ns in
      let t2_rate = if noise.Noise.t2_ns = infinity then 0.0 else 1.0 /. noise.Noise.t2_ns in
      let phi_rate = Float.max 0.0 (t2_rate -. (t1_rate /. 2.0)) in
      let per_qubit = exp (-.float_of_int makespan_ns *. (t1_rate +. phi_rate)) in
      per_qubit ** float_of_int qubits_used
    end
  in
  let readout_survival =
    (1.0 -. noise.Noise.readout_error) ** float_of_int !measurement_count
  in
  let total = !gate_survival *. decoherence_survival *. readout_survival in
  let dominant =
    let worst = Float.min !gate_survival (Float.min decoherence_survival readout_survival) in
    if worst = !gate_survival then "gate errors"
    else if worst = decoherence_survival then "decoherence"
    else "readout"
  in
  {
    gate_survival = !gate_survival;
    decoherence_survival;
    readout_survival;
    total;
    dominant;
    makespan_ns;
    gate_count = Circuit.gate_count circuit;
    measurement_count = !measurement_count;
  }

let of_output (output : Compiler.output) =
  of_schedule output.Compiler.platform output.Compiler.schedule output.Compiler.physical

let of_circuit ~platform circuit =
  let schedule = Schedule.run platform circuit in
  of_schedule platform schedule circuit

let to_string e =
  Printf.sprintf
    "gates %.4f x decoherence %.4f x readout %.4f = %.4f  (dominant: %s; %d gates, %d \
     measurements, %d ns)"
    e.gate_survival e.decoherence_survival e.readout_survival e.total e.dominant
    e.gate_count e.measurement_count e.makespan_ns

(* ------------------------------------------------------------------ *)
(* Fault-tolerant cost model.                                          *)

type ft_estimate = {
  code : string;
  distance : int;
  logical_qubits : int;
  ft_physical_qubits : int;
  cycles : int;
  runtime_ns : float;
  logical_error : float;
  target : float;
  physical_error : float;
  feasible : bool;
}

let ft_scale_a = 0.1
let ft_threshold = 0.01

(* Per logical qubit, per logical time step (d syndrome cycles). *)
let logical_error_rate ~physical_error d =
  ft_scale_a *. ((physical_error /. ft_threshold) ** (float_of_int (d + 1) /. 2.0))

let fault_tolerant ?(max_distance = 101) ?(cycle_ns = 1000.0) ~target
    ~physical_error ~logical_qubits ~depth () =
  let volume = float_of_int logical_qubits *. float_of_int (max 1 depth) in
  let total d = volume *. logical_error_rate ~physical_error d in
  let rec search d =
    if total d <= target then (d, true)
    else if d + 2 > max_distance then (d, false)
    else search (d + 2)
  in
  let distance, feasible = search 3 in
  (* Rotated-surface footprint: d^2 data + d^2 - 1 ancillas per logical
     qubit — the closed form of Qca_qec.Code.physical_qubits
     (rotated_surface d), kept closed-form so scanning distances never
     materialises O(d^4) stabilizer tables. *)
  let per_logical = (2 * distance * distance) - 1 in
  (* A depth near max_int (an overflowed estimate) saturates the cycle
     count instead of wrapping it; the runtime is a float product either
     way. *)
  let depth = max 1 depth in
  let cycles = if depth > max_int / distance then max_int else depth * distance in
  {
    code = "rotated-surface";
    distance;
    logical_qubits;
    ft_physical_qubits = logical_qubits * per_logical;
    cycles;
    runtime_ns = float_of_int depth *. float_of_int distance *. cycle_ns;
    logical_error = total distance;
    target;
    physical_error;
    feasible;
  }

let ft_to_string ft =
  Printf.sprintf
    "%s d=%d%s: %d logical -> %d physical qubits, %d cycles (%.3g ns), p_L \
     %.3g (target %.3g at p=%.3g)"
    ft.code ft.distance
    (if ft.feasible then "" else " [target unreachable]")
    ft.logical_qubits ft.ft_physical_qubits ft.cycles ft.runtime_ns
    ft.logical_error ft.target ft.physical_error

let ft_to_json ft =
  let open Qca_util.Json in
  let num f = Float (round_sig 6 f) in
  Obj
    [ ("code", String ft.code); ("distance", Int ft.distance);
      ("logical_qubits", Int ft.logical_qubits); ("physical_qubits", Int ft.ft_physical_qubits);
      ("cycles", Int ft.cycles); ("runtime_ns", num ft.runtime_ns);
      ("logical_error", num ft.logical_error); ("target", num ft.target);
      ("physical_error", num ft.physical_error); ("feasible", Bool ft.feasible) ]
