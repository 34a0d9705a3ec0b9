module Circuit = Qca_circuit.Circuit
module Gate = Qca_circuit.Gate
module Rng = Qca_util.Rng

type outcome = { state : State.t; classical : int array }

let run ?noise ?rng circuit =
  let rng = match rng with Some r -> r | None -> Engine.default_rng () in
  let state, classical = Engine.exec_shot ?noise rng circuit in
  { state; classical }

let expectation_z ?(noise = Noise.ideal) ?rng circuit q =
  let result = run ~noise ?rng circuit in
  let mask = 1 lsl q in
  State.expectation_diag result.state (fun k -> if k land mask = 0 then 1.0 else -1.0)

let state_fidelity_vs_ideal ~noise ~rng ~shots circuit =
  let reference = (run ~noise:Noise.ideal circuit).state in
  let acc =
    Engine.fold_trajectories ~noise ~rng ~shots ~init:0.0
      ~f:(fun acc state _classical -> acc +. State.fidelity reference state)
      circuit
  in
  acc /. float_of_int shots

let backend ?(noise = Noise.ideal) () =
  (module struct
    let name =
      if Noise.is_ideal noise then "qx-statevector" else "qx-statevector-noisy"

    let run ?shots ?seed circuit = Engine.run ~noise ?shots ?seed circuit
  end : Backend.S)

module Backend = struct
  let name = "qx-statevector"
  let run ?shots ?seed circuit = Engine.run ?shots ?seed circuit
end
