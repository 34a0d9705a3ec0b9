module Circuit = Qca_circuit.Circuit
module Code = Qca_qec.Code

let cycle_circuit ?(rounds = 1) code =
  if rounds < 1 then
    invalid_arg "Qec_run.cycle_circuit: rounds must be positive";
  Circuit.repeat rounds (Code.syndrome_circuit code)
