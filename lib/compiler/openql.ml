module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Cqasm = Qca_circuit.Cqasm

type kernel = { kernel_name : string; qubits : int; mutable rev_instrs : Gate.t list }

type program = {
  program_name : string;
  program_qubits : int;
  mutable rev_kernels : (string * int * kernel) list;
}

let kernel ~name ~qubits =
  if qubits <= 0 then invalid_arg "Openql.kernel: qubits must be positive";
  { kernel_name = name; qubits; rev_instrs = [] }

let push k instr =
  Circuit.validate_instruction k.qubits instr;
  k.rev_instrs <- instr :: k.rev_instrs

let gate k u operands = push k (Gate.Unitary (u, Array.of_list operands))

let x k q = gate k Gate.X [ q ]
let y k q = gate k Gate.Y [ q ]
let z k q = gate k Gate.Z [ q ]
let h k q = gate k Gate.H [ q ]
let s k q = gate k Gate.S [ q ]
let t k q = gate k Gate.T [ q ]
let rx k q theta = gate k (Gate.Rx theta) [ q ]
let ry k q theta = gate k (Gate.Ry theta) [ q ]
let rz k q theta = gate k (Gate.Rz theta) [ q ]
let cnot k c tq = gate k Gate.Cnot [ c; tq ]
let cz k a b = gate k Gate.Cz [ a; b ]
let toffoli k a b c = gate k Gate.Toffoli [ a; b; c ]

let prepare k q = push k (Gate.Prep q)
let measure k q = push k (Gate.Measure q)

let measure_all k =
  for q = 0 to k.qubits - 1 do
    measure k q
  done

let barrier k qs = push k (Gate.Barrier (Array.of_list qs))

let cond k ~bit u operands = push k (Gate.Conditional (bit, u, Array.of_list operands))

let circuit_of_kernel k =
  Circuit.of_list ~name:k.kernel_name k.qubits (List.rev k.rev_instrs)

let program ~name ~qubits =
  if qubits <= 0 then invalid_arg "Openql.program: qubits must be positive";
  { program_name = name; program_qubits = qubits; rev_kernels = [] }

let add_kernel ?(iterations = 1) p k =
  if iterations < 1 then invalid_arg "Openql.add_kernel: iterations must be >= 1";
  if k.qubits <> p.program_qubits then
    invalid_arg "Openql.add_kernel: kernel qubit count differs from program";
  p.rev_kernels <- (k.kernel_name, iterations, k) :: p.rev_kernels

let for_loop p ~count k = add_kernel ~iterations:count p k

let to_cqasm_program p =
  {
    Cqasm.qubit_count = p.program_qubits;
    error_model = None;
    subcircuits =
      List.rev_map
        (fun (name, iterations, k) -> (name, iterations, circuit_of_kernel k))
        p.rev_kernels;
  }

let to_cqasm p = Cqasm.emit (to_cqasm_program p)

let to_circuit p =
  let flat = Cqasm.flatten (to_cqasm_program p) in
  Circuit.of_list ~name:p.program_name p.program_qubits (Circuit.instructions flat)

let compile ?strategy ~platform ~mode p =
  Compiler.compile ?strategy platform mode (to_circuit p)

let simulate ?noise ?rng ?(shots = 1024) p =
  (Qca_qx.Engine.run ?noise ?rng ~shots (to_circuit p)).Qca_qx.Engine.histogram
