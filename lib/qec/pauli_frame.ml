module Rng = Qca_util.Rng
module Bits = Qca_util.Bits
module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit

(* [f] times the Pauli coded 0=I 1=X 2=Y 3=Z on qubit [q]. *)
let flip f q = function 0 -> f | code -> Pauli.mul f (Pauli.single q "IXYZ".[code])

let inject_1q rng p q f = if Rng.bernoulli rng p then flip f q (1 + Rng.int rng 3) else f

(* One of the 15 non-identity two-qubit Paulis, the single-qubit parts
   coded as in [flip], skipping (0, 0). *)
let inject_2q rng p a b f =
  if Rng.bernoulli rng p then begin
    let k = 1 + Rng.int rng 15 in
    flip (flip f a (k / 4)) b (k mod 4)
  end
  else f

type round_result = { syndrome : int; frame : Pauli.t }

(* One walk of the extraction circuit's instructions. A prep clears the
   qubit's frame bits and may fault; a gate maps the frame by the rule
   table and then may fault, a two-qubit fault drawn with the ancilla
   (qubit [n] and up) as its first operand; a measurement of ancilla
   [n + i] reads its X bit, possibly flipped, into syndrome bit [i]. *)
let round ~rng ~gate_error ~measurement_error n instructions frame =
  let syndrome = ref 0 in
  let frame =
    List.fold_left
      (fun f instr ->
        match instr with
        | Gate.Prep q ->
            let cleared = { Pauli.x = Bits.clear f.Pauli.x q; z = Bits.clear f.Pauli.z q } in
            inject_1q rng gate_error q cleared
        | Gate.Unitary (u, ops) -> (
            let f =
              match Pauli.conjugate u ops f with
              | Some g -> g
              | None -> invalid_arg "Pauli_frame: the extraction circuit stops the frame"
            in
            match ops with
            | [| q |] -> inject_1q rng gate_error q f
            | [| a; b |] when a >= n -> inject_2q rng gate_error a b f
            | [| a; b |] -> inject_2q rng gate_error b a f
            | _ -> invalid_arg "Pauli_frame: gate on more than two qubits")
        | Gate.Measure q ->
            let raw = Bits.test f.Pauli.x q in
            if raw <> Rng.bernoulli rng measurement_error then
              syndrome := Bits.set !syndrome (q - n);
            f
        | Gate.Conditional _ | Gate.Barrier _ ->
            invalid_arg "Pauli_frame: not a syndrome-extraction instruction")
      frame instructions
  in
  { syndrome = !syndrome; frame }

let noisy_round ~rng ~gate_error ~measurement_error code frame =
  round ~rng ~gate_error ~measurement_error code.Code.n
    (Circuit.instructions (Code.syndrome_circuit code))
    frame

let logical_error_rate ?rounds ?(trials = 2000) ~rng code decoder ~gate_error
    ~measurement_error =
  let rounds = Option.value ~default:code.Code.distance rounds in
  let instructions = Circuit.instructions (Code.syndrome_circuit code) in
  let mask = (1 lsl code.Code.n) - 1 in
  let failures = ref 0 in
  for _ = 1 to trials do
    let f = ref Pauli.identity in
    for _ = 1 to rounds do
      f := (round ~rng ~gate_error ~measurement_error code.Code.n instructions !f).frame
    done;
    (* final perfect extraction: the true syndrome of the data frame *)
    let error = { Pauli.x = !f.Pauli.x land mask; z = !f.Pauli.z land mask } in
    let syndrome = Code.syndrome code error in
    let fix = Decoder.correction decoder syndrome in
    let residual = Pauli.mul error fix in
    (match Code.logical_effect code residual with
    | `None -> if Code.syndrome code residual <> 0 then incr failures
    | `X | `Z | `Y -> incr failures)
  done;
  float_of_int !failures /. float_of_int trials
