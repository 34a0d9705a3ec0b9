module Rng = Qca_util.Rng
module Bits = Qca_util.Bits

type t = { table : (int, Pauli.t) Hashtbl.t }

(* Enumerate all Paulis of exactly weight w on n qubits, calling f on each. *)
let iter_weight n w f =
  let paulis = [| 'X'; 'Y'; 'Z' |] in
  (* choose w qubit positions, then a Pauli letter for each *)
  let rec choose start remaining acc =
    if remaining = 0 then assign acc Pauli.identity
    else
      for q = start to n - remaining do
        choose (q + 1) (remaining - 1) (q :: acc)
      done
  and assign positions partial =
    match positions with
    | [] -> f partial
    | q :: rest ->
        Array.iter (fun letter -> assign rest (Pauli.mul partial (Pauli.single q letter))) paulis
  in
  choose 0 w []

let build ?max_weight code =
  let max_weight = Option.value ~default:code.Code.distance max_weight in
  let table = Hashtbl.create 256 in
  Hashtbl.replace table 0 Pauli.identity;
  for w = 1 to max_weight do
    iter_weight code.Code.n w (fun error ->
        let s = Code.syndrome code error in
        if not (Hashtbl.mem table s) then Hashtbl.replace table s error)
  done;
  { table }

let correction decoder syndrome =
  Option.value ~default:Pauli.identity (Hashtbl.find_opt decoder.table syndrome)

let decode_outcome code decoder error =
  let s = Code.syndrome code error in
  let fix = correction decoder s in
  let residual = Pauli.mul error fix in
  Code.logical_effect code residual

let logical_error_rate ?(trials = 2000) ~rng code decoder ~physical_error =
  let failures = ref 0 in
  for _ = 1 to trials do
    let error = Pauli.depolarizing_error rng code.Code.n physical_error in
    match decode_outcome code decoder error with
    | `None -> ()
    | `X | `Z | `Y -> incr failures
  done;
  float_of_int !failures /. float_of_int trials

let majority_syndrome syndromes bit_count =
  let rounds = List.length syndromes in
  let result = ref 0 in
  for b = 0 to bit_count - 1 do
    let votes = List.fold_left (fun acc s -> acc + if Bits.test s b then 1 else 0) 0 syndromes in
    if 2 * votes > rounds then result := Bits.set !result b
  done;
  !result

let logical_error_rate_with_measurement ?(trials = 2000) ?(rounds = 3) ~rng code decoder
    ~physical_error ~measurement_error =
  let bit_count = Array.length code.Code.stabilizers in
  let failures = ref 0 in
  for _ = 1 to trials do
    let error = Pauli.depolarizing_error rng code.Code.n physical_error in
    let true_syndrome = Code.syndrome code error in
    let noisy_round () =
      let s = ref true_syndrome in
      for b = 0 to bit_count - 1 do
        if Rng.bernoulli rng measurement_error then s := Bits.flip !s b
      done;
      !s
    in
    let observed = List.init rounds (fun _ -> noisy_round ()) in
    let voted = majority_syndrome observed bit_count in
    let fix = correction decoder voted in
    let residual = Pauli.mul error fix in
    (match Code.logical_effect code residual with
    | `None ->
        (* The residual may still carry a nonzero syndrome (wrong vote):
           count that as failure too, since the state left the code space. *)
        if Code.syndrome code residual <> 0 then incr failures
    | `X | `Z | `Y -> incr failures)
  done;
  float_of_int !failures /. float_of_int trials
