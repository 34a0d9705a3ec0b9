module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Cqasm = Qca_circuit.Cqasm

let site_of name i = Printf.sprintf "%s[%d]" name i

(* --- invariants: C01/C02 operand ranges, C07 finite angles, C03 use
   after measure. One fused walk: the pass-verifier re-runs this after
   every compiler pass on every instruction, so it is written imperatively
   with no per-instruction list building. --- *)

let non_finite_angle_at name i u =
  match u with
  | (Gate.Rx a | Gate.Ry a | Gate.Rz a | Gate.Cphase a) when not (Float.is_finite a) ->
      Some
        (Diagnostic.make Diagnostic.Error ~code:"C07" ~check:"non-finite-angle"
           ~site:(site_of name i) ~fixit:"replace the angle with a finite value"
           (Printf.sprintf "%s has a non-finite rotation angle (%s)" (Gate.name u)
              (if Float.is_nan a then "nan" else "inf")))
  | _ -> None

let invariant_walk ?on_instr ~bound ~qubit_count name instrs =
  let measured = Array.make (max qubit_count 1) false in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let out_of_range i instr q =
    add
      (Diagnostic.make Diagnostic.Error ~code:"C01" ~check:"qubit-out-of-range"
         ~site:(site_of name i)
         ~fixit:(Printf.sprintf "target a platform with at least %d qubits" (q + 1))
         (Printf.sprintf "%s addresses qubit %d but the platform range is 0..%d"
            (Gate.to_string instr) q (bound - 1)))
  in
  let check_unitary i instr u ops ~feedback =
    for k = 0 to Array.length ops - 1 do
      if ops.(k) < 0 || ops.(k) >= bound then out_of_range i instr ops.(k)
    done;
    Option.iter add (non_finite_angle_at name i u);
    (* Conditional gates are classical feedback — the legitimate way to
       touch a measured qubit — so only plain unitaries warn. *)
    if not feedback then
      for k = 0 to Array.length ops - 1 do
        let q = ops.(k) in
        if q >= 0 && q < qubit_count && measured.(q) then begin
          add
            (Diagnostic.make Diagnostic.Warning ~code:"C03" ~check:"use-after-measure"
               ~site:(site_of name i)
               ~fixit:(Printf.sprintf "insert 'prep_z q[%d]' before reuse" q)
               (Printf.sprintf
                  "%s acts on qubit %d after it was measured, without a reset"
                  (Gate.to_string instr) q));
          (* One warning per collapsed lifetime, not per later gate. *)
          measured.(q) <- false
        end
      done
  in
  let notify =
    match on_instr with Some f -> f | None -> fun _ _ -> ()
  in
  List.iteri
    (fun i instr ->
      notify i instr;
      match instr with
      | Gate.Unitary (u, ops) -> check_unitary i instr u ops ~feedback:false
      | Gate.Conditional (bit, u, ops) ->
          if bit < 0 || bit >= bound then
            add
              (Diagnostic.make Diagnostic.Error ~code:"C02" ~check:"bit-out-of-range"
                 ~site:(site_of name i)
                 ~fixit:"branch on a measured qubit's bit index"
                 (Printf.sprintf
                    "%s reads classical bit %d but the platform range is 0..%d"
                    (Gate.to_string instr) bit (bound - 1)));
          check_unitary i instr u ops ~feedback:true
      | Gate.Prep q ->
          if q < 0 || q >= bound then out_of_range i instr q;
          if q >= 0 && q < qubit_count then measured.(q) <- false
      | Gate.Measure q ->
          if q < 0 || q >= bound then out_of_range i instr q;
          if q >= 0 && q < qubit_count then measured.(q) <- true
      | Gate.Barrier qs ->
          Array.iter (fun q -> if q < 0 || q >= bound then out_of_range i instr q) qs)
    instrs;
  List.rev !diags

(* --- C04: measurement results that are overwritten before being read --- *)

let check_measure_never_read ~qubit_count name instrs =
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  let diags = ref [] in
  for i = 0 to n - 1 do
    match arr.(i) with
    | Gate.Measure q when q >= 0 && q < qubit_count ->
        let rec scan j =
          if j >= n then () (* terminal result: feeds the histogram *)
          else
            match arr.(j) with
            | Gate.Conditional (bit, _, _) when bit = q -> ()
            | Gate.Measure q' when q' = q ->
                diags :=
                  Diagnostic.make Diagnostic.Hint ~code:"C04"
                    ~check:"measure-never-read" ~site:(site_of name i)
                    ~fixit:
                      (Printf.sprintf
                         "drop this measurement or branch on b[%d] before re-measuring" q)
                    (Printf.sprintf
                       "result of measuring qubit %d is overwritten at %s before being read"
                       q (site_of name j))
                  :: !diags
            | _ -> scan (j + 1)
        in
        scan (i + 1)
    | _ -> ()
  done;
  List.rev !diags

(* --- C05: declared but untouched qubits --- *)

let check_unused_qubits name circuit =
  let used = Circuit.qubits_used circuit in
  let unused =
    List.filter
      (fun q -> not (List.mem q used))
      (List.init (Circuit.qubit_count circuit) Fun.id)
  in
  if unused = [] then []
  else
    [
      Diagnostic.make Diagnostic.Hint ~code:"C05" ~check:"unused-qubit" ~site:name
        ~fixit:
          (Printf.sprintf "declare 'qubits %d' or use the idle qubits"
             (List.length used))
        (Printf.sprintf "%d of %d declared qubits never used: {%s}"
           (List.length unused)
           (Circuit.qubit_count circuit)
           (String.concat ", " (List.map string_of_int unused)));
    ]

(* --- C06: adjacent self-inverse pairs --- *)

let self_inverse = function
  | Gate.X | Gate.Y | Gate.Z | Gate.H | Gate.Cnot | Gate.Cz | Gate.Swap
  | Gate.Toffoli ->
      true
  | _ -> false

let check_redundant_pairs name instrs =
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  let diags = ref [] in
  let touches ops instr =
    let qs = Gate.qubits instr in
    Array.exists (fun q -> Array.exists (( = ) q) qs) ops
  in
  let i = ref 0 in
  while !i < n - 1 do
    (match arr.(!i) with
    | Gate.Unitary (u, ops) when self_inverse u ->
        (* The partner is the next instruction touching any operand. *)
        let rec next j = if j >= n then None else if touches ops arr.(j) then Some j else next (j + 1) in
        (match next (!i + 1) with
        | Some j when arr.(j) = Gate.Unitary (u, ops) ->
            diags :=
              Diagnostic.make Diagnostic.Hint ~code:"C06" ~check:"redundant-pair"
                ~site:(site_of name !i)
                ~fixit:"remove both gates"
                (Printf.sprintf "adjacent self-inverse pair: %s here and at %s cancel"
                   (Gate.to_string arr.(!i))
                   (site_of name j))
              :: !diags;
            (* Skip past the pair so H;H;H;H reports twice, not thrice. *)
            i := j
        | _ -> ())
    | _ -> ());
    incr i
  done;
  List.rev !diags

let check_invariants ?platform_qubits circuit =
  let bound =
    match platform_qubits with Some b -> b | None -> Circuit.qubit_count circuit
  in
  let name = Circuit.name circuit in
  let instrs = Circuit.instructions circuit in
  invariant_walk ~bound ~qubit_count:(Circuit.qubit_count circuit) name instrs

let check_invariants_instrs = invariant_walk

let non_finite_angle circuit =
  let name = Circuit.name circuit in
  let rec first i = function
    | [] -> None
    | (Gate.Unitary (u, _) | Gate.Conditional (_, u, _)) :: rest -> (
        match non_finite_angle_at name i u with Some d -> Some d | None -> first (i + 1) rest)
    | _ :: rest -> first (i + 1) rest
  in
  first 0 (Circuit.instructions circuit)

let check_circuit ?platform_qubits circuit =
  let name = Circuit.name circuit in
  let instrs = Circuit.instructions circuit in
  check_invariants ?platform_qubits circuit
  @ check_measure_never_read ~qubit_count:(Circuit.qubit_count circuit) name instrs
  @ check_unused_qubits name circuit
  @ check_redundant_pairs name instrs

let check_program ?platform_qubits (program : Cqasm.program) =
  let duplicates =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (kernel, _, _) ->
        if Hashtbl.mem seen kernel then
          Some
            (Diagnostic.make Diagnostic.Warning ~code:"P03" ~check:"duplicate-kernel"
               ~site:("." ^ kernel)
               ~fixit:"rename one of the subcircuits"
               (Printf.sprintf "subcircuit name '%s' is declared more than once" kernel))
        else begin
          Hashtbl.add seen kernel ();
          None
        end)
      program.Cqasm.subcircuits
  in
  check_circuit ?platform_qubits (Cqasm.flatten program) @ duplicates
