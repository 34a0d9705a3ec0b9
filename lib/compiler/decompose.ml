module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Matrix = Qca_util.Matrix

let u1 g q = Gate.Unitary (g, [| q |])
let u2 g a b = Gate.Unitary (g, [| a; b |])

let half_pi = Float.pi /. 2.0

(* Each case is one rewrite step toward {x90, mx90, y90, my90, rz, cz}.
   Correctness of every identity is checked up to global phase by the unit
   tests (test_compiler.ml). *)
let expand u ops =
  match u, ops with
  | Gate.I, [| _ |] -> []
  | Gate.X, [| q |] -> [ u1 Gate.X90 q; u1 Gate.X90 q ]
  | Gate.Y, [| q |] -> [ u1 Gate.Y90 q; u1 Gate.Y90 q ]
  | Gate.Z, [| q |] -> [ u1 (Gate.Rz Float.pi) q ]
  | Gate.S, [| q |] -> [ u1 (Gate.Rz half_pi) q ]
  | Gate.Sdag, [| q |] -> [ u1 (Gate.Rz (-.half_pi)) q ]
  | Gate.T, [| q |] -> [ u1 (Gate.Rz (Float.pi /. 4.0)) q ]
  | Gate.Tdag, [| q |] -> [ u1 (Gate.Rz (-.Float.pi /. 4.0)) q ]
  | Gate.H, [| q |] -> [ u1 (Gate.Rz Float.pi) q; u1 Gate.Y90 q ]
  | Gate.Rx theta, [| q |] -> [ u1 Gate.Ym90 q; u1 (Gate.Rz theta) q; u1 Gate.Y90 q ]
  | Gate.Ry theta, [| q |] -> [ u1 Gate.X90 q; u1 (Gate.Rz theta) q; u1 Gate.Xm90 q ]
  | (Gate.X90 | Gate.Xm90 | Gate.Y90 | Gate.Ym90 | Gate.Rz _), [| _ |] ->
      [ Gate.Unitary (u, ops) ]
  | Gate.Cnot, [| c; t |] -> [ u1 Gate.H t; u2 Gate.Cz c t; u1 Gate.H t ]
  | Gate.Cz, [| _; _ |] -> [ Gate.Unitary (u, ops) ]
  | Gate.Swap, [| a; b |] -> [ u2 Gate.Cnot a b; u2 Gate.Cnot b a; u2 Gate.Cnot a b ]
  | Gate.Cphase phi, [| c; t |] ->
      [
        u1 (Gate.Rz (phi /. 2.0)) c;
        u1 (Gate.Rz (phi /. 2.0)) t;
        u2 Gate.Cnot c t;
        u1 (Gate.Rz (-.phi /. 2.0)) t;
        u2 Gate.Cnot c t;
      ]
  | Gate.Crk k, [| c; t |] ->
      let phi = 2.0 *. Float.pi /. float_of_int (1 lsl k) in
      [ u2 (Gate.Cphase phi) c t ]
  | Gate.Toffoli, [| a; b; t |] ->
      [
        u1 Gate.H t;
        u2 Gate.Cnot b t;
        u1 Gate.Tdag t;
        u2 Gate.Cnot a t;
        u1 Gate.T t;
        u2 Gate.Cnot b t;
        u1 Gate.Tdag t;
        u2 Gate.Cnot a t;
        u1 Gate.T b;
        u1 Gate.T t;
        u1 Gate.H t;
        u2 Gate.Cnot a b;
        u1 Gate.T a;
        u1 Gate.Tdag b;
        u2 Gate.Cnot a b;
      ]
  | _, _ ->
      Qca_util.Error.fail ~site:"Decompose.expand"
        ~context:
          [
            ("gate", Gate.name u);
            ("operands", string_of_int (Array.length ops));
          ]
        (Qca_util.Error.Invalid "operand count does not match gate arity")

let lower platform instrs =
  let rec rewrite budget instr =
    (* Every expand case strictly reduces toward the primitive basis, so a
       blown budget means a cycle in the rewrite table — an internal bug,
       never a property of the input circuit. *)
    assert (budget > 0);
    match instr with
    | Gate.Prep _ | Gate.Measure _ | Gate.Barrier _ -> [ instr ]
    | Gate.Unitary (u, ops) ->
        if Platform.supports platform u then [ instr ]
        else
          let step = expand u ops in
          (* If expand is the identity rewrite, we cannot make progress. *)
          if step = [ instr ] then
            Qca_util.Error.fail ~site:"Decompose.run"
              (Qca_util.Error.Unsupported_gate
                 { platform = platform.Platform.name; gate = Gate.name u })
          else List.concat_map (rewrite (budget - 1)) step
    | Gate.Conditional (bit, u, ops) ->
        (* Decompose the body, then re-attach the classical condition to
           every resulting unitary (the bit is constant while they run). *)
        let body = rewrite (budget - 1) (Gate.Unitary (u, ops)) in
        List.map
          (fun i ->
            match i with
            | Gate.Unitary (u', ops') -> Gate.Conditional (bit, u', ops')
            | Gate.Conditional _ | Gate.Prep _ | Gate.Measure _ | Gate.Barrier _ ->
                assert false)
          body
  in
  List.concat_map (rewrite 16) instrs

let run platform circuit =
  Circuit.of_list ~name:(Circuit.name circuit) (Circuit.qubit_count circuit)
    (lower platform (Circuit.instructions circuit))

let check_equivalent a b =
  Matrix.equal_up_to_phase ~eps:1e-9 (Circuit.unitary_matrix a) (Circuit.unitary_matrix b)
