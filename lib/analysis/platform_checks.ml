module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Platform = Qca_compiler.Platform

(* Imperative walk for the same reason as [Circuit_checks.invariant_walk]:
   the pass-verifier runs this on every post-mapping artifact, so the clean
   path must not allocate per instruction. *)
let stream_checker ?(allow_swap = false) platform name =
  let site i = Printf.sprintf "%s[%d]" name i in
  let diags = ref [] in
  (* Whether each gate kind passes, swaps included when allowed, resolved
     once: the clean path costs a match plus an array index per
     instruction. *)
  let supported_tab =
    Array.map
      (fun u -> Platform.supports platform u || (allow_swap && u = Gate.Swap))
      Gate.kinds
  in
  (* [Platform.are_coupled] re-materialises Grid topologies per query;
     resolve the graph once. *)
  let coupled =
    match platform.Platform.topology with
    | Platform.All_to_all -> fun u v -> u <> v
    | Platform.Grid _ | Platform.Custom _ ->
        let graph = Platform.connectivity platform in
        fun u v -> Qca_util.Graph.has_edge graph u v
  in
  let on_instr i instr =
    match instr with
      | Gate.Unitary (u, ops) | Gate.Conditional (_, u, ops) ->
          (* One constructor match per gate: the kind answers both the
             primitive lookup and the two-qubit test (kinds 16..20). *)
          let t = Gate.kind u in
          if
            t >= 16 && t <= 20
            && ops.(0) >= 0
            && ops.(1) >= 0
            && ops.(0) < platform.Platform.qubit_count
            && ops.(1) < platform.Platform.qubit_count
            && not (coupled ops.(0) ops.(1))
          then
            diags :=
              Diagnostic.make Diagnostic.Error ~code:"P01"
                ~check:"non-adjacent-two-qubit" ~site:(site i)
                ~fixit:"route the pair through coupled neighbours (insert swaps)"
                (Printf.sprintf
                   "%s acts on qubits (%d, %d) which the %s topology does not couple"
                   (Gate.name u) ops.(0) ops.(1) platform.Platform.name)
              :: !diags;
          if not supported_tab.(t) then
            diags :=
              Diagnostic.make Diagnostic.Error ~code:"P02"
                ~check:"non-primitive-gate" ~site:(site i)
                ~fixit:
                  (Printf.sprintf "decompose %s to {%s}" (Gate.name u)
                     (String.concat ", " platform.Platform.primitives))
                (Printf.sprintf "%s is not in %s's primitive set" (Gate.name u)
                   platform.Platform.name)
              :: !diags
      | Gate.Prep _ | Gate.Measure _ | Gate.Barrier _ -> ()
  in
  (on_instr, fun () -> List.rev !diags)

let check_mapped_instrs ?allow_swap platform name instrs =
  let on_instr, finish = stream_checker ?allow_swap platform name in
  List.iteri on_instr instrs;
  finish ()

let check_mapped ?allow_swap platform circuit =
  check_mapped_instrs ?allow_swap platform (Circuit.name circuit)
    (Circuit.instructions circuit)
