(* Tests for the static checker: diagnostics core, the three check suites
   and the pass-verifier. *)

module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Cqasm = Qca_circuit.Cqasm
module Library = Qca_circuit.Library
module Platform = Qca_compiler.Platform
module Compiler = Qca_compiler.Compiler
module Schedule = Qca_compiler.Schedule
module Eqasm = Qca_compiler.Eqasm
module Rng = Qca_util.Rng
module Diagnostic = Qca_analysis.Diagnostic
module Circuit_checks = Qca_analysis.Circuit_checks
module Platform_checks = Qca_analysis.Platform_checks
module Eqasm_checks = Qca_analysis.Eqasm_checks
module Verify = Qca_analysis.Verify

let codes diags = List.sort_uniq compare (List.map (fun d -> d.Diagnostic.code) diags)

let check_codes what expected diags =
  Alcotest.(check (list string)) what expected (codes diags)

(* --- diagnostics core --- *)

let test_exit_ladder () =
  let d sev = Diagnostic.make sev ~code:"T00" ~check:"t" ~site:"s" "m" in
  Alcotest.(check int) "clean" 0 (Diagnostic.exit_code []);
  Alcotest.(check int) "hints don't gate" 0 (Diagnostic.exit_code [ d Diagnostic.Hint ]);
  Alcotest.(check int) "warnings" 1
    (Diagnostic.exit_code [ d Diagnostic.Hint; d Diagnostic.Warning ]);
  Alcotest.(check int) "errors win" 2
    (Diagnostic.exit_code [ d Diagnostic.Warning; d Diagnostic.Error ]);
  Alcotest.(check string) "summary" "clean" (Diagnostic.summary [])

let test_json_escaping () =
  let d =
    Diagnostic.make Diagnostic.Error ~code:"T00" ~check:"t" ~site:"a\"b"
      "line1\nline2"
  in
  let json = Qca_util.Json.to_string (Diagnostic.to_json d) in
  Alcotest.(check bool) "one line" false (String.exists (( = ) '\n') json);
  match Qca_util.Json.parse json with
  | Ok doc ->
      Alcotest.(check bool) "site survives" true
        (Qca_util.Json.member "site" doc = Some (Qca_util.Json.String "a\"b"));
      Alcotest.(check bool) "message survives" true
        (Qca_util.Json.member "message" doc = Some (Qca_util.Json.String "line1\nline2"))
  | Error msg -> Alcotest.fail msg

(* --- circuit checks --- *)

let parse source = Cqasm.parse source

let bad_source =
  {|version 1.0
qubits 4

.main
  prep_z q[0]
  h q[0]
  h q[0]
  rx q[1], nan
  measure q[1]
  x q[1]
  measure q[1]

.main
  x q[0]
|}

let test_bad_program_codes () =
  let diags = Circuit_checks.check_program (parse bad_source) in
  check_codes "all six codes fire"
    [ "C03"; "C04"; "C05"; "C06"; "C07"; "P03" ]
    diags;
  Alcotest.(check int) "errors exit 2" 2 (Diagnostic.exit_code diags);
  let site code =
    (List.find (fun d -> d.Diagnostic.code = code) diags).Diagnostic.site
  in
  Alcotest.(check string) "C07 at the rx" "circuit[3]" (site "C07");
  Alcotest.(check string) "C03 at the x" "circuit[5]" (site "C03");
  Alcotest.(check string) "C06 at the first h" "circuit[1]" (site "C06");
  Alcotest.(check string) "P03 names the kernel" ".main" (site "P03")

let test_clean_programs () =
  let check name circuit =
    let diags =
      List.filter
        (fun d -> d.Diagnostic.severity = Diagnostic.Error)
        (Circuit_checks.check_circuit circuit)
    in
    Alcotest.(check int) (name ^ " has no errors") 0 (List.length diags)
  in
  check "bell" (Library.bell ());
  check "ghz" (Library.ghz 5);
  check "qft" (Library.qft 4);
  check "teleport" (Library.teleport ())

let test_teleport_feedback_not_flagged () =
  (* Binary-controlled corrections on measured qubits are the legitimate
     fast-feedback pattern: no use-after-measure warning. *)
  let diags = Circuit_checks.check_circuit (Library.teleport ()) in
  Alcotest.(check bool) "no C03" false (List.mem "C03" (codes diags))

let test_range_against_platform () =
  (* Declared wider than the target platform: C01 on the gate, C02 on the
     conditional's classical bit. *)
  let c =
    Circuit.of_list ~name:"wide" 6
      [
        Gate.Unitary (Gate.X, [| 5 |]);
        Gate.Conditional (5, Gate.Z, [| 0 |]);
        Gate.Unitary (Gate.H, [| 1 |]);
        Gate.Unitary (Gate.H, [| 2 |]);
        Gate.Unitary (Gate.H, [| 3 |]);
        Gate.Unitary (Gate.H, [| 4 |]);
      ]
  in
  let diags = Circuit_checks.check_circuit ~platform_qubits:4 c in
  check_codes "C01 and C02" [ "C01"; "C02" ] diags;
  Alcotest.(check string) "C01 site" "wide[0]"
    (List.find (fun d -> d.Diagnostic.code = "C01") diags).Diagnostic.site

(* --- platform checks --- *)

let test_platform_checks () =
  let semi = Platform.semiconducting_4 in
  let c =
    Circuit.of_list ~name:"phys" 4
      [
        Gate.Unitary (Gate.Cz, [| 0; 3 |]);
        (* chain 0-1-2-3: not coupled *)
        Gate.Unitary (Gate.H, [| 1 |]);
        (* not a primitive *)
        Gate.Unitary (Gate.Swap, [| 1; 2 |]);
        (* coupled but not primitive *)
      ]
  in
  check_codes "P01 and P02" [ "P01"; "P02" ]
    (Platform_checks.check_mapped semi c);
  let swaps_ok = Platform_checks.check_mapped ~allow_swap:true semi c in
  Alcotest.(check int) "allow_swap drops one P02" 2 (List.length swaps_ok)

let test_platform_clean_after_compile () =
  let out =
    Compiler.compile Platform.semiconducting_4 Compiler.Realistic (Library.ghz 4)
  in
  Alcotest.(check (list string))
    "physical circuit conforms" []
    (codes (Platform_checks.check_mapped Platform.semiconducting_4 out.Compiler.physical))

(* --- eQASM checks --- *)

let eqasm_program instructions makespan =
  {
    Eqasm.platform_name = "superconducting-17";
    qubit_count = 17;
    cycle_ns = 20;
    instructions;
    makespan_cycles = makespan;
  }

let test_eqasm_clean_lowering () =
  let p = Platform.superconducting_17 in
  let out = Compiler.compile p Compiler.Real (Library.ghz 3) in
  match out.Compiler.eqasm with
  | None -> Alcotest.fail "expected eQASM"
  | Some program ->
      Alcotest.(check (list string)) "lowering is clean" [] (codes (Eqasm_checks.check p program))

let test_eqasm_violations () =
  let p = Platform.superconducting_17 in
  let x90 mask =
    { Eqasm.mnemonic = "x90"; angle = None; mask; two_qubit = false; condition = None }
  in
  (* Unset mask register. *)
  check_codes "E03" [ "E03" ]
    (Eqasm_checks.check p (eqasm_program [ Eqasm.Bundle (0, [ x90 7 ]) ] 1));
  (* Same qubit re-issued before its 1-cycle window ends (pre-interval 0). *)
  let overlapping =
    [ Eqasm.Smis (0, [ 2 ]); Eqasm.Bundle (0, [ x90 0 ]); Eqasm.Bundle (0, [ x90 0 ]) ]
  in
  check_codes "E01" [ "E01" ] (Eqasm_checks.check p (eqasm_program overlapping 2));
  (* measz takes 15 cycles on this platform; makespan of 1 under-declares. *)
  let measure =
    [
      Eqasm.Smis (0, [ 2 ]);
      Eqasm.Bundle
        (0,
         [ { Eqasm.mnemonic = "measz"; angle = None; mask = 0; two_qubit = false; condition = None } ]);
    ]
  in
  check_codes "E02" [ "E02" ] (Eqasm_checks.check p (eqasm_program measure 1));
  (* A correct tail QWAIT silences E02. *)
  Alcotest.(check (list string)) "padded is clean" []
    (codes (Eqasm_checks.check p (eqasm_program (measure @ [ Eqasm.Qwait 15 ]) 15)))

(* --- pass-verifier --- *)

let test_verify_clean_compile () =
  let _out, report =
    Verify.compile Platform.superconducting_17 Compiler.Real (Library.ghz 4)
  in
  Alcotest.(check (list string)) "no diagnostics" [] (codes report.Verify.final);
  let names = List.map (fun p -> p.Verify.pass_name) report.Verify.passes in
  (* Fixed stages must appear in order; the Full optimizer may interleave
     per-pass artifacts like "optimize/peephole" depending on what fired. *)
  let fixed =
    List.filter (fun n -> not (String.contains n '/') || n = "map/route") names
  in
  Alcotest.(check (list string)) "observed every pass"
    [
      "input"; "pre-opt"; "decompose"; "map/route"; "expand-swaps"; "optimize";
      "schedule"; "eqasm";
    ]
    fixed

let test_verify_blames_pass () =
  (* Seed a topology violation into the map/route artifact: the verifier
     must name that pass as the one that introduced P01. *)
  let semi = Platform.semiconducting_4 in
  let broken = Circuit.of_list ~name:"phys" 4 [ Gate.Unitary (Gate.Cz, [| 0; 3 |]) ] in
  let stage =
    Verify.check_stage ~mapped:true ~allow_swap:true semi
      (Compiler.Circuit_stage broken)
  in
  let report = Verify.of_stages [ ("input", []); ("decompose", []); ("map/route", stage) ] in
  Alcotest.(check (option string)) "blames map/route" (Some "map/route")
    (Verify.blamed_pass report "P01");
  Alcotest.(check (option string)) "unknown code unblamed" None
    (Verify.blamed_pass report "E01")

let test_verify_schedule_artifact () =
  let p = Platform.perfect 3 in
  let schedule = Schedule.run p (Library.ghz 3) in
  Alcotest.(check (list string)) "valid schedule clean" []
    (codes (Verify.check_stage ~mapped:false ~allow_swap:false p (Compiler.Schedule_stage schedule)))

(* --- properties --- *)

let arb_seeded_circuit =
  QCheck.make
    ~print:(fun (seed, qubits, gates) ->
      Printf.sprintf "seed=%d qubits=%d gates=%d" seed qubits gates)
    QCheck.Gen.(triple (int_range 0 99999) (int_range 2 6) (int_range 1 40))

let prop_random_clean =
  QCheck.Test.make ~name:"well-formed random circuits have no error diagnostics"
    ~count:100 arb_seeded_circuit (fun (seed, qubits, gates) ->
      let c = Library.random_circuit (Rng.create seed) ~qubits ~gates in
      List.for_all
        (fun d -> d.Diagnostic.severity <> Diagnostic.Error)
        (Circuit_checks.check_circuit c))

let prop_out_of_range_flagged =
  QCheck.Test.make ~name:"out-of-range mutation triggers exactly C01" ~count:100
    arb_seeded_circuit (fun (seed, qubits, gates) ->
      let rng = Rng.create seed in
      let c = Library.random_circuit rng ~qubits ~gates in
      (* Re-declare on a platform one qubit narrower and touch the top qubit:
         the only new error must be C01. *)
      let mutated = Circuit.add c (Gate.Unitary (Gate.X, [| qubits - 1 |])) in
      let before = Circuit_checks.check_circuit ~platform_qubits:(qubits - 1) c in
      let after =
        Circuit_checks.check_circuit ~platform_qubits:(qubits - 1) mutated
      in
      let errors diags =
        List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags
      in
      codes (errors after) = [ "C01" ]
      && List.length (errors after) = List.length (errors before) + 1)

let prop_dropped_reset_flagged =
  QCheck.Test.make ~name:"dropped reset mutation triggers exactly C03" ~count:100
    arb_seeded_circuit (fun (seed, qubits, gates) ->
      let rng = Rng.create seed in
      let c = Library.random_circuit rng ~qubits ~gates in
      let q = Rng.int rng qubits in
      let mutated =
        Circuit.add (Circuit.add c (Gate.Measure q)) (Gate.Unitary (Gate.X, [| q |]))
      in
      let new_codes =
        List.filter
          (fun code -> not (List.mem code (codes (Circuit_checks.check_circuit c))))
          (codes (Circuit_checks.check_circuit mutated))
      in
      (* C04 may legitimately ride along when the base circuit measures q
         earlier; C03 must be there and no error-severity code may appear. *)
      List.mem "C03" new_codes
      && List.for_all (fun code -> code = "C03" || code = "C04") new_codes)

let prop_non_adjacent_flagged =
  QCheck.Test.make ~name:"non-adjacent CZ post-mapping triggers exactly P01"
    ~count:50
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 99999))
    (fun seed ->
      let semi = Platform.semiconducting_4 in
      let rng = Rng.create seed in
      (* Build a chain-respecting random circuit from primitives... *)
      let base =
        List.init 6 (fun _ ->
            let q = Rng.int rng 3 in
            if Rng.bool rng then Gate.Unitary (Gate.Cz, [| q; q + 1 |])
            else Gate.Unitary (Gate.X90, [| q |]))
      in
      let c = Circuit.of_list ~name:"chain" 4 base in
      (* ...then seed one CZ across the chain ends. *)
      let mutated = Circuit.add c (Gate.Unitary (Gate.Cz, [| 0; 3 |])) in
      codes (Platform_checks.check_mapped semi c) = []
      && codes (Platform_checks.check_mapped semi mutated) = [ "P01" ])

let () =
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "qca_analysis"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "exit ladder" `Quick test_exit_ladder;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
        ] );
      ( "circuit-checks",
        [
          Alcotest.test_case "bad program codes" `Quick test_bad_program_codes;
          Alcotest.test_case "clean library circuits" `Quick test_clean_programs;
          Alcotest.test_case "teleport feedback exempt" `Quick
            test_teleport_feedback_not_flagged;
          Alcotest.test_case "range vs platform" `Quick test_range_against_platform;
        ] );
      ( "platform-checks",
        [
          Alcotest.test_case "P01/P02" `Quick test_platform_checks;
          Alcotest.test_case "compiled output conforms" `Quick
            test_platform_clean_after_compile;
        ] );
      ( "eqasm-checks",
        [
          Alcotest.test_case "clean lowering" `Quick test_eqasm_clean_lowering;
          Alcotest.test_case "timing violations" `Quick test_eqasm_violations;
        ] );
      ( "verify",
        [
          Alcotest.test_case "clean compile" `Quick test_verify_clean_compile;
          Alcotest.test_case "blames the pass" `Quick test_verify_blames_pass;
          Alcotest.test_case "schedule artifact" `Quick test_verify_schedule_artifact;
        ] );
      ( "properties",
        [
          qtest prop_random_clean;
          qtest prop_out_of_range_flagged;
          qtest prop_dropped_reset_flagged;
          qtest prop_non_adjacent_flagged;
        ] );
    ]
