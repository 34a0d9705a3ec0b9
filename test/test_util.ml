(* Unit and property tests for the qca_util substrate. *)

module Rng = Qca_util.Rng
module Bits = Qca_util.Bits
module Cplx = Qca_util.Cplx
module Matrix = Qca_util.Matrix
module Graph = Qca_util.Graph
module Stats = Qca_util.Stats
module Optimize = Qca_util.Optimize

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-2))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_float_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 1.0 in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_uniformity () =
  let rng = Rng.create 3 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Rng.int rng 10 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      let freq = float_of_int c /. float_of_int n in
      check_float_loose "roughly uniform" 0.1 freq)
    counts

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian rng) in
  Alcotest.(check (float 0.02)) "mean 0" 0.0 (Stats.mean xs);
  check_float_loose "stddev 1" 1.0 (Stats.stddev xs)

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let a = Rng.bits64 parent and b = Rng.bits64 child in
  Alcotest.(check bool) "different streams" true (a <> b)

(* The splitmix64 reference stream: seed 0's first outputs, and the first
   output of a stream split from seed 42. Every seed-pinned histogram in
   the suites rests on these values. *)
let test_rng_reference_stream () =
  let rng = Rng.create 0 in
  List.iter
    (fun expected -> Alcotest.(check int64) "splitmix64" expected (Rng.bits64 rng))
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ];
  let child = Rng.split (Rng.create 42) in
  Alcotest.(check int64) "split" 0xC5A57E8172F0A9D2L (Rng.bits64 child);
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues the stream" (Rng.bits64 a) (Rng.bits64 b)

(* A draw allocates at most its boxed float result: the generator state
   itself is never boxed. *)
let test_rng_float_allocation () =
  let rng = Rng.create 31 in
  let draws = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    ignore (Sys.opaque_identity (Rng.float rng 1.0))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int draws in
  if words > 2.0 then Alcotest.failf "Rng.float allocates %.2f minor words per draw" words

let test_rng_bernoulli () =
  let rng = Rng.create 13 in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  check_float_loose "p=0.3" 0.3 (float_of_int !hits /. 100_000.0)

let test_choose_weighted () =
  let rng = Rng.create 17 in
  let counts = Array.make 3 0 in
  for _ = 1 to 60_000 do
    let k = Rng.choose_weighted rng [| 1.0; 2.0; 3.0 |] in
    counts.(k) <- counts.(k) + 1
  done;
  check_float_loose "w0" (1.0 /. 6.0) (float_of_int counts.(0) /. 60_000.0);
  check_float_loose "w2" 0.5 (float_of_int counts.(2) /. 60_000.0)

let test_shuffle_permutation () =
  let rng = Rng.create 23 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* --- Bits --- *)

let test_bits_basics () =
  Alcotest.(check bool) "test" true (Bits.test 0b1010 1);
  Alcotest.(check bool) "test" false (Bits.test 0b1010 0);
  Alcotest.(check int) "set" 0b1011 (Bits.set 0b1010 0);
  Alcotest.(check int) "clear" 0b1000 (Bits.clear 0b1010 1);
  Alcotest.(check int) "flip" 0b0010 (Bits.flip 0b1010 3);
  Alcotest.(check int) "popcount" 2 (Bits.popcount 0b1010);
  Alcotest.(check int) "parity" 0 (Bits.parity 0b1010);
  Alcotest.(check int) "parity" 1 (Bits.parity 0b1011)

let test_bits_strings () =
  Alcotest.(check string) "to_string" "0101" (Bits.to_string ~width:4 5);
  Alcotest.(check int) "of_string" 5 (Bits.of_string "0101")

let prop_bits_roundtrip =
  QCheck.Test.make ~name:"bits string roundtrip" ~count:200
    QCheck.(int_bound 65535)
    (fun x -> Bits.of_string (Bits.to_string ~width:16 x) = x)

let test_insert_zero () =
  (* inserting a zero at position 1 in 0b11 gives 0b101 *)
  Alcotest.(check int) "insert" 0b101 (Bits.insert_zero 0b11 1)

(* --- Matrix --- *)

let c = Cplx.make

let test_matrix_mul_identity () =
  let m = Matrix.of_arrays [| [| c 1. 2.; c 3. 4. |]; [| c 5. 6.; c 7. 8. |] |] in
  Alcotest.(check bool) "I*m = m" true (Matrix.approx_equal (Matrix.mul (Matrix.identity 2) m) m)

let test_matrix_kron_dims () =
  let a = Matrix.identity 2 and b = Matrix.identity 4 in
  let k = Matrix.kron a b in
  Alcotest.(check int) "rows" 8 (Matrix.rows k);
  Alcotest.(check bool) "I kron I = I" true (Matrix.approx_equal k (Matrix.identity 8))

let test_matrix_adjoint () =
  let m = Matrix.of_arrays [| [| c 1. 2.; c 3. 4. |]; [| c 5. 6.; c 7. 8. |] |] in
  let a = Matrix.adjoint m in
  Alcotest.(check bool) "entry" true (Cplx.approx_equal (Matrix.get a 0 1) (c 5. (-6.)))

let test_matrix_unitary_check () =
  let h = 1.0 /. sqrt 2.0 in
  let m = Matrix.of_arrays [| [| c h 0.; c h 0. |]; [| c h 0.; c (-.h) 0. |] |] in
  Alcotest.(check bool) "H unitary" true (Matrix.is_unitary m);
  let bad = Matrix.of_arrays [| [| c 1. 0.; c 1. 0. |]; [| c 0. 0.; c 1. 0. |] |] in
  Alcotest.(check bool) "not unitary" false (Matrix.is_unitary bad)

let test_matrix_phase_equal () =
  let m = Matrix.identity 2 in
  let phased = Matrix.scale (Cplx.cis 0.7) m in
  Alcotest.(check bool) "equal up to phase" true (Matrix.equal_up_to_phase m phased);
  Alcotest.(check bool) "not plain equal" false (Matrix.approx_equal m phased)

let test_matrix_trace_apply () =
  let m = Matrix.of_arrays [| [| c 1. 0.; c 2. 0. |]; [| c 3. 0.; c 4. 0. |] |] in
  Alcotest.(check bool) "trace" true (Cplx.approx_equal (Matrix.trace m) (c 5. 0.));
  let v = Matrix.apply m [| c 1. 0.; c 1. 0. |] in
  Alcotest.(check bool) "apply" true (Cplx.approx_equal v.(0) (c 3. 0.) && Cplx.approx_equal v.(1) (c 7. 0.))

(* --- Graph --- *)

let test_graph_grid () =
  let g = Graph.grid_2d 3 3 in
  Alcotest.(check int) "size" 9 (Graph.size g);
  Alcotest.(check int) "corner degree" 2 (Graph.degree g 0);
  Alcotest.(check int) "center degree" 4 (Graph.degree g 4);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_graph_shortest_path () =
  let g = Graph.grid_2d 3 3 in
  match Graph.shortest_path g 0 8 with
  | None -> Alcotest.fail "path expected"
  | Some path ->
      Alcotest.(check int) "path length" 5 (List.length path);
      Alcotest.(check int) "starts" 0 (List.hd path)

let test_graph_hop_distance () =
  let g = Graph.grid_2d 3 3 in
  Alcotest.(check (option int)) "corner to corner" (Some 4) (Graph.hop_distance g 0 8);
  Alcotest.(check (option int)) "self" (Some 0) (Graph.hop_distance g 4 4)

let test_graph_disconnected () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1 1.0;
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g);
  Alcotest.(check (option int)) "no path" None (Graph.hop_distance g 0 3)

let test_graph_weights () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 2.5;
  Graph.add_edge g 1 2 1.5;
  let d = Graph.distances_from g 0 in
  check_float "dijkstra" 4.0 d.(2)

let test_graph_complete () =
  let g = Graph.complete 5 (fun u v -> float_of_int (u + v)) in
  Alcotest.(check int) "degree" 4 (Graph.degree g 0);
  Alcotest.(check (option (float 1e-9))) "weight" (Some 3.0) (Graph.weight g 1 2)

(* --- Stats --- *)

let test_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" (5.0 /. 3.0) (Stats.variance xs);
  check_float "min" 1.0 (Stats.minimum xs);
  check_float "max" 4.0 (Stats.maximum xs)

let test_linear_fit () =
  let points = Array.init 10 (fun i -> (float_of_int i, (2.0 *. float_of_int i) +. 1.0)) in
  let slope, intercept = Stats.linear_fit points in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept

let test_exponential_fit () =
  let a = 0.5 and p = 0.9 in
  let points = Array.init 20 (fun i -> (float_of_int i, a *. (p ** float_of_int i))) in
  let a', p' = Stats.exponential_decay_fit points in
  check_float "a" a a';
  check_float "p" p p'

let test_histogram () =
  let xs = [| 0.1; 0.2; 0.55; 0.9; 1.5; -0.5 |] in
  let h = Stats.histogram ~bins:2 ~lo:0.0 ~hi:1.0 xs in
  Alcotest.(check (array int)) "bins with clamping" [| 3; 3 |] h

(* --- Optimize --- *)

let rosenbrock v =
  let x = v.(0) and y = v.(1) in
  ((1.0 -. x) ** 2.0) +. (100.0 *. ((y -. (x *. x)) ** 2.0))

let test_nelder_mead_quadratic () =
  let f v = ((v.(0) -. 3.0) ** 2.0) +. ((v.(1) +. 1.0) ** 2.0) in
  let x, fx = Optimize.nelder_mead ~max_iter:2000 f [| 0.0; 0.0 |] in
  check_float_loose "x0" 3.0 x.(0);
  check_float_loose "x1" (-1.0) x.(1);
  Alcotest.(check bool) "near zero" true (fx < 1e-6)

let test_nelder_mead_rosenbrock () =
  let x, _ = Optimize.nelder_mead ~max_iter:5000 ~tolerance:1e-12 rosenbrock [| -1.0; 1.0 |] in
  check_float_loose "x" 1.0 x.(0);
  check_float_loose "y" 1.0 x.(1)

let test_grid_search () =
  let f v = Float.abs (v.(0) -. 0.5) in
  let x, fx = Optimize.grid_search ~lo:[| 0.0 |] ~hi:[| 1.0 |] ~steps:21 f in
  check_float "found" 0.5 x.(0);
  check_float "value" 0.0 fx

let test_coordinate_descent () =
  let f v = ((v.(0) -. 2.0) ** 2.0) +. ((v.(1) -. 1.0) ** 2.0) in
  let x, _ =
    Optimize.coordinate_descent ~rounds:4 ~steps:41 ~lo:[| 0.0; 0.0 |] ~hi:[| 4.0; 4.0 |] f
      [| 0.0; 0.0 |]
  in
  check_float_loose "x0" 2.0 x.(0);
  check_float_loose "x1" 1.0 x.(1)

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(array_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

(* --- Error / Fault / Resilience --- *)

module Error = Qca_util.Error
module Fault = Qca_util.Fault
module Resilience = Qca_util.Resilience

let test_error_to_string () =
  let e =
    Error.make ~site:"Test.site"
      ~context:[ ("qubit", "3") ]
      (Error.Channel_loss { qubit = 3 })
  in
  Alcotest.(check bool) "transient by default" true e.Error.transient;
  let s = Error.to_string e in
  Alcotest.(check bool) "mentions site" true
    (String.length s >= 9 && String.sub s 0 9 = "Test.site");
  Alcotest.(check bool) "mentions context" true
    (String.length s > 0 && s.[String.length s - 1] = ']')

let test_error_of_exn () =
  (match Error.of_exn (Failure "boom") with
  | Some e ->
      Alcotest.(check bool) "failure maps to Invalid" true
        (match e.Error.kind with Error.Invalid _ -> true | _ -> false)
  | None -> Alcotest.fail "Failure not converted");
  Alcotest.(check bool) "unrelated exn ignored" true (Error.of_exn Exit = None)

let test_error_protect () =
  (match Error.protect ~site:"p" (fun () -> 41 + 1) with
  | Ok v -> Alcotest.(check int) "value" 42 v
  | Error _ -> Alcotest.fail "unexpected error");
  match
    Error.protect ~site:"p" (fun () ->
        Error.fail ~site:"inner" (Error.Invalid "nope"))
  with
  | Ok _ -> Alcotest.fail "error swallowed"
  | Error e -> Alcotest.(check string) "inner site kept" "inner" e.Error.site

let test_fault_off_consumes_no_randomness () =
  let f = Fault.make ~seed:11 Fault.off in
  Alcotest.(check bool) "disabled" false (Fault.enabled f);
  for _ = 1 to 100 do
    Alcotest.(check bool) "never fires" false (Fault.fires f Fault.Pulse_dropout)
  done;
  Alcotest.(check int) "no fires counted" 0 (Fault.total f)

let test_fault_uniform_counts () =
  let f = Fault.make ~seed:11 (Fault.uniform 1.0) in
  Alcotest.(check bool) "enabled" true (Fault.enabled f);
  for _ = 1 to 5 do
    Alcotest.(check bool) "always fires" true (Fault.fires f Fault.Channel_loss)
  done;
  Alcotest.(check int) "total" 5 (Fault.total f);
  Alcotest.(check (list (pair string int)))
    "per-site counts" [ ("channel-loss", 5) ] (Fault.counts f)

let test_fault_rejects_bad_rate () =
  match Fault.uniform 1.5 with
  | exception Error.Error _ -> ()
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate > 1 accepted"

let test_retry_converges () =
  let counters = Resilience.fresh_counters () in
  let attempts = ref 0 in
  let f () =
    incr attempts;
    if !attempts < 3 then
      Error.fail ~site:"t" (Error.Backend_transient "blip")
    else "ok"
  in
  (match Resilience.with_retries Resilience.default_policy counters f with
  | Ok v -> Alcotest.(check string) "converged" "ok" v
  | Error _ -> Alcotest.fail "retries did not converge");
  Alcotest.(check int) "two retries" 2 counters.Resilience.retries;
  (* 100 lsl 0 + 100 lsl 1 *)
  Alcotest.(check int) "deterministic backoff" 300
    counters.Resilience.backoff_total_ns

let test_retry_exhausts () =
  let counters = Resilience.fresh_counters () in
  let f () = Error.fail ~site:"t" (Error.Backend_transient "always") in
  (match Resilience.with_retries Resilience.default_policy counters f with
  | Ok _ -> Alcotest.fail "impossible success"
  | Error e -> Alcotest.(check bool) "transient error" true e.Error.transient);
  Alcotest.(check int) "max retries" 3 counters.Resilience.retries

let test_retry_permanent_propagates () =
  let counters = Resilience.fresh_counters () in
  let f () = Error.fail ~site:"t" (Error.Invalid "permanent") in
  match Resilience.with_retries Resilience.default_policy counters f with
  | exception Error.Error _ ->
      Alcotest.(check int) "no retries" 0 counters.Resilience.retries
  | Ok _ | Error _ -> Alcotest.fail "permanent error retried or absorbed"

let prop_fault_rate_frequency =
  QCheck.Test.make ~name:"fault fire frequency tracks rate" ~count:20
    QCheck.(float_range 0.1 0.9)
    (fun p ->
      let f = Fault.make ~seed:77 (Fault.uniform p) in
      let n = 2000 in
      let fired = ref 0 in
      for _ = 1 to n do
        if Fault.fires f Fault.Microcode_lookup then incr fired
      done;
      abs_float ((float_of_int !fired /. float_of_int n) -. p) < 0.08)

(* --- Trace --- *)

module Trace = Qca_util.Trace

let span_names nodes = List.map (fun n -> n.Trace.span_name) nodes

let test_trace_disabled_noop () =
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  (* Every primitive must be callable with no sink and change nothing. *)
  let sp = Trace.begin_span "orphan" in
  Trace.add_attr sp "k" (Trace.Int 1);
  Trace.set_sim_ns sp 5;
  Trace.end_span sp;
  Trace.add_counter "c" 3;
  let thunk_ran = ref false in
  let v =
    Trace.with_span "w" (fun sp ->
        Trace.annotate sp (fun () ->
            thunk_ran := true;
            [ ("k", Trace.Int 1) ]);
        42)
  in
  Alcotest.(check int) "with_span passes value through" 42 v;
  Alcotest.(check bool) "annotate thunk not evaluated when disabled" false !thunk_ran

let test_trace_nesting () =
  let c = Trace.make_collector () in
  Trace.collecting c (fun () ->
      Trace.with_span "a" (fun _ ->
          Trace.with_span "b" (fun _ -> ());
          Trace.with_span "c" (fun _ -> ())));
  match Trace.roots c with
  | [ a ] ->
      Alcotest.(check string) "root" "a" a.Trace.span_name;
      Alcotest.(check (list string)) "children in order" [ "b"; "c" ]
        (span_names a.Trace.children)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_trace_defensive_end () =
  (* Ending an outer span closes any dangling descendants first. *)
  let c = Trace.make_collector () in
  Trace.collecting c (fun () ->
      let a = Trace.begin_span "a" in
      let _b = Trace.begin_span "b" in
      Trace.end_span a;
      Trace.with_span "after" (fun _ -> ()));
  Alcotest.(check (list string)) "a closed with b inside, then a sibling"
    [ "a"; "after" ] (span_names (Trace.roots c));
  match Trace.roots c with
  | [ a; _ ] ->
      Alcotest.(check (list string)) "b became a's child" [ "b" ]
        (span_names a.Trace.children)
  | _ -> Alcotest.fail "expected two roots"

let test_trace_exception_safety () =
  let c = Trace.make_collector () in
  (try
     Trace.collecting c (fun () ->
         Trace.with_span "boom" (fun _ -> failwith "kaput"))
   with Failure _ -> ());
  Alcotest.(check bool) "sink uninstalled after raise" false (Trace.enabled ());
  Alcotest.(check (list string)) "span closed despite raise" [ "boom" ]
    (span_names (Trace.roots c))

let test_trace_attrs_and_counters () =
  let c = Trace.make_collector () in
  Trace.collecting c (fun () ->
      Trace.with_span "s" (fun sp ->
          Trace.add_attr sp "first" (Trace.Int 1);
          Trace.annotate sp (fun () -> [ ("second", Trace.String "x") ]);
          Trace.set_sim_ns sp 120);
      Trace.add_counter "hits" 2;
      Trace.add_counter "hits" 3;
      Trace.add_counter "misses" 1);
  (match Trace.roots c with
  | [ s ] ->
      Alcotest.(check (list string)) "attr order preserved" [ "first"; "second" ]
        (List.map fst s.Trace.attrs);
      Alcotest.(check (option int)) "sim_ns" (Some 120) s.Trace.sim_ns
  | _ -> Alcotest.fail "expected one root");
  Alcotest.(check (list (pair string int))) "counters summed and sorted"
    [ ("hits", 5); ("misses", 1) ] (Trace.counters c)

let test_trace_tree_collapse () =
  let c = Trace.make_collector () in
  Trace.collecting c (fun () ->
      Trace.with_span "parent" (fun _ ->
          for i = 1 to 3 do
            Trace.with_span "shot" (fun sp ->
                Trace.add_attr sp "ops" (Trace.Int i);
                Trace.set_sim_ns sp 100)
          done));
  let tree = Trace.to_tree_string ~show_wall:false c in
  Alcotest.(check bool) "siblings collapsed"
    true
    (let re = "shot x3 ops=6 sim=300ns" in
     let rec contains i =
       i + String.length re <= String.length tree
       && (String.sub tree i (String.length re) = re || contains (i + 1))
     in
     contains 0)

(* Span durations are wall time: a span that only sleeps lasts as long as
   the sleep, although it burns no CPU. *)
let test_trace_span_is_wall_time () =
  let c = Trace.make_collector () in
  Trace.collecting c (fun () -> Trace.with_span "sleep" (fun _ -> Unix.sleepf 0.05));
  match Trace.roots c with
  | [ s ] ->
      if s.Trace.wall_s < 0.045 then
        Alcotest.failf "a 50 ms sleep recorded wall_s = %.6f s" s.Trace.wall_s
  | _ -> Alcotest.fail "expected one root"

module Json = Qca_util.Json

let parse_ok text =
  match Json.parse text with Ok v -> v | Error msg -> Alcotest.failf "%s: %S" msg text

let test_trace_chrome_json () =
  let c = Trace.make_collector () in
  Trace.collecting c (fun () ->
      Trace.with_span "outer" (fun sp ->
          Trace.add_attr sp "label" (Trace.String "quotes \" and \\ and\nnewline");
          Trace.add_attr sp "ratio" (Trace.Float infinity);
          Trace.with_span "inner" (fun sp -> Trace.set_sim_ns sp 40));
      Trace.add_counter "qx.apply.h" 7);
  let events =
    match Json.member "traceEvents" (parse_ok (Trace.to_chrome_json c)) with
    | Some (Json.List events) -> events
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let field key e = Json.member key e in
  let arg key e = Option.bind (field "args" e) (Json.member key) in
  let named name = List.find (fun e -> field "name" e = Some (Json.String name)) events in
  let phases = List.map (field "ph") events in
  Alcotest.(check int) "complete events" 2
    (List.length (List.filter (( = ) (Some (Json.String "X"))) phases));
  Alcotest.(check bool) "counter event" true
    (field "ph" (named "qx.apply.h") = Some (Json.String "C")
    && arg "value" (named "qx.apply.h") = Some (Json.Int 7));
  Alcotest.(check bool) "sim_ns in args" true (arg "sim_ns" (named "inner") = Some (Json.Int 40));
  Alcotest.(check bool) "escaped label survives" true
    (arg "label" (named "outer") = Some (Json.String "quotes \" and \\ and\nnewline"));
  Alcotest.(check bool) "non-finite attribute is null" true
    (arg "ratio" (named "outer") = Some Json.Null)

(* Values whose floats are finite and non-integral: the domain on which
   printing then parsing is the identity. *)
let json_gen =
  let open QCheck.Gen in
  let float =
    map (fun (i, f) -> float_of_int i +. 0.5 +. f) (pair small_signed_int (float_bound_exclusive 0.5))
  in
  let str = string_size ~gen:char (int_bound 12) in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) (oneof [ float; map (fun f -> f *. 1e-30) float ]);
               map (fun s -> Json.String s) str;
             ]
         in
         if depth = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1))));
               ( 1,
                 map (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair str (self (depth - 1)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json parse (to_string v) = v" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.parse (Json.to_string v) = Ok v && Json.parse (Json.to_lines v) = Ok v)

(* Short strings over JSON's own punctuation, so most inputs get deep into
   the parser before they go wrong. *)
let prop_json_parse_total =
  let alphabet = QCheck.Gen.oneofl (List.of_seq (String.to_seq "{}[],:\"\\u0-1.eE+tfnrl aZ")) in
  QCheck.Test.make ~name:"json parse never raises" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") QCheck.Gen.(string_size ~gen:alphabet (int_bound 24)))
    (fun s -> match Json.parse s with Ok _ | Error _ -> true)

let test_json_escaping () =
  let all = String.init 0x20 Char.chr ^ "\"\\" in
  let text = Json.to_string (Json.String all) in
  String.iter
    (fun c -> Alcotest.(check bool) "no raw control byte" true (Char.code c >= 0x20))
    text;
  Alcotest.(check string) "short forms and \\u00XX"
    ({|"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n\u000b\u000c\u000d|}
    ^ {|\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a|}
    ^ {|\u001b\u001c\u001d\u001e\u001f\"\\"|})
    text;
  Alcotest.(check bool) "reads back" true (Json.parse text = Ok (Json.String all));
  Alcotest.(check bool) "escaped key" true
    (Json.to_string (Json.Obj [ ("a\"b", Json.Int 1) ]) = "{\"a\\\"b\":1}")

let test_json_numbers () =
  let text v = Json.to_string v in
  Alcotest.(check string) "nan, inf, -inf are null" "[null,null,null]"
    (text (Json.List [ Json.Float nan; Json.Float infinity; Json.Float neg_infinity ]));
  Alcotest.(check string) "integral float has no fraction" "[3,-2,0,1e+20]"
    (text (Json.List [ Json.Float 3.0; Json.Float (-2.0); Json.Float 0.0; Json.Float 1e20 ]));
  Alcotest.(check string) "shortest round-trip text" "[0.1,0.30000000000000004,0.3,6e-10]"
    (text
       (Json.List
          [ Json.Float 0.1; Json.Float (0.1 +. 0.2); Json.Float (Json.round_sig 6 (0.1 +. 0.2));
            Json.Float (Json.round_sig 6 6.000000000000003e-10) ]));
  Alcotest.(check string) "round to decimals" "[0.123457,2.5,1]"
    (text
       (Json.List
          [ Json.Float (Json.round 6 0.1234567); Json.Float (Json.round 2 2.4999);
            Json.Float (Json.round 3 0.9999999) ]));
  Alcotest.(check bool) "rounding keeps huge and non-finite values" true
    (Json.round 6 1e300 = 1e300 && Json.round 3 infinity = infinity
    && Float.is_nan (Json.round_sig 6 nan));
  Alcotest.(check bool) "integral float reads back as int" true
    (Json.parse (text (Json.Float 3.0)) = Ok (Json.Int 3))

let test_json_parse_errors () =
  let rejects text =
    match Json.parse text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error _ -> ()
  in
  List.iter rejects
    [ ""; " "; "{"; "[1,]"; "{\"a\"}"; "{\"a\":1,}"; "01"; "1."; "-"; "+1"; ".5"; "1e"; "tru";
      "nul"; "\"abc"; "\"\\x\""; "\"\\u12\""; "\"\\ud800\""; "\"a\nb\""; "[1] 2"; "{1:2}"; "NaN" ];
  rejects (String.make (Json.max_depth + 1) '[' ^ String.make (Json.max_depth + 1) ']');
  Alcotest.(check bool) "max depth accepted" true
    (Result.is_ok (Json.parse (String.make Json.max_depth '[' ^ String.make Json.max_depth ']')));
  Alcotest.(check bool) "every short escape" true
    (Json.parse {|"\b\f\n\r\t\/\\\""|} = Ok (Json.String "\b\012\n\r\t/\\\""));
  Alcotest.(check bool) "whitespace, escapes and big ints" true
    (Json.parse
       {| { "k" : [ true , false , null , -0.5e1 , "\u00e9\ud83d\ude00\/" , 123456789012345678901234 ] } |}
    = Ok
        (Json.Obj
           [ ( "k",
               Json.List
                 [ Json.Bool true; Json.Bool false; Json.Null; Json.Float (-5.0);
                   Json.String "\xc3\xa9\xf0\x9f\x98\x80/"; Json.Float 1.23456789012345678e23 ] ) ]))

let prop_trace_nesting_depth =
  QCheck.Test.make ~name:"trace random begin/end keeps a well-formed forest"
    QCheck.(list (int_range 0 2))
    (fun script ->
      let c = Trace.make_collector () in
      Trace.collecting c (fun () ->
          let open_spans = ref [] in
          List.iter
            (fun op ->
              match op, !open_spans with
              | 0, _ ->
                  open_spans := Trace.begin_span "n" :: !open_spans
              | 1, sp :: rest ->
                  Trace.end_span sp;
                  open_spans := rest
              | _, _ -> Trace.add_counter "k" 1)
            script);
      (* Whatever the open/close sequence, the finished forest contains only
         closed spans and the total span count never exceeds the opens. *)
      let opens = List.length (List.filter (fun op -> op = 0) script) in
      let rec count nodes =
        List.fold_left (fun acc n -> acc + 1 + count n.Trace.children) 0 nodes
      in
      count (Trace.roots c) <= opens)

(* --- Parallel --- *)

module Parallel = Qca_util.Parallel

let with_domains domains f =
  let d0 = Parallel.domain_count () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_domain_count d0)
    (fun () ->
      Parallel.set_domain_count domains;
      f ())

let test_parallel_covers_range () =
  (* Every index visited exactly once, whatever the domain count. *)
  with_domains 3 (fun () ->
      let length = (2 * Parallel.chunk_size) + 777 in
      let seen = Array.make length 0 in
      Parallel.for_range length (fun lo hi ->
          for i = lo to hi - 1 do
            seen.(i) <- seen.(i) + 1
          done);
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (fun c -> c = 1) seen))

let test_parallel_dispatch_gating () =
  with_domains 3 (fun () ->
      let before = Parallel.dispatch_count () in
      (* Short ranges stay sequential even with domains available. *)
      Parallel.for_range ((2 * Parallel.chunk_size) - 1) (fun _ _ -> ());
      Alcotest.(check int) "short range sequential" before (Parallel.dispatch_count ());
      Parallel.for_range (2 * Parallel.chunk_size) (fun _ _ -> ());
      Alcotest.(check int) "long range dispatches" (before + 1)
        (Parallel.dispatch_count ());
      (* One domain means the parallel path is off entirely. *)
      Parallel.set_domain_count 1;
      Parallel.for_range (4 * Parallel.chunk_size) (fun _ _ -> ());
      Alcotest.(check int) "single domain sequential" (before + 1)
        (Parallel.dispatch_count ()))

let test_parallel_bit_identical () =
  (* Fixed chunk boundaries: a floating-point map gives bitwise the same
     array with 1 and with 3 domains. *)
  let length = (2 * Parallel.chunk_size) + 123 in
  let init () = Array.init length (fun i -> 1.0 +. (float_of_int i /. 7.0)) in
  let kernel xs lo hi =
    for i = lo to hi - 1 do
      xs.(i) <- (xs.(i) *. 1.000000119) +. (0.25 /. xs.(i))
    done
  in
  let sequential = init () in
  with_domains 1 (fun () -> Parallel.for_range length (kernel sequential));
  let parallel = init () in
  with_domains 3 (fun () -> Parallel.for_range length (kernel parallel));
  let same = ref true in
  for i = 0 to length - 1 do
    if Int64.bits_of_float sequential.(i) <> Int64.bits_of_float parallel.(i) then
      same := false
  done;
  Alcotest.(check bool) "bitwise identical" true !same

let test_parallel_exception_propagates () =
  with_domains 3 (fun () ->
      let length = 4 * Parallel.chunk_size in
      Alcotest.check_raises "body exception re-raised" (Failure "kernel boom")
        (fun () ->
          Parallel.for_range length (fun lo _ ->
              if lo >= Parallel.chunk_size then failwith "kernel boom"));
      (* The pool survives a failed loop. *)
      let total = Atomic.make 0 in
      Parallel.for_range length (fun lo hi -> ignore (Atomic.fetch_and_add total (hi - lo)));
      Alcotest.(check int) "pool usable after failure" length (Atomic.get total))

let test_parallel_clamps_settings () =
  let d0 = Parallel.domain_count () and t0 = Parallel.threshold_qubits () in
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_domain_count d0;
      Parallel.set_threshold_qubits t0)
    (fun () ->
      Parallel.set_domain_count 0;
      Alcotest.(check int) "domain floor" 1 (Parallel.domain_count ());
      Alcotest.(check bool) "not available at 1" false (Parallel.available ());
      Parallel.set_domain_count 1000;
      Alcotest.(check int) "domain cap" 64 (Parallel.domain_count ());
      Parallel.set_threshold_qubits 21;
      Alcotest.(check int) "threshold stored" 21 (Parallel.threshold_qubits ()))

let () =
  let qtest = QCheck_alcotest.to_alcotest in
  Alcotest.run "qca_util"
    [
      ( "error",
        [
          Alcotest.test_case "to_string" `Quick test_error_to_string;
          Alcotest.test_case "of_exn" `Quick test_error_of_exn;
          Alcotest.test_case "protect" `Quick test_error_protect;
        ] );
      ( "fault",
        [
          Alcotest.test_case "off consumes no randomness" `Quick
            test_fault_off_consumes_no_randomness;
          Alcotest.test_case "uniform counts" `Quick test_fault_uniform_counts;
          Alcotest.test_case "rejects bad rate" `Quick test_fault_rejects_bad_rate;
          qtest prop_fault_rate_frequency;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "retry converges" `Quick test_retry_converges;
          Alcotest.test_case "retry exhausts" `Quick test_retry_exhausts;
          Alcotest.test_case "permanent propagates" `Quick
            test_retry_permanent_propagates;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled no-op" `Quick test_trace_disabled_noop;
          Alcotest.test_case "nesting" `Quick test_trace_nesting;
          Alcotest.test_case "defensive end" `Quick test_trace_defensive_end;
          Alcotest.test_case "exception safety" `Quick test_trace_exception_safety;
          Alcotest.test_case "attrs and counters" `Quick test_trace_attrs_and_counters;
          Alcotest.test_case "tree collapse" `Quick test_trace_tree_collapse;
          Alcotest.test_case "span is wall time" `Quick test_trace_span_is_wall_time;
          Alcotest.test_case "chrome json" `Quick test_trace_chrome_json;
          qtest prop_trace_nesting_depth;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          qtest prop_json_roundtrip;
          qtest prop_json_parse_total;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "reference stream" `Quick test_rng_reference_stream;
          Alcotest.test_case "float allocation" `Quick test_rng_float_allocation;
          Alcotest.test_case "choose_weighted" `Quick test_choose_weighted;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        ] );
      ( "bits",
        [
          Alcotest.test_case "basics" `Quick test_bits_basics;
          Alcotest.test_case "strings" `Quick test_bits_strings;
          Alcotest.test_case "insert_zero" `Quick test_insert_zero;
          qtest prop_bits_roundtrip;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "mul identity" `Quick test_matrix_mul_identity;
          Alcotest.test_case "kron dims" `Quick test_matrix_kron_dims;
          Alcotest.test_case "adjoint" `Quick test_matrix_adjoint;
          Alcotest.test_case "unitary check" `Quick test_matrix_unitary_check;
          Alcotest.test_case "phase equality" `Quick test_matrix_phase_equal;
          Alcotest.test_case "trace and apply" `Quick test_matrix_trace_apply;
        ] );
      ( "graph",
        [
          Alcotest.test_case "grid" `Quick test_graph_grid;
          Alcotest.test_case "shortest path" `Quick test_graph_shortest_path;
          Alcotest.test_case "hop distance" `Quick test_graph_hop_distance;
          Alcotest.test_case "disconnected" `Quick test_graph_disconnected;
          Alcotest.test_case "weighted dijkstra" `Quick test_graph_weights;
          Alcotest.test_case "complete" `Quick test_graph_complete;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
          Alcotest.test_case "exponential fit" `Quick test_exponential_fit;
          Alcotest.test_case "histogram" `Quick test_histogram;
          qtest prop_mean_bounds;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "covers range" `Quick test_parallel_covers_range;
          Alcotest.test_case "dispatch gating" `Quick test_parallel_dispatch_gating;
          Alcotest.test_case "bit identical" `Quick test_parallel_bit_identical;
          Alcotest.test_case "exception propagates" `Quick
            test_parallel_exception_propagates;
          Alcotest.test_case "clamps settings" `Quick test_parallel_clamps_settings;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "nelder-mead quadratic" `Quick test_nelder_mead_quadratic;
          Alcotest.test_case "nelder-mead rosenbrock" `Quick test_nelder_mead_rosenbrock;
          Alcotest.test_case "grid search" `Quick test_grid_search;
          Alcotest.test_case "coordinate descent" `Quick test_coordinate_descent;
        ] );
    ]
