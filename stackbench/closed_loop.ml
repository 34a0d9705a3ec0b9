(* The closed-loop driver shared by qec-clifford, noisy-trajectory and
   compile-exec: one caller runs a fixed round of jobs back to back, each
   job starting when the previous one returns, until the run time is spent.
   Rounds always complete, so every run executes the same job mix. *)

module Compiler = Qca_compiler.Compiler

type out = {
  shots : int;  (** Shots simulated by the job (0 for compile-only jobs). *)
  histogram : (string * int) list;
  counts : (string * int) list;
      (** Deterministic per-layer counts (summed over the first round). *)
  reported : (string * float) list;
      (** Figures a layer reports about itself (summed over the phase). *)
  compiled : Compiler.output option;
}

type job = {
  label : string;
  untraced : int -> (out, string) result;
      (** Job [i] through the workload's public entry point. *)
  traced : Span.t -> int -> (out, string) result;
      (** The same job as the calls that entry point makes, each in a span. *)
}

(* Job [i] of the run seeded [seed]; warm-up jobs use negative [i]. *)
let job_seed ~seed i = Hashtbl.hash (seed, i) land 0x3FFF_FFFF

let histogram_ok ~shots h = List.fold_left (fun acc (_, c) -> acc + c) 0 h = shots

(* --- phases ----------------------------------------------------------------- *)

type phase = {
  scale : float;
      (** Host seconds to reference seconds: {!nominal_calibration_s} over
          the calibration loop's fast decile in this phase. *)
  jobs : int;
  failed : int;
  rounds : int;
  wall_s : float;
  shots : int;
  job_s : float list array;  (** Wall seconds of every job, by its place in the round. *)
  job_cpu_s : float list array;  (** CPU seconds of every job, likewise. *)
  first_round : out list;
  outputs : (int, out) Hashtbl.t;
      (** Successful outputs by job index, of the first {!kept_rounds} rounds. *)
  errors : string list;
}

type workload = {
  round : job array;
  kinds : job array;  (** One job of each kind in the round, for warm-up. *)
  quality : out list -> int * int * int * int;
      (** [compiled_gates], [compiled_2q_gates], [compiled_depth],
          [device_cycles] from the first round's outputs. *)
  checks : phase -> (string * bool) list;
      (** Output checks on the untraced phase, including any that need
          runs of their own (made after the timed phase, so their memory
          does not count in peak_rss_mb). *)
}

(* A fixed loop of float updates over a 32 KiB array and a sort of a
   64 KiB integer array, in place: arithmetic and memory traffic like the
   closed loops', without allocating, so it leaves the heap and the GC as
   it found them. It is part of the benchmark, not of the program under
   test, so no change to the program moves its time; only the host does. *)
let calibration_floats = Array.make 4096 0.0
let calibration_ints = Array.make 8000 0

let calibration () =
  let a = calibration_floats and b = calibration_ints in
  for i = 0 to 4095 do
    a.(i) <- float_of_int i
  done;
  for _ = 1 to 100 do
    for i = 0 to 4095 do
      a.(i) <- (a.(i) *. 0.999) +. 1.0
    done
  done;
  for i = 0 to 7999 do
    b.(i) <- i * 7919 mod 8009
  done;
  Array.sort compare b;
  b.(7) + int_of_float a.(7)

(* The calibration loop's fast decile on the machine this benchmark was
   built on (a 2-vCPU Intel Xeon virtual machine). *)
let nominal_calibration_s = 0.0022

(* Outputs are kept for this many rounds (every closed loop runs more in
   a full run): kept for the whole run, they made the benchmark's own
   memory, and so peak_rss_mb, grow with how fast the host was. *)
let kept_rounds = 25

let run_phase ~seconds ~(round : job array) exec =
  let k = Array.length round in
  let outputs = Hashtbl.create 256 in
  let job_s = Array.make k [] and job_cpu_s = Array.make k [] in
  let errors = ref [] and shots = ref 0 and calibration_s = ref [] in
  let i = ref 0 and rounds = ref 0 in
  let t0 = Span.now () in
  let deadline = t0 +. seconds in
  while !rounds = 0 || Span.now () < deadline do
    for j = 0 to k - 1 do
      let c = Report.self_cpu_s () and s = Span.now () in
      let r = try exec round.(j) !i with e -> Error (Printexc.to_string e) in
      job_s.(j) <- (Span.now () -. s) :: job_s.(j);
      job_cpu_s.(j) <- (Report.self_cpu_s () -. c) :: job_cpu_s.(j);
      let s = Span.now () in
      ignore (Sys.opaque_identity (calibration ()));
      calibration_s := (Span.now () -. s) :: !calibration_s;
      let fail why =
        errors := Printf.sprintf "%s (job %d): %s" round.(j).label !i why :: !errors
      in
      (match r with
      | Ok (o : out) when histogram_ok ~shots:o.shots o.histogram ->
          shots := !shots + o.shots;
          (* Compiled programs are kept for the first round only. *)
          if !i < kept_rounds * k then
            Hashtbl.replace outputs !i (if !i < k then o else { o with compiled = None })
      | Ok _ -> fail "histogram does not sum to its shots"
      | Error e -> fail e);
      incr i
    done;
    incr rounds
  done;
  let wall_s = Span.now () -. t0 in
  {
    scale = nominal_calibration_s /. Report.fast_decile !calibration_s;
    jobs = !i;
    failed = List.length !errors;
    rounds = !rounds;
    wall_s;
    shots = !shots;
    job_s;
    job_cpu_s;
    first_round = List.filter_map (Hashtbl.find_opt outputs) (List.init k Fun.id);
    outputs;
    errors = List.rev !errors;
  }

(* A fresh process runs its first calls slower than later ones (with two
   domains, three d=5 QEC calls took twice as long as warm ones). Each kind
   of job runs three times, a fixed count, so the set-up time does not
   depend on how noisy the host was during the warm-up. *)
let warm_up (kinds : job array) =
  let calls = ref 0 in
  Array.iter
    (fun job ->
      for _ = 1 to 3 do
        decr calls;
        ignore (job.untraced !calls)
      done)
    kinds

(* --- metrics ------------------------------------------------------------------ *)

let sum_counts name outs =
  List.fold_left
    (fun acc o -> acc + Option.value ~default:0 (List.assoc_opt name o.counts))
    0 outs

(* Mean per job over the kept outputs of a figure a layer reports. *)
let mean_reported name (p : phase) =
  Hashtbl.fold
    (fun _ o acc -> acc +. Option.value ~default:0.0 (List.assoc_opt name o.reported))
    p.outputs 0.0
  /. float_of_int (max 1 (Hashtbl.length p.outputs))

(* The time of each job in the round, as its fast decile over the phase
   (see {!Report.fast_decile}) in reference seconds; every figure below is
   built from these. The fast decile drops the host's slow spells of a few
   seconds. Some spells cover a whole run and slowed every job 1.2-1.7x:
   the calibration loop slows with them, so the scale takes them out. *)
let kind_s (p : phase) = Array.map (fun xs -> p.scale *. Report.fast_decile xs) p.job_s
let kind_cpu_s (p : phase) = Array.map (fun xs -> p.scale *. Report.fast_decile xs) p.job_cpu_s

let describe_kinds (w : workload) (p : phase) =
  Array.iteri
    (fun j (job : job) ->
      Printf.printf "# job %s: %d runs, wall fast decile %.3f ms, median %.3f ms\n" job.label
        (List.length p.job_s.(j))
        (Report.fast_decile p.job_s.(j) *. 1000.0)
        (Report.median p.job_s.(j) *. 1000.0))
    w.round;
  Printf.printf
    "# phase: %d jobs, %d rounds in %.3f s (%.4f jobs/s as completed / wall); calibration loop \
     %.4f ms, so 1 host s = %.4f reference s\n"
    p.jobs p.rounds p.wall_s
    (float_of_int (p.jobs - p.failed) /. p.wall_s)
    (nominal_calibration_s /. p.scale *. 1000.0)
    p.scale

(* Random circuits of one shape run as several variants, labelled
   ["random-QxG-K"]; the program is the shape. *)
let program label =
  if String.starts_with ~prefix:"random-" label then String.sub label 0 (String.rindex label '-')
  else label

(* One latency per program in the round: a fixed program's job time, or
   the mean over a random shape's variants. The variants of one shape
   differ in cost by up to 2x, so a percentile over single variants would
   follow the seed's draw of circuits. *)
let program_latencies (w : workload) times =
  let programs =
    List.sort_uniq compare (Array.to_list (Array.map (fun j -> program j.label) w.round))
  in
  List.map
    (fun prog ->
      let xs =
        List.filteri (fun j _ -> program w.round.(j).label = prog) (Array.to_list times)
      in
      List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs))
    programs

(* Throughput is one round's jobs and shots over the round's time, the sum
   of its jobs' times. Set-up, timed on the host just before the phase, is
   scaled the same way. *)
let end_to_end ~setup_s ~peak_rss (w : workload) (p : phase) =
  let gates, two_q, depth, cycles = w.quality p.first_round in
  let lat = kind_s p and cpu = kind_cpu_s p in
  let k = float_of_int (Array.length lat) in
  let round_s = Array.fold_left ( +. ) 0.0 lat in
  let round_shots = List.fold_left (fun acc (o : out) -> acc + o.shots) 0 p.first_round in
  let lat_ms = List.map (fun s -> s *. 1000.0) (program_latencies w lat) in
  Report.
    [
      metric "setup_s" "s" (p.scale *. setup_s);
      metric "jobs_per_s" "1/s" (k /. round_s);
      metric "shots_per_s" "1/s" (float_of_int round_shots /. round_s);
      metric "latency_p50_ms" "ms" (percentile lat_ms 50.0);
      metric "latency_p99_ms" "ms" (percentile lat_ms 99.0);
      metric "cpu_ms_per_job" "ms" (Array.fold_left ( +. ) 0.0 cpu *. 1000.0 /. k);
      metric "peak_rss_mb" "MiB" peak_rss;
      count "compiled_gates" "count" gates;
      count "compiled_2q_gates" "count" two_q;
      count "compiled_depth" "count" depth;
      count "device_cycles" "cycles" cycles;
    ]

(* The span a compiler pass's interval is booked to, from the name the
   [?observer] hook reports: ["map/route"] becomes [compiler.map-route],
   and each rewrite inside a stage (["optimize/euler"]) goes to its stage. *)
let pass_span observed =
  match String.split_on_char '/' observed with
  | [ "map"; "route" ] -> "compiler.map-route"
  | stage :: _ -> "compiler." ^ stage
  | [] -> "compiler"

(* The per-layer figures this driver measures; {!Report.per_layer} fills
   in the layers a closed loop never calls. Times are self seconds per job. *)
let per_layer ~(traced : phase) ~(untraced : phase) ~gc_minor ~gc_major table =
  let jobs = float_of_int (max 1 traced.jobs) in
  let per_job name = Report.Float (Span.self_s table name /. jobs) in
  let first name = Report.Int (sum_counts name traced.first_round) in
  let reported name = Report.Float (mean_reported name traced) in
  let round_s (p : phase) = p.wall_s /. float_of_int p.rounds in
  [
    ("cqasm.parse_s", per_job "cqasm.parse");
    ("cqasm.parse_calls", Report.Float (float_of_int (Span.calls table "cqasm.parse") /. jobs));
    ("verify.s", per_job "verify");
    ("compiler.swaps", first "compiler.swaps");
    ("compiler.gates_out", first "compiler.gates_out");
    ("engine.analyse_s", per_job "engine.analyse");
    ("engine.simulate_s", reported "engine.simulate_s");
    ("engine.sample_s", reported "engine.sample_s");
    ("engine.run_s", per_job "engine.run");
    ("engine.reported_s", reported "engine.reported_s");
    ("engine.gate_applies", first "engine.gate_applies");
    ("engine.measurements", first "engine.measurements");
    ("microarch.run_s", per_job "microarch.run");
    ("microarch.bundles", first "microarch.bundles");
    ("microarch.micro_ops", first "microarch.micro_ops");
    ("microarch.sim_ns", first "microarch.sim_ns");
    ("runner.run_s", per_job "runner.run");
    ("gc.minor_words_per_shot", Report.Float (gc_minor /. float_of_int (max 1 traced.shots)));
    ("gc.major_collections", Report.Float (float_of_int gc_major /. jobs));
    ("trace.overhead_pct", Report.Float (((round_s traced /. round_s untraced) -. 1.0) *. 100.0));
  ]
  @ List.map
      (fun pass -> ("compiler." ^ pass ^ "_s", per_job ("compiler." ^ pass)))
      Report.compiler_passes
