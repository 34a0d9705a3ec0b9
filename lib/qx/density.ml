module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Matrix = Qca_util.Matrix
module Cplx = Qca_util.Cplx
module Trace = Qca_util.Trace
module Clock = Qca_util.Clock

type t = { n : int; mutable rho : Matrix.t }

let create n =
  if n < 1 || n > 8 then invalid_arg "Density.create: qubit count out of range [1, 8]";
  let dim = 1 lsl n in
  { n; rho = Matrix.make dim dim (fun r c -> if r = 0 && c = 0 then Cplx.one else Cplx.zero) }

let qubit_count d = d.n
let dimension d = 1 lsl d.n

let of_state state =
  let n = State.qubit_count state in
  if n > 8 then invalid_arg "Density.of_state: too many qubits";
  let dim = State.dimension state in
  {
    n;
    rho =
      Matrix.make dim dim (fun r c ->
          Cplx.mul (State.amplitude state r) (Cplx.conj (State.amplitude state c)));
  }

let get d r c = Matrix.get d.rho r c

let trace d = Cplx.re (Matrix.trace d.rho)

let purity d = Cplx.re (Matrix.trace (Matrix.mul d.rho d.rho))

(* Embed a k-qubit operator on the given operand qubits into the full space
   (same convention as Circuit.unitary_matrix: operands MSB-first). *)
let embed n small ops =
  let k = Array.length ops in
  let dim = 1 lsl n in
  let mask = Array.fold_left (fun m q -> m lor (1 lsl q)) 0 ops in
  let index_of basis =
    let rec go i acc =
      if i = k then acc
      else go (i + 1) ((acc lsl 1) lor if basis land (1 lsl ops.(i)) <> 0 then 1 else 0)
    in
    go 0 0
  in
  Matrix.make dim dim (fun row col ->
      if row land lnot mask <> col land lnot mask then Cplx.zero
      else Matrix.get small (index_of row) (index_of col))

let apply_operator d full =
  d.rho <- Matrix.mul full (Matrix.mul d.rho (Matrix.adjoint full))

let apply_unitary d u ops =
  if Trace.enabled () then Trace.add_counter ("qx.density.apply." ^ Gate.name u) 1;
  apply_operator d (embed d.n (Gate.matrix u) ops)

let kraus_of_channel channel =
  let c = Cplx.make in
  let scaled s m = Matrix.scale (c s 0.0) m in
  let pauli_x = Gate.matrix Gate.X
  and pauli_y = Gate.matrix Gate.Y
  and pauli_z = Gate.matrix Gate.Z
  and identity = Matrix.identity 2 in
  match channel with
  | Noise.Depolarizing p ->
      [
        scaled (sqrt (1.0 -. p)) identity;
        scaled (sqrt (p /. 3.0)) pauli_x;
        scaled (sqrt (p /. 3.0)) pauli_y;
        scaled (sqrt (p /. 3.0)) pauli_z;
      ]
  | Noise.Bit_flip p -> [ scaled (sqrt (1.0 -. p)) identity; scaled (sqrt p) pauli_x ]
  | Noise.Phase_flip p -> [ scaled (sqrt (1.0 -. p)) identity; scaled (sqrt p) pauli_z ]
  | Noise.Bit_phase_flip p -> [ scaled (sqrt (1.0 -. p)) identity; scaled (sqrt p) pauli_y ]
  | Noise.Amplitude_damping gamma ->
      [
        Matrix.of_arrays
          [| [| Cplx.one; Cplx.zero |]; [| Cplx.zero; c (sqrt (1.0 -. gamma)) 0.0 |] |];
        Matrix.of_arrays
          [| [| Cplx.zero; c (sqrt gamma) 0.0 |]; [| Cplx.zero; Cplx.zero |] |];
      ]
  | Noise.Phase_damping lambda ->
      [
        Matrix.of_arrays
          [| [| Cplx.one; Cplx.zero |]; [| Cplx.zero; c (sqrt (1.0 -. lambda)) 0.0 |] |];
        Matrix.of_arrays
          [| [| Cplx.zero; Cplx.zero |]; [| Cplx.zero; c (sqrt lambda) 0.0 |] |];
      ]

let apply_channel d channel q =
  let kraus = kraus_of_channel channel in
  let dim = dimension d in
  let acc = ref (Matrix.zero dim dim) in
  List.iter
    (fun k ->
      let full = embed d.n k [| q |] in
      acc := Matrix.add !acc (Matrix.mul full (Matrix.mul d.rho (Matrix.adjoint full))))
    kraus;
  d.rho <- !acc

let probabilities d = Array.init (dimension d) (fun k -> Cplx.re (get d k k))

let prob_one d q =
  let acc = ref 0.0 in
  for k = 0 to dimension d - 1 do
    if k land (1 lsl q) <> 0 then acc := !acc +. Cplx.re (get d k k)
  done;
  !acc

let fidelity_with_state d state =
  (* <psi| rho |psi> *)
  let dim = dimension d in
  let acc = ref Cplx.zero in
  for r = 0 to dim - 1 do
    for c = 0 to dim - 1 do
      acc :=
        Cplx.add !acc
          (Cplx.mul
             (Cplx.conj (State.amplitude state r))
             (Cplx.mul (get d r c) (State.amplitude state c)))
    done
  done;
  Cplx.re !acc

let expectation_diag d f =
  let acc = ref 0.0 in
  for k = 0 to dimension d - 1 do
    acc := !acc +. (f k *. Cplx.re (get d k k))
  done;
  !acc

(* Deterministic analogue of Sim.run's noise insertion: the same channels
   the trajectory sampler draws from, applied as exact Kraus sums. *)
let decay_channels (m : Noise.model) =
  if m.Noise.t1_ns = infinity && m.Noise.t2_ns = infinity then []
  else begin
    let gamma =
      if m.Noise.t1_ns = infinity then 0.0
      else 1.0 -. exp (-.m.Noise.cycle_ns /. m.Noise.t1_ns)
    in
    let t1_rate = if m.Noise.t1_ns = infinity then 0.0 else 1.0 /. (2.0 *. m.Noise.t1_ns) in
    let t2_rate = if m.Noise.t2_ns = infinity then 0.0 else 1.0 /. m.Noise.t2_ns in
    let phi_rate = Float.max 0.0 (t2_rate -. t1_rate) in
    let lambda = 1.0 -. exp (-2.0 *. m.Noise.cycle_ns *. phi_rate) in
    [ Noise.Amplitude_damping gamma; Noise.Phase_damping lambda ]
  end

let after_gate_noise d noise u ops =
  let p =
    if Gate.arity u >= 2 then noise.Noise.two_qubit_error else noise.Noise.single_qubit_error
  in
  Array.iter
    (fun q ->
      if p > 0.0 then apply_channel d (Noise.Depolarizing p) q;
      List.iter (fun ch -> apply_channel d ch q) (decay_channels noise))
    ops

let run ?(noise = Noise.ideal) circuit =
  let n = Circuit.qubit_count circuit in
  let d = create n in
  let ideal = Noise.is_ideal noise in
  List.iter
    (fun instr ->
      match instr with
      | Gate.Unitary (u, ops) ->
          apply_unitary d u ops;
          if not ideal then after_gate_noise d noise u ops
      | Gate.Conditional _ | Gate.Prep _ | Gate.Measure _ ->
          invalid_arg "Density.run: measurement/prep/conditional not supported"
      | Gate.Barrier _ -> ())
    (Circuit.instructions circuit);
  d

(* --- Exact-distribution sampling --------------------------------------- *)

(* Terminal measurements are sampled from the exact diagonal of rho, so the
   result has the engine's shape (and validates it without sampling error
   in the evolution itself). *)
let sample ?(noise = Noise.ideal) ?(shots = 1024) ?seed circuit =
  if shots < 1 then invalid_arg "Density.sample: shots must be positive";
  Trace.with_span "density.run" (fun run_sp ->
  let t0 = Clock.now () in
  match Engine.terminal_split circuit with
  | None ->
      invalid_arg
        "Density.sample: circuit needs trajectory execution (conditional, \
         mid-circuit measurement or reset)"
  | Some (prefix, measured) ->
      let n = Circuit.qubit_count circuit in
      Trace.annotate run_sp (fun () ->
          [ ("shots", Trace.Int shots); ("qubits", Trace.Int n) ]);
      let d = create n in
      let ideal = Noise.is_ideal noise in
      let applies = Hashtbl.create 16 in
      let t1 = Clock.now () in
      let sim_sp = Trace.begin_span "density.simulate" in
      List.iter
        (fun instr ->
          match instr with
          | Gate.Unitary (u, ops) ->
              apply_unitary d u ops;
              if not ideal then after_gate_noise d noise u ops;
              Hashtbl.replace applies (Gate.name u)
                (1 + Option.value ~default:0 (Hashtbl.find_opt applies (Gate.name u)))
          | _ -> assert false)
        prefix;
      Trace.end_span sim_sp;
      let t2 = Clock.now () in
      let rng =
        match seed with
        | Some s -> Qca_util.Rng.create s
        | None -> Engine.default_rng ()
      in
      let histogram =
        Trace.with_span "density.sample" (fun _ ->
            Engine.sample_histogram ~probabilities:(probabilities d) ~measured ~rng ~shots)
      in
      let t3 = Clock.now () in
      let gate_applies =
        Hashtbl.fold (fun name count acc -> (name, count) :: acc) applies []
        |> List.sort (fun (na, a) (nb, b) ->
               match compare b a with 0 -> compare na nb | c -> c)
      in
      let measured_count =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 measured
      in
      {
        Engine.histogram;
        report =
          {
            Engine.plan = Engine.Sampled;
            plan_reason = "exact density-matrix evolution";
            shots;
            seed;
            qubit_count = n;
            instruction_count = Circuit.length circuit;
            gate_applies;
            measurements = shots * measured_count;
            wall = { Engine.analyse_s = t1 -. t0; simulate_s = t2 -. t1; sample_s = t3 -. t2 };
            resilience = Engine.no_resilience;
            fusion = Engine.no_fusion;
            cache = Engine.no_cache;
          };
      })
