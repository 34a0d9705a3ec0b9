module Graph = Qca_util.Graph
module Gate = Qca_circuit.Gate
module Noise = Qca_qx.Noise

type topology = All_to_all | Grid of int * int | Custom of Graph.t

type t = {
  name : string;
  qubit_count : int;
  topology : topology;
  primitives : string list;
  durations_ns : (string * int) list;
  cycle_ns : int;
  noise : Noise.model;
}

let connectivity p =
  match p.topology with
  | All_to_all -> Graph.complete p.qubit_count (fun _ _ -> 1.0)
  | Grid (rows, cols) ->
      assert (rows * cols >= p.qubit_count);
      Graph.grid_2d rows cols
  | Custom g -> g

(* The compiler asks [supports] for every gate of every pass, so it reads
   one bit of a mask over gate kinds. The mask is worked out once per
   primitive list and cached by the list's physical identity, so a record
   built with [{ p with primitives = ... }] gets its own. The list and its
   mask are swapped as one pair, so concurrent callers never read a mask
   with another list. *)
let primitive_mask primitives =
  List.fold_left
    (fun mask name ->
      match Gate.kind_of_name name with Some k -> mask lor (1 lsl k) | None -> mask)
    0 primitives

let last_mask = Atomic.make ([], 0)

let supports p u =
  let list, mask = Atomic.get last_mask in
  let mask =
    if list == p.primitives then mask
    else begin
      let mask = primitive_mask p.primitives in
      Atomic.set last_mask (p.primitives, mask);
      mask
    end
  in
  mask land (1 lsl Gate.kind u) <> 0

let lookup_duration p mnemonic =
  match List.assoc_opt mnemonic p.durations_ns with
  | Some d -> d
  | None -> (
      match List.assoc_opt "*" p.durations_ns with
      | Some d -> d
      | None -> p.cycle_ns)

let duration_ns p instr =
  match instr with
  | Gate.Unitary (u, _) | Gate.Conditional (_, u, _) -> lookup_duration p (Gate.name u)
  | Gate.Prep _ -> lookup_duration p "prep_z"
  | Gate.Measure _ -> lookup_duration p "measure"
  | Gate.Barrier _ -> 0

let duration_cycles p instr =
  let ns = duration_ns p instr in
  max 1 ((ns + p.cycle_ns - 1) / p.cycle_ns)

let are_coupled p u v =
  match p.topology with
  | All_to_all -> u <> v
  | Grid _ | Custom _ -> Graph.has_edge (connectivity p) u v

let all_gate_names =
  [
    "i"; "x"; "y"; "z"; "h"; "s"; "sdag"; "t"; "tdag"; "x90"; "mx90"; "y90"; "my90";
    "rx"; "ry"; "rz"; "cnot"; "cz"; "swap"; "cphase"; "cr"; "toffoli";
  ]

let perfect n =
  {
    name = Printf.sprintf "perfect-%d" n;
    qubit_count = n;
    topology = All_to_all;
    primitives = all_gate_names;
    durations_ns = [ ("*", 1) ];
    cycle_ns = 1;
    noise = Noise.ideal;
  }

(* Surface-17 style slice: 17 qubits arranged on a 2-D grid fragment.
   We model it as the 17 first vertices of a 5x4 grid with grid coupling. *)
let surface_17_graph () =
  let g = Graph.create 17 in
  let full = Graph.grid_2d 5 4 in
  List.iter
    (fun (u, v, w) -> if u < 17 && v < 17 then Graph.add_edge g u v w)
    (Graph.edges full);
  g

let superconducting_17 =
  {
    name = "superconducting-17";
    qubit_count = 17;
    topology = Custom (surface_17_graph ());
    primitives = [ "i"; "x90"; "mx90"; "y90"; "my90"; "rz"; "cz" ];
    durations_ns =
      [ ("x90", 20); ("mx90", 20); ("y90", 20); ("my90", 20); ("rz", 0);
        ("cz", 40); ("prep_z", 200); ("measure", 300); ("*", 20) ];
    cycle_ns = 20;
    noise = Noise.superconducting;
  }

let semiconducting_4 =
  let chain = Graph.create 4 in
  Graph.add_edge chain 0 1 1.0;
  Graph.add_edge chain 1 2 1.0;
  Graph.add_edge chain 2 3 1.0;
  {
    name = "semiconducting-4";
    qubit_count = 4;
    topology = Custom chain;
    primitives = [ "i"; "x90"; "mx90"; "y90"; "my90"; "rz"; "cz" ];
    durations_ns =
      [ ("x90", 500); ("mx90", 500); ("y90", 500); ("my90", 500); ("rz", 0);
        ("cz", 2000); ("prep_z", 4000); ("measure", 6000); ("*", 500) ];
    cycle_ns = 100;
    noise =
      {
        Noise.single_qubit_error = 0.002;
        two_qubit_error = 0.01;
        readout_error = 0.02;
        prep_error = 0.005;
        t1_ns = 100_000.0;
        t2_ns = 60_000.0;
        cycle_ns = 100.0;
      };
  }
