module Rng = Qca_util.Rng

type t = { n : int; h : float array; couplings : (int * int * float) list }

let energy m s =
  assert (Array.length s = m.n);
  let acc = ref 0.0 in
  Array.iteri
    (fun i hi ->
      assert (s.(i) = 1 || s.(i) = -1);
      acc := !acc +. (hi *. float_of_int s.(i)))
    m.h;
  List.iter
    (fun (i, j, w) -> acc := !acc +. (w *. float_of_int (s.(i) * s.(j))))
    m.couplings;
  !acc

(* x_i = (1 + s_i) / 2:
   Q_ii x_i            -> Q_ii (1 + s_i) / 2
   Q_ij x_i x_j        -> Q_ij (1 + s_i + s_j + s_i s_j) / 4 *)
let of_qubo q =
  let n = Qubo.size q in
  let h = Array.make n 0.0 in
  let couplings = ref [] in
  let offset = ref 0.0 in
  for i = 0 to n - 1 do
    let qii = Qubo.get q i i in
    if qii <> 0.0 then begin
      offset := !offset +. (qii /. 2.0);
      h.(i) <- h.(i) +. (qii /. 2.0)
    end
  done;
  List.iter
    (fun (i, j) ->
      let w = Qubo.get q i j in
      offset := !offset +. (w /. 4.0);
      h.(i) <- h.(i) +. (w /. 4.0);
      h.(j) <- h.(j) +. (w /. 4.0);
      couplings := (i, j, w /. 4.0) :: !couplings)
    (Qubo.variables_interacting q);
  ({ n; h; couplings = List.rev !couplings }, !offset)

let to_qubo m =
  let q = Qubo.create m.n in
  let offset = ref 0.0 in
  (* s_i = 2 x_i - 1: h_i s_i = 2 h_i x_i - h_i
     J s_i s_j = J (4 x_i x_j - 2 x_i - 2 x_j + 1) *)
  Array.iteri
    (fun i hi ->
      if hi <> 0.0 then begin
        Qubo.add q i i (2.0 *. hi);
        offset := !offset -. hi
      end)
    m.h;
  List.iter
    (fun (i, j, w) ->
      Qubo.add q i j (4.0 *. w);
      Qubo.add q i i (-2.0 *. w);
      Qubo.add q j j (-2.0 *. w);
      offset := !offset +. w)
    m.couplings;
  (q, !offset)

let spins_of_bits = Array.map (fun b -> if b = 1 then 1 else -1)
let bits_of_spins = Array.map (fun s -> if s = 1 then 1 else 0)

let random_spins rng n = Array.init n (fun _ -> if Rng.bool rng then 1 else -1)

let build_neighbour_index m =
  let table = Array.make m.n [] in
  List.iter
    (fun (i, j, w) ->
      table.(i) <- (j, w) :: table.(i);
      table.(j) <- (i, w) :: table.(j))
    m.couplings;
  fun i -> table.(i)

let delta_energy m ~neighbour_index s i =
  let si = float_of_int s.(i) in
  let local = m.h.(i) in
  let coupling =
    List.fold_left (fun acc (j, w) -> acc +. (w *. float_of_int s.(j))) 0.0 (neighbour_index i)
  in
  (* Flip s_i -> -s_i: dE = -2 s_i (h_i + sum_j J_ij s_j) *)
  -2.0 *. si *. (local +. coupling)
