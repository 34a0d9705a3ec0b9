module Platform = Qca_compiler.Platform
module Eqasm = Qca_compiler.Eqasm

let site i = Printf.sprintf "eqasm[%d]" i

(* The lowering writes "measz"/"prepz" mnemonics while the platform duration
   table is keyed on the circuit-level names. *)
let duration_key = function
  | "measz" -> "measure"
  | "prepz" -> "prep_z"
  | m -> m

let duration_cycles (platform : Platform.t) mnemonic =
  let ns =
    match List.assoc_opt (duration_key mnemonic) platform.Platform.durations_ns with
    | Some d -> d
    | None -> (
        match List.assoc_opt "*" platform.Platform.durations_ns with
        | Some d -> d
        | None -> platform.Platform.cycle_ns)
  in
  max 1 ((ns + platform.Platform.cycle_ns - 1) / platform.Platform.cycle_ns)

(* Mask registers are capped at 32 by the lowering; direct-indexed arrays
   keep the per-operation lookup at an array load. The qubit lists are
   flattened to arrays at SMIS/SMIT time (rare) so the per-operation loop
   needs no closure. Registers outside 0..31 — only possible in hand-built
   programs — spill to a hashtable. *)
let register_limit = Eqasm.register_limit

let check platform (program : Eqasm.program) =
  let s_regs = Array.make register_limit [||] in
  let s_set = Array.make register_limit false in
  let t_regs = Array.make register_limit [||] in
  let t_set = Array.make register_limit false in
  let spill : (bool * int, int array) Hashtbl.t = Hashtbl.create 4 in
  let flatten_pairs pairs =
    let arr = Array.make (2 * List.length pairs) 0 in
    List.iteri
      (fun k (a, b) ->
        arr.(2 * k) <- a;
        arr.((2 * k) + 1) <- b)
      pairs;
    arr
  in
  let lookup ~two_qubit r =
    if r >= 0 && r < register_limit then
      if (if two_qubit then t_set.(r) else s_set.(r)) then
        if two_qubit then t_regs.(r) else s_regs.(r)
      else raise Not_found
    else Hashtbl.find spill (two_qubit, r)
  in
  let busy_until = Array.make (max program.Eqasm.qubit_count 1) 0 in
  let clock = ref 0 in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* The duration table is an assoc list keyed by strings, and the lowering
     reuses [Gate.name]'s constant strings as mnemonics — so a tiny
     physical-equality cache resolves a mnemonic without hashing it. The
     cache is capped in case a hand-built program uses fresh strings. *)
  let cycles_cache : (string * int) list ref = ref [] in
  let cycles_cache_size = ref 0 in
  let rec cached mnemonic = function
    | [] -> -1
    | (k, c) :: tl -> if k == mnemonic then c else cached mnemonic tl
  in
  let cycles_of mnemonic =
    match cached mnemonic !cycles_cache with
    | -1 ->
        let c = duration_cycles platform mnemonic in
        if !cycles_cache_size < 64 then begin
          cycles_cache := (mnemonic, c) :: !cycles_cache;
          incr cycles_cache_size
        end;
        c
    | c -> c
  in
  (* Hoisted so the per-operation loop allocates nothing on the clean path. *)
  let mask_unset i (op : Eqasm.quantum_op) =
    add
      (Diagnostic.make Diagnostic.Error ~code:"E03" ~check:"mask-unset"
         ~site:(site i)
         ~fixit:
           (Printf.sprintf "emit SM%s %c%d, {...} before this bundle"
              (if op.Eqasm.two_qubit then "IT" else "IS")
              (if op.Eqasm.two_qubit then 't' else 's')
              op.Eqasm.mask)
         (Printf.sprintf "%s reads mask register %c%d before it is set"
            op.Eqasm.mnemonic
            (if op.Eqasm.two_qubit then 't' else 's')
            op.Eqasm.mask))
  in
  let touch i mnemonic start cycles q =
    if q >= 0 && q < program.Eqasm.qubit_count then begin
      if start < busy_until.(q) then
        add
          (Diagnostic.make Diagnostic.Error ~code:"E01" ~check:"overlapping-window"
             ~site:(site i)
             ~fixit:
               (Printf.sprintf
                  "delay the bundle by %d cycle(s) (QWAIT or larger pre-interval)"
                  (busy_until.(q) - start))
             (Printf.sprintf
                "%s starts on qubit %d at cycle %d while it is busy until cycle %d"
                mnemonic q start busy_until.(q)));
      busy_until.(q) <- max busy_until.(q) (start + cycles)
    end
  in
  (* Explicit recursion instead of [List.iter (fun op -> ...)] — the latter
     would allocate a closure per bundle. *)
  let rec do_ops i start = function
    | [] -> ()
    | (op : Eqasm.quantum_op) :: tl ->
        (match lookup ~two_qubit:op.Eqasm.two_qubit op.Eqasm.mask with
        | qs ->
            let cycles = cycles_of op.Eqasm.mnemonic in
            for k = 0 to Array.length qs - 1 do
              touch i op.Eqasm.mnemonic start cycles qs.(k)
            done
        | exception Not_found -> mask_unset i op);
        do_ops i start tl
  in
  List.iteri
    (fun i instr ->
      match instr with
      | Eqasm.Smis (r, qubits) ->
          if r >= 0 && r < register_limit then begin
            s_regs.(r) <- Array.of_list qubits;
            s_set.(r) <- true
          end
          else Hashtbl.replace spill (false, r) (Array.of_list qubits)
      | Eqasm.Smit (r, pairs) ->
          if r >= 0 && r < register_limit then begin
            t_regs.(r) <- flatten_pairs pairs;
            t_set.(r) <- true
          end
          else Hashtbl.replace spill (true, r) (flatten_pairs pairs)
      | Eqasm.Qwait n -> clock := !clock + n
      | Eqasm.Bundle (pre_interval, ops) ->
          clock := !clock + pre_interval;
          do_ops i !clock ops)
    program.Eqasm.instructions;
  let completion = Array.fold_left max 0 busy_until in
  if program.Eqasm.makespan_cycles < completion then
    add
      (Diagnostic.make Diagnostic.Error ~code:"E02" ~check:"qwait-underflow"
         ~site:"eqasm"
         ~fixit:
           (Printf.sprintf "pad the tail QWAIT so the makespan reaches %d cycles"
              completion)
         (Printf.sprintf
            "declared makespan is %d cycles but the last operation completes at cycle %d"
            program.Eqasm.makespan_cycles completion));
  List.rev !diags
