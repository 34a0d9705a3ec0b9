type channel_kind = Microwave | Flux | Readout

type pulse = {
  name : string;
  channel : channel_kind;
  duration_ns : int;
  amplitude : float;
  phase : float;
  samples : float array;
}

let gaussian_envelope ~duration_ns ~amplitude =
  let n = max 1 duration_ns in
  let sigma = float_of_int n /. 4.0 in
  let mid = float_of_int (n - 1) /. 2.0 in
  Array.init n (fun i ->
      let x = (float_of_int i -. mid) /. sigma in
      amplitude *. exp (-0.5 *. x *. x))

let square_envelope ~duration_ns ~amplitude =
  let n = max 1 duration_ns in
  (* 2 ns linear rise/fall to avoid spectral splatter. *)
  let ramp = min 2 (n / 2) in
  Array.init n (fun i ->
      if i < ramp then amplitude *. float_of_int (i + 1) /. float_of_int (ramp + 1)
      else if i >= n - ramp then
        amplitude *. float_of_int (n - i) /. float_of_int (ramp + 1)
      else amplitude)

let make ~name ~channel ~duration_ns ~amplitude ~phase =
  let samples =
    match channel with
    | Microwave -> gaussian_envelope ~duration_ns ~amplitude
    | Flux | Readout -> square_envelope ~duration_ns ~amplitude
  in
  { name; channel; duration_ns; amplitude; phase; samples }

module String_map = Map.Make (String)

type library = pulse String_map.t

let empty = String_map.empty
let add lib p = String_map.add p.name p lib
let find lib name = String_map.find_opt name lib
let names lib = List.map fst (String_map.bindings lib)

let of_list pulses = List.fold_left add empty pulses

let superconducting_library () =
  of_list
    [
      make ~name:"x90" ~channel:Microwave ~duration_ns:20 ~amplitude:0.5 ~phase:0.0;
      make ~name:"mx90" ~channel:Microwave ~duration_ns:20 ~amplitude:0.5 ~phase:Float.pi;
      make ~name:"y90" ~channel:Microwave ~duration_ns:20 ~amplitude:0.5
        ~phase:(Float.pi /. 2.0);
      make ~name:"my90" ~channel:Microwave ~duration_ns:20 ~amplitude:0.5
        ~phase:(-.Float.pi /. 2.0);
      make ~name:"cz" ~channel:Flux ~duration_ns:40 ~amplitude:0.8 ~phase:0.0;
      make ~name:"measz" ~channel:Readout ~duration_ns:300 ~amplitude:0.3 ~phase:0.0;
      make ~name:"prepz" ~channel:Readout ~duration_ns:200 ~amplitude:0.1 ~phase:0.0;
    ]

let semiconducting_library () =
  of_list
    [
      make ~name:"x90" ~channel:Microwave ~duration_ns:500 ~amplitude:0.9 ~phase:0.0;
      make ~name:"mx90" ~channel:Microwave ~duration_ns:500 ~amplitude:0.9 ~phase:Float.pi;
      make ~name:"y90" ~channel:Microwave ~duration_ns:500 ~amplitude:0.9
        ~phase:(Float.pi /. 2.0);
      make ~name:"my90" ~channel:Microwave ~duration_ns:500 ~amplitude:0.9
        ~phase:(-.Float.pi /. 2.0);
      make ~name:"cz" ~channel:Flux ~duration_ns:2000 ~amplitude:0.6 ~phase:0.0;
      make ~name:"measz" ~channel:Readout ~duration_ns:6000 ~amplitude:0.2 ~phase:0.0;
      make ~name:"prepz" ~channel:Readout ~duration_ns:4000 ~amplitude:0.1 ~phase:0.0;
    ]

let energy p = Array.fold_left (fun acc s -> acc +. (s *. s)) 0.0 p.samples
