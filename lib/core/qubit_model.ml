type t = Perfect | Realistic | Real

let to_string = function
  | Perfect -> "perfect"
  | Realistic -> "realistic"
  | Real -> "real"

let compiler_mode = function
  | Perfect -> Qca_compiler.Compiler.Perfect
  | Realistic -> Qca_compiler.Compiler.Realistic
  | Real -> Qca_compiler.Compiler.Real

let noise model platform =
  match model with
  | Perfect -> Qca_qx.Noise.ideal
  | Realistic | Real -> platform.Qca_compiler.Platform.noise

let respects_connectivity = function Perfect -> false | Realistic | Real -> true

let all = [ Perfect; Realistic; Real ]
