(** The stack's one JSON encoder and decoder. Every document the stack
    writes (run reports, estimates, diagnostics, service stats and result
    lines, the daemon heartbeat, Chrome traces, bench artifacts) is a {!t}
    printed here, so JSON syntax is decided in this module alone
    ([docs/observability.md]):
    - strings escape the double quote, the backslash and every byte below
      0x20 (newline and tab by their short forms, the rest as [\u00XX]);
    - a non-finite float prints as [null];
    - a finite float prints as the shortest [%g] text that reads back
      exactly, so an integral float has no fraction ([3.0] prints [3]). A
      field shown with fewer digits rounds its value ({!round},
      {!round_sig}) rather than using a format string.

    [parse (to_string v) = Ok v] for every [v] whose floats are finite and
    non-integral; an integral float reads back as [Int] (or [Float] when it
    prints with an exponent), a non-finite one as [Null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** Fields in print order. *)

val to_string : t -> string
(** Compact: one line, no whitespace between tokens. *)

val to_lines : t -> string
(** {!to_string}, except that each element of an array of objects starts
    a new line, as does the array's closing bracket: one record per line
    for line-oriented tools. *)

val parse : string -> (t, string) result
(** Any RFC 8259 document. [Error] on malformed input or nesting deeper
    than {!max_depth}; never raises. *)

val max_depth : int

val member : string -> t -> t option
(** The first field named so, when the value is an object. *)

val option : ('a -> t) -> 'a option -> t
(** [None] as [Null]. *)

val round : int -> float -> float
(** [round digits x]: [x] rounded to [digits] decimals (halves away from
    zero). Non-finite values pass through. *)

val round_sig : int -> float -> float
(** [round_sig digits x]: [x] rounded to [digits] significant digits, as
    [%.*g] prints it. Non-finite values pass through. *)
