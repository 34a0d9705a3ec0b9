(** Diagnostic records for the static checker ({!Qca_analysis}).

    Every check in the suite reports findings as values of {!t}: a severity,
    a stable check code (listed in [docs/analysis.md]), a site string using
    the same convention as {!Qca_util.Error.t} ([site]), a human-readable
    message and an optional mechanical fix-it. Text and JSON renderers keep
    the CLI ([qxc check], [--lint], [--lint-json]) and tooling in sync. *)

type severity = Error | Warning | Hint

type t = {
  severity : severity;
  code : string;  (** Stable check code, e.g. ["C03"]. *)
  check : string;  (** Kebab-case check name, e.g. ["use-after-measure"]. *)
  site : string;
      (** Where the finding is anchored, reusing the {!Qca_util.Error.t}
          [site] convention, e.g. ["circuit[4]"] (instruction index) or
          ["eqasm[7]"] (instruction index in the eQASM stream). *)
  message : string;
  fixit : string option;  (** Suggested fix, when one is mechanical. *)
}

val make :
  ?fixit:string -> severity -> code:string -> check:string -> site:string -> string -> t

val severity_label : severity -> string
(** ["error"], ["warning"] or ["hint"]. *)

val counts : t list -> int * int * int
(** [(errors, warnings, hints)]. *)

val max_severity : t list -> severity option

val exit_code : t list -> int
(** CLI contract: [0] when clean (hints do not gate), [1] when the worst
    finding is a warning, [2] when any error is present. *)

val to_string : t -> string
(** One line: [severity[CODE check-name] site: message (fix: ...)]. *)

val summary : t list -> string
(** E.g. ["2 errors, 1 warning, 0 hints"] (or ["clean"]). *)

val render : t list -> string
(** One {!to_string} line per diagnostic, then the {!summary} line. *)

val to_json : t -> Qca_util.Json.t
(** One diagnostic as a JSON object. *)
