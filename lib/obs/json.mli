(** A minimal JSON document model with a strict parser.

    The observability exporters (Chrome trace events, metrics
    snapshots) emit through this module so their output is valid JSON
    by construction, and the CI determinism gate can re-read exported
    files with {!parse} — which accepts exactly RFC 8259 documents and
    nothing else (no trailing garbage, no NaN, no unquoted keys). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Floats are printed with enough
    digits to round-trip; [Int] prints without a decimal point. *)

val parse : string -> (t, string) result
(** Strict whole-document parse: leading/trailing whitespace is
    allowed, anything else after the document is an error. Numbers
    without [.], [e] or [E] parse as [Int]; others as [Float]. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] for other constructors. *)

val equal : t -> t -> bool
(** Structural equality ([Obj] fields compared in order). *)
