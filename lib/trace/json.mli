(** Minimal JSON support for trace sinks and bench output.

    The repository deliberately has no third-party JSON dependency, so the
    Chrome-trace sink needs its own emitter and — for the round-trip checks
    demanded by the tests and the CLI's self-validation — a small parser.
    The parser accepts the full JSON grammar (RFC 8259) minus niceties we
    never emit: it reads numbers with [float_of_string], and decodes the
    escape sequences the emitter produces (plus [\uXXXX], kept as bytes). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
(** Emit compact (whitespace-free) JSON. Non-finite numbers become [null]. *)

val to_string : t -> string

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error.  The error
    string includes the byte offset where parsing failed. *)

(* Accessors used by tests and the CLI's trace validation. *)

val member : string -> t -> t option
(** [member k (Obj ...)] looks up key [k]; [None] on missing key or non-object. *)

val to_list : t -> t list
(** Contents of an [Arr]; [] for anything else. *)
