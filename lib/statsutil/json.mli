(** Minimal JSON reading and writing — enough for the bench harness's
    machine-readable result files, without an external dependency.

    The writer pretty-prints with two-space indentation and renders
    non-finite numbers as [null] (JSON has no NaN/Infinity).  The parser
    accepts the full JSON value grammar over ASCII input; [\u] escapes
    outside ASCII decode to ['?']. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Rendered document, newline-terminated. *)

val to_compact_string : t -> string
(** Single-line rendering with no trailing newline — one JSONL record. *)

val of_string : string -> (t, string) result
(** Parses one JSON document; [Error] carries a message with the byte
    offset of the problem. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the field [k] if present; [None] on any other
    constructor. *)

val field : string -> t -> (t, string) result
(** [field k o] is {!member} [k o], or [Error "missing field \"k\""]. *)

val to_float : t -> float option

val to_int : t -> (int, string) result
(** The integer decoder: a number that is integral, finite and within
    the range of [int]; [Error "expected an integer"] on anything else,
    a fraction such as [3.5] or a magnitude such as [1e300] included. *)

val to_list : t -> t list option

(** {2 Exact float codec}

    {!to_string} renders non-finite numbers as [null], which loses the
    value.  Documents that must round-trip [inf]/[nan] exactly encode
    floats with this pair instead. *)

val of_float_exact : float -> t
(** [Num f] for a finite [f]; a non-finite [f] becomes the string
    [string_of_float f] (["inf"], ["-inf"], ["nan"]). *)

val to_float_exact : t -> (float, string) result
(** Inverse of {!of_float_exact}: a number, a float string, or [null]
    (read as [nan], as older writers emitted); [Error] otherwise. *)
