(** The repo's one JSON codec: a small value type, a compact printer and a
    recursive-descent parser. The repo carries no JSON dependency; the
    wire protocol, diagnostics, traces and the CLI's [--format json]
    outputs all print through {!to_string}. The farm manifest and the
    frontier JSON keep their own fixed layouts and take only {!escape}
    from here. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val escape : string -> string
(** [s] as the body of a JSON string literal, without the quotes:
    ["\""], ["\\"], newline, CR and tab get their short escapes, other
    control bytes [\u00XX]. Bytes from 0x80 pass through. *)

val to_string : t -> string
(** Compact rendering. Integral numbers below 1e15 print without a
    fraction, others with the fewest significant digits (15 to 17) that
    parse back to the same float, so [of_string (to_string j) = j].
    Raises [Invalid_argument] on a non-finite number, which JSON cannot
    express. *)

val of_string : string -> t
(** Exactly one value, surrounded by optional whitespace. Raises
    {!Parse_error} on malformed input, trailing content or a number
    beyond the float range, so every parsed value prints. *)

val mem : string -> t -> t option
(** Object field lookup; [None] on non-objects. *)

(** {2 Field accessors}

    Typed lookups for decoders: a present field of the wrong type, or a
    missing field without [default], raises {!Parse_error}. *)

val str_field : ?default:string -> string -> t -> string
val int_field : ?default:int -> string -> t -> int
val float_field : ?default:float -> string -> t -> float
val bool_field : ?default:bool -> string -> t -> bool

val opt_int_field : string -> t -> int option
(** [None] when the field is absent or not a number. *)
