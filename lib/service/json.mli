(** A minimal JSON value type with a strict parser and printer.

    The service protocol is line-delimited JSON; this module is the
    whole codec, so the daemon depends on nothing outside the
    repository. It covers exactly what RFC 8259 requires of a
    receiver: objects, arrays, strings with escapes (including
    [\uXXXX], encoded back out as UTF-8), numbers (integers kept
    exact, anything with a fraction or exponent as float), booleans
    and null. Duplicate object keys keep the first binding, matching
    {!member}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] renders compact single-line JSON (no newlines, so a
    value is always one protocol line). A finite [Float] prints in the
    fewest significant digits (15 to 17) that {!of_string} reads back
    to the same float. *)
val to_string : t -> string

(** [of_string s] parses one JSON value spanning the whole input
    (trailing whitespace allowed). A value nested more than 64 arrays
    or objects deep is an [Error "nesting deeper than 64 at offset
    <k>"], [k] being the offset of the first bracket past the limit.
    The protocol nests at most 3 deep; the bound keeps the recursive
    descent's stack, and the time spent on a hostile line, small. *)
val of_string : string -> (t, string) result

(** {1 Accessors} *)

(** [member key v] is the value bound to [key] when [v] is an object
    containing it. *)
val member : string -> t -> t option

(** [to_int v] accepts [Int] and integral [Float]s. *)
val to_int : t -> int option

val to_float : t -> float option

val to_str : t -> string option

val to_bool : t -> bool option

(** [get_string key v] / [get_int key v] compose {!member} with the
    coercions. *)
val get_string : string -> t -> string option

val get_int : string -> t -> int option
