(** Arbitrary-precision signed integers.

    The representation uses base-[2^30] limbs so that all intermediate
    products fit in OCaml's 63-bit native [int] without overflow. All
    values are immutable; all functions are pure.

    This module exists because the sealed build environment ships no
    [zarith]; the exact simplex and branch-and-bound solvers of
    {!module:Lp} and {!module:Milp} require overflow-free arithmetic. *)

type t

(** {1 Constants} *)

val zero : t
val one : t

(** {1 Conversions} *)

(** [of_int n] converts a native integer (any value of [int]). *)
val of_int : int -> t

(** [to_int t] is [Some n] when [t] fits in a native [int]. *)
val to_int : t -> int option

(** [to_int_exn t] is [t] as a native [int].
    @raise Failure when [t] does not fit. *)
val to_int_exn : t -> int

(** [of_string s] parses an optionally-signed decimal literal.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

(** [to_string t] is the decimal representation of [t]. *)
val to_string : t -> string

(** [to_float t] is the nearest (approximate) float. *)
val to_float : t -> float

(** {1 Queries} *)

(** [sign t] is [-1], [0] or [1]. *)
val sign : t -> int

val is_zero : t -> bool
val is_one : t -> bool
val is_negative : t -> bool

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val mul : t -> t -> t

(** [div a b] and [rem a b] are [q] and [r] with [a = q*b + r],
    [0 <= |r| < |b|] and [r] carrying the sign of [a] (truncated
    division, like [Stdlib.( / )] and [Stdlib.( mod )]).
    @raise Division_by_zero when [b] is zero. *)
val div : t -> t -> t

val rem : t -> t -> t

(** [fdiv a b] is the floor division [⌊a / b⌋]. *)
val fdiv : t -> t -> t

(** [cdiv a b] is the ceiling division [⌈a / b⌉]. *)
val cdiv : t -> t -> t

(** [gcd a b] is the non-negative greatest common divisor;
    [gcd zero zero = zero]. *)
val gcd : t -> t -> t

(** [pow b e] is [b] raised to the non-negative native exponent [e].
    @raise Invalid_argument when [e < 0]. *)
val pow : t -> int -> t

(** {1 Infix operators} *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ~- ) : t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

module For_testing : sig
  (** [num_bits t] is the position of the highest set bit of [|t|]
      ([0] for zero). *)
  val num_bits : t -> int
end
