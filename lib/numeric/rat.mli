(** Exact rational numbers over {!Bigint}.

    Values are kept in canonical form: the denominator is strictly
    positive and numerator/denominator are coprime. All operations are
    pure and exact — there is no rounding anywhere, which is what makes
    the simplex ({!module:Lp}) and branch-and-bound ({!module:Milp})
    solvers immune to the numerical-tolerance issues of floating-point
    LP codes. *)

type t

(** {1 Constants} *)

val zero : t
val one : t

(** {1 Construction} *)

(** [make num den] is the canonical rational [num/den].
    @raise Division_by_zero when [den] is zero. *)
val make : Bigint.t -> Bigint.t -> t

(** [of_int n] is [n/1]. *)
val of_int : int -> t

(** [of_ints num den] is [num/den]. @raise Division_by_zero when [den = 0]. *)
val of_ints : int -> int -> t

(** {1 Access} *)

(** Canonical numerator (carries the sign). *)
val num : t -> Bigint.t

(** Canonical denominator, always positive. *)
val den : t -> Bigint.t

(** [to_small t] is [Some (n, d)] when [t = n/d] lives in the native
    small representation (|n| < 2{^30}, 0 < d < 2{^30}, coprime), and
    [None] when the value has promoted to Bigint. The LP engine's
    native-int fast path uses it to read input coefficients without a
    Bigint round trip. *)
val to_small : t -> (int * int) option

(** {1 Queries} *)

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** @raise Division_by_zero when dividing by zero. *)
val div : t -> t -> t

(** Multiplicative inverse. @raise Division_by_zero on zero. *)
val inv : t -> t

(** {1 Rounding} *)

(** Greatest integer [<= t]. *)
val floor : t -> Bigint.t

(** Least integer [>= t]. *)
val ceil : t -> Bigint.t

(** Fractional part [t - floor t], in [0, 1). *)
val frac : t -> t

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
  (** [of_string s] parses ["n"], ["n/d"] or a decimal ["i.f"]
      literal. *)
  val of_string : string -> t

  (** ["n"] or ["n/d"], canonical. *)
  val to_string : t -> string

  val to_float : t -> float
end
