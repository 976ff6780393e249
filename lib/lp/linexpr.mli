(** Linear expressions over integer-indexed variables with native-int
    coefficients.

    An expression is [Σ cᵢ·xᵢ + k]. Terms are kept sorted by variable
    index with no zero coefficients. Every coefficient and constant is
    an int, as in the paper's § V-C model ([c_q], [r_q], [n^j_q] and
    [ρ] are ints): a sum or negation that would leave the int range
    raises [Invalid_argument] rather than wrap. *)

type t

(** The zero expression. *)
val zero : t

(** [constant k] is the expression [k]. *)
val constant : int -> t

(** [var ?coeff v] is [coeff·x_v] (default coefficient 1). *)
val var : ?coeff:int -> int -> t

(** [of_terms ?const terms] builds an expression from unsorted,
    possibly-duplicated [(var, coeff)] pairs; duplicates are summed. *)
val of_terms : ?const:int -> (int * int) list -> t

(** Sorted [(var, coeff)] pairs with non-zero coefficients. *)
val terms : t -> (int * int) list

(** The constant part. *)
val const : t -> int

val sub : t -> t -> t
val neg : t -> t

(** [eval e values] substitutes [values.(v)] for [x_v].
    @raise Invalid_argument when a variable index is out of bounds or
      the value leaves the int range. *)
val eval : t -> int array -> int

(** Highest variable index mentioned, or [-1] for constant expressions. *)
val max_var : t -> int

val pp : Format.formatter -> t -> unit
