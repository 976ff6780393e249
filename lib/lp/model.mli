(** Linear-program model builder.

    A model owns a growing set of non-negative decision variables, a
    list of linear constraints and one objective, all over native-int
    data ({!Linexpr}): the paper's § V-C model is a pure integer
    program over integer data. It is the common input format of the
    exact simplex ({!module:Simplex}) and of the branch-and-bound
    integer solver ({!module:Milp.Solver}).

    Every variable satisfies [x >= 0] and has no other bound of its
    own: a bound is a row like any other constraint. The branch and
    bound keeps its branch bounds on the simplex's columns instead
    ({!Simplex.reoptimize}). *)

type t

type var = int

type sense = Minimize | Maximize

type cmp = Le | Ge | Eq

type constr = { expr : Linexpr.t; cmp : cmp; rhs : int; cname : string }

(** [create ()] is an empty model (zero objective, [Minimize]). *)
val create : unit -> t

(** [copy t] is a deep-enough copy: adding variables or constraints to
    the copy never affects the original. The branch and bound adds a
    cold node's path bounds as rows to a copy. *)
val copy : t -> t

(** [add_var t ~name] introduces a fresh variable [x >= 0]. *)
val add_var : t -> name:string -> var

(** [num_vars t] is the number of variables added so far. *)
val num_vars : t -> int

(** [var_name t v] is the name given at creation.
    @raise Invalid_argument on an unknown index. *)
val var_name : t -> var -> string

(** [add_constraint t ?name expr cmp rhs] adds the row
    [expr cmp rhs]. Any constant inside [expr] is folded into [rhs].
    @raise Invalid_argument when folding it leaves the int range. *)
val add_constraint : t -> ?name:string -> Linexpr.t -> cmp -> int -> unit

(** [set_objective t sense expr] installs the objective. The constant
    part of [expr] is reported back in solution objective values. *)
val set_objective : t -> sense -> Linexpr.t -> unit

val objective : t -> sense * Linexpr.t

(** Constraints in insertion order. *)
val constraints : t -> constr list

val num_constraints : t -> int

(** [check_feasible t values] tests every constraint and the
    non-negativity of each variable at the integer point [values]
    (the branch and bound checks a rounded point with it).
    @raise Invalid_argument when a row's value leaves the int range. *)
val check_feasible : t -> int array -> bool

val pp : Format.formatter -> t -> unit
