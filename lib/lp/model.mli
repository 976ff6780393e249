(** Linear-program model builder.

    A model owns a growing set of non-negative decision variables, a
    list of linear constraints and one objective. It is the common
    input format of the exact simplex ({!module:Simplex}) and of the
    branch-and-bound MILP solver ({!module:Milp.Solver}).

    All variables implicitly satisfy [x >= 0]; other bounds are added
    as ordinary rows with {!add_upper_bound}. *)

type t

type var = int

type sense = Minimize | Maximize

type cmp = Le | Ge | Eq

type constr = { expr : Linexpr.t; cmp : cmp; rhs : Numeric.Rat.t; cname : string }

(** [create ()] is an empty model (zero objective, [Minimize]). *)
val create : unit -> t

(** [copy t] is a deep-enough copy: adding variables or constraints to
    the copy never affects the original. Branch-and-bound relies on
    this to derive child nodes. *)
val copy : t -> t

(** [add_var t ~name] introduces a fresh variable [x >= 0]. *)
val add_var : t -> name:string -> var

(** [num_vars t] is the number of variables added so far. *)
val num_vars : t -> int

(** [var_name t v] is the name given at creation.
    @raise Invalid_argument on an unknown index. *)
val var_name : t -> var -> string

(** [add_constraint t ?name expr cmp rhs] adds the row
    [expr cmp rhs]. Any constant inside [expr] is folded into [rhs]. *)
val add_constraint : t -> ?name:string -> Linexpr.t -> cmp -> Numeric.Rat.t -> unit

(** [add_upper_bound t v ub] adds the row [x_v <= ub]. *)
val add_upper_bound : t -> var -> Numeric.Rat.t -> unit

(** {1 Variable bounds}

    Unlike {!add_upper_bound}, these do not create rows in the model:
    they tighten the variable's own domain, which is how branch and
    bound branches. {!Simplex} materializes them as rows internally. Bounds only ever tighten; the implicit domain is
    [\[0, ∞)]. *)

(** [tighten_lower t v lb] raises the lower bound to
    [max (current, lb)]. *)
val tighten_lower : t -> var -> Numeric.Rat.t -> unit

(** [tighten_upper t v ub] lowers the upper bound to
    [min (current, ub)]. *)
val tighten_upper : t -> var -> Numeric.Rat.t -> unit

(** [bounds t v] is the current [(lower, upper)]; [upper = None] means
    unbounded above. The lower bound is at least zero. *)
val bounds : t -> var -> Numeric.Rat.t * Numeric.Rat.t option

(** [has_var_bounds t] is true when any variable has a tightened
    domain. *)
val has_var_bounds : t -> bool

(** [set_objective t sense expr] installs the objective. The constant
    part of [expr] is reported back in solution objective values. *)
val set_objective : t -> sense -> Linexpr.t -> unit

val objective : t -> sense * Linexpr.t

(** Constraints in insertion order. *)
val constraints : t -> constr list

val num_constraints : t -> int

(** [check_feasible t values] tests every constraint and the
    non-negativity of each variable at the given point. *)
val check_feasible : t -> Numeric.Rat.t array -> bool

val pp : Format.formatter -> t -> unit
