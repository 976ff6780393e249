(** Linear-program model builder.

    A model owns a growing set of non-negative decision variables, a
    list of [≥]/[≤] rows with non-negative right-hand sides and one
    objective to minimize, all over native-int data: the paper's § V-C
    model is a pure integer program over integer data. It is the common
    input format of the exact simplex ({!module:Simplex}) and of the
    branch-and-bound integer solver ({!module:Milp.Solver}).

    Every variable satisfies [x >= 0] and has no other bound of its
    own: a bound is a row like any other constraint. The branch and
    bound keeps its branch bounds on the simplex's columns instead
    ({!Simplex.reoptimize}). *)

type t

type var = int

type cmp = Le | Ge

(** A row [Σ c·x cmp rhs], its [(var, c)] terms in the order given. *)
type constr = { terms : (var * int) list; cmp : cmp; rhs : int }

(** [create ()] is an empty model (zero objective). *)
val create : unit -> t

(** [copy t] is a deep-enough copy: adding variables or constraints to
    the copy never affects the original. {!Simplex} adds a cold
    child's path bounds as rows to a copy. *)
val copy : t -> t

(** [add_var t] introduces a fresh variable [x >= 0]. *)
val add_var : t -> var

(** [num_vars t] is the number of variables added so far. *)
val num_vars : t -> int

(** [add_constraint t terms cmp rhs] adds the row [Σ c·x cmp rhs].
    @raise Invalid_argument when a variable is unknown or repeats, a
      coefficient is zero, or [rhs < 0]. *)
val add_constraint : t -> (var * int) list -> cmp -> int -> unit

(** [set_objective t terms] installs the objective [min Σ c·x].
    @raise Invalid_argument when a variable is unknown or repeats, or
      a coefficient is zero. *)
val set_objective : t -> (var * int) list -> unit

val objective : t -> (var * int) list

(** Constraints in insertion order. *)
val constraints : t -> constr list

(** [check_feasible t values] tests every constraint and the
    non-negativity of each variable at the integer point [values]
    (the branch and bound checks a rounded point with it).
    @raise Invalid_argument when a row's value leaves the int range. *)
val check_feasible : t -> int array -> bool

(** [objective_value t values] is the objective at the integer point
    [values].
    @raise Invalid_argument when a variable is past the point or the
      value leaves the int range. *)
val objective_value : t -> int array -> int
