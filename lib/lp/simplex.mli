(** Exact simplex: two-phase primal from scratch, dual from a parent's
    optimal tableau.

    Minimizes a {!Model.t} exactly using the dense tableau method with
    Bland's anti-cycling rule, so termination is guaranteed and results
    carry no floating-point error. This is the relaxation engine under
    {!module:Milp.Solver}, standing in for the commercial LP solver
    (Gurobi) used in the paper.

    Complexity is exponential in the worst case but the models built by
    this project stay small (tens of rows/columns), where exact simplex
    is fast and — unlike floating-point codes — never returns a
    slightly-infeasible or slightly-suboptimal basis. A cold tableau
    has one row per constraint: a model has no variable bounds besides
    [x >= 0], so a caller that needs one adds it as a row. A [Le] row
    starts basic in its slack, and a [Ge] row in an artificial column
    that phase 1 drives out; every right-hand side is non-negative, so
    the starting basis is feasible as it stands.
    [Rentcost.Ilp.model]'s root tableau has the paper's [1 + Q] rows.

    A model's data are native ints ({!Model}). {!solve} runs a
    fraction-free engine whose rows are the model's own rows, and when
    a row outgrows the native range (or a coefficient starts out
    past it) reruns that one model on exact {!Numeric.Rat}. Both
    engines run one two-phase driver and make the same pivot decisions
    (exact signs and exact ratio comparisons), so the result is
    bit-identical whichever engine answered. An LP optimum is
    rational, so a {!solution} is {!Numeric.Rat}; the branch and bound
    reads a {!relaxation} instead, whose objective is made exact only
    on demand.

    {!reoptimize} is the branch-and-bound warm start: it takes the
    fraction-free engine's final tableau ({!snapshot}) and adds one
    variable bound; {!replay} adds a whole list of them at once. A
    branch bound is an int bound on the variable's column, not a row: a
    child's tableau has exactly its parent's rows and columns. A
    bounded dual simplex under the dual Bland rule then restores
    optimality. The optimal objective is the one a cold {!solve} of
    the same LP, with each bound as a row, returns; when the LP has
    several optimal vertices the point may be a different one of
    them. A snapshot remembers the model it came from and the bounds
    folded into it, so a child that leaves the native range is solved
    cold instead: no function here but {!solve_fast} raises
    [Numeric.Kernel.Overflow]. *)

(** {1 Relaxations}

    What {!solve_with_snapshot} and {!reoptimize} return for the branch
    and bound: the fraction-free engine's answer read without a gcd or
    a {!Numeric.Rat}, which are built only when someone asks. *)

(** A relaxation's optimal objective. A native-int answer reports it
    as the sum of at most [rows + variables + 1] native fractions (each
    row's [cb·rhs / scale] and each nonbasic variable's cost at its
    bound) together with a float interval that
    provably holds that sum; the exact value is summed only on demand
    and then kept. An answer of the exact engine carries its exact
    value and the interval [(-∞, ∞)]. *)
type objective

(** [objective_interval o] is [(lo, hi)] with [lo ≤ o ≤ hi]. Its width
    is a few units in the last place of the terms' magnitudes. *)
val objective_interval : objective -> float * float

(** [exact_objective o] is [o] exactly. The first call on a native-int
    objective sums its terms (a Bigint sum when they leave the small
    range) and bumps [lp.exact_objectives]; later calls return the
    kept value. *)
val exact_objective : objective -> Numeric.Rat.t

(** [compare_objectives a b] is [Numeric.Rat.compare] of their exact
    values. Disjoint intervals decide without them, and an objective
    is equal to itself; only overlapping intervals of two objectives
    make both exact. *)
val compare_objectives : objective -> objective -> int

(** [ceil_objective o] is [Some ⌈o⌉] exactly, or [None] when [⌈o⌉]
    passes [max_int]: no int is at least [o]. When both ends of the
    interval have the same ceiling that is the answer, and [o] is not
    made exact.
    @raise Invalid_argument when [⌈o⌉] is below [min_int]. *)
val ceil_objective : objective -> int option

(** [int_objective o] is {!exact_objective}[ o], which bumps
    [lp.exact_objectives] as it does, as an int: the objective of an
    integral point of an integer model.
    @raise Invalid_argument when [o] is not an integer or not an
      int. *)
val int_objective : objective -> int

(** [objective_of_terms [(a1, b1); …]] is the objective [Σ ai / bi],
    with its interval, as the engine builds it; for tests and for a
    placeholder key.
    @raise Invalid_argument when some [bi ≤ 0]. *)
val objective_of_terms : (int * int) list -> objective

(** A relaxation's optimal point, one value per model variable. A
    native-int answer holds variable [v] as its row's own right-hand
    side and scale (or a nonbasic variable's bound over 1), unreduced,
    both under [2^30] in magnitude; the exact engine's holds canonical
    values. Every read below answers the same for either. *)
type point

(** [values point] is every variable's value as a canonical rational,
    in a fresh array. *)
val values : point -> Numeric.Rat.t array

(** [most_fractional point groups] is, within the earliest group with
    a fractional value, the variable whose value is closest to an
    integer plus one half, the first such on ties; [None] when all
    are integral. *)
val most_fractional : point -> Model.var list list -> Model.var option

(** [floor point v] is [⌊x_v⌋], and [int_values point] an integral
    point as ints.
    @raise Invalid_argument when a value is not an int. *)
val floor : point -> Model.var -> int

val int_values : point -> int array

(** [fractions point n f] calls [f v num den], [x_v = num / den] with
    [den > 0] and both under [2^30] in magnitude, for [v = 0 .. n-1],
    and is [true]; it stops, [false], at the first [x_v] with no such
    pair. *)
val fractions : point -> int -> (Model.var -> int -> int -> unit) -> bool

(** A native-int point, [x_v = p.(2v) / p.(2v+1)], and an exact one,
    for tests. *)
val point_of_pairs : int array -> point

val point_of_values : Numeric.Rat.t array -> point

type relaxation = { objective : objective; point : point }

(** An optimal point: [objective] is the minimum; [values] has one
    entry per model variable. *)
type solution = { objective : Numeric.Rat.t; values : Numeric.Rat.t array }

type 'a outcome =
  | Optimal of 'a
  | Infeasible  (** no point satisfies the constraints *)
  | Unbounded  (** the objective can be improved without limit *)

type result = solution outcome

(** [solution_of r] is [r] with its objective made exact and its values
    canonical: what {!solve} returns for the same model. *)
val solution_of : relaxation -> solution

(** [solve model] minimizes the model exactly. Never raises
    [Numeric.Kernel.Overflow]: a model that leaves the native range is
    solved again on {!Numeric.Rat}. Each call bumps exactly one of the
    [numeric.fast_solves] / [numeric.fallbacks] counters and records
    [lp.simplex] spans whose [lp.kernel] attribute is {!fast_kernel}
    or {!exact_kernel}; a native-int answer's objective is made exact
    ({!solution_of}), which bumps [lp.exact_objectives]. *)
val solve : Model.t -> result

(** The [lp.kernel] span attribute of the native-int engine (["ff64"])
    and of the exact engine (["rat"]). *)
val fast_kernel : string

val exact_kernel : string

(** {1 Warm start} *)

(** The fraction-free engine's optimal tableau as int rows, with its
    basis, cost vector and the int branch bounds on its columns.
    {!reoptimize} never changes a snapshot unless it is called with
    [~own:true], so any number of non-owning calls may share one. *)
type snapshot

(** Which side of a variable a bound limits: [Upper] is [x ≤ b],
    [Lower] is [x ≥ b]. *)
type direction = Upper | Lower

(** [solve_with_snapshot model] is {!solve} as a {!relaxation} plus,
    when [Optimal], a snapshot: the fraction-free engine's final
    tableau, or none when the exact engine answered, whose children
    are then all solved cold. Same counters and spans as {!solve}. *)
val solve_with_snapshot : Model.t -> relaxation outcome * snapshot option

(** [reoptimize s ~var ~dir ~bound] solves the LP of [s] with the
    extra bound [x_var ≤ bound] ([Upper]) or [x_var ≥ bound] ([Lower]),
    from [s]'s basis by bounded dual simplex. The bound tightens
    [var]'s column bounds (a looser one than the column's own changes
    nothing) and adds no row or column: the child's tableau has [s]'s
    shape. A warm answer is never [Unbounded]; it bumps
    [numeric.fast_solves] and [milp.warm_nodes] and records an
    [lp.simplex] span with [lp.kernel] {!fast_kernel} and [lp.start]
    ["warm"], and its snapshot is the child's final tableau itself.

    When [s] has no tableau or the warm solve leaves the native range
    (a bound of [2^30] or more in magnitude included), the child is
    solved cold, as {!solve_with_snapshot} solves the root's model with
    the tightest of the child's path bounds as rows: for each variable
    in ascending order its lower bound (none at 0) and then its upper
    bound. Either way exactly one of [numeric.fast_solves] /
    [numeric.fallbacks] moves. The snapshot is [Some] exactly when the
    result is [Optimal] and the fraction-free engine answered.
    @param own [true] when the caller will never read [s] again (also
      not after an exception): the child then pivots in [s]'s own rows
      instead of a copy of them, and the result shares them. Default
      [false]: [s] is left as it was.
    @raise Invalid_argument when [var] is not a variable of the model. *)
val reoptimize :
  ?own:bool -> snapshot -> var:Model.var -> dir:direction ->
  bound:int -> relaxation outcome * snapshot option

(** [replay s bounds] is {!reoptimize} with every bound of [bounds]
    (in any order; several may name one variable) folded into a copy of
    [s] before one bounded dual simplex runs. [s] is never changed. The
    branch and bound replays a node's whole path on the root's tableau
    when no parent tableau was kept for it. Same counters, results,
    cold solves and exceptions as {!reoptimize}; its warm [lp.simplex]
    span has [lp.start] ["replay"]. *)
val replay :
  snapshot -> (Model.var * direction * int) list ->
  relaxation outcome * snapshot option

(** Heap words a retained snapshot holds, for memory budgets: its
    rows, basis and column bounds, block headers included; 0 without
    a tableau. *)
val snapshot_words : snapshot -> int

(** The snapshot's int rows and basis (none without a tableau), for
    tests that check {!snapshot_words} against the heap. Not to be
    mutated. *)
val snapshot_rows : snapshot -> int array array * int array

(** {1 The two engines}

    Exposed for differential tests and the numeric bench; production
    code calls {!solve}. *)

(** The fraction-free engine alone. Each tableau row is a native-int
    vector carrying an implicit positive scale (its entry under its own
    basic column), so a pivot is two integer multiplies and a subtract
    per entry — no division, no gcd. Reduced-cost signs are confirmed in
    exact {!Numeric.Rat} arithmetic.
    @raise Numeric.Kernel.Overflow when a row outgrows the native range
      even after gcd reduction, or an input coefficient is [2^30] or
      more in magnitude. *)
val solve_fast : Model.t -> result

(** The exact {!Numeric.Rat} engine alone. Never raises
    [Numeric.Kernel.Overflow]. *)
val solve_exact : Model.t -> result
