(** Exact simplex: two-phase primal from scratch, dual from a parent's
    optimal tableau.

    Solves a {!Model.t} exactly using the dense tableau method with
    Bland's anti-cycling rule, so termination is guaranteed and results
    carry no floating-point error. This is the relaxation engine under
    {!module:Milp.Solver}, standing in for the commercial LP solver
    (Gurobi) used in the paper.

    Complexity is exponential in the worst case but the models built by
    this project stay small (tens of rows/columns), where exact simplex
    is fast and — unlike floating-point codes — never returns a
    slightly-infeasible or slightly-suboptimal basis. A cold tableau
    has one row per constraint plus one per model variable bound: the
    primal engines have no bounded variables, so a model bound costs a
    row like any constraint. [Rentcost.Ilp.model] sets none, and its
    root tableau has the paper's [1 + Q] rows.

    {!solve} runs a fraction-free engine over native-int rows and, when
    a row outgrows the native range, reruns that one model on exact
    {!Numeric.Rat}. Both engines make the same pivot decisions (exact
    signs and exact ratio comparisons), so the result is bit-identical
    whichever engine answered.

    {!reoptimize} is the branch-and-bound warm start: it takes the
    fraction-free engine's final tableau ({!snapshot}) and adds one
    variable bound. A branch bound is a bound on the variable's
    column, not a row: a child's tableau has exactly its parent's rows
    and columns. A bounded dual simplex under the dual Bland rule then
    restores optimality. The optimal objective is the one a cold
    {!solve} of the same LP returns; when the LP has several optimal
    vertices the point may be a different one of them. *)

(** An optimal point: [objective] includes any constant term of the
    model's objective; [values] has one entry per model variable. *)
type solution = { objective : Numeric.Rat.t; values : Numeric.Rat.t array }

type result =
  | Optimal of solution
  | Infeasible  (** no point satisfies the constraints *)
  | Unbounded  (** the objective can be improved without limit *)

(** [solve model] optimizes the model exactly. Never raises
    [Numeric.Kernel.Overflow]: a model that leaves the native range is
    solved again on {!Numeric.Rat}. Each call bumps exactly one of the
    [numeric.fast_solves] / [numeric.fallbacks] counters and records
    [lp.simplex] spans whose [lp.kernel] attribute is {!fast_kernel}
    or {!exact_kernel}. *)
val solve : Model.t -> result

(** The [lp.kernel] span attribute of the native-int engine (["ff64"])
    and of the exact engine (["rat"]). *)
val fast_kernel : string

val exact_kernel : string

(** {1 Warm start} *)

(** The fraction-free engine's optimal tableau as int rows, with its
    basis, integer cost vector and the branch bounds on its columns.
    {!reoptimize} never changes a snapshot unless it is called with
    [~own:true], so any number of non-owning calls may share one. *)
type snapshot

(** Which side of a variable a bound limits: [Upper] is [x ≤ b],
    [Lower] is [x ≥ b]. *)
type direction = Upper | Lower

(** [solve_with_snapshot model] is {!solve} plus, when the
    fraction-free engine answered [Optimal], its final tableau. Same
    counters and spans as {!solve}. *)
val solve_with_snapshot : Model.t -> result * snapshot option

(** [reoptimize s ~var ~dir ~bound] solves the LP of [s] with the
    extra bound [x_var ≤ bound] ([Upper]) or [x_var ≥ bound] ([Lower]),
    from [s]'s basis by bounded dual simplex. The bound tightens
    [var]'s column bounds (a looser one than the column's own changes
    nothing) and adds no row or column: the child's tableau has [s]'s
    shape. The snapshot is [Some] exactly when the result is
    [Optimal]; it is the child's final tableau itself, not a copy.
    Never [Unbounded]. On success bumps [numeric.fast_solves] and
    records an [lp.simplex] span with [lp.kernel] {!fast_kernel} and
    [lp.start] ["warm"].
    @param own [true] when the caller will never read [s] again (also
      not after an exception): the child then pivots in [s]'s own rows
      instead of a copy of them, and the result shares them. Default
      [false]: [s] is left as it was.
    @raise Numeric.Kernel.Overflow when the native range is exceeded
      (the bound's numerator or denominator included); no counter is
      bumped then, and the caller solves the child cold.
    @raise Invalid_argument when [var] is not a variable of the model. *)
val reoptimize :
  ?own:bool -> snapshot -> var:Model.var -> dir:direction ->
  bound:Numeric.Rat.t -> result * snapshot option

(** Heap words a retained snapshot holds, for memory budgets: its
    rows, basis and column bounds, block headers included. *)
val snapshot_words : snapshot -> int

(** The snapshot's int rows and basis, for tests that check
    {!snapshot_words} against the heap. Not to be mutated. *)
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
      even after gcd reduction, or an input coefficient cannot be
      integerized within it. *)
val solve_fast : Model.t -> result

(** The exact {!Numeric.Rat} engine alone. Never raises. *)
val solve_exact : Model.t -> result
