(** Exact two-phase primal simplex.

    Solves a {!Model.t} exactly using the dense tableau method with
    Bland's anti-cycling rule, so termination is guaranteed and results
    carry no floating-point error. This is the relaxation engine under
    {!module:Milp.Solver}, standing in for the commercial LP solver
    (Gurobi) used in the paper.

    Complexity is exponential in the worst case but the models built by
    this project stay small (tens of rows/columns), where exact simplex
    is fast and — unlike floating-point codes — never returns a
    slightly-infeasible or slightly-suboptimal basis.

    {!solve} runs a fraction-free engine over native-int rows and, when
    a row outgrows the native range, reruns that one model on exact
    {!Numeric.Rat}. Both engines make the same pivot decisions (exact
    signs and exact ratio comparisons), so the result is bit-identical
    whichever engine answered. *)

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

(** Number of pivots performed by the last solve on this domain
    (statistics for benchmarking; not part of the solver contract). *)
val last_pivot_count : unit -> int

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
