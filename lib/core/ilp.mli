(** The general case with shared task types (paper § V-C), solved
    exactly as a mixed-integer linear program.

    Variables: per-recipe throughputs [ρ_j ∈ ℕ] and machine counts
    [x_q ∈ ℕ]. Constraints: [Σ_j ρ_j >= ρ] and, per type,
    [x_q·r_q >= Σ_j n^j_q·ρ_j]. Objective: [min Σ_q x_q·c_q].

    The solver is the exact branch-and-bound of {!Milp.Solver} (our
    stand-in for the paper's Gurobi); [time_limit] reproduces the
    100-second cap of the paper's Figure 8 experiment. The model is
    the paper's as it stands: [J + Q] integer variables, [1 + Q] rows
    and no variable bound, all over the instance's ints, so the root
    relaxation's tableau has [1 + Q] rows, and a branch bound is an
    int column bound of the warm dual simplex, so a warm child keeps
    its parent's rows. Every cost is an int, so the search
    strengthens each LP bound to its ceiling, and it branches on the
    machine counts [x_q] first, most expensive type first, then on
    the splits [ρ_j]: the objective depends on the [x_q] alone.
    Incumbents, bounds and the cutoff are ints; a caller keeps every
    cost within the int range ({!Solver.run} refuses a target whose
    splits can cost past [max_int]).

    {b Primal heuristic.} Every node whose LP split is fractional and
    still beats the incumbent is rounded to an integer split: each
    [ρ_j] is floored, the missing units go to the recipes with the
    smallest marginal closed-form machine cost (ties to the largest
    fractional part), and machines are priced by the closed form, all
    in native ints; the point priced is the point offered. The rounded
    point becomes the incumbent when it is
    strictly cheaper (and within [?budget_cap]); this is the role
    Gurobi's primal heuristics play in the paper's runs. A solve that
    reaches its root therefore has an incumbent whenever the root's
    rounding fits the cap.

    {b Numerics.} Every LP relaxation runs through {!Lp.Simplex}:
    native-int pivots first, an exact {!Numeric.Rat} rerun of that one
    relaxation (or a cold solve of a warm child) on overflow. Both give
    bit-identical results; the [numeric.fast_solves] /
    [numeric.fallbacks] telemetry counters and the [lp.kernel] span
    attribute record which one answered. *)

type outcome = {
  allocation : Allocation.t option;  (** best integer solution found *)
  proved_optimal : bool;  (** [status = Optimal], kept for convenience *)
  status : Milp.Solver.status;
      (** the branch-and-bound verdict, distinguishing a limit hit
          with an incumbent ([Feasible]) from one without ([Unknown]) *)
  best_bound : int option;
      (** proven lower bound on the optimal cost (rounded up) *)
  nodes : int;  (** branch-and-bound nodes *)
  peak_retained_words : int;
      (** the branch and bound's peak words of retained warm-start
          tableaus (see {!Milp.Solver.outcome}) *)
  elapsed : float;  (** seconds *)
}

(** [model instance ~target] constructs the MILP (every variable is
    integral) — exposed for inspection, testing and benchmarking. The
    model has one [ρ] column per {e surviving}
    recipe of the dominance-pruned compiled instance (see {!Instance}):
    variables [0..J'-1] are the [ρ_j] in compact numbering and
    [J'..J'+Q-1] are the [x_q]. Dominated columns never price cheaper
    at equal throughput, so both the MILP optimum and its LP
    relaxation are unchanged. Its rows are the throughput row and one
    capacity row per type, and no variable has an upper bound. There
    is one model for both objectives: a monetary budget is a cutoff of
    {!optimize}, not a row.
    @raise Invalid_argument when [target < 0]. *)
val model : Instance.t -> target:int -> Lp.Model.t

(** [optimize instance ~target] solves the MILP.
    @param time_limit wall-clock seconds (default: unlimited)
    @param node_limit maximum branch-and-bound nodes (default:
      unlimited); unlike a time limit, a node limit keeps capped runs
      deterministic across machines
    @param budget_cap the money of a max-throughput probe, handed to
      the branch and bound as the cutoff [cap + 1]
      ({!Milp.Solver.solve}[ ?cutoff]; none at [cap = max_int], which
      cuts off nothing): the model, kernel and warm
      tableaus stay those of a min-cost solve, and [status =
      Infeasible] means "unreachable within [cap]".
    @raise Invalid_argument when [target < 0] or the cap is negative. *)
val optimize :
  ?time_limit:float ->
  ?node_limit:int ->
  ?budget_cap:int ->
  Instance.t ->
  target:int ->
  outcome
