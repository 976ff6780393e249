(** Racing the paper's § VI heuristics (and optionally a budgeted
    MILP) across domains, with a deterministic reduction.

    The heuristics are independent randomized searches over the same
    instance — a textbook algorithm portfolio. Each strategy runs as
    one {!Rentcost.Solver.run} call on its own domain, with its
    own {!Rentcost.Instance.Oracle} (created inside the heuristic run)
    and an independently split PRNG, so strategies never share mutable
    state. The incumbents are then merged by {!reduce}: best cost
    wins, ties broken by strategy {e rank} (position in the strategy
    list). Because every strategy's trajectory is a pure function of
    its split seed, and the reduction is a total order independent of
    completion order, a fixed seed yields a {b bit-identical
    allocation regardless of domain count or finish order}.

    Seed discipline: the caller's [?rng] is never advanced. Rank 0
    runs on a copy of it — so the portfolio's incumbent is always at
    least as good as the sequential
    [Solver.run ~rng ~spec:(strategy 0)] call on the same seed —
    and ranks 1.. run on successive {!Numeric.Prng.split}s of another
    copy, derived in rank order.

    Determinism caveat: a wall-clock [deadline] in [?budget] makes
    individual heuristic runs machine- and load-dependent; use
    [eval_cap] budgets where reproducibility matters.

    Instruments: the race runs under a [parallel.portfolio] span (one
    [parallel.task] span per strategy), observes
    [parallel.portfolio_seconds] and bumps [parallel.win.<strategy>]
    for the winner. *)

type strategy =
  | Heuristic of Rentcost.Heuristics.name
  | Milp
      (** a full § V-C branch-and-bound attempt; include it only with
          a [?budget], or the race blocks on proving optimality *)

(** CLI/telemetry spelling: ["h32jump"], ["milp"], … *)
val strategy_to_string : strategy -> string

val strategy_of_string : string -> strategy option

(** The {!Rentcost.Solver.spec} a strategy dispatches to. *)
val strategy_spec : strategy -> Rentcost.Solver.spec

(** All five non-trivial § VI heuristics, strongest first:
    H32Jump, H32, H31, H2, H1. Rank 0 = H32Jump means the portfolio
    dominates the solver's default heuristic incumbent by
    construction. [Milp] is not included (see {!type-strategy}). *)
val default_strategies : strategy list

(** [reduce outcomes] picks the winner from [(rank, outcome)] pairs:
    lowest allocation cost, ties broken by lowest rank. Outcomes
    without an allocation are skipped; [None] when nothing remains.
    Exposed so tests can check permutation-invariance directly. *)
val reduce :
  (int * Rentcost.Solver.outcome) list -> (int * Rentcost.Solver.outcome) option

(** [run instance ~target] races the strategies on the min-cost
    objective and returns the merged outcome. The merged [status] is
    [Optimal] when some strategy proved the winning cost optimal,
    [Budget_exhausted] when every strategy ran out of budget, and
    [Feasible] otherwise; the [telemetry] is portfolio-level — wall
    time of the whole race and the sum of the strategies' own effort
    counts, with [engine] reporting the winning strategy's spec.

    The racer is min-cost only: a max-throughput scenario is a binary
    search {e over} min-cost solves, which belongs to
    {!Rentcost.Solver.run} (each of whose probes could in principle
    race a portfolio — not provided here).

    @param domains size of the pool the race runs on (default 1 =
      sequential on the caller); ignored when [?pool] is given.
    @param pool run on an existing (shared) {!Pool.t} instead of
      creating a one-shot pool.
    @param strategies defaults to {!default_strategies}; must be
      non-empty. Ranks are list positions.
    @param budget, rng, params, warm_start as in
      {!Rentcost.Solver.run}, applied to {e each} strategy ([rng] per
      the seed discipline above; it is not advanced). *)
val run :
  ?budget:Rentcost.Budget.t ->
  ?rng:Numeric.Prng.t ->
  ?params:Rentcost.Heuristics.params ->
  ?warm_start:Rentcost.Allocation.t ->
  ?strategies:strategy list ->
  ?pool:Pool.t ->
  ?domains:int ->
  Rentcost.Instance.t ->
  target:int ->
  Rentcost.Solver.outcome
