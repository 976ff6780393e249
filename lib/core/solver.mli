(** The unified front door to every solution method of the paper.

    The five engines — the § V-A unbounded-knapsack DP, the § V-B
    disjoint-types DP, the § V-C exact ILP, the § VI heuristics and
    the brute-force test oracle — historically had unrelated entry
    points, result records and budget knobs, so every driver
    reimplemented timing, fallback and plumbing. {!run} is the single
    engine-agnostic call: pick an engine (or let [Auto] route
    on problem structure), cap the solve with a {!Budget.t}, and get
    back one {!outcome} carrying a uniform {!status}, the best
    allocation found, and per-solve {!telemetry}.

    Budget semantics: a solve never raises or returns empty-handed
    because a budget expired. Exact engines return their best
    incumbent under [Budget_exhausted]; if the ILP runs out before
    finding any integer point, the solver degrades to the best
    heuristic incumbent reachable within whatever budget remains
    (at worst the H1 closed form, which always completes). The two
    DPs and the exhaustive oracle are not interruptible and ignore
    budgets — they either finish or should not have been chosen.

    Telemetry is measured as deltas of the calling domain's
    {!Telemetry.Effort} tally around the solve, so nested measurement
    stays correct and solves running on other domains never leak into
    it.

    Every solve runs over a compiled {!Instance.t}: callers compile
    once with {!Instance.compile} (under a {!Scenario.t} for a price
    book or the max-throughput objective) and reuse the instance
    across repeated solves of the same problem (sweeps, benchmarks,
    the service's registry). *)

(** Which engine to run. [Auto] routes on the structure flags
    precomputed at instance compile time: black-box instances
    ({!Instance.is_blackbox}) to the § V-A knapsack DP, disjoint-types
    instances ({!Instance.is_disjoint}) to the § V-B DP, and general
    shared-types instances to the § V-C ILP (seeded by rounding its
    nodes' LP splits, see {!Ilp}).
    The flags describe the dominance-pruned recipe set, so a problem
    whose structure violations all come from dominated recipes still
    routes to the cheaper engine — soundly, since pruning preserves
    the optimal cost. *)
type spec =
  | Exact_ilp  (** § V-C branch and bound over exact LP relaxations *)
  | Dp_blackbox  (** § V-A pseudo-polynomial knapsack DP *)
  | Dp_disjoint  (** § V-B per-recipe split DP *)
  | Exhaustive  (** brute-force split enumeration (test oracle) *)
  | Heuristic of Heuristics.name  (** one of the § VI heuristics *)
  | Auto  (** structure-directed routing, see above *)

val spec_to_string : spec -> string

(** Every spelling of a spec, lower case: the [spec_to_string] forms
    plus ["dp"] for [Dp_disjoint]. The CLI's [-a] reads this table. *)
val specs : (string * spec) list

(** [spec_of_string s] looks [s] up in {!specs}, ignoring case. *)
val spec_of_string : string -> spec option

(** Uniform verdict across engines. *)
type status =
  | Optimal  (** allocation proven cost-minimal *)
  | Feasible
      (** valid allocation without an optimality proof (heuristic
          engines that ran to completion) *)
  | Budget_exhausted
      (** the {!Budget.t} expired; the allocation is the best
          incumbent found before it did *)
  | Infeasible  (** no allocation meets the target (never for [target >= 0]) *)

val status_to_string : status -> string

(** Per-solve effort accounting, measured for exactly this solve. *)
type telemetry = {
  engine : spec;
      (** the engine that actually ran — the [Auto] routing decision;
          never [Auto] itself *)
  wall_time : float;  (** seconds, fallback stages included *)
  evaluations : int;  (** cost-oracle evaluations (heuristic effort) *)
  pivots : int;  (** exact simplex pivots, both engines *)
  nodes : int;  (** branch-and-bound nodes *)
  pruned_recipes : int;
      (** recipes removed by dominance preprocessing at instance
          compile time (see {!Instance.compile}) *)
  warm_started : bool;
      (** a caller-supplied [?warm_start] passed validation and a
          heuristic that reads it ran with it: H2, H31, H32 or
          H32Jump, as the engine or as the ILP's budget fallback
          (always [false] without one, for H0, H1, the exact engines
          that run to the end, and under [Max_throughput]) *)
}

type outcome = {
  status : status;
  allocation : Allocation.t option;
      (** [None] only when [status = Infeasible] *)
  throughput : int;
      (** total throughput [Σ_j ρ_j] of the allocation — the objective
          value of a max-throughput solve, and at least the target of
          a min-cost one ([0] without an allocation) *)
  telemetry : telemetry;
  convergence : Telemetry.Progress.event list;
      (** the convergence timeline collected while the engines ran —
          incumbent improvements and (for the MILP) dual-bound
          advances, in emission order; empty when telemetry is
          disabled. See {!Telemetry.Progress}. The collector is
          domain-local, so a solve on a daemon worker domain reports
          its own events only. *)
}

(** [auto_of_instance instance] is the [Auto] routing decision for an
    already-compiled instance (no work beyond reading two flags). *)
val auto_of_instance : Instance.t -> spec

(** [run instance ~objective] solves one scenario — the single entry
    point for every engine and both objectives. The instance must have
    been compiled for [objective]'s kind, and carries any price book
    from its own compile.

    Under {!Objective.Min_cost} this is the historical solve: the
    selected engine (or the [Auto] routing) minimizes rental cost at
    the target.

    Under {!Objective.Max_throughput} the solver binary-searches the
    largest throughput [t] whose min-cost fits the monetary budget,
    bracketed above by the fluid relaxation
    ({!Instance.fluid_upper_target}). Each probe is a min-cost solve
    at [t] on the selected engine, with the money as its cap. The ILP
    solves the same model as under [Min_cost] and prunes by the money
    as a cutoff (see {!Ilp.optimize}[ ?budget_cap]), so its Infeasible
    verdicts {e prove} unreachability and the search result is exact —
    [status = Optimal]. Heuristic probes can only prove reachability,
    so their result is a lower bound on the optimal throughput and the
    status is [Feasible]. A probe cut short by the {!Budget.t} yields
    [Budget_exhausted]; the allocation is still the best feasible one
    found (at worst the zero allocation, which every monetary budget
    affords). Like a min-cost solve, an ILP probe that runs out before
    any integer point takes the heuristic fallback, and its point
    answers "reachable" when it fits the money.

    @param budget caps the {e computation} (wall clock / nodes /
      evals; default {!Budget.unlimited}) — not to be confused with
      the monetary budget inside [Max_throughput]; see the budget
      semantics above.
    @param rng drives the stochastic heuristics; omitted, a fixed-seed
      PRNG keeps runs deterministic. Exact engines ignore it.
    @param params heuristic tuning (default
      {!Heuristics.default_params}); exact engines ignore it.
    @param warm_start a known allocation (a cached solution, the
      previous billing period's fleet) used as a start point of the
      search heuristics (H2, H31, H32, H32Jump), which start from
      whichever of the seed and the H1 split prices cheaper. A cheaper
      start usually ends cheaper, but it is a different walk, so a
      seeded answer can also end dearer. The seed is
      feasibility-checked against the instance and {e silently
      dropped} when unusable (wrong shape, misses the target, or
      routes throughput through a dominance-pruned recipe); when it
      passes, surplus throughput beyond the target is shed from the
      most expensive recipes first. The exact engines do not read it:
      the ILP finds its own incumbents by rounding its nodes, and the
      DPs and the exhaustive oracle enumerate. Only the ILP's
      heuristic fallback, when a budget stops it before any integer
      point, starts from it. Under [Max_throughput] it is dropped.
      {!telemetry}[.warm_started] records whether a heuristic ran with
      it.
    Every engine prices in native ints. A min-cost target past
    {!Instance.max_target}, where a split can cost past [max_int], is
    refused before any engine runs. A max-throughput bracket past it is
    searched by the ILP alone, which prunes every bound past [max_int]
    and takes no heuristic fallback at a probe past it.

    @raise Invalid_argument when the instance's objective kind
      mismatches, a min-cost target is negative or past
      {!Instance.max_target} (the message names the target), a
      max-throughput budget affords a throughput past [max_int] or, on
      an engine other than the ILP, a bracket past
      {!Instance.max_target} (either message names the budget; see
      {!Instance.fluid_upper_target}), or a DP engine is forced (not
      via [Auto]) on a problem whose structure it does not support. *)
val run :
  ?budget:Budget.t ->
  ?rng:Numeric.Prng.t ->
  ?params:Heuristics.params ->
  ?warm_start:Allocation.t ->
  ?spec:spec ->
  Instance.t ->
  objective:Objective.t ->
  outcome
