(** Elastic provisioning over a demand trace.

    The paper optimizes one fixed target; clouds re-run that
    optimization as demand moves. This module plans a fleet per billing
    period (the paper's costs are hourly rates), compares elastic and
    static-peak policies, and quantifies the re-provisioning churn an
    autoscaler would impose.

    Planning goes through the unified {!Solver} over one compiled
    {!Instance.t}: the caller compiles the problem once for the whole
    trace, and each period's solve is handed the previous period's
    fleet as a {!Solver.run} warm start. Consecutive demands are
    close, so the search heuristics start from a near-optimal split;
    the exact engines do not read it.

    This module bills every period in full and re-solves every period —
    a clairvoyant per-period planner. The online counterpart lives in
    the [Rentcost_autoscale] library: its controller watches demand
    drift with a deadband, re-solves only when the drift warrants it,
    and charges rentals at hour granularity (a machine rented mid-hour
    is paid through its hour boundary), reusing {!provision_on} for its
    clairvoyant oracle baseline. *)

(** One allocation per billing period. *)
type plan = Allocation.t array

(** [provision_on instance ~demand] solves each period's target
    through {!Solver.run} on one compiled instance (compiled under the
    default min-cost scenario), so callers planning many traces — or
    mixing per-period planning with other solves, as the autoscale
    layer's clairvoyant oracle does — amortize one compile. Each
    period after the first hands the previous period's allocation to
    the solver as a warm start, which seeds the search heuristics
    only; exact engines return the same optima without it.

    @param spec engine selection (default [Solver.Auto]).
    @param budget per-period solve budget (default unlimited).
    @param rng / [params] forwarded to the solver (stochastic
      heuristics only).
    @raise Invalid_argument on a negative demand entry. *)
val provision_on :
  ?budget:Budget.t ->
  ?rng:Numeric.Prng.t ->
  ?params:Heuristics.params ->
  ?spec:Solver.spec ->
  Instance.t ->
  demand:int array ->
  plan

(** [static_peak instance ~demand] rents once for the peak demand and
    keeps that fleet every period (one solve total). *)
val static_peak :
  ?budget:Budget.t ->
  ?rng:Numeric.Prng.t ->
  ?params:Heuristics.params ->
  ?spec:Solver.spec ->
  Instance.t ->
  demand:int array ->
  plan

(** [total_cost plan] is the bill over the whole trace
    ([Σ_t cost_t], each period billed fully). *)
val total_cost : plan -> int

(** [peak_cost plan] is the most expensive period. *)
val peak_cost : plan -> int

(** [machine_hours plan] is, per machine type, the total number of
    machine-periods rented. *)
val machine_hours : plan -> int array

(** [churn plan] counts machine starts and stops between consecutive
    periods ([Σ_t Σ_q |x_{t,q} − x_{t−1,q}|], from an empty initial
    fleet). High churn means an autoscaler would thrash. *)
val churn : plan -> int

(** [savings ~elastic ~static] is the relative saving of the elastic
    bill over the static one, in [0, 1]; zero when the static bill is
    zero. *)
val savings : elastic:plan -> static:plan -> float
