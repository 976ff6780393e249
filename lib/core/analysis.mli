(** Post-optimization analyses built on the core solvers.

    These are reusable versions of the studies the paper walks through
    informally: the shape of the optimal cost curve over throughput
    targets, the "bucket" behaviour of the best-single-recipe
    heuristic (§ VII: "the same solution may be chosen for one or more
    consecutive throughputs until no more idle capacity is
    available"), and how the optimum reacts to machine price changes. *)

(** A solving policy: maps an instance and target to an allocation. *)
type solver = Problem.t -> target:int -> Allocation.t

(** The exact MILP solver, run to its proof (see {!Ilp.optimize}). *)
val ilp_solver : solver

(** The H1 best-single-recipe heuristic as a policy. *)
val h1_solver : solver

(** [cost_curve solver problem ~targets] evaluates the policy over a
    target sweep. The returned costs are non-decreasing in the target
    for any sensible policy (asserted for the provided solvers in the
    test suite). *)
val cost_curve : solver -> Problem.t -> targets:int list -> (int * Allocation.t) list

(** [h1_buckets problem ~max_target] segments [0..max_target] into
    maximal ranges over which the H1 cost is constant — the paper's
    buckets. Returns [(lo, hi, cost)] triples covering the range. *)
val h1_buckets : Problem.t -> max_target:int -> (int * int * int) list

(** [price_sensitivity ?solver problem ~target ~percent] re-optimizes
    with each machine type's price increased by [percent] (one type at
    a time) and reports, per type, the new optimal cost. The baseline
    optimum is returned alongside. Types whose price increase leaves
    the cost unchanged are not on any cheapest provisioning path.
    @raise Invalid_argument when [percent <= -100]. *)
val price_sensitivity :
  ?solver:solver ->
  Problem.t ->
  target:int ->
  percent:int ->
  int * (int * int) list
