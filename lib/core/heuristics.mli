(** The six polynomial heuristics of the paper's § VI for the general
    shared-types problem.

    All heuristics search over integer throughput splits
    [ρ_1 … ρ_J >= 0] with [Σ_j ρ_j = ρ], scoring each split with the
    § IV-B closed-form cost oracle. Moves transfer a quantum
    [δ = step] of throughput between two recipes (transferring
    everything when the source holds less than [δ]), exactly the
    exchange described for H2 in the paper.

    Pricing goes through the compiled {!Instance} layer: the search
    runs over the dominance-pruned compact recipe space, a neighbour is
    priced without moving to it by {!Instance.Oracle.price} and a move
    is made by {!Instance.Oracle.apply}, each in one [O(|supp(j)|)]
    pass rather than recomputed from scratch in [O(Q·J)]. A steepest
    pass takes [δ] out of [j1] once and prices every [j2] against it;
    an inverse apply puts [δ] back. Evaluation counts reach
    {!Telemetry.Effort} once per run, when it finishes.
    Results are reported in the problem's original recipe numbering.
    On instances without dominated recipes the search trajectories
    (and therefore costs, splits and evaluation counts) are identical
    to the historical from-scratch oracle; with dominated recipes the
    search space shrinks, which can only improve the incumbent at
    equal effort.

    Stochastic heuristics (H0, H2, H31, H32Jump) draw randomness
    exclusively from the supplied {!Numeric.Prng.t}, so runs are
    reproducible from a seed.

    Every heuristic accepts a {!Budget.t} and honours its [eval_cap]
    and [deadline] axes, checked between moves: a run that exhausts its
    budget stops early and returns its best incumbent with
    [exhausted = true]. H1 is the floor — its [J] evaluations always
    complete, so every budgeted run returns a feasible allocation.

    Note: this module is the low-level per-heuristic interface. New
    code should prefer {!Solver.run} (with [~spec:(Heuristic name)]
    or [~spec:Auto]), which adds engine dispatch, uniform budget
    semantics across exact and heuristic engines, and per-solve
    telemetry. *)

type name = H0 | H1 | H2 | H31 | H32 | H32_jump

(** Every heuristic, in the paper's order. *)
val all : name list

val name_to_string : name -> string

type params = {
  step : int;  (** throughput quantum [δ] moved per exchange (default 1) *)
  iterations : int;  (** iteration budget of H2 and H31 (default 500) *)
  patience : int;
      (** H31 stops after this many consecutive non-improving
          iterations (default 100) *)
  jumps : int;  (** number of perturbation rounds of H32Jump (default 50) *)
  jump_size : int;
      (** random exchanges applied per H32Jump perturbation (default 4) *)
  exhaustive_deltas : bool;
      (** H32/H32Jump descent: test every multiple of [step] per
          recipe pair instead of the single quantum — the literal
          reading of the paper's "all possible throughput fraction
          exchanges are tested", at quadratically higher cost per
          descent pass (default false, which matches the paper's
          reported H32 run times) *)
}

val default_params : params

type result = {
  allocation : Allocation.t;
  evaluations : int;  (** cost-oracle calls, a machine-independent effort measure *)
  exhausted : bool;
      (** true when the run was cut short by its {!Budget.t}; the
          allocation is still the best incumbent found *)
}

(** [search name instance ~target] runs one heuristic:

    - [H0] draws a uniformly random composition of the target over the
      recipes (§ VI-a);
    - [H1] routes the whole target through the single cheapest recipe
      (§ VI-b), in [O(J·Q)];
    - [H2] starts from H1 and repeatedly applies random exchanges,
      always adopting the move and remembering the best solution seen
      (§ VI-c);
    - [H31] is H2 but a move is kept only when it improves the
      incumbent (§ VI-d);
    - [H32] repeatedly applies the best exchange over all ordered
      recipe pairs until none improves — a steepest-gradient descent
      to a local minimum (§ VI-e);
    - [H32_jump] escapes H32 local minima by applying a burst of
      random exchanges and descending again, keeping the best local
      minimum found (§ VI-e).

    [rng] is only drawn from by the stochastic heuristics (H0, H2,
    H31, H32Jump) and may be omitted even for them, in which case a
    fixed-seed PRNG makes the run deterministic; deterministic H1/H32
    never touch it. This is the hook {!Solver.run} uses so one
    compiled instance serves routing, the ILP and any heuristic
    fallback of a single solve.

    Applications should still prefer {!Solver.run}
    [~spec:(Heuristic name)], which wraps this dispatch with budget
    fallback semantics and telemetry.

    @param warm_start an alternative start split for the search
      heuristics (H2, H31, H32, H32Jump), in {e compact} recipe
      numbering, non-negative, summing to at least [target] — the
      caller is responsible for validity ({!Solver.run} checks before
      delegating). The search starts from whichever of the warm split
      and the H1 split prices cheaper (one extra evaluation); H0 and
      H1 ignore it. Unseeded runs are bit-identical to the historical
      trajectories. *)
val search :
  ?params:params ->
  ?budget:Budget.t ->
  ?rng:Numeric.Prng.t ->
  ?warm_start:int array ->
  name ->
  Instance.t ->
  target:int ->
  result
