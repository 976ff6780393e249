(** Exact branch-and-bound integer linear programming.

    Solves an {!Lp.Model.t} as a pure integer program: every variable
    must take an integer value, and the model's data are ints, so every
    integer point's objective is an int. That is the paper's § V-C
    model. LP relaxations are solved by the exact simplex of
    {!Lp.Simplex}, so no bound is off by a floating-point tolerance —
    the solver never declares optimality spuriously or misses it.
    Incumbents, their objectives, the dual bounds, the cutoff and the
    branch bounds are ints. A node whose LP bound passes [max_int]
    holds no point with an int objective and is pruned; any other
    value that would leave the int range raises [Invalid_argument]
    rather than wrap.

    A node reads its relaxation as {!Lp.Simplex.relaxation}: a float
    interval that provably holds the objective, and the point as
    {!Lp.Simplex.most_fractional} and {!Lp.Simplex.floor} read it. Node
    order, pruning and the strengthening of each LP bound to its
    ceiling decide on the interval when it settles the question and
    make the objective exact otherwise
    ({!Lp.Simplex.compare_objectives}, {!Lp.Simplex.ceil_objective}),
    as does every new incumbent, so the tree is the one exact
    arithmetic throughout would build. The [lp.exact_objectives]
    counter counts the objectives made exact.

    This module is the replacement for the Gurobi solver used in the
    paper's experiments; in particular it exposes the same wall-clock
    [time_limit] semantics that the paper's Figure 8 relies on
    (best incumbent returned, optimality not proven). *)

type status =
  | Optimal  (** incumbent proven optimal *)
  | Feasible  (** limit hit with an incumbent; gap may be positive *)
  | Infeasible
      (** no integer point with an int objective satisfies the
          constraints (and beats the cutoff, when there is one) *)
  | Unbounded  (** the LP relaxation is unbounded *)
  | Unknown  (** limit hit before any incumbent was found *)

type solution = { objective : int; values : int array }

type outcome = {
  status : status;
  solution : solution option;  (** best integer point found *)
  best_bound : int option;
      (** proven lower bound on the optimum; equals the incumbent
          objective when [status = Optimal] *)
  nodes : int;  (** branch-and-bound nodes evaluated *)
  peak_retained_words : int;
      (** the most heap words that parent tableaus kept for warm
          starts, the root's included, held at once; never above
          {!snapshot_budget} unless the root's alone is *)
  elapsed : float;  (** wall-clock seconds *)
}

(** [solve model] minimizes [model] over its integer points, by
    best-bound branch and bound, branching on the most fractional
    variable. Each LP bound is strengthened to the next integer.

    @param time_limit wall-clock budget in seconds (default: none).
    @param node_limit maximum nodes to evaluate (default: none).
    @param cutoff an objective that acts as an incumbent with no
      point behind it: the search prunes by it, quietly declines
      points that do not beat it, and hands it to [round] until a
      point does (default: none).
    @param round a primal heuristic, called at every node whose LP
      optimum is fractional and still beats the incumbent, with the
      incumbent's objective (the cutoff or [None] before the first
      incumbent) and the node's LP point. It returns an integer point meant to be strictly
      better than the incumbent. The solver checks it exactly, raising
      [Invalid_argument] when it is infeasible, installs it only when
      it is strictly better, and emits a [milp.round] progress event
      when it does. The node branches only if its bound still beats
      the incumbent after that.
    @param priority when given, branching considers fractional
      variables of the earliest non-empty group first (e.g. structural
      throughput splits before derived machine counts); variables in
      no group form an implicit last group.
    @raise Invalid_argument when an objective, a bound or a branch
      bound leaves the int range. *)
val solve :
  ?time_limit:float ->
  ?node_limit:int ->
  ?cutoff:int ->
  ?round:(incumbent:int option -> Lp.Simplex.point -> int array option) ->
  ?priority:Lp.Model.var list list ->
  Lp.Model.t ->
  outcome

(** Heap words the parent tableaus kept for warm-starting open nodes
    may hold at once, per solve: 2M (16 MiB on 64-bit). The root's
    tableau is kept for the whole solve and counts toward it. Children
    created past it carry no tableau: each replays its whole path of
    branch bounds on the root's ({!Lp.Simplex.replay}), which costs
    more pivots than a warm start from its parent. *)
val snapshot_budget : int

(** [always_copying f] runs [f] with every warm-started child working
    on a copy of its parent's tableau, including the last child, which
    otherwise (the root's excepted) takes the parent's rows without a
    copy. For tests that
    check that consuming tableaus leaves the tree unchanged; it only
    affects solves on the calling domain. *)
val always_copying : (unit -> 'a) -> 'a

(** [gap outcome] is the relative optimality gap
    [(incumbent - bound) / max(1, |incumbent|)] when both are known. *)
val gap : outcome -> float option
