(** Per-solve resource budgets shared by every engine behind
    {!Solver.run}.

    A budget caps one solve along up to three axes. Engines interpret
    the axes they can observe and ignore the rest:

    - [deadline] — wall-clock seconds from the start of the solve.
      Honoured by the ILP (as {!Milp.Solver}'s [time_limit]), by the
      disjoint-types DP (checked once per table row) and by the
      heuristics (checked between moves). Timing makes capped runs
      machine-dependent; prefer the deterministic caps below for
      reproducible experiments.
    - [node_cap] — branch-and-bound nodes; ILP only. Deterministic
      across machines.
    - [eval_cap] — cost-oracle evaluations; heuristics only.
      Deterministic across machines.

    Budgets bound effort, not correctness: an engine that runs out
    returns the best incumbent it has (see {!Solver.status}). *)

type t = {
  deadline : float option;  (** wall-clock seconds for this solve *)
  node_cap : int option;  (** max branch-and-bound nodes *)
  eval_cap : int option;  (** max cost-oracle evaluations *)
}

(** No caps on any axis. *)
val unlimited : t

(** [remaining t ~elapsed] is [t] with the deadline reduced by the
    [elapsed] seconds already spent (clamped at zero) — the budget left
    for a follow-up stage of the same solve. *)
val remaining : t -> elapsed:float -> t
