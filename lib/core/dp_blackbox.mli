(** Optimal provisioning for black-box recipes (paper § V-A).

    When every recipe is a single task and no two recipes share a task
    type, the problem is the unbounded-knapsack-like covering problem
    [min Σ x_q·c_q  s.t.  Σ x_q·r_q >= ρ], solved here exactly by the
    pseudo-polynomial DP of {!Knapsack.min_cost_cover} in
    [O(J·ρ)] time. *)

(** [run instance ~target] returns an optimal allocation. The
    black-box check runs on the dominance-pruned compiled instance, so
    a problem whose only structure violations come from dominated
    recipes (e.g. duplicated single-task recipes) is still accepted.
    @raise Invalid_argument when the pruned instance is not black-box
      (use {!Instance.is_blackbox} to test) or [target < 0]. *)
val run : Instance.t -> target:int -> Allocation.t
