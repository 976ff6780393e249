(** Optimal provisioning for recipes with disjoint type sets
    (paper § V-B).

    When no two recipes share a task type, the platform cost separates
    into a per-recipe term [cost_j(ρ_j)], and the optimal split of the
    target throughput is found by the pseudo-polynomial dynamic
    program

    [C(ρ, j) = min_{0 <= ρ_j <= ρ} ( C(ρ - ρ_j, j-1) + cost_j(ρ_j) )]

    in [O(J·ρ²)] time (plus [O(J·ρ·Q)] to tabulate the per-recipe
    costs).

    Note: the recurrence printed in the paper sums
    [⌈n^j_{t(i,j)}·ρ_j / r_{t(i,j)}⌉·c_{t(i,j)}] over task indices [i],
    which would bill a type once per task; consistently with § IV-A
    and the worked example, [cost_j] here sums over distinct types
    (see DESIGN.md § 1). *)

(** [run instance ~target] returns an optimal allocation (with the
    optimal throughput split). The disjointness check and the DP both
    run on the dominance-pruned compiled instance; the per-recipe cost
    table is filled with the sparse {!Instance.single_cost} closed
    form.
    @raise Invalid_argument when surviving recipes share task types
      (use {!Instance.is_disjoint} to test) or [target < 0]. *)
val run : Instance.t -> target:int -> Allocation.t
