(** Aggregation of raw measurements into the series the paper plots.

    Each figure of § VIII is one of three aggregations over a sweep:
    normalized cost (Figures 3, 6, 7), times-found-best counts
    (Figure 4) and mean computation time (Figures 5, 8). *)

(** A plot-ready table: one row per target, one column per
    algorithm. *)
type series = {
  ylabel : string;
  algorithms : string list;  (** column order *)
  rows : (int * float array) list;  (** target, value per algorithm *)
}

(** [normalized_cost ms] is the paper's "Normalization(Cost)":
    per target, the mean over configurations of
    [best-known cost / algorithm cost], where best-known is the ILP
    cost when an ILP column is present (falling back to the cheapest
    algorithm otherwise). The reference algorithm therefore plots at
    1.0 and worse algorithms below it, as in Figures 3/6/7. *)
val normalized_cost : Runner.measurement list -> series

(** [best_counts ms] is Figure 4: per target, the number of
    configurations in which each algorithm attains the minimum cost
    among all algorithms (ties counted for every winner). *)
val best_counts : Runner.measurement list -> series

(** [mean_times ms] is Figures 5/8: per target, the mean wall-clock
    seconds per algorithm ([~microseconds:true]: microseconds). *)
val mean_times : ?microseconds:bool -> Runner.measurement list -> series

(** [mean_gap_vs_reference ms ~reference] is, per target, the mean of
    [cost_alg / cost_reference - 1] (a cost overhead ratio); used in
    EXPERIMENTS.md to check the paper's "within 6 % of optimal"
    claims. *)
val mean_gap_vs_reference : Runner.measurement list -> reference:string -> series

(** [mean_nodes ms] is, per target, the mean branch-and-bound node
    count (0 for heuristic columns); the solver-effort companion of
    Figures 5/8. *)
val mean_nodes : Runner.measurement list -> series

(** [mean_evaluations ms] is, per target, the mean cost-oracle
    evaluation count per algorithm — the machine-independent effort
    measure of the heuristic columns (the ILP column counts its warm
    start and any fallback stage). *)
val mean_evaluations : Runner.measurement list -> series

(** [optimality_rate ms] is, per target, the fraction of
    configurations whose ILP run proved optimality — the paper's
    Figure 8 commentary (time-limit hits). Algorithms other than the
    ILP report 1.0. *)
val optimality_rate : Runner.measurement list -> series
