(** Experiment driver: runs a set of algorithms over generated
    configurations and a sweep of target throughputs, recording cost
    and per-solve telemetry — the OCaml counterpart of the paper's
    Python "cloud renting simulator" (§ VIII-A).

    Every solve goes through {!Rentcost.Solver.run}, so rows carry
    the engine's own telemetry (wall time, pivots, nodes, oracle
    evaluations) rather than runner-side stopwatch readings, and an
    ILP whose budget expires degrades to its incumbent instead of
    failing the row. *)

(** An algorithm entry: the exact ILP (optionally capped, as in the
    paper's Figure 8) or one of the § VI heuristics. A [node_limit]
    keeps capped runs deterministic across machines; a [time_limit]
    matches the paper's wall-clock cap. *)
type algorithm =
  | Ilp of { time_limit : float option; node_limit : int option }
  | Heuristic of Rentcost.Heuristics.name

(** The standard line-up of the paper's plots: ILP first, then
    H1, H2, H31, H32, H32Jump. (H0 is kept out, as in the paper's
    figures.) *)
val paper_algorithms :
  ?time_limit:float -> ?node_limit:int -> unit -> algorithm list

val algorithm_name : algorithm -> string

(** The {!Rentcost.Solver.spec} an entry runs under. *)
val algorithm_spec : algorithm -> Rentcost.Solver.spec

(** The {!Rentcost.Budget.t} an entry is capped with. *)
val algorithm_budget : algorithm -> Rentcost.Budget.t

(** One solve outcome. *)
type measurement = {
  config : int;  (** configuration (instance) index *)
  target : int;  (** target throughput ρ *)
  algorithm : string;
  cost : int;
  proved_optimal : bool;  (** true for ILP runs that proved optimality *)
  telemetry : Rentcost.Solver.telemetry;
      (** engine-reported effort: wall time, simplex pivots,
          branch-and-bound nodes, cost-oracle evaluations *)
}

(** [run_instance ~rng ~config problem ~targets ~algorithms ~params]
    solves one instance for every target and algorithm. Stochastic
    heuristics receive a fresh split of [rng] per solve, so adding or
    reordering algorithms does not perturb other algorithms' draws. *)
val run_instance :
  rng:Numeric.Prng.t ->
  config:int ->
  Rentcost.Problem.t ->
  targets:int list ->
  algorithms:algorithm list ->
  params:Rentcost.Heuristics.params ->
  measurement list

(** [sweep ~seed ~configs gp cp ~targets ~algorithms ~params] generates
    [configs] random instances and runs the full grid, reproducing a
    paper experiment. The instance stream is deterministic in [seed]. *)
val sweep :
  ?progress:(int -> unit) ->
  seed:int ->
  configs:int ->
  Generator.graph_params ->
  Generator.cloud_params ->
  targets:int list ->
  algorithms:algorithm list ->
  params:Rentcost.Heuristics.params ->
  measurement list
