(** Random instance generation, following the paper's § VIII-A.

    The paper found that fully independent random recipes give no real
    competition (one recipe dominates), so it generates an *initial*
    recipe and derives the alternatives by re-typing a percentage of
    its tasks ("e.g. when a task running on GPU is replaced by a task
    running on a classical CPU architecture"). This module reproduces
    that scheme:

    + the platform draws, per type, a cost uniform in
      [[min_cost, max_cost]] and a throughput uniform in
      [[min_throughput, max_throughput]];
    + the initial recipe draws its task count uniform in
      [[min_tasks, max_tasks]] and types uniform over the [Q] types;
    + each alternative draws its own task count (recipes differ in
      size, as the paper prescribes), inherits the initial recipe's
      types (truncated or cyclically extended), then re-types
      [⌈mutation_pct · n⌉] uniformly chosen tasks;
    + precedence edges are rebuilt as a random connected DAG for each
      recipe — the costing theory ignores edges, but the stream
      simulator ({!module:Streamsim}) does not.

    All draws come from the supplied {!Numeric.Prng.t}. *)

type graph_params = {
  num_graphs : int;  (** [J], alternatives including the initial recipe *)
  min_tasks : int;
  max_tasks : int;
  mutation_pct : float;  (** fraction of tasks re-typed per alternative *)
}

type cloud_params = {
  num_types : int;  (** [Q] *)
  min_cost : int;
  max_cost : int;
  min_throughput : int;
  max_throughput : int;
}


(** [problem ~rng gp cp] draws a full instance.
    @raise Invalid_argument on inconsistent parameters (empty ranges,
    [num_graphs <= 0], [mutation_pct] outside [0, 1]). *)
val problem :
  rng:Numeric.Prng.t -> graph_params -> cloud_params -> Rentcost.Problem.t

module For_testing : sig
  (** [platform ~rng params] is the random cloud {!problem} draws. *)
  val platform : rng:Numeric.Prng.t -> cloud_params -> Rentcost.Platform.t

  (** [random_dag ~rng ~ntypes ~types] is the recipe {!problem} builds
      over the given task types: a connected random DAG (every
      non-root task has at least one predecessor among earlier
      tasks). *)
  val random_dag :
    rng:Numeric.Prng.t -> ntypes:int -> types:int array -> Rentcost.Task_graph.t
end
