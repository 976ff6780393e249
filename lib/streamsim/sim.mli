(** Discrete-event execution of a stream on a rented platform.

    The paper's evaluation scores allocations analytically; this
    simulator closes the loop by actually *running* the DAG stream on
    the rented machines, validating the central modelling assumption
    (machine counts [x_q] with [x_q·r_q >= load_q] sustain the target
    throughput) and quantifying the reorder buffer that § I assumes
    exists but never sizes.

    Semantics:
    - items enter either as an infinite backlog ([`Saturated]) or at a
      fixed arrival rate ([`Rate λ], item [k] arriving at [k/λ]);
    - item [k] is routed to a recipe by weighted round-robin on the
      allocation's [ρ_j] ({!module:Assign});
    - each task of type [q] occupies one machine of type [q] for
      exactly [1/r_q] time units; tasks become ready when all their
      DAG predecessors complete; ready tasks are served FIFO;
    - finished items leave through an in-order reorder buffer.

    The engine is a classic event-queue simulation (binary heap keyed
    by time, deterministic tie-breaking), so results are exactly
    reproducible. *)

type arrival = Saturated | Rate of float

(** Machine-failure injection (the reliability dimension of the
    related work the paper cites): each live machine of a type fails
    after an exponential delay with mean [mtbf]; a failed machine
    aborts its in-flight task (re-executed from scratch) and returns
    to service after [repair_time]. Failure draws come from a
    dedicated PRNG seeded with [seed], independent of the workload. *)
type failure_model = { mtbf : float; repair_time : float; seed : int }

type config = {
  items : int;  (** stream instances to push through *)
  warmup_fraction : float;
      (** fraction of earliest-finishing items excluded from the
          steady-state throughput estimate (default 0.2) *)
  arrival : arrival;
  failures : failure_model option;  (** default [None]: reliable machines *)
}

val default_config : config

type report = {
  completed : int;  (** items fully processed *)
  makespan : float;  (** completion time of the last item *)
  throughput : float;
      (** steady-state output rate: items per time unit over the
          post-warmup window *)
  utilization : float array;
      (** per machine type: busy machine-time / available machine-time
          (0 for types with no rented machine) *)
  max_reorder : int;
      (** peak number of finished items held back waiting for an
          earlier item to finish (the § I buffer) *)
  mean_latency : float;  (** mean item sojourn time (completion − arrival) *)
  recipe_counts : int array;  (** items routed to each recipe *)
  failures : int;  (** machine failures injected *)
  reexecutions : int;  (** tasks aborted by failures and re-run *)
}

(** [run problem allocation config] executes the stream.
    @raise Invalid_argument when the allocation shape does not match
    the problem, when [config.items <= 0], or when a recipe with
    positive weight needs a machine type with zero rented machines
    (the stream would deadlock). *)
val run : Rentcost.Problem.t -> Rentcost.Allocation.t -> config -> report
