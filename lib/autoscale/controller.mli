(** Drift-watching elastic controller.

    The controller closes the loop from a demand stream to rental
    decisions. Each {!tick} it compares the observed demand against the
    target its current fleet was solved for and applies the deadband
    decision rule:

    - demand above the provisioned throughput → the SLO is already
      violated; re-solve immediately (reactive upscale);
    - demand below [(1 − deadband) × target] → the fleet is paying for
      throughput nobody wants; re-solve at the lower target;
    - otherwise → hold: keep the current fleet, charge only the hourly
      renewals that fall due.

    Re-solves go through {!Rentcost.Solver.run} on one compiled
    instance, with the current allocation as the warm start.
    Consecutive targets are close, so a search heuristic starts from
    a near-optimal split (on downscale the solver trims it to the
    target); the exact engines do not read it. The desired fleet is then reconciled against the hourly
    {!Billing} ledger, which keeps already-paid machines idle for free
    until their hour boundary — so a reconfiguration plan distinguishes
    freshly-rented, renewed and released machines, and downscaling
    never refunds paid time.

    Controllers bump the [autoscale.*] telemetry counters and observe
    re-solve wall time in [autoscale.resolve_seconds]. They are not
    thread-safe; the service engine serializes ticks per session. *)

type config = {
  ticks_per_hour : int;  (** billing granularity: ticks per paid hour *)
  deadband : float;
      (** relative slack in [[0, 1)]: no downscale re-solve while
          demand stays above [(1 − deadband) × target] *)
  headroom : float;
      (** relative over-provisioning [>= 0] applied to the re-solve
          target ([target = ⌈demand × (1 + headroom)⌉]), buying slack
          against the next upward drift *)
  spec : Rentcost.Solver.spec;  (** engine for re-solves *)
  budget : Rentcost.Budget.t;  (** per-re-solve budget *)
}

(** [ticks_per_hour = 60], [deadband = 0.1], [headroom = 0.],
    [spec = Auto], unlimited budget. *)
val default_config : config

type action = Hold | Reconfigure

val action_to_string : action -> string
val action_of_string : string -> action option

(** What one tick decided — the reconfiguration plan. *)
type plan = {
  tick : int;
  demand : int;
  target : int;  (** target the fleet is solved for after this tick *)
  action : action;
  rent : int array;  (** fresh machines paid this tick, per type *)
  renew : int array;  (** hour-boundary renewals, per type *)
  release : int array;  (** expired machines dropped, per type *)
  machines : int array;  (** desired fleet after this tick, per type *)
  rho : int array;  (** per-recipe throughput split of that fleet *)
  charged : int;  (** rental cost charged this tick *)
  violation : bool;
      (** demand exceeded the provisioned throughput when the tick
          arrived (counted even though the controller reacts within
          the same tick) *)
}

type t

(** [create_on instance] starts with an empty fleet at tick 0 over an
    already-compiled instance (the service engine shares registered
    instances this way). The instance must be compiled for the
    min-cost objective kind.
    @raise Invalid_argument on a bad [config] field or a
    max-throughput instance. *)
val create_on : ?config:config -> Rentcost.Instance.t -> t

(** [tick t ~demand] feeds the next observation and returns the plan.
    @raise Invalid_argument on negative demand. *)
val tick : t -> demand:int -> plan

(** {1 Counters since [create_on]} *)

val ticks : t -> int
val replans : t -> int
val holds : t -> int
val violations : t -> int
val total_charged : t -> int

module For_testing : sig
  (** The current allocation, [None] before the first re-solve. *)
  val allocation : t -> Rentcost.Allocation.t option
end
