(** Policy comparison harness: elastic vs. static-peak vs. clairvoyant
    oracle, all costed under the same hourly billing model.

    - {!elastic} replays the trace through a {!Controller} — online,
      no knowledge of the future, deadband hysteresis.
    - {!static_peak} solves once for the trace peak and keeps that
      fleet for the whole horizon: the classic over-provisioned
      baseline. Zero SLO violations, maximum waste.
    - {!oracle} knows the whole trace: per billing hour it provisions
      the optimal fleet for that hour's peak demand (one hour paid per
      block) via {!Rentcost.Elastic.provision_on}. This is the
      lower-bound reference an online policy is judged against (cf.
      the competitive-ratio framing of the online machine-rental
      literature); it still pays whole hours, so it is achievable by
      an offline scheduler, not a fluid bound.

    On well-behaved traces (the seeded diurnal of the bench) the
    ordering [oracle <= elastic <= static_peak] holds and is asserted
    in [bench/main.exe]; adversarial traces can break the upper half
    (e.g. a flash crowd straddling a boundary forces the elastic
    policy into mid-hour rentals the static fleet never pays). *)

type outcome = {
  policy : string;  (** ["elastic"], ["static-peak"] or ["oracle"] *)
  total_cost : int;  (** hourly-billed rental cost over the trace *)
  violations : int;  (** ticks whose demand exceeded the fleet *)
  replans : int;  (** solver invocations *)
}

(** [elastic instance trace] replays [trace] through a fresh
    {!Controller} and also returns the per-tick plans (newest last). *)
val elastic :
  ?config:Controller.config ->
  Rentcost.Instance.t ->
  Trace.t ->
  outcome * Controller.plan list

(** [static_peak ~ticks_per_hour instance trace] bills the peak fleet
    for every (possibly partial) hour of the trace. *)
val static_peak :
  ?budget:Rentcost.Budget.t ->
  ?spec:Rentcost.Solver.spec ->
  ticks_per_hour:int ->
  Rentcost.Instance.t ->
  Trace.t ->
  outcome

(** [oracle ~ticks_per_hour instance trace] provisions each hour block
    for its peak demand, each block's solve handed the previous
    block's fleet as its warm start. *)
val oracle :
  ?budget:Rentcost.Budget.t ->
  ?spec:Rentcost.Solver.spec ->
  ticks_per_hour:int ->
  Rentcost.Instance.t ->
  Trace.t ->
  outcome

type comparison = {
  elastic : outcome;
  static_peak : outcome;
  oracle : outcome;
}

(** [compare_policies instance trace] runs all three on the one
    compiled instance; [static_peak] and [oracle] use the controller
    config's [ticks_per_hour], [spec] and [budget]. *)
val compare_policies :
  ?config:Controller.config -> Rentcost.Instance.t -> Trace.t -> comparison

(** [savings ~of_ ~over] is the relative saving of [of_] against
    [over], in [[0, 1]] when cheaper; 0 when [over] is free. *)
val savings : of_:outcome -> over:outcome -> float
