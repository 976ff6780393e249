(** Hourly-billed rental ledger.

    Cloud machines bill by the hour: renting a machine at tick [t] pays
    its type's rate [c_q] once and covers service through tick
    [t + ticks_per_hour] (the hour boundary), whether or not the
    machine stays busy. Releasing early refunds nothing — the paid
    remainder is simply wasted (the busy-time model of the related
    work). The ledger therefore keeps already-paid machines around for
    free until their horizon expires, and only at expiry decides
    between renewal (demand still needs the machine) and release.

    The ledger tracks, per machine type, the multiset of paid-through
    horizons. {!step} reconciles it against the fleet the controller
    wants this tick and reports exactly what was charged. *)

type t

(** [create ~num_types ~ticks_per_hour] is an empty ledger.
    @raise Invalid_argument unless both are positive. *)
val create : num_types:int -> ticks_per_hour:int -> t

(** What one {!step} did, per machine type. *)
type event = {
  rented : int array;  (** fresh machines paid for this tick *)
  renewed : int array;  (** expired machines re-paid at the boundary *)
  released : int array;  (** expired machines dropped (never mid-hour) *)
  charged : int;  (** [Σ_q (rented_q + renewed_q)·c_q] *)
}

(** [step t ~tick ~desired ~costs] advances the ledger to [tick]:
    machines whose horizon is [<= tick] expire and are renewed only as
    far as [desired] needs them (cheapest types are not reshuffled —
    renewal keeps the machine's own type); any shortfall after renewals
    is covered by fresh rentals paid through [tick + ticks_per_hour].
    Paid machines beyond [desired] are kept idle at no charge until
    their horizon. Ticks must be non-decreasing across calls.
    @raise Invalid_argument on a decreasing tick, mis-sized arrays, or
    a negative entry. *)
val step : t -> tick:int -> desired:int array -> costs:int array -> event

(** Total charged since {!create}. *)
val total_charged : t -> int

module For_testing : sig
  (** Machines currently paid for (live horizons), per type. After
      {!step}, [held t >= desired] pointwise. *)
  val held : t -> int array
end
