(** Traffic traces: time-varying demand for a recipe application.

    A trace is a sequence of per-tick throughput targets — the demand
    axis the paper holds fixed as one [ρ]. Traces come from the seeded
    synthetic generators below (diurnal sinusoid, burst, flash crowd —
    the canonical cloud load shapes) or from the replayable text
    format, and drive the {!Controller} and {!Policy} layers. All
    generators draw noise from {!Numeric.Prng}, so equal parameters and
    seeds give bit-equal traces on every machine.

    A tick is the controller's observation period; [tick_seconds]
    records its length in simulated seconds (purely descriptive here —
    billing granularity is the {!Controller}'s [ticks_per_hour]). *)

type t = private {
  tick_seconds : float;  (** length of one tick, simulated seconds *)
  demand : int array;  (** per-tick throughput target, items/time unit *)
}

val length : t -> int

(** [demand t k] is the target during tick [k].
    @raise Invalid_argument when [k] is out of range. *)
val demand : t -> int -> int

(** Highest per-tick demand (0 for an empty trace). *)
val peak : t -> int

(** {1 Synthetic generators}

    All generators accept [?noise] (default [0.]): each tick's demand
    is scaled by a factor uniform in [[1 − noise, 1 + noise]] drawn
    from a {!Numeric.Prng} stream seeded with [seed], then clamped at
    zero. [noise] must lie in [[0, 1]]. *)

(** [diurnal ~ticks ~base ~amplitude ~period ~seed ()] is the day/night
    sinusoid: demand starts at the [base] trough and oscillates up to
    [base + amplitude] with the given [period] in ticks.
    @raise Invalid_argument on negative sizes, [period <= 0] or a bad
    [noise]. *)
val diurnal :
  ?tick_seconds:float ->
  ?noise:float ->
  ticks:int ->
  base:int ->
  amplitude:int ->
  period:int ->
  seed:int ->
  unit ->
  t

(** [burst ~ticks ~base ~height ~at ~width ~seed ()] is a flat [base]
    with a rectangular burst of extra [height] demand covering ticks
    [[at, at + width)]. *)
val burst :
  ?tick_seconds:float ->
  ?noise:float ->
  ticks:int ->
  base:int ->
  height:int ->
  at:int ->
  width:int ->
  seed:int ->
  unit ->
  t

(** [flash_crowd ~ticks ~base ~peak ~at ~ramp ~decay ~seed ()] is the
    viral-event shape: flat [base], a linear ramp from [base] to [peak]
    over [ramp] ticks starting at [at], then a geometric decay back
    toward [base] with per-tick retention [exp(−1/decay)]. *)
val flash_crowd :
  ?tick_seconds:float ->
  ?noise:float ->
  ticks:int ->
  base:int ->
  peak:int ->
  at:int ->
  ramp:int ->
  decay:int ->
  seed:int ->
  unit ->
  t

(** {1 Replayable text format}

    {[
      trace version 1
      tick-seconds 60
      demand 40 43 51 64 ...
    ]}

    [tick-seconds] is printed with ["%.17g"], so reading a trace back
    recovers the exact float and the same trace. Lines starting
    with [#] and blank lines are ignored. *)

val to_string : t -> string

(** [load path] reads the text format from a file.
    @raise Sys_error on I/O failure, [Failure] with a descriptive
    message on malformed input or an unknown version. *)
val load : string -> t

module For_testing : sig
  (** [create ~tick_seconds ~demand] validates a trace.
      @raise Invalid_argument when [tick_seconds] is not positive and
      finite or a demand entry is negative. *)
  val create : tick_seconds:float -> demand:int array -> t

  (** The text format read from a string, as {!load} reads a file. *)
  val of_string : string -> t
end
