(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic component of the library (heuristics H0/H2/H31,
    the instance generator of {!module:Cloudsim}) draws randomness from
    this module so that experiments are exactly reproducible from a
    seed, independently of OCaml's global [Random] state. *)

type t

(** [create seed] is a fresh generator; equal seeds give equal streams. *)
val create : int -> t

(** [split t] derives a new, statistically independent generator while
    advancing [t]. Useful to give sub-experiments their own streams. *)
val split : t -> t

(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument
    when [bound <= 0]. *)
val int : t -> int -> int

(** [int_in_range t ~lo ~hi] is uniform in [\[lo, hi\]] (inclusive).
    @raise Invalid_argument when [hi < lo]. *)
val int_in_range : t -> lo:int -> hi:int -> int

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

module For_testing : sig
  (** [copy t] is an independent generator with the same current
      state. *)
  val copy : t -> t
end
