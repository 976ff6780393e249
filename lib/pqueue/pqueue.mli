(** Imperative binary min-heaps.

    Used as the node queue of the branch-and-bound solver
    ({!module:Milp.Solver}, best-bound order) and as the event queue of
    the discrete-event stream simulator ({!module:Streamsim.Sim},
    time order). *)

module Make (Ord : sig
  type t

  (** Total order; the heap pops least elements first. *)
  val compare : t -> t -> int
end) : sig
  type elt = Ord.t
  type t

  (** [create ()] is an empty heap. *)
  val create : unit -> t

  val is_empty : t -> bool

  (** [push h x] inserts [x]; duplicates are allowed. *)
  val push : t -> elt -> unit

  (** [pop h] removes and returns a least element, or [None]. *)
  val pop : t -> elt option

  (** [fold f acc h] folds over elements in unspecified order. *)
  val fold : ('a -> elt -> 'a) -> 'a -> t -> 'a

  module For_testing : sig
    (** [peek h] returns a least element without removing it. *)
    val peek : t -> elt option

    (** [clear h] removes every element. *)
    val clear : t -> unit
  end
end
