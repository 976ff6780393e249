(** Bounded tables that drop their least recently used entry to admit
    a new key.

    Recency is a clock stamped on every insert and every {!Make.find}
    hit; eviction scans for the oldest stamp, [O(capacity)], which is
    small next to the solves and compiles the tables front. A table
    takes no lock: its owner serializes access. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  (** @raise Invalid_argument when [capacity <= 0]. *)
  val create : capacity:int -> 'v t

  val capacity : 'v t -> int

  (** Number of live entries ([<= capacity]). *)
  val length : 'v t -> int

  (** Entries dropped to admit a new key since {!create}. *)
  val evictions : 'v t -> int

  (** [find t k] is [k]'s value; a hit refreshes [k]'s recency. *)
  val find : 'v t -> K.t -> 'v option

  (** [mem t k] is presence, without touching recency. *)
  val mem : 'v t -> K.t -> bool

  (** [replace t k v] binds [k] to [v] as the most recent entry,
      first evicting the least recently used entry when [k] is new and
      the table is full. *)
  val replace : 'v t -> K.t -> 'v -> unit

  (** [fold f t init] folds over the live entries, in no particular
      order, without touching recency. *)
  val fold : (K.t -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a
end
