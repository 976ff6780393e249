(** Bounded LRU cache of solved allocations.

    Entries are keyed by [(fingerprint digest, target, engine spec)]
    and hold the solution as a {e canonical} throughput split — the
    compact split reordered by
    {!Rentcost.Instance.canonical_recipe_order} — so a hit transfers
    to any fingerprint-equal instance, whatever its own recipe
    numbering. Each entry also carries the canonical encoding it was
    stored under; every lookup compares it, so a digest collision
    degrades to a miss, never to a wrong answer.

    Three lookups implement the service's reuse ladder:

    - {!find_exact} — same structure, same target: replay the cached
      answer verbatim.
    - {!find_monotone} — feasibility is monotone in the target: an
      {e optimal} allocation for a target [t' >= t] satisfies [t], so
      it can answer a lower-target request immediately as a feasible
      (not optimality-proved) incumbent. Returns the optimal entry
      with the smallest such [t'], the cheapest cover available.
    - {!find_monotone_le} — the dual rung for max-throughput entries,
      whose scalar key is the {e monetary budget}: an optimal
      allocation under a budget [b' <= b] also fits budget [b] (its
      cost is [<= b' <= b]), so it answers a higher-budget request as
      a feasible incumbent. Returns the optimal entry with the largest
      such [b'], the closest throughput available.
    - {!find_nearest} — the nearest {e usable} cached split for the
      structure, to seed a cold heuristic solve. Usable means its target
      is [>= target]: the solver's warm-start validation drops any
      split short of the requested target (it is not feasible there),
      so lower-target entries are never returned.

    Recency is a global access clock stamped on insert and on every
    hit; eviction scans for the stale minimum — [O(capacity)], dwarfed
    by the solves the cache fronts. Safe to share across domains:
    every operation runs under the cache's one mutex, so a lookup or
    insert is atomic with respect to the others. *)

type entry = {
  target : int;
  spec : string;  (** {!Rentcost.Solver.spec_to_string} of the engine *)
  canonical_rho : int array;  (** split in canonical recipe order *)
  cost : int;
  optimal : bool;  (** solved to proven optimality *)
}

type t

(** @raise Invalid_argument when [capacity <= 0]. *)
val create : capacity:int -> t

val capacity : t -> int

(** Number of live entries ([<= capacity]). *)
val length : t -> int

(** Total entries evicted since {!create}. *)
val evictions : t -> int

(** [find_exact t ~digest ~encoding ~target ~spec] is the entry for
    exactly this key, accepting a different engine's entry when it is
    optimal (an optimality-proved answer satisfies any engine
    request). Refreshes recency. *)
val find_exact :
  t -> digest:string -> encoding:string -> target:int -> spec:string ->
  entry option

(** [find_monotone t ~digest ~encoding ~target] is the optimal entry
    for this structure with the smallest target [>= target], if any.
    Refreshes recency. *)
val find_monotone :
  t -> digest:string -> encoding:string -> target:int -> entry option

(** [find_monotone_le t ~digest ~encoding ~target] is the optimal
    entry for this structure with the largest target [<= target], if
    any. The monotone rung read in the {e opposite} direction — used
    when the scalar is a monetary budget, where feasibility carries
    upward instead of downward. Refreshes recency. *)
val find_monotone_le :
  t -> digest:string -> encoding:string -> target:int -> entry option

(** [find_nearest t ~digest ~encoding ~target] is the entry for this
    structure with the smallest target [>= target] (optimal or not),
    if any — warm-start material. Refreshes recency. *)
val find_nearest :
  t -> digest:string -> encoding:string -> target:int -> entry option

(** [insert t ~digest ~encoding entry] stores (or replaces) the entry
    under [(digest, entry.target, entry.spec)], evicting the
    least-recently-used entry when full. *)
val insert : t -> digest:string -> encoding:string -> entry -> unit

module For_testing : sig
  (** [mem t ~digest ~target ~spec] — exact-key presence without
      touching recency, to observe eviction order. *)
  val mem : t -> digest:string -> target:int -> spec:string -> bool
end
