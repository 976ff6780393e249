(** Brute-force optimum by enumerating every integer throughput split.

    Exponential in the number of recipes ([O(ρ^{J-1})] splits): only
    usable on tiny instances. Serves as the ground-truth oracle in the
    test suite (validating the ILP, the DPs and heuristic bounds) —
    never in experiments. *)

(** [run instance ~target] enumerates all compositions of [target]
    into [J] non-negative parts and returns a cheapest allocation.
    Enumeration runs over the dominance-pruned compact recipe space,
    pricing each assigned unit incrementally with
    {!Instance.Oracle.apply} — pruning never changes the optimal cost
    (see {!Instance}).
    @raise Invalid_argument when [target < 0]. *)
val run : Instance.t -> target:int -> Allocation.t

(** [count_compositions ~parts ~total] is the number of splits
    enumerated by {!run} (binomial [total+parts-1 choose parts-1]);
    useful to guard test sizes. *)
val count_compositions : parts:int -> total:int -> int
