(** Deterministic assignment of stream items to recipes.

    The paper splits the target throughput [ρ] into per-recipe
    throughputs [ρ_j]; at execution time consecutive data items must be
    routed to recipes in those proportions. This module implements
    largest-remainder weighted round-robin: after any prefix of [n]
    items, recipe [j] has received [⌊n·ρ_j/ρ⌋] or [⌈n·ρ_j/ρ⌉] items —
    the smoothest integer approximation of the split. *)

type t

(** [create ~weights] builds an assigner; weights are the [ρ_j]
    (non-negative, at least one positive).
    @raise Invalid_argument otherwise. *)
val create : weights:int array -> t

(** [next t] returns the recipe index for the next item. *)
val next : t -> int

(** [counts t] is how many items each recipe has received so far. *)
val counts : t -> int array
