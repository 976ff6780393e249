(** What a solve optimizes — the scenario axis that flips the paper's
    question around.

    The paper fixes one objective: reach a target throughput [ρ] at
    minimum rental cost ([Min_cost]). The budget-constrained dual from
    the related work inverts it: spend at most a monetary [budget] and
    maximize the throughput ([Max_throughput]). Both are carried by
    one value so every layer — {!Instance.compile}, {!Solver.run},
    the service cache keys, the wire protocol — threads the scenario
    without engine-specific plumbing.

    The two objectives are duals over the same monotone cost curve:
    the optimal min-cost [c(t)] is nondecreasing in [t], so the
    optimal dual throughput is the largest [t] with [c(t) <= budget],
    which {!Solver.run} finds by binary search over min-cost solves
    (bracketed by the fluid bound). *)

type t =
  | Min_cost of { target : int }
      (** reach [target] throughput at minimum rental cost (the
          paper's problem) *)
  | Max_throughput of { budget : int }
      (** maximize throughput with total rental cost [<= budget] *)

(** The objective family, without its scalar. Baked into the canonical
    instance encoding so caches can never serve one objective's answer
    to the other. *)
type kind = [ `Min_cost | `Max_throughput ]

(** @raise Invalid_argument when [target < 0]. *)
val min_cost : target:int -> t

(** @raise Invalid_argument when [budget < 0]. *)
val max_throughput : budget:int -> t

val kind : t -> kind

(** The objective's scalar: the target of a [Min_cost], the monetary
    budget of a [Max_throughput]. What the service cache keys on
    (alongside the objective-tagged fingerprint). *)
val scalar : t -> int

(** ["min-cost"] / ["max-throughput"] — the CLI and wire spelling. *)
val kind_to_string : kind -> string

val kind_of_string : string -> kind option
