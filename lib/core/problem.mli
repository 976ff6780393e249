(** A provisioning problem instance: a platform plus the alternative
    recipes of one global application (the [φ = {ϕ^1 … ϕ^J}] of the
    paper). The target throughput [ρ] is not part of the instance; it
    parameterizes each solve so one instance can be swept over targets
    as in the paper's experiments. *)

type t

(** [create platform recipes] checks that every recipe was built over
    exactly [Platform.num_types platform] types and that at least one
    recipe is present. @raise Invalid_argument otherwise. *)
val create : Platform.t -> Task_graph.t array -> t

val platform : t -> Platform.t

val recipes : t -> Task_graph.t array

val recipe : t -> int -> Task_graph.t

(** [J], the number of alternative recipes. *)
val num_recipes : t -> int

(** [Q], the number of task/machine types. *)
val num_types : t -> int

(** [type_count t j q] is [n^j_q]. *)
val type_count : t -> int -> int -> int

(** [type_counts t j] is the vector [n^j_·] for recipe [j]. *)
val type_counts : t -> int -> int array

(** Whether recipes have pairwise-disjoint type sets (§ V-B); if not,
    two distinct recipes use a common task type (§ V-C). *)
val is_disjoint : t -> bool

(** The three-recipe illustrating instance of the paper's § VII
    (Figure 2 recipes over the Table II platform). Recipe types, in
    paper numbering: ϕ¹ = (2, 4), ϕ² = (3, 4), ϕ³ = (1, 2). *)
val illustrating : t

val pp : Format.formatter -> t -> unit

module For_testing : sig
  (** Whether every recipe is a single task and all those task types
      are pairwise distinct (§ V-A, black-box applications), before
      the dominance pruning of {!Instance.compile}. *)
  val is_blackbox : t -> bool
end
