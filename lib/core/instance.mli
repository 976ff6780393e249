(** A compiled view of a {!Problem.t}, built once per solve.

    Every engine ultimately prices throughput splits with the § IV-B
    closed form, and profiling shows the search engines (§ VI
    heuristics, the exhaustive oracle, the DP tabulations) spend
    essentially all their time there. [Instance.compile] preprocesses
    the problem so that pricing work is proportional to what a move
    actually touches:

    - {b sparse recipe supports}: per recipe, the list of types with
      [n^j_q > 0] (CSR-style), so inner loops skip zero entries;
    - {b precomputed platform vectors}: [c_q] and [r_q] as plain
      arrays, plus per-recipe closed-form unit-cost bounds (§ IV-A);
    - {b recipe-dominance preprocessing}: recipe [j'] is dropped from
      the search space when some recipe [j] satisfies
      [n^j_q <= n^j'_q] for every [q] (ties broken towards the lower
      index). Any throughput routed through [j'] can be rerouted
      through [j] without raising any per-type load, hence without
      raising the cost, so some optimum has [ρ_j' = 0] and dropping
      [j'] never changes the optimal cost. Surviving recipes are
      re-indexed compactly; {!expand_rho} maps results back to the
      original numbering.

    On top of the compiled view, {!module:Oracle} maintains loads,
    machine counts and cost incrementally: {!Oracle.apply} re-prices
    only the support of the touched recipe — [O(|supp(j)|)] per move
    instead of the [O(Q·J)] plus allocations of a fresh
    {!Allocation.of_rho} — and {!Oracle.price} reads the cost of such
    a move in the same single pass without making it. *)

(** Sparse counts of one recipe: [counts.(i)] tasks of type
    [types.(i)], types ascending, all counts positive. *)
type support = {
  types : int array;
  counts : int array;
}

type t

(** Alias for {!t}, usable inside the {!module:Oracle} signature. *)
type instance = t

(** [compile problem] builds the instance. [O(J²·Q)] for the dominance
    filter plus [O(J·Q)] for the tables — negligible next to any
    search. [~prune:false] keeps dominated recipes (identity index
    map); used by A/B tests and ablation benchmarks.

    [?scenario] bakes a {!Scenario.t} into the compiled view: a price
    book rewrites the platform costs [c_q] to the effective multi-cloud
    prices (so every engine, {!single_cost}, {!fluid_lower_bound} and
    the {!module:Oracle} price with them), and the objective {e kind}
    is folded into the canonical encoding, so min-cost and
    max-throughput instances never share a fingerprint. Omitted — or
    given as the default min-cost scenario with no book — the compile
    is bit-identical to the historical one. *)
val compile : ?prune:bool -> ?scenario:Scenario.t -> Problem.t -> t

(** The problem the engines price: the submitted recipes over the
    scenario-{e effective} platform (price book applied). Without a
    pricebook this is the submitted problem itself. *)
val problem : t -> Problem.t

(** The problem as submitted, with its original platform prices —
    what a service re-compiles under a different scenario. *)
val source_problem : t -> Problem.t

(** The objective family this instance was compiled for (baked into
    the canonical encoding). [`Min_cost] without a scenario. *)
val objective_kind : t -> Objective.kind

(** The price book baked in at compile time, if any. *)
val pricebook : t -> Pricebook.t option

(** Number of surviving recipes [J'] (compact index space; [<= J]). *)
val num_recipes : t -> int

val num_types : t -> int

(** [original_index t j] maps a compact index to the problem's
    numbering. *)
val original_index : t -> int -> int

(** Dominated recipes as [(dropped, dominator)] pairs in original
    numbering; the dominator always survives. *)
val dropped : t -> (int * int) list

(** Number of recipes removed by dominance preprocessing. *)
val num_pruned : t -> int

val support : t -> int -> support

(** [count t j q] is [n^j_q] for compact [j]. *)
val count : t -> int -> int -> int

(** [type_cost t q] is [c_q]. *)
val type_cost : t -> int -> int

(** [type_throughput t q] is [r_q]. *)
val type_throughput : t -> int -> int

(** Structure flags of the {e pruned} problem, precomputed at compile
    time (§ V routing). Pruning can only unlock structure — e.g. a
    shared-types problem whose sharing recipes are all dominated
    becomes disjoint — and routing on the pruned structure is sound
    because the pruned problem has the same optimal cost. *)
val is_blackbox : t -> bool

val is_disjoint : t -> bool

(** [single_cost t ~j ~target] is the § IV-A closed form
    [Σ_q c_q·⌈n^j_q·target / r_q⌉] over the support of compact recipe
    [j] — the cost of routing the whole target through [j]. *)
val single_cost : t -> j:int -> target:int -> int

(** [unit_cost t j] is the fluid (LP-relaxed) cost of one unit of
    throughput on compact recipe [j]: [Σ_q n^j_q·c_q / r_q]. A lower
    bound on the marginal cost of recipe [j]. *)
val unit_cost : t -> int -> Numeric.Rat.t

(** [fluid_lower_bound t ~target] is
    [⌈target · min_j unit_cost j⌉] — a valid lower bound on the
    optimal cost, from the LP relaxation with the capacity ceilings
    dropped. *)
val fluid_lower_bound : t -> target:int -> int

(** [fluid_upper_target t ~budget] is [⌊budget / min_j unit_cost j⌋] —
    an upper bound on any throughput achievable within [budget], from
    the same LP relaxation as {!fluid_lower_bound}. The initial upper
    bracket of the max-throughput binary search ({!Solver.run}). [0]
    when the instance has no recipes.
    @raise Invalid_argument when [budget < 0], or when the bound passes
      [max_int] (the message names the budget): no int allocation can
      carry that throughput. *)
val fluid_upper_target : t -> budget:int -> int

(** [max_target t] is the largest target [ρ] whose cost bound
    [B(ρ) = ⌈ρ · max_j unit_cost j⌉ + Σ_q c_q] is at most [max_int]
    ([max_int] without recipes, [-1] when [Σ_q c_q] alone passes
    [max_int]); computed exactly, once, at compile time. Each
    [x_q = ⌈load_q / r_q⌉] is below [load_q / r_q + 1], so every split
    of [ρ] over the compiled recipes costs at most [B(ρ)]: so do every
    DP entry, every heuristic's split and every incumbent of the ILP
    at [ρ]. {!Solver.run} refuses a min-cost target past it before
    any engine runs, so no engine's int cost can wrap. *)
val max_target : t -> int

(** [expand_rho t rho] maps a compact split (length [J']) to the
    original numbering (length [J], zeros for dropped recipes). *)
val expand_rho : t -> int array -> int array

(** {1 Structural fingerprinting}

    Two problems that differ only by a renumbering of task types or a
    reordering of recipes describe the same optimization (costs, rates
    and [n^j_q] rows are permutations of each other), so a solution of
    one transfers to the other by applying the permutation. The
    canonical encoding below quotients out those renamings: types are
    ordered by [(c_q, r_q, sorted column multiset)] refined by their
    actual columns, recipes lexicographically by their reordered rows.
    The encoding fully describes the pruned cost structure, so {e equal
    encodings always mean equivalent problems} — a cache keyed on them
    can never serve a wrong answer. The converse is best-effort: highly
    automorphic instances whose types tie on every refinement key may
    canonicalize differently under different input orders, which costs
    a missed cache share, never a wrong one. *)

(** [canonical_encoding t] is the canonical textual form of the pruned
    cost structure (type count, recipe count, per-type [(c, r)] pairs
    and [n^j_q] rows, all in canonical order). *)
val canonical_encoding : t -> string

(** [fingerprint t] is the hex digest of {!canonical_encoding} — a
    compact cache key. Equal fingerprints imply equal encodings up to
    digest collision; cache layers that must rule even that out compare
    the encodings on hit. *)
val fingerprint : t -> string

(** [canonical_recipe_order t] maps canonical recipe slots to compact
    recipe indices: slot [i] of the canonical form is compact recipe
    [(canonical_recipe_order t).(i)]. A split cached in canonical order
    transfers to any instance with the same encoding through its own
    order array. *)
val canonical_recipe_order : t -> int array

(** Incremental cost oracle: mutable loads/machines/cost state over
    the compact index space. {!apply} moves the state; {!price} reads
    what a move would cost without making it. Both re-price only
    [supp(j)]. Machine counts are a deterministic function of the
    loads, so the inverse move [apply ~drho:(-d)] restores the state
    before [apply ~drho:d] exactly. *)
module Oracle : sig
  type t

  (** Fresh oracle at the all-zero split (cost 0). *)
  val create : instance -> t

  (** [reset o ~rho] rebuilds the state from scratch for a compact
      split (length [J']). [O(Σ_j |supp(j)|)].
      @raise Invalid_argument on a wrong-sized or negative [rho]. *)
  val reset : t -> rho:int array -> unit

  (** Current total rental cost [Σ_q x_q·c_q]. O(1). *)
  val cost : t -> int

  (** [rho_at o j] is the current throughput of compact recipe [j]. *)
  val rho_at : t -> int -> int

  (** Copy of the current compact split. *)
  val rho : t -> int array

  (** Copy of the current per-type loads. *)
  val loads : t -> int array

  (** Copy of the current minimal machine counts. *)
  val machines : t -> int array

  (** [apply o ~j ~drho] adds [drho] to [ρ_j] and re-prices exactly
      [supp(j)]: [O(|supp(j)|)]. [apply ~drho:(-drho)] undoes it.
      @raise Invalid_argument when the move would make [ρ_j]
      negative. *)
  val apply : t -> j:int -> drho:int -> unit

  (** [price o ~j ~drho] is the {!cost} the state would have after
      [apply o ~j ~drho], in one read-only pass over [supp(j)]: it
      writes nothing, so pricing every neighbour of a point needs no
      move and no revert.
      @raise Invalid_argument when the move would make [ρ_j]
      negative. *)
  val price : t -> j:int -> drho:int -> int

  (** The current state as a full {!Allocation.t} in original recipe
      numbering (recomputed through {!Allocation.of_rho}, which also
      revalidates the state at the boundary). *)
  val allocation : t -> Allocation.t
end
