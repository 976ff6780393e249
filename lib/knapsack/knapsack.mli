(** Pseudo-polynomial dynamic program for the covering problem of the
    paper's § V-A.

    Section V-A reduces cost minimization for black-box recipes to an
    unbounded knapsack with negated weights and values; equivalently,
    to the covering problem solved by {!min_cost_cover}. The test
    suite keeps the knapsack form as a reference and checks that the
    two agree. *)

(** A machine type for the covering form: renting one unit costs
    [cost] and contributes [yield] to the covered demand. *)
type cover_item = { cost : int; yield : int }

(** Result of a DP solve: the optimum and how many copies of each item
    achieve it. *)
type 'a dp_solution = { best : 'a; counts : int array }

(** [min_cost_cover ~items ~demand] minimizes [Σ xᵢ·costᵢ] subject to
    [Σ xᵢ·yieldᵢ >= demand], [xᵢ ∈ ℕ]. This is the paper's § V-A
    problem (machines of type [q] cost [c_q] and provide throughput
    [r_q]). Items with non-positive yield are ignored. Returns [None]
    when the demand is positive and no item has positive yield.
    Runs in [O(n·demand)] time. *)
val min_cost_cover : items:cover_item array -> demand:int -> int dp_solution option
