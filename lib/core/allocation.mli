(** Solutions of the provisioning problem.

    An allocation fixes the per-recipe throughputs [ρ_j] and the rented
    machine counts [x_q]. {!of_rho} derives the cheapest machine counts
    for a given throughput split — the closed form of the paper's
    § IV-B:
    [x_q = ⌈ (Σ_j n^j_q · ρ_j) / r_q ⌉] — and is the cost oracle every
    heuristic of § VI optimizes over. *)

type t = private {
  rho : int array;  (** per-recipe throughput, length [J] *)
  machines : int array;  (** rented machines per type, length [Q] *)
  cost : int;  (** total hourly rental cost [Σ_q x_q·c_q] *)
}


(** [of_rho problem ~rho] computes the minimal machine counts and cost
    supporting the split [rho]. *)
val of_rho : Problem.t -> rho:int array -> t

(** [make problem ~rho ~machines] validates an explicit allocation:
    machine capacities must cover the loads induced by [rho].
    @raise Invalid_argument when under-provisioned or mis-sized. *)
val make : Problem.t -> rho:int array -> machines:int array -> t

(** Total throughput [Σ_j ρ_j]. *)
val total_rho : t -> int

(** [feasible problem ~target alloc] checks both the throughput target
    ([Σ ρ_j >= target]) and machine sufficiency
    ([x_q·r_q >= load_q] for every [q]). *)
val feasible : Problem.t -> target:int -> t -> bool

val pp : Format.formatter -> t -> unit

module For_testing : sig
  (** [loads problem ~rho] is the per-type task load
      [load_q = Σ_j n^j_q · ρ_j] that {!of_rho} provisions for.
      @raise Invalid_argument on a wrong-sized or negative [rho]. *)
  val loads : Problem.t -> rho:int array -> int array
end
