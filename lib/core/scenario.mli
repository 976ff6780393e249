(** A solve scenario: {e what} to optimize ({!Objective}) under
    {e which} prices ({!Pricebook}).

    The scenario is compiled into an {!Instance.t} once
    ([Instance.compile ?scenario]): the price book rewrites [c_q], the
    objective kind is baked into the canonical encoding (so cache keys
    distinguish the two objective families), and from there every
    engine, the incremental oracle and the service ladder see the
    scenario for free. A missing pricebook means the problem's own
    platform prices; the default scenario — min-cost, no book — is
    exactly the paper's setting and compiles bit-identically to the
    historical [Instance.compile problem]. *)

type t = {
  objective : Objective.t;
  pricebook : Pricebook.t option;  (** [None] = the platform's own prices *)
}

val make : objective:Objective.t -> ?pricebook:Pricebook.t -> unit -> t

(** [min_cost ~target ()] is the paper's scenario.
    @raise Invalid_argument when [target < 0]. *)
val min_cost : ?pricebook:Pricebook.t -> target:int -> unit -> t

(** @raise Invalid_argument when [budget < 0]. *)
val max_throughput : ?pricebook:Pricebook.t -> budget:int -> unit -> t

val objective : t -> Objective.t

val pricebook : t -> Pricebook.t option
