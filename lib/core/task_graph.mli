(** A recipe: one directed acyclic graph of typed tasks.

    Each task carries a type [q ∈ 0..ntypes-1] (the paper numbers types
    from 1; this implementation is 0-based throughout). Precedence
    edges only matter to the discrete-event validation simulator
    ({!module:Streamsim}) and to the instance generator — the costing
    theory of the paper depends on a recipe only through its per-type
    task counts [n^j_q], exposed here as {!type_counts}. *)

type t

(** [create ~ntypes ~types ~edges] builds a recipe whose task [i] has
    type [types.(i)] and whose precedence constraints are [edges]
    (pairs [(a, b)] meaning [a] before [b]).
    @raise Invalid_argument on an empty task set, an out-of-range type
    or endpoint, a self-loop, or a cyclic precedence graph. *)
val create : ntypes:int -> types:int array -> edges:(int * int) list -> t

(** [chain ~ntypes ~types] is the linear pipeline
    [task 0 -> task 1 -> …] — the shape of the illustrating examples
    in the paper's Figures 1 and 2. *)
val chain : ntypes:int -> types:int array -> t

val num_tasks : t -> int
val num_types : t -> int

(** [type_of t i] is the type of task [i]. *)
val type_of : t -> int -> int

val edges : t -> (int * int) list

(** Direct successors of a task, in edge insertion order. *)
val succs : t -> int -> int array

(** Direct predecessors of a task, in edge insertion order. *)
val preds : t -> int -> int array

(** [type_counts t] has length [ntypes]; entry [q] is [n^j_q], the
    number of tasks of type [q] in this recipe. *)
val type_counts : t -> int array

(** Types with at least one task, ascending. *)
val types_used : t -> int list

(** Tasks without predecessors, ascending. *)
val sources : t -> int list

(** Number of tasks on a longest precedence path. *)
val critical_path_length : t -> int

val pp : Format.formatter -> t -> unit

module For_testing : sig
  (** The topological order {!critical_path_length} walks. *)
  val topo_order : t -> int array
end
