(* Best-bound branch and bound over exact LP relaxations of a pure
   integer program: every variable is integral, and every coefficient
   is an int, so every integer point's objective is an int and each
   LP bound strengthens to its ceiling.

   Every model minimizes. A node carries the extra variable bounds
   accumulated along its branch plus the parent relaxation objective,
   which is a valid dual bound used both for node ordering and for
   pruning before the node's own relaxation is solved.

   Every decision is exact, but a node does not pay for exact values
   it does not need. A relaxation reports its objective as a float
   interval around native terms ([Lp.Simplex.objective]) and its
   point as each row's own native pair. Node keys compare by their
   intervals and go exact only when two overlap (siblings share one
   key, which is equal to itself); the strengthened key is the
   ceiling of both interval ends and goes exact only when they
   differ; an integral node makes its objective exact before it
   becomes the incumbent. Branching reads the point through
   [Lp.Simplex.most_fractional] and [Lp.Simplex.floor], whichever
   engine made it. Incumbents, the strengthened keys, the cutoff and
   branch bounds are ints.
   The root goes through [Lp.Simplex.solve_with_snapshot], and every
   other node through [Lp.Simplex.reoptimize], which sets its branching
   bound on a column of the parent's final tableau, which keeps its
   rows, and runs a few bounded dual pivots. Both children of a node
   share its tableau: the first one popped works on a copy of its
   rows, and the last one takes the rows themselves. The root's
   snapshot is kept for the whole solve. The tableaus retained by open
   nodes are a cache capped at [snapshot_budget] words: a child
   created past the cap carries none, and [Lp.Simplex.replay] folds its
   whole path of bounds into the root's tableau instead. Which engine
   answered, and whether a child overflowed and was solved cold, stays
   inside [Lp.Simplex].
   At every fractional node that still beats the incumbent, the
   caller's primal heuristic ([?round]) may offer a cheaper integer
   point; it is checked exactly before it becomes the incumbent, and
   the node branches only if its bound still beats it. A caller's
   [?cutoff] prunes like an incumbent with no point behind it, so a
   search under a cutoff runs the same model and the same tableaus as
   one without. Every decision is exact and deterministic, so the tree
   is a function of the input alone. *)

type status = Optimal | Feasible | Infeasible | Unbounded | Unknown

let incumbents_counter = Telemetry.counter Telemetry.milp_incumbents

let solve_nodes_hist =
  Telemetry.histogram Telemetry.milp_solve_nodes
    ~bounds:[| 1.; 10.; 100.; 1_000.; 10_000. |]

(* Per-node spans would double the clock traffic of small nodes, so
   only every 64th node (and the root) is timed individually; the LP
   engines underneath still record a span per relaxation solve. *)
let node_sampled n = (n - 1) land 63 = 0

type solution = { objective : int; values : int array }

type outcome = {
  status : status;
  solution : solution option;
  best_bound : int option;
  nodes : int;
  peak_retained_words : int;
  elapsed : float;
}

(* Heap words that the parent tableaus of open nodes, the root's
   included, may hold at once, per solve: 2M words (16 MiB on 64-bit).
   The node-capped benchmark solves peak well under it
   (BENCH_numeric.json records the peak); an uncapped solve of tens of
   thousands of nodes reaches it and from then on replays the children
   it cannot keep a tableau for on the root's, trading pivots for
   memory. *)
let snapshot_budget = 1 lsl 21

(* A parent tableau shared by the open children that still need it.
   The last holder consumes it: its child may pivot in these rows. The
   solve itself holds the root's, which is never consumed. *)
type shared = { snapshot : Lp.Simplex.snapshot; mutable holders : int }

(* Whether last holders consume their parent's tableau; off only under
   [For_testing.always_copying]. Domain-local, so a test that turns it off leaves
   solves on other domains alone. *)
let consume_key = Domain.DLS.new_key (fun () -> true)

type node = {
  key : Lp.Simplex.objective;
      (* parent relaxation objective: a valid lower bound; both
         children share it *)
  skey : int;  (* [key]'s ceiling, computed once for both children *)
  depth : int;
  seq : int;  (* creation order, for deterministic tie-breaking *)
  extra : (Lp.Model.var * Lp.Simplex.direction * int) list;
      (* branch bounds, newest first *)
  mutable parent : shared option;
      (* dropped once used: the heap's vacated slots may still point
         at a popped node *)
}

module Best_queue = Pqueue.Make (struct
  type t = node

  (* The ceiling is monotone, so this is the order of [key] then
     [seq]; the integer [skey] decides most compares cheaply, and keys
     compare by their intervals. *)
  let compare a b =
    match Int.compare a.skey b.skey with
    | 0 -> (
      match Lp.Simplex.compare_objectives a.key b.key with
      | 0 -> compare a.seq b.seq
      | c -> c)
    | c -> c
end)

let solve ?time_limit ?node_limit ?cutoff ?round ?priority model =
  let t0 = Unix.gettimeofday () in
  let queue = Best_queue.create () in
  (* Branching groups: the caller's priority classes, then a catch-all
     group for the remaining variables. *)
  let groups =
    let listed = match priority with None -> [] | Some gs -> gs in
    let in_listed = List.concat listed in
    let rest =
      List.filter
        (fun v -> not (List.mem v in_listed))
        (List.init (Lp.Model.num_vars model) Fun.id)
    in
    listed @ [ rest ]
  in
  let incumbent = ref None in
  (* What a bound must beat: the incumbent's objective, else the
     cutoff, which every incumbent beats. *)
  let to_beat () =
    match !incumbent with Some (inc_obj, _) -> Some inc_obj | None -> cutoff
  in
  let better_than_incumbent bound =
    match to_beat () with None -> true | Some b -> bound < b
  in
  (* The primal heuristic at a fractional node: its point, if any, is
     checked exactly and replaces the incumbent when strictly better. *)
  let try_round point =
    match round with
    | None -> ()
    | Some f -> (
      match f ~incumbent:(to_beat ()) point with
      | None -> ()
      | Some values ->
        if not (Lp.Model.check_feasible model values) then
          invalid_arg
            "Milp.Solver.solve: rounded point is not a feasible integer point";
        let o = Lp.Model.objective_value model values in
        if better_than_incumbent o then begin
          Telemetry.bump incumbents_counter;
          Telemetry.Progress.emit ~incumbent:(float_of_int o)
            ~source:"milp.round" ();
          incumbent := Some (o, Array.copy values)
        end)
  in
  (* Last dual bound handed to the convergence timeline. Bound events
     are emitted only on strict improvement, so the timeline stays
     monotone. *)
  let last_bound = ref None in
  let emit_bound k =
    let improved =
      match !last_bound with None -> true | Some b -> k > b
    in
    if improved then begin
      last_bound := Some k;
      Telemetry.Progress.emit ~bound:(float_of_int k) ~source:"milp" ()
    end
  in
  let nodes = ref 0 in
  let seq = ref 0 in
  let out_of_budget () =
    (match time_limit with
     | Some tl -> Unix.gettimeofday () -. t0 > tl
     | None -> false)
    || (match node_limit with Some nl -> !nodes >= nl | None -> false)
  in
  let root_status = ref None in
  let consume = Domain.DLS.get consume_key in
  (* Words held by the [shared] tableaus of open nodes and the root's,
     and their most at any one time. *)
  let retained = ref 0 and peak = ref 0 in
  let release node =
    match node.parent with
    | Some sh ->
      node.parent <- None;
      sh.holders <- sh.holders - 1;
      if sh.holders = 0 then
        retained := !retained - Lp.Simplex.snapshot_words sh.snapshot
    | None -> ()
  in
  (* The root's tableau is kept whatever its size, with the solve as
     a third holder: its last child does not consume it, and [release]
     never frees it. *)
  let share ~is_root = function
    | Some snapshot
      when is_root
           || !retained + Lp.Simplex.snapshot_words snapshot <= snapshot_budget ->
      retained := !retained + Lp.Simplex.snapshot_words snapshot;
      peak := Int.max !peak !retained;
      Some { snapshot; holders = (if is_root then 3 else 2) }
    | _ -> None
  in
  (* The root's tableau, for the nodes created past the budget. *)
  let root = ref None in
  (* The node's relaxation and its final tableau: from the parent's
     tableau when there is one, else the path replayed on the root's.
     Either way exactly one of numeric.fast_solves / numeric.fallbacks
     moves. The last holder of the parent's tableau owns it: [release]
     follows and nothing reads it again. *)
  let relax node =
    match (node.parent, node.extra, !root) with
    | Some sh, (var, dir, bound) :: _, _ ->
      let own = consume && sh.holders = 1 in
      Lp.Simplex.reoptimize ~own sh.snapshot ~var ~dir ~bound
    | None, _ :: _, Some root -> Lp.Simplex.replay root.snapshot node.extra
    | _ -> Lp.Simplex.solve_with_snapshot model
  in
  Best_queue.push queue
    { key = Lp.Simplex.objective_of_terms []; skey = 0; depth = 0;
      seq = 0; extra = []; parent = None };
  let interrupted = ref false in
  (* A tree that closes exactly at a limit is proved, not
     interrupted: the budget is only checked while work is left. *)
  let rec loop () =
    if Best_queue.is_empty queue then ()
    else if out_of_budget () then interrupted := true
    else begin
      match Best_queue.pop queue with
      | None -> ()
      | Some node ->
        let is_root = node.depth = 0 in
        (* Prune on the inherited parent bound before paying for an LP
           solve (never prune the root: its key is a placeholder). *)
        if (not is_root) && not (better_than_incumbent node.skey) then begin
          release node;
          loop ()
        end
        else begin
          incr nodes;
          Telemetry.Effort.node ();
          (* Under best-bound ordering the popped key is the least
             over all open subtrees, hence a valid global dual
             bound. Sampled like the node spans to keep timelines
             sparse on big trees. *)
          if (not is_root) && node_sampled !nodes then
            emit_bound node.skey;
          let relaxation, snapshot =
            if Telemetry.enabled () && node_sampled !nodes then
              Telemetry.Span.with_span
                ~attrs:
                  [ ("node", string_of_int !nodes);
                    ("depth", string_of_int node.depth) ]
                "milp.node"
                (fun () -> relax node)
            else relax node
          in
          release node;
          (match relaxation with
           | Lp.Simplex.Infeasible ->
             if is_root then root_status := Some Infeasible
           | Lp.Simplex.Unbounded ->
             (* With a bounded root every child is bounded; an unbounded
                relaxation can only be the root. *)
             root_status := Some Unbounded;
             interrupted := true
           | Lp.Simplex.Optimal { objective = lp_obj; point } -> (
             (* A bound past max_int holds no point with an int
                objective: the node is pruned like an infeasible one. *)
             match Lp.Simplex.ceil_objective lp_obj with
             | None -> ()
             | Some bound ->
               (* The root relaxation is a global dual bound. *)
               if is_root then emit_bound bound;
               if better_than_incumbent bound then begin
                 match Lp.Simplex.most_fractional point groups with
                 | None ->
                   (* Integral relaxation: new incumbent, made exact. *)
                   let o = Lp.Simplex.int_objective lp_obj in
                   Telemetry.bump incumbents_counter;
                   Telemetry.Progress.emit ~incumbent:(float_of_int o)
                     ~source:"milp" ();
                   incumbent := Some (o, Lp.Simplex.int_values point)
                 | Some v ->
                   try_round point;
                   (* A rounded point may have closed this node's gap. *)
                   if better_than_incumbent bound then begin
                     let down = Lp.Simplex.floor point v in
                     let up = Numeric.Kernel.add_exn down 1 in
                     let parent = share ~is_root snapshot in
                     if is_root then root := parent;
                     let mk dir b =
                       incr seq;
                       { key = lp_obj; skey = bound; depth = node.depth + 1;
                         seq = !seq; extra = (v, dir, b) :: node.extra; parent }
                     in
                     Best_queue.push queue (mk Lower up);
                     Best_queue.push queue (mk Upper down)
                   end
               end));
          if not !interrupted then loop ()
        end
    end
  in
  Telemetry.Span.with_span "milp.search" loop;
  Telemetry.observe solve_nodes_hist (float_of_int !nodes);
  let elapsed = Unix.gettimeofday () -. t0 in
  let outcome status solution best_bound =
    { status; solution; best_bound; nodes = !nodes; peak_retained_words = !peak;
      elapsed }
  in
  match !root_status with
  | Some Infeasible -> outcome Infeasible None None
  | Some Unbounded -> outcome Unbounded None None
  | _ ->
    let solution =
      Option.map (fun (objective, values) -> { objective; values }) !incumbent
    in
    if not !interrupted then begin
      match solution with
      | Some sol ->
        (* Close the timeline: the proof pins the dual bound to the
           incumbent, so both sequences end at the optimum. *)
        Telemetry.Progress.emit
          ~incumbent:(float_of_int sol.objective)
          ~bound:(float_of_int sol.objective)
          ~source:"milp.proved" ();
        outcome Optimal (Some sol) (Some sol.objective)
      | None ->
        (* Exhausted the tree without an integer point that beats the
           cutoff. *)
        outcome Infeasible None None
    end
    else begin
      (* Limit hit: the dual bound is the least key still queued,
         possibly improved by the incumbent. *)
      let queued_bound =
        Best_queue.fold
          (fun acc n ->
            match acc with
            | None -> Some n.skey
            | Some b -> Some (Int.min b n.skey))
          None queue
      in
      let best_bound =
        match (queued_bound, !incumbent) with
        | Some qb, Some (io, _) -> Some (Int.min qb io)
        | Some b, None | None, Some (b, _) -> Some b
        | None, None -> None
      in
      let status = if solution = None then Unknown else Feasible in
      outcome status solution best_bound
    end

module For_testing = struct
  let always_copying f =
    let saved = Domain.DLS.get consume_key in
    Domain.DLS.set consume_key false;
    Fun.protect ~finally:(fun () -> Domain.DLS.set consume_key saved) f
end
