module P = Numeric.Prng
module Solver = Rentcost.Solver
module Heuristics = Rentcost.Heuristics
module Budget = Rentcost.Budget
module Instance = Rentcost.Instance
module Allocation = Rentcost.Allocation

type strategy = Heuristic of Heuristics.name | Milp

let strategy_spec = function
  | Heuristic n -> Solver.Heuristic n
  | Milp -> Solver.Exact_ilp

let strategy_to_string = function
  | Milp -> "milp"
  | Heuristic n -> String.lowercase_ascii (Heuristics.name_to_string n)

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "milp" | "ilp" -> Some Milp
  | s ->
    (match Solver.spec_of_string s with
     | Some (Solver.Heuristic n) -> Some (Heuristic n)
     | _ -> None)

let default_strategies =
  [ Heuristic Heuristics.H32_jump;
    Heuristic Heuristics.H32;
    Heuristic Heuristics.H31;
    Heuristic Heuristics.H2;
    Heuristic Heuristics.H1 ]

let portfolio_hist =
  Telemetry.histogram Telemetry.parallel_portfolio_seconds
    ~bounds:[| 0.0001; 0.001; 0.01; 0.1; 1.0; 10.0 |]

(* Winner = lowest cost, ties by lowest rank. Ranks are distinct, so
   the order is total and the minimum unique — any completion order
   (any permutation of [outcomes]) reduces to the same winner. *)
let reduce outcomes =
  let cost (_, (o : Solver.outcome)) =
    match o.Solver.allocation with
    | Some a -> Some a.Allocation.cost
    | None -> None
  in
  List.fold_left
    (fun best entry ->
      match (cost entry, best) with
      | None, _ -> best
      | Some _, None -> Some entry
      | Some c, Some b ->
        let cb = Option.get (cost b) in
        if c < cb || (c = cb && fst entry < fst b) then Some entry else best)
    None outcomes

(* Per-rank PRNGs, derived without advancing the caller's [rng]:
   rank 0 runs on a plain copy (so the portfolio provably contains the
   sequential rank-0 run), ranks 1.. on successive splits of a second
   copy. An explicit loop fixes the derivation order — Array.init's
   evaluation order is unspecified and would make rank seeds
   machine-dependent. *)
let strategy_rngs ~rng n =
  let rngs = Array.make n (P.copy rng) in
  let parent = P.copy rng in
  for k = 1 to n - 1 do
    rngs.(k) <- P.split parent
  done;
  rngs

let run ?budget ?rng ?params ?warm_start ?(strategies = default_strategies)
    ?pool ?(domains = 1) instance ~target =
  if strategies = [] then invalid_arg "Portfolio.run: no strategies";
  let rng = match rng with Some r -> r | None -> P.create 0x5EED in
  (* 0x5EED matches Heuristics.default_seed, so an rng-less portfolio
     rank 0 retraces an rng-less Solver.run. *)
  let n = List.length strategies in
  let rngs = strategy_rngs ~rng n in
  let t0 = Unix.gettimeofday () in
  let race pool =
    Pool.run_collect pool
      (List.mapi
         (fun rank strat () ->
           Telemetry.Span.with_span
             ~attrs:
               [ ("strategy", strategy_to_string strat);
                 ("rank", string_of_int rank) ]
             "parallel.task"
             (fun () ->
               Solver.run ?budget ~rng:rngs.(rank) ?params ?warm_start
                 ~spec:(strategy_spec strat) instance
                 ~objective:(Rentcost.Objective.min_cost ~target)))
         strategies)
  in
  let run () =
    match pool with
    | Some p -> race p
    | None -> Pool.with_pool ~domains race
  in
  let outcomes =
    Telemetry.Span.with_span
      ~attrs:
        [ ("domains",
           string_of_int
             (match pool with Some p -> Pool.domains p | None -> domains));
          ("strategies", String.concat "," (List.map strategy_to_string strategies))
        ]
      "parallel.portfolio" run
  in
  let wall_time = Unix.gettimeofday () -. t0 in
  Telemetry.observe portfolio_hist wall_time;
  (* Each strategy metered its own domain's effort; the race's effort
     is their sum. *)
  let total f =
    List.fold_left
      (fun acc (_, (o : Solver.outcome)) -> acc + f o.Solver.telemetry)
      0 outcomes
  in
  let telemetry_of engine warm_started =
    { Solver.engine;
      wall_time;
      evaluations = total (fun t -> t.Solver.evaluations);
      pivots = total (fun t -> t.Solver.pivots);
      nodes = total (fun t -> t.Solver.nodes);
      pruned_recipes = Instance.num_pruned instance;
      warm_started }
  in
  match reduce outcomes with
  | None ->
    (* Only reachable when every strategy reported Infeasible, which a
       non-negative target never does. *)
    { Solver.status = Solver.Infeasible;
      allocation = None;
      throughput = 0;
      telemetry = telemetry_of (strategy_spec (List.hd strategies)) false;
      convergence = [] }
  | Some (rank, winner) ->
    let strat = List.nth strategies rank in
    Telemetry.bump
      (Telemetry.counter (Telemetry.parallel_win (strategy_to_string strat)));
    let winning_cost =
      match winner.Solver.allocation with
      | Some a -> a.Allocation.cost
      | None -> assert false
    in
    (* Optimal if *some* strategy proved the winning cost optimal
       (e.g. a budgeted MILP that finished), even if a lower rank tied
       it; Budget_exhausted only when every strategy was cut short. *)
    let proven_optimal =
      List.exists
        (fun (_, (o : Solver.outcome)) ->
          o.Solver.status = Solver.Optimal
          && match o.Solver.allocation with
             | Some a -> a.Allocation.cost = winning_cost
             | None -> false)
        outcomes
    in
    let all_exhausted =
      List.for_all
        (fun (_, (o : Solver.outcome)) ->
          o.Solver.status = Solver.Budget_exhausted)
        outcomes
    in
    let status =
      if proven_optimal then Solver.Optimal
      else if all_exhausted then Solver.Budget_exhausted
      else Solver.Feasible
    in
    { Solver.status;
      allocation = winner.Solver.allocation;
      throughput = winner.Solver.throughput;
      telemetry =
        telemetry_of winner.Solver.telemetry.Solver.engine
          winner.Solver.telemetry.Solver.warm_started;
      (* Each worker's Solver.run collected on its own domain; surface
         the winning strategy's timeline. *)
      convergence = winner.Solver.convergence }
