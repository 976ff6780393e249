module H = Rentcost.Heuristics
module S = Rentcost.Solver

type algorithm =
  | Ilp of { time_limit : float option; node_limit : int option }
  | Heuristic of H.name

let paper_algorithms ?time_limit ?node_limit () =
  Ilp { time_limit; node_limit }
  :: List.map (fun n -> Heuristic n) [ H.H1; H.H2; H.H31; H.H32; H.H32_jump ]

let algorithm_name = function
  | Ilp _ -> "ILP"
  | Heuristic n -> H.name_to_string n

let algorithm_spec = function
  | Ilp _ -> S.Exact_ilp
  | Heuristic n -> S.Heuristic n

let algorithm_budget = function
  | Ilp { time_limit; node_limit } ->
    { Rentcost.Budget.deadline = time_limit; node_cap = node_limit; eval_cap = None }
  | Heuristic _ -> Rentcost.Budget.unlimited

type measurement = {
  config : int;
  target : int;
  algorithm : string;
  cost : int;
  proved_optimal : bool;
  telemetry : S.telemetry;
}

let solve_one ~rng ~params instance ~target alg =
  (* All timing, node/evaluation accounting and ILP-timeout fallback
     live in [Solver.run]; the runner only labels rows. *)
  let o =
    S.run ~budget:(algorithm_budget alg) ~rng ~params
      ~spec:(algorithm_spec alg) instance
      ~objective:(Rentcost.Objective.min_cost ~target)
  in
  match o.S.allocation with
  | Some a ->
    (a.Rentcost.Allocation.cost, o.S.status = S.Optimal, o.S.telemetry)
  | None ->
    (* Unreachable for target >= 0: the rental problem always has a
       feasible point and the solver degrades rather than giving up. *)
    assert false

let run_instance ~rng ~config problem ~targets ~algorithms ~params =
  (* One compile serves the whole targets × algorithms grid. *)
  let instance = Rentcost.Instance.compile problem in
  List.concat_map
    (fun target ->
      List.map
        (fun alg ->
          let alg_rng = Numeric.Prng.split rng in
          let cost, proved_optimal, telemetry =
            solve_one ~rng:alg_rng ~params instance ~target alg
          in
          { config; target; algorithm = algorithm_name alg; cost;
            proved_optimal; telemetry })
        algorithms)
    targets

let sweep ?(progress = fun _ -> ()) ~seed ~configs gp cp ~targets ~algorithms ~params =
  let rng = Numeric.Prng.create seed in
  List.concat_map
    (fun config ->
      let instance_rng = Numeric.Prng.split rng in
      let problem = Generator.problem ~rng:instance_rng gp cp in
      let ms =
        run_instance ~rng:instance_rng ~config problem ~targets ~algorithms ~params
      in
      progress config;
      ms)
    (List.init configs Fun.id)
