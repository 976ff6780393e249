type preset = {
  id : string;
  description : string;
  graphs : Generator.graph_params;
  cloud : Generator.cloud_params;
  targets : int list;
  default_configs : int;
  ilp_time_limit : float option;
  ilp_node_limit : int option;
}

let sweep_targets = List.init 19 (fun i -> 20 + (10 * i))

let small_graphs =
  { Generator.num_graphs = 20; min_tasks = 5; max_tasks = 8; mutation_pct = 0.5 }

let small_cloud =
  { Generator.num_types = 5; min_cost = 1; max_cost = 100;
    min_throughput = 10; max_throughput = 100 }

let medium_graphs =
  { Generator.num_graphs = 20; min_tasks = 10; max_tasks = 20; mutation_pct = 0.3 }

let medium_cloud = { small_cloud with Generator.num_types = 8 }

let large_graphs =
  { Generator.num_graphs = 20; min_tasks = 50; max_tasks = 100; mutation_pct = 0.5 }

let large_cloud =
  { Generator.num_types = 8; min_cost = 1; max_cost = 100;
    min_throughput = 10; max_throughput = 50 }

let stress_graphs =
  { Generator.num_graphs = 10; min_tasks = 100; max_tasks = 200; mutation_pct = 0.3 }

let stress_cloud =
  { Generator.num_types = 50; min_cost = 1; max_cost = 100;
    min_throughput = 5; max_throughput = 25 }

let all =
  [ { id = "fig3";
      description = "normalized cost, small recipes (Figure 3)";
      graphs = small_graphs; cloud = small_cloud; targets = sweep_targets;
      default_configs = 100; ilp_time_limit = None; ilp_node_limit = Some 20_000 };
    { id = "fig4";
      description = "times each algorithm finds the best cost, small recipes (Figure 4)";
      graphs = small_graphs; cloud = small_cloud; targets = sweep_targets;
      default_configs = 100; ilp_time_limit = None; ilp_node_limit = Some 20_000 };
    { id = "fig5";
      description = "computation time, small recipes (Figure 5)";
      graphs = small_graphs; cloud = small_cloud; targets = sweep_targets;
      default_configs = 100; ilp_time_limit = None; ilp_node_limit = Some 20_000 };
    { id = "fig6";
      description = "normalized cost, medium recipes (Figure 6)";
      graphs = medium_graphs; cloud = medium_cloud; targets = sweep_targets;
      default_configs = 100; ilp_time_limit = None; ilp_node_limit = Some 20_000 };
    { id = "fig7";
      description = "normalized cost, large recipes (Figure 7)";
      graphs = large_graphs; cloud = large_cloud; targets = sweep_targets;
      default_configs = 100; ilp_time_limit = None; ilp_node_limit = Some 20_000 };
    { id = "fig8";
      description = "ILP at its limits: computation time (Figure 8)";
      graphs = stress_graphs; cloud = stress_cloud; targets = sweep_targets;
      default_configs = 10; ilp_time_limit = Some 100.0; ilp_node_limit = None } ]

let find id = List.find_opt (fun p -> p.id = id) all

let effective_time_limit ?time_limit preset =
  match time_limit with Some _ -> time_limit | None -> preset.ilp_time_limit

let title ?time_limit ~configs ~seed preset =
  let cap =
    match effective_time_limit ?time_limit preset with
    | None -> ""
    | Some s -> Printf.sprintf ", ILP capped at %g s" s
  in
  Printf.sprintf "%s: %s%s (%d configs, seed %d)" preset.id preset.description
    cap configs seed

let run ?configs ?(seed = 2016) ?time_limit ?progress preset =
  let configs = Option.value configs ~default:preset.default_configs in
  let time_limit = effective_time_limit ?time_limit preset in
  let algorithms =
    Runner.paper_algorithms ?time_limit ?node_limit:preset.ilp_node_limit ()
  in
  Runner.sweep ?progress ~seed ~configs preset.graphs preset.cloud
    ~targets:preset.targets ~algorithms
    ~params:Rentcost.Heuristics.default_params

let table3 ?(seed = 42) () =
  let module S = Rentcost.Solver in
  let instance = Rentcost.Instance.compile Rentcost.Problem.illustrating in
  let params = { Rentcost.Heuristics.default_params with step = 10 } in
  let targets = List.init 20 (fun i -> 10 * (i + 1)) in
  let row ~rng ~label spec ~target =
    match
      (S.run ?rng ~params ~spec instance
         ~objective:(Rentcost.Objective.min_cost ~target))
        .S.allocation
    with
    | Some a -> (label, a.Rentcost.Allocation.rho, a.Rentcost.Allocation.cost)
    | None -> (label, [||], -1)
  in
  List.map
    (fun target ->
      let ilp = row ~rng:None ~label:"ILP" S.Exact_ilp ~target in
      let heuristics =
        List.map
          (fun name ->
            (* A fresh fixed-seed stream per heuristic, as in the
               paper's independent per-algorithm runs. *)
            row
              ~rng:(Some (Numeric.Prng.create seed))
              ~label:(Rentcost.Heuristics.name_to_string name)
              (S.Heuristic name) ~target)
          [ Rentcost.Heuristics.H1; H2; H31; H32; H32_jump ]
      in
      (target, ilp :: heuristics))
    targets
