(* Quickstart: model an application with alternative recipes, find the
   cheapest rental that sustains a target throughput, and check the
   plan by actually executing the stream.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A platform of four instance types: (hourly cost, throughput in
     tasks per time unit) — the paper's Table II. *)
  let platform =
    Rentcost.Platform.of_list [ (10, 10); (18, 20); (25, 30); (33, 40) ]
  in
  (* Three alternative recipes computing the same result. A recipe is a
     DAG of typed tasks; [chain] builds a linear pipeline. *)
  let chain types = Rentcost.Task_graph.chain ~ntypes:4 ~types in
  let problem =
    Rentcost.Problem.create platform
      [| chain [| 1; 3 |];  (* recipe 0: a type-1 task then a type-3 task *)
         chain [| 2; 3 |];
         chain [| 0; 1 |] |]
  in
  let target = 70 in
  let objective = Rentcost.Objective.min_cost ~target in
  (* Compile once; every solve of this problem reuses the instance. *)
  let instance = Rentcost.Instance.compile problem in

  (* Exact optimum: [Auto] routes shared-type recipes to the built-in
     branch-and-bound MILP solver. *)
  let exact = Rentcost.Solver.run instance ~objective in
  let best = Option.get exact.Rentcost.Solver.allocation in
  Format.printf "Cheapest rental sustaining %d results/t.u.:@.%a@.@." target
    Rentcost.Allocation.pp best;

  (* A fast heuristic alternative (H32Jump, the paper's best). *)
  let fast =
    Rentcost.Solver.run
      ~spec:(Rentcost.Solver.Heuristic Rentcost.Heuristics.H32_jump)
      ~params:{ Rentcost.Heuristics.default_params with step = 10 }
      ~rng:(Numeric.Prng.create 42) instance ~objective
  in
  Format.printf "H32Jump heuristic: cost %d (optimal is %d)@.@."
    (Option.get fast.Rentcost.Solver.allocation).Rentcost.Allocation.cost
    best.Rentcost.Allocation.cost;

  (* Trust, but verify: run 2000 stream items through the rented
     machines with a discrete-event simulation. *)
  let report =
    Streamsim.Sim.run problem best
      { Streamsim.Sim.default_config with Streamsim.Sim.items = 2000 }
  in
  Format.printf
    "Simulated execution: measured throughput %.1f (target %d), max reorder \
     buffer %d items@."
    report.Streamsim.Sim.throughput target report.Streamsim.Sim.max_reorder
