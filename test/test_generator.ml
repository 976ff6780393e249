(* Tests for the § VIII-A instance generator: parameter ranges,
   mutation behaviour, determinism, and DAG well-formedness. *)

module G = Cloudsim.Generator
module TG = Rentcost.Task_graph
module PF = Rentcost.Platform
module PB = Rentcost.Problem
module P = Numeric.Prng

let gp =
  { G.num_graphs = 20; min_tasks = 5; max_tasks = 8; mutation_pct = 0.5 }

let cp =
  { G.num_types = 5; min_cost = 1; max_cost = 100; min_throughput = 10;
    max_throughput = 100 }

let test_platform_ranges () =
  let rng = P.create 1 in
  for _ = 1 to 50 do
    let pf = G.For_testing.platform ~rng cp in
    Alcotest.(check int) "Q" 5 (PF.num_types pf);
    for q = 0 to 4 do
      let c = PF.cost pf q and r = PF.throughput pf q in
      Alcotest.(check bool) "cost range" true (c >= 1 && c <= 100);
      Alcotest.(check bool) "throughput range" true (r >= 10 && r <= 100)
    done
  done

let test_problem_shape () =
  let rng = P.create 2 in
  for _ = 1 to 20 do
    let p = G.problem ~rng gp cp in
    Alcotest.(check int) "J" 20 (PB.num_recipes p);
    Alcotest.(check int) "Q" 5 (PB.num_types p);
    Array.iter
      (fun g ->
        let n = TG.num_tasks g in
        Alcotest.(check bool) "task count range" true (n >= 5 && n <= 8))
      (PB.recipes p)
  done

let test_determinism () =
  let p1 = G.problem ~rng:(P.create 7) gp cp in
  let p2 = G.problem ~rng:(P.create 7) gp cp in
  Alcotest.(check bool) "same platform" true
    (PF.machines (PB.platform p1) = PF.machines (PB.platform p2));
  Array.iteri
    (fun j g1 ->
      let g2 = PB.recipe p2 j in
      Alcotest.(check (array int))
        (Printf.sprintf "recipe %d types" j)
        (Array.init (TG.num_tasks g1) (TG.type_of g1))
        (Array.init (TG.num_tasks g2) (TG.type_of g2)))
    (PB.recipes p1)

let test_alternatives_related_to_initial () =
  (* With a low mutation percentage and fixed task count, alternative
     type multisets must stay close to the initial recipe's. *)
  let gp_low = { gp with G.mutation_pct = 0.1; min_tasks = 20; max_tasks = 20 } in
  let rng = P.create 3 in
  let p = G.problem ~rng gp_low cp in
  let initial = PB.type_counts p 0 in
  for j = 1 to PB.num_recipes p - 1 do
    let counts = PB.type_counts p j in
    let distance =
      Array.fold_left ( + ) 0 (Array.mapi (fun q c -> abs (c - initial.(q))) counts)
    in
    (* 10% mutation of 20 tasks = 2 retyped tasks, each moving two
       per-type counters. *)
    Alcotest.(check bool)
      (Printf.sprintf "recipe %d close to initial (distance %d)" j distance)
      true (distance <= 4)
  done

let test_zero_mutation_copies () =
  (* With 0% mutation and fixed size, alternatives are exact copies of
     the initial recipe's types. *)
  let rng = P.create 4 in
  let gp0 = { gp with G.mutation_pct = 0.0; min_tasks = 8; max_tasks = 8 } in
  let p = G.problem ~rng gp0 cp in
  let initial = Array.init 8 (TG.type_of (PB.recipe p 0)) in
  for j = 1 to PB.num_recipes p - 1 do
    Alcotest.(check (array int))
      (Printf.sprintf "recipe %d identical at 0%%" j)
      initial
      (Array.init 8 (TG.type_of (PB.recipe p j)))
  done

let test_random_dag_wellformed () =
  let rng = P.create 5 in
  for _ = 1 to 50 do
    let n = P.int_in_range rng ~lo:1 ~hi:30 in
    let types = Array.init n (fun _ -> P.int rng 4) in
    let g = G.For_testing.random_dag ~rng ~ntypes:4 ~types in
    (* Connected: only task 0 has no predecessor. *)
    Alcotest.(check (list int)) "single source" [ 0 ] (TG.sources g);
    (* Acyclicity is enforced by Task_graph.create; topo covers all. *)
    Alcotest.(check int) "topo complete" n (Array.length (TG.For_testing.topo_order g))
  done

let test_validation () =
  let rng = P.create 6 in
  Alcotest.check_raises "bad mutation"
    (Invalid_argument "Generator: mutation_pct must be in [0, 1]") (fun () ->
      ignore (G.problem ~rng { gp with G.mutation_pct = 1.5 } cp));
  Alcotest.check_raises "bad tasks"
    (Invalid_argument "Generator: bad task count range") (fun () ->
      ignore (G.problem ~rng { gp with G.min_tasks = 9; max_tasks = 8 } cp));
  Alcotest.check_raises "bad cost" (Invalid_argument "Generator: bad cost range")
    (fun () -> ignore (G.For_testing.platform ~rng { cp with G.min_cost = 0 }));
  Alcotest.check_raises "no graphs"
    (Invalid_argument "Generator: num_graphs must be positive") (fun () ->
      ignore (G.problem ~rng { gp with G.num_graphs = 0 } cp))

(* qcheck: generated instances are always solvable by every algorithm. *)
let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:20 ~name gen f)

let props =
  [ prop "generated instances are heuristic-solvable"
      QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 60))
      (fun (seed, target) ->
        let rng = P.create seed in
        let small = { gp with G.num_graphs = 4 } in
        let p = G.problem ~rng small cp in
        let res =
          Rentcost.Heuristics.search Rentcost.Heuristics.H1
            (Rentcost.Instance.compile p) ~target
        in
        Rentcost.Allocation.feasible p ~target res.Rentcost.Heuristics.allocation) ]

let suite =
  ( "generator",
    [ Alcotest.test_case "platform ranges" `Quick test_platform_ranges;
      Alcotest.test_case "problem shape" `Quick test_problem_shape;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "alternatives close to initial" `Quick
        test_alternatives_related_to_initial;
      Alcotest.test_case "zero mutation copies" `Quick test_zero_mutation_copies;
      Alcotest.test_case "random DAG well-formed" `Quick test_random_dag_wellformed;
      Alcotest.test_case "validation" `Quick test_validation ]
    @ props )
