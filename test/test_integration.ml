(* End-to-end integration tests: generate → solve with every method →
   cross-check optima → execute the winning allocation on the
   discrete-event simulator. These tie all seven libraries together. *)

module G = Cloudsim.Generator
module PB = Rentcost.Problem
module AL = Rentcost.Allocation
module H = Rentcost.Heuristics
module P = Numeric.Prng

(* Small shared-type instances where the exhaustive oracle is viable. *)
let small_instance seed =
  let rng = P.create seed in
  G.problem ~rng
    { G.num_graphs = 3; min_tasks = 2; max_tasks = 3; mutation_pct = 0.5 }
    { G.num_types = 3; min_cost = 2; max_cost = 30; min_throughput = 5;
      max_throughput = 25 }

let test_full_stack_agreement () =
  List.iter
    (fun seed ->
      let p = small_instance seed in
      let inst = Rentcost.Instance.compile p in
      let target = 15 in
      let opt = (Rentcost.Exhaustive.run inst ~target).AL.cost in
      (* ILP finds the same optimum. *)
      let ilp =
        Option.get (Rentcost.Ilp.optimize inst ~target).Rentcost.Ilp.allocation
      in
      Alcotest.(check int) (Printf.sprintf "ILP=brute seed %d" seed) opt ilp.AL.cost;
      (* Heuristics are feasible and no better than the optimum. *)
      List.iter
        (fun name ->
          let res = H.search ~rng:(P.create 1) name inst ~target in
          Alcotest.(check bool)
            (Printf.sprintf "%s feasible" (H.name_to_string name))
            true
            (AL.feasible p ~target res.H.allocation);
          Alcotest.(check bool)
            (Printf.sprintf "%s >= opt" (H.name_to_string name))
            true
            (res.H.allocation.AL.cost >= opt))
        H.all;
      (* The optimal allocation really sustains the target. *)
      Alcotest.(check bool)
        (Printf.sprintf "simulation sustains seed %d" seed)
        true
        (Test_streamsim.sustains p ilp ~target))
    [ 1; 2; 3; 4; 5 ]

let test_dp_vs_ilp_on_disjoint_generated () =
  (* Force disjointness by giving each recipe its own band of types. *)
  let rng = P.create 9 in
  for _ = 1 to 5 do
    let platform =
      G.For_testing.platform ~rng
        { G.num_types = 4; min_cost = 2; max_cost = 30; min_throughput = 5;
          max_throughput = 25 }
    in
    let types1 = Array.init (P.int_in_range rng ~lo:1 ~hi:3) (fun _ -> P.int rng 2) in
    let types2 =
      Array.init (P.int_in_range rng ~lo:1 ~hi:3) (fun _ -> 2 + P.int rng 2)
    in
    let p =
      PB.create platform
        [| G.For_testing.random_dag ~rng ~ntypes:4 ~types:types1;
           G.For_testing.random_dag ~rng ~ntypes:4 ~types:types2 |]
    in
    let inst = Rentcost.Instance.compile p in
    let target = 20 in
    let dp = (Rentcost.Dp_disjoint.run inst ~target).AL.cost in
    let ilp =
      (Option.get (Rentcost.Ilp.optimize inst ~target).Rentcost.Ilp.allocation)
        .AL.cost
    in
    Alcotest.(check int) "DP = ILP" ilp dp
  done

let test_node_limited_ilp_still_good () =
  (* A 1-node budget returns the root's rounding. Here it meets the
     root's LP bound, so the single node proves it optimal. *)
  let p = small_instance 2 in
  let inst = Rentcost.Instance.compile p in
  let target = 25 in
  let o = Rentcost.Ilp.optimize ~node_limit:1 inst ~target in
  match o.Rentcost.Ilp.allocation with
  | None -> Alcotest.fail "the root's rounding should be an incumbent"
  | Some a ->
    Alcotest.(check bool) "feasible" true (AL.feasible p ~target a);
    Alcotest.(check int) "one node" 1 o.Rentcost.Ilp.nodes;
    Alcotest.(check bool) "proved optimal" true o.Rentcost.Ilp.proved_optimal;
    Alcotest.(check int) "the exhaustive optimum"
      (Rentcost.Exhaustive.run inst ~target).AL.cost a.AL.cost

let suite =
  ( "integration",
    [ Alcotest.test_case "full stack agreement" `Slow test_full_stack_agreement;
      Alcotest.test_case "DP vs ILP on generated disjoint" `Slow
        test_dp_vs_ilp_on_disjoint_generated;
      Alcotest.test_case "node-limited ILP still good" `Quick
        test_node_limited_ilp_still_good ] )
