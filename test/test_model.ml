(* Tests for the problem model: task graphs, platform, problem
   classification (black-box / disjoint / shared) and allocations. *)

module TG = Rentcost.Task_graph
module PF = Rentcost.Platform
module PB = Rentcost.Problem
module AL = Rentcost.Allocation

(* Tasks without successors, ascending. *)
let sinks g =
  List.filter (fun i -> TG.succs g i = [||]) (List.init (TG.num_tasks g) Fun.id)

(* --- Task_graph --- *)

let test_graph_basic () =
  let g = TG.create ~ntypes:3 ~types:[| 0; 1; 1; 2 |] ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  Alcotest.(check int) "tasks" 4 (TG.num_tasks g);
  Alcotest.(check int) "types" 3 (TG.num_types g);
  Alcotest.(check int) "type of 2" 1 (TG.type_of g 2);
  Alcotest.(check (array int)) "type counts" [| 1; 2; 1 |] (TG.type_counts g);
  Alcotest.(check (list int)) "types used" [ 0; 1; 2 ] (TG.types_used g);
  Alcotest.(check (list int)) "sources" [ 0 ] (TG.sources g);
  Alcotest.(check (list int)) "sinks" [ 3 ] (sinks g);
  Alcotest.(check int) "critical path" 3 (TG.critical_path_length g)

let test_graph_topo () =
  let g = TG.create ~ntypes:2 ~types:[| 0; 1; 0 |] ~edges:[ (2, 1); (1, 0) ] in
  Alcotest.(check (array int)) "topo order" [| 2; 1; 0 |] (TG.For_testing.topo_order g)

let test_graph_validation () =
  let inv msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  ignore inv;
  Alcotest.check_raises "cycle"
    (Invalid_argument "Task_graph.create: precedence graph has a cycle") (fun () ->
      ignore (TG.create ~ntypes:1 ~types:[| 0; 0 |] ~edges:[ (0, 1); (1, 0) ]));
  Alcotest.check_raises "bad type"
    (Invalid_argument "Task_graph.create: task type out of range") (fun () ->
      ignore (TG.create ~ntypes:1 ~types:[| 1 |] ~edges:[]));
  Alcotest.check_raises "self loop"
    (Invalid_argument "Task_graph.create: bad precedence edge") (fun () ->
      ignore (TG.create ~ntypes:1 ~types:[| 0; 0 |] ~edges:[ (1, 1) ]));
  Alcotest.check_raises "empty"
    (Invalid_argument "Task_graph.create: a recipe needs at least one task") (fun () ->
      ignore (TG.create ~ntypes:1 ~types:[||] ~edges:[]))

let test_graph_chain () =
  let g = TG.chain ~ntypes:4 ~types:[| 3; 1; 2 |] in
  Alcotest.(check int) "edges" 2 (List.length (TG.edges g));
  Alcotest.(check int) "critical path = tasks" 3 (TG.critical_path_length g);
  Alcotest.(check (list int)) "single source" [ 0 ] (TG.sources g);
  Alcotest.(check (list int)) "single sink" [ 2 ] (sinks g)

let test_graph_diamond_pp () =
  let g = TG.create ~ntypes:2 ~types:[| 0; 1; 1; 0 |] ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let s = Format.asprintf "%a" TG.pp g in
  Alcotest.(check bool) "pp mentions tasks" true
    (String.length s > 0 && String.index_opt s '4' <> None)

(* --- Platform --- *)

let test_platform_basic () =
  let p = PF.of_list [ (10, 10); (18, 20) ] in
  Alcotest.(check int) "types" 2 (PF.num_types p);
  Alcotest.(check int) "cost" 18 (PF.cost p 1);
  Alcotest.(check int) "throughput" 20 (PF.throughput p 1)

let test_platform_validation () =
  Alcotest.check_raises "zero cost" (Invalid_argument "Platform.create: cost must be positive")
    (fun () -> ignore (PF.of_list [ (0, 5) ]));
  Alcotest.check_raises "zero throughput"
    (Invalid_argument "Platform.create: throughput must be positive") (fun () ->
      ignore (PF.of_list [ (5, 0) ]));
  Alcotest.check_raises "empty" (Invalid_argument "Platform.create: no machine types")
    (fun () -> ignore (PF.create [||]))

let test_platform_table2 () =
  let p = PF.table2 in
  Alcotest.(check int) "Q" 4 (PF.num_types p);
  Alcotest.(check (list int)) "throughputs" [ 10; 20; 30; 40 ]
    (List.init 4 (PF.throughput p));
  Alcotest.(check (list int)) "costs" [ 10; 18; 25; 33 ] (List.init 4 (PF.cost p))

(* --- Problem --- *)

let test_problem_illustrating () =
  let p = PB.illustrating in
  Alcotest.(check int) "J" 3 (PB.num_recipes p);
  Alcotest.(check int) "Q" 4 (PB.num_types p);
  (* n^j_q checks against Figure 2 *)
  Alcotest.(check (array int)) "recipe 0 counts" [| 0; 1; 0; 1 |] (PB.type_counts p 0);
  Alcotest.(check (array int)) "recipe 1 counts" [| 0; 0; 1; 1 |] (PB.type_counts p 1);
  Alcotest.(check (array int)) "recipe 2 counts" [| 1; 1; 0; 0 |] (PB.type_counts p 2);
  Alcotest.(check bool) "shares types" false (PB.is_disjoint p);
  Alcotest.(check bool) "not disjoint" false (PB.is_disjoint p);
  Alcotest.(check bool) "not blackbox" false (PB.For_testing.is_blackbox p)

let test_problem_classification () =
  let platform = PF.of_list [ (1, 1); (1, 1); (1, 1) ] in
  let single q = TG.create ~ntypes:3 ~types:[| q |] ~edges:[] in
  let blackbox = PB.create platform [| single 0; single 1; single 2 |] in
  Alcotest.(check bool) "blackbox" true (PB.For_testing.is_blackbox blackbox);
  Alcotest.(check bool) "blackbox disjoint" true (PB.is_disjoint blackbox);
  let disjoint =
    PB.create platform
      [| TG.chain ~ntypes:3 ~types:[| 0; 0 |]; TG.chain ~ntypes:3 ~types:[| 1; 2 |] |]
  in
  Alcotest.(check bool) "disjoint" true (PB.is_disjoint disjoint);
  Alcotest.(check bool) "disjoint not blackbox" false
    (PB.For_testing.is_blackbox disjoint);
  let shared =
    PB.create platform
      [| TG.chain ~ntypes:3 ~types:[| 0; 1 |]; TG.chain ~ntypes:3 ~types:[| 1; 2 |] |]
  in
  Alcotest.(check bool) "shared" false (PB.is_disjoint shared)

let test_problem_validation () =
  Alcotest.check_raises "no recipes" (Invalid_argument "Problem.create: no recipes")
    (fun () -> ignore (PB.create PF.table2 [||]));
  Alcotest.check_raises "type mismatch"
    (Invalid_argument "Problem.create: recipe type count differs from platform")
    (fun () ->
      ignore (PB.create PF.table2 [| TG.chain ~ntypes:2 ~types:[| 0 |] |]))

(* --- Allocation --- *)

let test_loads () =
  let p = PB.illustrating in
  (* rho = (10, 30, 30): loads per type from the paper's § VII walk-through *)
  let loads = AL.For_testing.loads p ~rho:[| 10; 30; 30 |] in
  Alcotest.(check (array int)) "loads" [| 30; 40; 30; 40 |] loads

let test_of_rho_paper_example () =
  let p = PB.illustrating in
  let a = AL.of_rho p ~rho:[| 10; 30; 30 |] in
  Alcotest.(check (array int)) "machines (3,2,1,1)" [| 3; 2; 1; 1 |] a.AL.machines;
  Alcotest.(check int) "cost 124" 124 a.AL.cost;
  Alcotest.(check int) "total rho" 70 (AL.total_rho a);
  Alcotest.(check bool) "feasible at 70" true (AL.feasible p ~target:70 a);
  Alcotest.(check bool) "not feasible at 71" false (AL.feasible p ~target:71 a)

let test_of_rho_zero () =
  let p = PB.illustrating in
  let a = AL.of_rho p ~rho:[| 0; 0; 0 |] in
  Alcotest.(check int) "zero cost" 0 a.AL.cost;
  Alcotest.(check (array int)) "no machines" [| 0; 0; 0; 0 |] a.AL.machines

let test_single () =
  let p = PB.illustrating in
  (* Recipe 2 (types t1, t2) at ρ=10: one P1 (10) + one P2 (18) = 28,
     the H1 row of Table III. *)
  let a = AL.of_rho p ~rho:[| 0; 0; 10 |] in
  Alcotest.(check int) "cost 28" 28 a.AL.cost

let test_make_validation () =
  let p = PB.illustrating in
  Alcotest.check_raises "under-provisioned"
    (Invalid_argument "Allocation.make: under-provisioned type") (fun () ->
      ignore (AL.make p ~rho:[| 10; 0; 0 |] ~machines:[| 0; 0; 0; 0 |]));
  Alcotest.check_raises "wrong rho size" (Invalid_argument "Allocation: rho has wrong length")
    (fun () -> ignore (AL.of_rho p ~rho:[| 1 |]));
  Alcotest.check_raises "negative rho" (Invalid_argument "Allocation: negative throughput")
    (fun () -> ignore (AL.of_rho p ~rho:[| -1; 0; 1 |]))

let test_make_overprovisioned_ok () =
  let p = PB.illustrating in
  let a = AL.make p ~rho:[| 10; 0; 0 |] ~machines:[| 5; 5; 5; 5 |] in
  Alcotest.(check int) "cost of explicit fleet" (5 * (10 + 18 + 25 + 33)) a.AL.cost;
  Alcotest.(check bool) "feasible" true (AL.feasible p ~target:10 a)

(* qcheck: of_rho produces the cheapest fleet for its split. *)
let rho_gen = QCheck2.Gen.(array_size (QCheck2.Gen.return 3) (int_range 0 50))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

let props =
  [ prop "of_rho machines are minimal" rho_gen (fun rho ->
        let p = PB.illustrating in
        let a = AL.of_rho p ~rho in
        let loads = AL.For_testing.loads p ~rho in
        let platform = PB.platform p in
        Array.for_all Fun.id
          (Array.mapi
             (fun q x ->
               let r = PF.throughput platform q in
               (x * r >= loads.(q)) && (x = 0 || (x - 1) * r < loads.(q)))
             a.AL.machines));
    prop "feasibility threshold is exactly total rho" rho_gen (fun rho ->
        let p = PB.illustrating in
        let a = AL.of_rho p ~rho in
        let t = AL.total_rho a in
        AL.feasible p ~target:t a && not (AL.feasible p ~target:(t + 1) a));
    prop "cost is monotone in rho" rho_gen (fun rho ->
        let p = PB.illustrating in
        let bigger = Array.map (fun x -> x + 1) rho in
        (AL.of_rho p ~rho).AL.cost <= (AL.of_rho p ~rho:bigger).AL.cost) ]

let suite =
  ( "model",
    [ Alcotest.test_case "graph basic" `Quick test_graph_basic;
      Alcotest.test_case "graph topo" `Quick test_graph_topo;
      Alcotest.test_case "graph validation" `Quick test_graph_validation;
      Alcotest.test_case "graph chain" `Quick test_graph_chain;
      Alcotest.test_case "graph pp" `Quick test_graph_diamond_pp;
      Alcotest.test_case "platform basic" `Quick test_platform_basic;
      Alcotest.test_case "platform validation" `Quick test_platform_validation;
      Alcotest.test_case "platform table2" `Quick test_platform_table2;
      Alcotest.test_case "problem illustrating" `Quick test_problem_illustrating;
      Alcotest.test_case "problem classification" `Quick test_problem_classification;
      Alcotest.test_case "problem validation" `Quick test_problem_validation;
      Alcotest.test_case "loads" `Quick test_loads;
      Alcotest.test_case "of_rho paper example" `Quick test_of_rho_paper_example;
      Alcotest.test_case "of_rho zero" `Quick test_of_rho_zero;
      Alcotest.test_case "single (H1 building block)" `Quick test_single;
      Alcotest.test_case "make validation" `Quick test_make_validation;
      Alcotest.test_case "make overprovisioned" `Quick test_make_overprovisioned_ok ]
    @ props )
