(* Tests for the two pseudo-polynomial dynamic programs (§ V-A and
   § V-B): hand cases, cross-checks against the exhaustive oracle and
   the exact ILP, and guard conditions. *)

module TG = Rentcost.Task_graph
module PF = Rentcost.Platform
module PB = Rentcost.Problem
module AL = Rentcost.Allocation
module DPB = Rentcost.Dp_blackbox
module DPD = Rentcost.Dp_disjoint
module EX = Rentcost.Exhaustive
module ILP = Rentcost.Ilp
module I = Rentcost.Instance
module S = Rentcost.Solver
module H = Rentcost.Heuristics

let single_task_problem =
  (* Three black-box recipes: types (10c/10r), (18c/20r), (25c/30r). *)
  PB.create
    (PF.of_list [ (10, 10); (18, 20); (25, 30) ])
    (Array.init 3 (fun q -> TG.create ~ntypes:3 ~types:[| q |] ~edges:[]))

let single_task = I.compile single_task_problem
let illustrating = I.compile PB.illustrating

let test_blackbox_hand () =
  (* target 30: cheapest is one type-2 machine (25). *)
  let a = DPB.run single_task ~target:30 in
  Alcotest.(check int) "cost 25" 25 a.AL.cost;
  Alcotest.(check bool) "feasible" true (AL.feasible single_task_problem ~target:30 a);
  (* target 50: type2 + type1 = 43 vs 2x type2 = 50 vs ... 43 best *)
  let a50 = DPB.run single_task ~target:50 in
  Alcotest.(check int) "cost 43" 43 a50.AL.cost

let test_blackbox_zero_target () =
  let a = DPB.run single_task ~target:0 in
  Alcotest.(check int) "free" 0 a.AL.cost

let test_blackbox_guards () =
  Alcotest.check_raises "non blackbox"
    (Invalid_argument
       "Dp_blackbox.run: instance is not black-box (one task per recipe, \
        pairwise distinct types)") (fun () ->
      ignore (DPB.run illustrating ~target:10));
  Alcotest.check_raises "negative target"
    (Invalid_argument "Dp_blackbox.run: negative target") (fun () ->
      ignore (DPB.run single_task ~target:(-1)))

let disjoint_problem =
  (* Recipe 0 over types {0,1}, recipe 1 over types {2,3}; no sharing. *)
  PB.create
    (PF.of_list [ (10, 10); (18, 20); (25, 30); (33, 40) ])
    [| TG.chain ~ntypes:4 ~types:[| 0; 1 |]; TG.chain ~ntypes:4 ~types:[| 2; 3 |] |]

let disjoint = I.compile disjoint_problem

let test_disjoint_hand () =
  (* target 30: all on recipe 1 -> x2 = 1 (25) + x3 = 1 (33) = 58;
     all on recipe 0 -> 3*10 + 2*18 = 66; split 10/20 ->
     (10+18) + (25+33) = 86. Optimum 58. *)
  let a = DPD.run disjoint ~target:30 in
  Alcotest.(check int) "cost 58" 58 a.AL.cost;
  Alcotest.(check (array int)) "split" [| 0; 30 |] a.AL.rho

let test_disjoint_guards () =
  Alcotest.check_raises "shared types"
    (Invalid_argument
       "Dp_disjoint.run: recipes share task types (general case, use Ilp or \
        Heuristics)") (fun () -> ignore (DPD.run illustrating ~target:10));
  Alcotest.check_raises "negative target"
    (Invalid_argument "Dp_disjoint.run: negative target") (fun () ->
      ignore (DPD.run disjoint ~target:(-3)))

let test_disjoint_zero_target () =
  let a = DPD.run disjoint ~target:0 in
  Alcotest.(check int) "free" 0 a.AL.cost

let test_disjoint_single_recipe_equals_closed_form () =
  let p =
    PB.create (PF.of_list [ (7, 3); (11, 5) ])
      [| TG.chain ~ntypes:2 ~types:[| 0; 1; 0 |] |]
  in
  let i = I.compile p in
  for target = 0 to 20 do
    Alcotest.(check int)
      (Printf.sprintf "target %d" target)
      (Test_costing.single_graph p ~j:0 ~target)
      (DPD.run i ~target).AL.cost
  done

(* --- exhaustive oracle --- *)

let test_exhaustive_matches_ilp_on_illustrating () =
  List.iter
    (fun target ->
      let ex = EX.run illustrating ~target in
      let ilp = ILP.optimize illustrating ~target in
      match ilp.ILP.allocation with
      | Some a ->
        Alcotest.(check int) (Printf.sprintf "target %d" target) ex.AL.cost a.AL.cost
      | None -> Alcotest.fail "ILP found no solution")
    [ 0; 1; 7; 10; 23; 50 ]

(* A deadline bounds the O(J·ρ²) table of the disjoint DP: at
   ρ = 50,000 the whole table takes seconds, and a 20 ms deadline ends
   the solve with the H1 closed form under [Budget_exhausted]. *)
let test_disjoint_deadline () =
  let p =
    PB.create
      (PF.of_list [ (3, 7); (5, 11); (4, 9); (6, 13) ])
      [| TG.chain ~ntypes:4 ~types:[| 0; 1 |]; TG.chain ~ntypes:4 ~types:[| 2; 3 |] |]
  in
  let i = I.compile p in
  Alcotest.(check int) "both recipes survive pruning" 2 (I.num_recipes i);
  let target = 50_000 in
  let t0 = Unix.gettimeofday () in
  let o =
    S.run
      ~budget:{ Rentcost.Budget.unlimited with deadline = Some 0.02 }
      ~spec:S.Dp_disjoint i
      ~objective:(Rentcost.Objective.min_cost ~target)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "status" "budget-exhausted"
    (S.status_to_string o.S.status);
  Alcotest.(check bool)
    (Printf.sprintf "answered within 0.5 s of the deadline (%.3f s)" elapsed)
    true (elapsed < 0.52);
  let h1 = (H.search H.H1 i ~target).H.allocation in
  match o.S.allocation with
  | Some a ->
    Alcotest.(check int) "the H1 cost" h1.AL.cost a.AL.cost;
    Alcotest.(check bool) "feasible" true (AL.feasible p ~target a)
  | None -> Alcotest.fail "an expired DP still answers"

(* --- random cross-checks --- *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:60 ~name gen f)

(* Random disjoint instances: two recipes, types 0..1 vs 2..3. *)
let disjoint_gen =
  QCheck2.Gen.(
    pair
      (pair
         (list_size (return 4) (pair (int_range 1 15) (int_range 1 15)))
         (pair (int_range 1 3) (int_range 1 3)))
      (int_range 0 25))

let build_disjoint ((machines, (n1, n2)), target) =
  let platform = PF.of_list machines in
  let types1 = Array.init n1 (fun i -> i mod 2) in
  let types2 = Array.init n2 (fun i -> 2 + (i mod 2)) in
  let p =
    PB.create platform
      [| TG.chain ~ntypes:4 ~types:types1; TG.chain ~ntypes:4 ~types:types2 |]
  in
  (p, target)

let blackbox_gen =
  QCheck2.Gen.(
    pair (list_size (return 3) (pair (int_range 1 15) (int_range 1 15))) (int_range 0 30))

let props =
  [ prop "disjoint DP matches exhaustive" disjoint_gen (fun input ->
        let p, target = build_disjoint input in
        let i = I.compile p in
        (DPD.run i ~target).AL.cost = (EX.run i ~target).AL.cost);
    prop "disjoint DP matches ILP" disjoint_gen (fun input ->
        let p, target = build_disjoint input in
        let i = I.compile p in
        match (ILP.optimize i ~target).ILP.allocation with
        | Some a -> (DPD.run i ~target).AL.cost = a.AL.cost
        | None -> false);
    prop "disjoint DP allocation is feasible" disjoint_gen (fun input ->
        let p, target = build_disjoint input in
        AL.feasible p ~target (DPD.run (I.compile p) ~target));
    prop "blackbox DP matches exhaustive" blackbox_gen (fun (machines, target) ->
        let platform = PF.of_list machines in
        let p =
          PB.create platform
            (Array.init 3 (fun q -> TG.create ~ntypes:3 ~types:[| q |] ~edges:[]))
        in
        let i = I.compile p in
        (DPB.run i ~target).AL.cost = (EX.run i ~target).AL.cost);
    prop "blackbox DP equals disjoint DP on blackbox instances" blackbox_gen
      (fun (machines, target) ->
        let platform = PF.of_list machines in
        let p =
          PB.create platform
            (Array.init 3 (fun q -> TG.create ~ntypes:3 ~types:[| q |] ~edges:[]))
        in
        let i = I.compile p in
        (DPB.run i ~target).AL.cost = (DPD.run i ~target).AL.cost) ]

let suite =
  ( "dp",
    [ Alcotest.test_case "blackbox hand-checked" `Quick test_blackbox_hand;
      Alcotest.test_case "blackbox zero target" `Quick test_blackbox_zero_target;
      Alcotest.test_case "blackbox guards" `Quick test_blackbox_guards;
      Alcotest.test_case "disjoint hand-checked" `Quick test_disjoint_hand;
      Alcotest.test_case "disjoint guards" `Quick test_disjoint_guards;
      Alcotest.test_case "disjoint zero target" `Quick test_disjoint_zero_target;
      Alcotest.test_case "disjoint single recipe = closed form" `Quick
        test_disjoint_single_recipe_equals_closed_form;
      Alcotest.test_case "exhaustive matches ILP" `Quick
        test_exhaustive_matches_ilp_on_illustrating;
      Alcotest.test_case "disjoint honours the deadline" `Quick test_disjoint_deadline ]
    @ props )
