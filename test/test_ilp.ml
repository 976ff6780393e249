(* Tests for the § V-C MILP: exact reproduction of the ILP column of
   the paper's Table III (costs and splits), structural checks on the
   generated model, cross-checks against the exhaustive oracle on
   random shared-type instances, and time-limit behaviour. *)

module TG = Rentcost.Task_graph
module PF = Rentcost.Platform
module PB = Rentcost.Problem
module AL = Rentcost.Allocation
module EX = Rentcost.Exhaustive
module ILP = Rentcost.Ilp
module I = Rentcost.Instance

let illustrating = I.compile PB.illustrating

(* The complete ILP column of Table III: target -> (rho1, rho2, rho3, cost). *)
let table3_ilp =
  [ (10, (0, 0, 10), 28); (20, (0, 0, 20), 38); (30, (0, 30, 0), 58);
    (40, (40, 0, 0), 69); (50, (10, 30, 10), 86); (60, (40, 0, 20), 107);
    (70, (10, 30, 30), 124); (80, (20, 60, 0), 134); (90, (50, 30, 10), 155);
    (100, (20, 60, 20), 172); (110, (20, 90, 0), 192); (120, (0, 120, 0), 199);
    (130, (30, 90, 10), 220); (140, (0, 120, 20), 237); (150, (0, 150, 0), 257);
    (160, (40, 120, 0), 268); (170, (10, 150, 10), 285); (180, (40, 120, 20), 306);
    (190, (10, 150, 30), 323); (200, (20, 180, 0), 333) ]

let test_table3_costs () =
  List.iter
    (fun (target, _, cost) ->
      match (ILP.optimize illustrating ~target).ILP.allocation with
      | Some a ->
        Alcotest.(check int) (Printf.sprintf "cost at rho=%d" target) cost a.AL.cost
      | None -> Alcotest.fail "no solution")
    table3_ilp

let test_table3_splits_are_optimal () =
  (* The paper's published splits must cost exactly the optimum (the
     optimum split need not be unique, so we check cost equality of the
     published point rather than the argmin itself). *)
  List.iter
    (fun (target, (r1, r2, r3), cost) ->
      let a = AL.of_rho PB.illustrating ~rho:[| r1; r2; r3 |] in
      Alcotest.(check int) (Printf.sprintf "paper split at rho=%d" target) cost a.AL.cost;
      Alcotest.(check bool) "feasible" true (AL.feasible PB.illustrating ~target a))
    table3_ilp

let test_proved_optimal () =
  let o = ILP.optimize illustrating ~target:70 in
  Alcotest.(check bool) "proved" true o.ILP.proved_optimal;
  Alcotest.(check (option int)) "bound = incumbent" (Some 124) o.ILP.best_bound;
  Alcotest.(check bool) "some nodes" true (o.ILP.nodes >= 1)

let test_build_structure () =
  let model = ILP.model illustrating ~target:70 in
  (* 3 rho vars + 4 x vars, all integral *)
  Alcotest.(check int) "vars" 7 (Lp.Model.num_vars model);
  (* 1 throughput + 4 capacity rows *)
  Alcotest.(check int) "constraints" 5 (List.length (Lp.Model.constraints model));
  (* The root tableau has exactly those rows, over the 7 variables and
     one slack per row, then the right-hand side: no bound rows. *)
  (match Lp.Simplex.solve_with_snapshot model with
   | _, Some snap ->
     let rows, _ = Lp.Simplex.For_testing.snapshot_rows snap in
     Alcotest.(check int) "root tableau rows" 5 (Array.length rows);
     Array.iter
       (fun row ->
         Alcotest.(check int) "root tableau columns" (7 + 5 + 1) (Array.length row))
       rows
   | _, None -> Alcotest.fail "the root keeps no snapshot");
  (* Variables 0-2 are the splits, 3-6 the machine counts. *)
  (match Lp.Model.constraints model with
   | { Lp.Model.terms; cmp = Lp.Model.Ge; rhs = 70 } :: _ ->
     Alcotest.(check (list (pair int int))) "throughput row over the splits"
       [ (0, 1); (1, 1); (2, 1) ] terms
   | _ -> Alcotest.fail "the first row is not the throughput row");
  Alcotest.(check (list int)) "the objective prices the machine counts"
    [ 3; 4; 5; 6 ]
    (List.map fst (Lp.Model.objective model))

(* A recipe that runs type 0 three times, at a target where
   [3 * target] wraps: the model forms no product of a count and the
   target, and its relaxation (solved exactly past the native range)
   scales linearly with the target. The other recipe runs only type 1,
   so neither dominates the other and both keep their columns. *)
let test_huge_target_model () =
  let p =
    PB.create (PF.of_list [ (1, 5); (100, 7) ])
      [| TG.chain ~ntypes:2 ~types:[| 0; 0; 0 |];
         TG.chain ~ntypes:2 ~types:[| 1 |] |]
  in
  let i = I.compile p in
  Alcotest.(check int) "both recipes survive" 2 (I.num_recipes i);
  let lp target =
    match Lp.Simplex.For_testing.solve (ILP.model i ~target) with
    | Lp.Simplex.Optimal { objective; _ } -> objective
    | _ -> Alcotest.fail "relaxation should be optimal"
  in
  let target = max_int / 2 in
  Alcotest.(check bool) "3 * target wraps" true (3 * target < 0);
  Alcotest.(check string) "LP scales with the target"
    (Numeric.Rat.For_testing.to_string
       (Numeric.Rat.mul (Numeric.Rat.of_int target) (lp 1)))
    (Numeric.Rat.For_testing.to_string (lp target))

let test_zero_target () =
  match (ILP.optimize illustrating ~target:0).ILP.allocation with
  | Some a -> Alcotest.(check int) "free" 0 a.AL.cost
  | None -> Alcotest.fail "no solution"

let test_negative_target () =
  Alcotest.check_raises "negative" (Invalid_argument "Ilp.model: negative target")
    (fun () -> ignore (ILP.optimize illustrating ~target:(-1)))

(* The plain LP-relaxation bound [⌈LP⌉] of the ILP's model (no
   branching). *)
let lp_lower_bound problem ~target =
  match Lp.Simplex.For_testing.solve (ILP.model (I.compile problem) ~target) with
  | Lp.Simplex.Optimal { objective; _ } ->
    Numeric.Bigint.to_int_exn (Numeric.Rat.ceil objective)
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
    Alcotest.fail "the ILP's relaxation is feasible and bounded"

let test_lp_lower_bound () =
  List.iter
    (fun (target, _, cost) ->
      let lb = lp_lower_bound PB.illustrating ~target in
      Alcotest.(check bool)
        (Printf.sprintf "lb %d <= opt %d at rho=%d" lb cost target)
        true (lb <= cost))
    table3_ilp;
  Alcotest.(check int) "lb at 0" 0 (lp_lower_bound PB.illustrating ~target:0)

let test_time_limit_returns_quickly () =
  (* An exhausted budget must still return, with a valid bound. *)
  let o = ILP.optimize ~time_limit:(-1.0) illustrating ~target:70 in
  Alcotest.(check bool) "not proved optimal" true (not o.ILP.proved_optimal);
  Alcotest.(check int) "no nodes" 0 o.ILP.nodes

(* Random shared-type instances vs the exhaustive oracle. *)
let shared_gen =
  QCheck2.Gen.(
    pair
      (pair
         (list_size (return 3) (pair (int_range 1 20) (int_range 1 20)))
         (pair (list_size (int_range 1 4) (int_range 0 2))
            (list_size (int_range 1 4) (int_range 0 2))))
      (int_range 0 20))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:60 ~name gen f)

let build_shared ((machines, (t1, t2)), target) =
  let platform = PF.of_list machines in
  let p =
    PB.create platform
      [| TG.chain ~ntypes:3 ~types:(Array.of_list t1);
         TG.chain ~ntypes:3 ~types:(Array.of_list t2) |]
  in
  (p, target)

let props =
  [ prop "ILP matches exhaustive on random shared instances" shared_gen
      (fun input ->
        let p, target = build_shared input in
        let i = I.compile p in
        match (ILP.optimize i ~target).ILP.allocation with
        | Some a -> a.AL.cost = (EX.run i ~target).AL.cost
        | None -> false);
    prop "ILP allocation is feasible" shared_gen (fun input ->
        let p, target = build_shared input in
        match (ILP.optimize (I.compile p) ~target).ILP.allocation with
        | Some a -> AL.feasible p ~target a
        | None -> false);
    prop "LP bound sandwiches the optimum" shared_gen (fun input ->
        let p, target = build_shared input in
        let lb = lp_lower_bound p ~target in
        match (ILP.optimize (I.compile p) ~target).ILP.allocation with
        | Some a -> lb <= a.AL.cost
        | None -> false) ]

let suite =
  ( "ilp",
    [ Alcotest.test_case "Table III: all 20 optimal costs" `Quick test_table3_costs;
      Alcotest.test_case "Table III: published splits cost the optimum" `Quick
        test_table3_splits_are_optimal;
      Alcotest.test_case "optimality is proved" `Quick test_proved_optimal;
      Alcotest.test_case "model structure" `Quick test_build_structure;
      Alcotest.test_case "model at a target past max_int / 3" `Quick
        test_huge_target_model;
      Alcotest.test_case "zero target" `Quick test_zero_target;
      Alcotest.test_case "negative target" `Quick test_negative_target;
      Alcotest.test_case "LP lower bound" `Quick test_lp_lower_bound;
      Alcotest.test_case "exhausted time budget" `Quick test_time_limit_returns_quickly ]
    @ props )
