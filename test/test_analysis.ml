(* Tests for the Analysis extension module: cost curves, H1 buckets,
   price sensitivity, plus the exhaustive-deltas descent ablation. *)

module A = Rentcost.Analysis
module AL = Rentcost.Allocation
module H = Rentcost.Heuristics
module PB = Rentcost.Problem

let p = PB.illustrating
let inst = Rentcost.Instance.compile p

let test_cost_curve_monotone () =
  let targets = List.init 21 (fun i -> 10 * i) in
  let check_curve name solver =
    let curve = A.cost_curve solver p ~targets in
    let costs = List.map (fun (_, a) -> a.AL.cost) curve in
    let rec monotone = function
      | a :: (b :: _ as rest) -> a <= b && monotone rest
      | _ -> true
    in
    Alcotest.(check bool) (name ^ " monotone") true (monotone costs)
  in
  check_curve "ILP" A.ilp_solver;
  check_curve "H1" (fun problem ~target ->
      (H.search H.H1 (Rentcost.Instance.compile problem) ~target).H.allocation)

let test_cost_curve_values () =
  let curve = A.cost_curve A.ilp_solver p ~targets:[ 10; 70; 200 ] in
  Alcotest.(check (list (pair int int))) "ILP curve matches Table III"
    [ (10, 28); (70, 124); (200, 333) ]
    (List.map (fun (t, a) -> (t, a.AL.cost)) curve)

let test_h1_buckets () =
  let buckets = A.h1_buckets p ~max_target:50 in
  (* Buckets tile [0, 50] without gaps or overlaps. *)
  let rec tiles expected = function
    | [] -> expected = 51
    | (lo, hi, _) :: rest -> lo = expected && hi >= lo && tiles (hi + 1) rest
  in
  Alcotest.(check bool) "tiling" true (tiles 0 buckets);
  (* Costs strictly increase across bucket boundaries by construction. *)
  let costs = List.map (fun (_, _, c) -> c) buckets in
  let rec distinct_adjacent = function
    | a :: (b :: _ as rest) -> a <> b && distinct_adjacent rest
    | _ -> true
  in
  Alcotest.(check bool) "adjacent buckets differ" true (distinct_adjacent costs);
  (* The first bucket is the free one (target 0 costs nothing). *)
  (match buckets with
   | (0, _, 0) :: _ -> ()
   | _ -> Alcotest.fail "first bucket should start at 0 with cost 0");
  (* H1 has idle capacity after renting for target 10 (cost 28 serves
     up to 10 only here; check bucket containing 10 matches H1 cost). *)
  let cost_at t =
    let _, _, c = List.find (fun (lo, hi, _) -> lo <= t && t <= hi) buckets in
    c
  in
  Alcotest.(check int) "bucket cost at 10" 28 (cost_at 10);
  Alcotest.(check int) "bucket cost at 30" 58 (cost_at 30)

let test_price_sensitivity () =
  let baseline, per_type = A.price_sensitivity p ~target:70 ~percent:50 in
  Alcotest.(check int) "baseline" 124 baseline;
  Alcotest.(check int) "one entry per type" 4 (List.length per_type);
  List.iter
    (fun (q, c) ->
      (* Raising any price never lowers the optimum; the optimum can
         rise by at most that type's share of the baseline fleet. *)
      Alcotest.(check bool) (Printf.sprintf "type %d no cheaper" q) true (c >= baseline))
    per_type

let test_price_sensitivity_zero_percent () =
  let baseline, per_type = A.price_sensitivity p ~target:70 ~percent:0 in
  List.iter
    (fun (q, c) ->
      Alcotest.(check int) (Printf.sprintf "type %d unchanged" q) baseline c)
    per_type

let test_price_sensitivity_validation () =
  Alcotest.check_raises "percent too low"
    (Invalid_argument "Analysis.price_sensitivity: percent <= -100") (fun () ->
      ignore (A.price_sensitivity p ~target:10 ~percent:(-150)))

let test_exhaustive_deltas_no_worse () =
  (* The exhaustive-delta descent dominates the single-quantum one
     from the same start point. *)
  let params = { H.default_params with step = 10 } in
  let params_ex = { params with H.exhaustive_deltas = true } in
  List.iter
    (fun target ->
      let quick = (H.search ~params H.H32 inst ~target).H.allocation.AL.cost in
      let thorough =
        (H.search ~params:params_ex H.H32 inst ~target).H.allocation.AL.cost
      in
      Alcotest.(check bool)
        (Printf.sprintf "exhaustive <= quick at %d" target)
        true (thorough <= quick))
    [ 30; 60; 70; 130; 200 ]

let test_exhaustive_deltas_finds_distant_optimum () =
  (* At ρ = 60 the single-δ descent from H1's (0,0,60) is stuck at 114
     but a 40-unit exchange reaches (40,0,20) = 107; the exhaustive
     variant must find it in one descent, no jumps needed. *)
  let params = { H.default_params with step = 10; exhaustive_deltas = true } in
  let res = H.search ~params H.H32 inst ~target:60 in
  Alcotest.(check int) "reaches 107" 107 res.H.allocation.AL.cost

(* --- Elastic provisioning --- *)

module E = Rentcost.Elastic

let demand = [| 0; 20; 50; 120; 70; 20 |]

let test_elastic_vs_static () =
  let elastic = E.provision_on ~spec:Rentcost.Solver.Exact_ilp inst ~demand in
  let static = E.static_peak ~spec:Rentcost.Solver.Exact_ilp inst ~demand in
  Alcotest.(check int) "plan lengths" (Array.length demand) (Array.length elastic);
  (* Every period of the static plan costs the peak-period price. *)
  Alcotest.(check int) "static bill"
    (Array.length demand * E.peak_cost static)
    (E.total_cost static);
  (* Elastic never exceeds static, and saves here (demand varies). *)
  Alcotest.(check bool) "elastic cheaper" true
    (E.total_cost elastic < E.total_cost static);
  let s = E.savings ~elastic ~static in
  Alcotest.(check bool) "savings in (0,1)" true (s > 0.0 && s < 1.0);
  (* Per-period allocations meet their demand. *)
  Array.iteri
    (fun t a ->
      Alcotest.(check bool)
        (Printf.sprintf "period %d feasible" t)
        true
        (AL.feasible p ~target:demand.(t) a))
    elastic

let test_elastic_accounting () =
  let plan = E.provision_on ~spec:(Rentcost.Solver.Heuristic H.H1) inst ~demand in
  (* machine_hours sums the per-period fleets. *)
  let hours = E.machine_hours plan in
  let expected = Array.make (PB.num_types p) 0 in
  Array.iter
    (fun a ->
      Array.iteri (fun q x -> expected.(q) <- expected.(q) + x) a.AL.machines)
    plan;
  Alcotest.(check (array int)) "machine hours" expected hours;
  (* churn from the empty fleet is at least the first period's size and
     zero for a constant plan. *)
  let static = E.static_peak ~spec:(Rentcost.Solver.Heuristic H.H1) inst ~demand in
  let fleet_size =
    Array.fold_left ( + ) 0 static.(0).AL.machines
  in
  Alcotest.(check int) "static churn = one ramp-up" fleet_size (E.churn static);
  Alcotest.(check bool) "elastic churn >= ramp-up" true (E.churn plan >= 0)

let test_elastic_warm_matches_cold () =
  (* The ILP does not read the previous period's fleet: per-period
     costs agree with per-period solves run without a warm start, over
     rising, falling and repeated demand. *)
  let demand = [| 120; 70; 70; 20; 90; 120 |] in
  let warm = E.provision_on ~spec:Rentcost.Solver.Exact_ilp inst ~demand in
  Array.iteri
    (fun t a ->
      let cold =
        Rentcost.Solver.run ~spec:Rentcost.Solver.Exact_ilp inst
          ~objective:(Rentcost.Objective.min_cost ~target:demand.(t))
      in
      Alcotest.(check int)
        (Printf.sprintf "period %d cost" t)
        (Option.get cold.Rentcost.Solver.allocation).AL.cost a.AL.cost)
    warm

let test_elastic_negative_demand () =
  Alcotest.check_raises "negative demand"
    (Invalid_argument "Elastic: negative demand") (fun () ->
      ignore (E.provision_on inst ~demand:[| 10; -1 |]))

let test_elastic_empty_trace () =
  let plan =
    E.provision_on ~spec:(Rentcost.Solver.Heuristic H.H1) inst ~demand:[||]
  in
  Alcotest.(check int) "empty bill" 0 (E.total_cost plan);
  Alcotest.(check int) "empty churn" 0 (E.churn plan);
  Alcotest.(check (array int)) "empty hours" [||] (E.machine_hours plan);
  Alcotest.(check (float 1e-9)) "zero savings on empty" 0.0
    (E.savings ~elastic:plan ~static:plan)

let suite =
  ( "analysis",
    [ Alcotest.test_case "cost curve monotone" `Slow test_cost_curve_monotone;
      Alcotest.test_case "cost curve values" `Quick test_cost_curve_values;
      Alcotest.test_case "H1 buckets" `Quick test_h1_buckets;
      Alcotest.test_case "price sensitivity" `Slow test_price_sensitivity;
      Alcotest.test_case "price sensitivity at 0%" `Quick
        test_price_sensitivity_zero_percent;
      Alcotest.test_case "price sensitivity validation" `Quick
        test_price_sensitivity_validation;
      Alcotest.test_case "exhaustive deltas no worse" `Quick
        test_exhaustive_deltas_no_worse;
      Alcotest.test_case "exhaustive deltas finds distant optimum" `Quick
        test_exhaustive_deltas_finds_distant_optimum;
      Alcotest.test_case "elastic vs static" `Slow test_elastic_vs_static;
      Alcotest.test_case "elastic accounting" `Quick test_elastic_accounting;
      Alcotest.test_case "elastic warm matches cold" `Slow
        test_elastic_warm_matches_cold;
      Alcotest.test_case "elastic negative demand" `Quick
        test_elastic_negative_demand;
      Alcotest.test_case "elastic empty trace" `Quick test_elastic_empty_trace ] )
