(* Tests for the unified Solver engine: Auto routing on the § V
   structure classes, agreement of every engine with the exhaustive
   oracle, budget-degradation semantics, and telemetry accounting. *)

module S = Rentcost.Solver
module B = Rentcost.Budget
module H = Rentcost.Heuristics

let platform = Rentcost.Platform.of_list [ (10, 10); (18, 20); (25, 30); (33, 40) ]

let chain types = Rentcost.Task_graph.chain ~ntypes:4 ~types

(* § V-A: every recipe a single task, all types distinct. *)
let blackbox_problem =
  Rentcost.Problem.create platform (Array.init 4 (fun q -> chain [| q |]))

(* § V-B: multi-task recipes over pairwise-disjoint type sets. *)
let disjoint_problem =
  Rentcost.Problem.create platform [| chain [| 0; 1 |]; chain [| 2; 3 |] |]

(* § V-C: the paper's illustrating instance (recipes share types). *)
let shared_problem = Rentcost.Problem.illustrating

(* Every test here is a min-cost solve; shorthand over {!S.run}. *)
let solve ?budget ?rng ~spec problem ~target =
  S.run ?budget ?rng ~spec (Rentcost.Instance.compile problem)
    ~objective:(Rentcost.Objective.min_cost ~target)

let solve_cost ?budget ~spec problem ~target =
  match (solve ?budget ~spec problem ~target).S.allocation with
  | Some a -> a.Rentcost.Allocation.cost
  | None -> Alcotest.fail "solver returned no allocation"

(* --- Auto dispatch --- *)

let check_route problem expected name =
  let o = solve ~spec:S.Auto problem ~target:20 in
  Alcotest.(check string) name
    (S.spec_to_string expected)
    (S.spec_to_string o.S.telemetry.S.engine);
  Alcotest.(check bool) (name ^ " optimal") true (o.S.status = S.Optimal)

let test_auto_routes_blackbox () =
  check_route blackbox_problem S.Dp_blackbox "blackbox -> knapsack DP"

let test_auto_routes_disjoint () =
  check_route disjoint_problem S.Dp_disjoint "disjoint -> split DP"

let test_auto_routes_shared () =
  check_route shared_problem S.Exact_ilp "shared types -> ILP"

let test_auto_of_instance_pure () =
  let auto_spec p = S.auto_of_instance (Rentcost.Instance.compile p) in
  Alcotest.(check bool) "blackbox spec" true
    (auto_spec blackbox_problem = S.Dp_blackbox);
  Alcotest.(check bool) "disjoint spec" true
    (auto_spec disjoint_problem = S.Dp_disjoint);
  Alcotest.(check bool) "shared spec" true
    (auto_spec shared_problem = S.Exact_ilp)

(* --- every exact engine agrees with the exhaustive oracle --- *)

let test_engines_agree () =
  List.iter
    (fun (problem, engines, label) ->
      List.iter
        (fun target ->
          let reference = solve_cost ~spec:S.Exhaustive problem ~target in
          List.iter
            (fun spec ->
              Alcotest.(check int)
                (Printf.sprintf "%s %s at rho=%d" label (S.spec_to_string spec)
                   target)
                reference
                (solve_cost ~spec problem ~target))
            engines)
        [ 0; 1; 7; 15 ])
    [ (blackbox_problem, [ S.Auto; S.Dp_blackbox; S.Dp_disjoint; S.Exact_ilp ],
       "blackbox");
      (disjoint_problem, [ S.Auto; S.Dp_disjoint; S.Exact_ilp ], "disjoint");
      (shared_problem, [ S.Auto; S.Exact_ilp ], "shared") ]

let test_heuristics_bounded_by_optimum () =
  List.iter
    (fun name ->
      let target = 15 in
      let optimal = solve_cost ~spec:S.Exhaustive shared_problem ~target in
      let o =
        solve ~rng:(Numeric.Prng.create 7) ~spec:(S.Heuristic name)
          shared_problem ~target
      in
      Alcotest.(check bool)
        (H.name_to_string name ^ " feasible status")
        true (o.S.status = S.Feasible);
      match o.S.allocation with
      | None -> Alcotest.fail "heuristic returned no allocation"
      | Some a ->
        Alcotest.(check bool)
          (H.name_to_string name ^ " >= optimal")
          true
          (a.Rentcost.Allocation.cost >= optimal
          && Rentcost.Allocation.feasible shared_problem ~target a))
    H.all

(* --- engine preconditions --- *)

let test_forced_dp_raises_on_shared () =
  (* Forcing a structure-specific DP on an unsupported instance is a
     programmer error, not a budget condition: it raises. *)
  Alcotest.(check bool) "dp-disjoint on shared types raises" true
    (match solve ~spec:S.Dp_disjoint shared_problem ~target:10 with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_negative_target_raises () =
  Alcotest.check_raises "negative target"
    (Invalid_argument "Objective.min_cost: negative target") (fun () ->
      ignore (solve ~spec:S.Auto shared_problem ~target:(-1)))

(* --- budget degradation --- *)

let test_zero_deadline_degrades () =
  (* A deadline of zero is already expired when the ILP starts: the
     solve must still return a feasible incumbent, flagged as
     budget-exhausted, not raise or return nothing. *)
  let target = 70 in
  let o =
    solve ~budget:{ B.unlimited with deadline = Some 0.0 } ~spec:S.Auto shared_problem
      ~target
  in
  Alcotest.(check bool) "status" true (o.S.status = S.Budget_exhausted);
  (match o.S.allocation with
   | None -> Alcotest.fail "no incumbent under expired budget"
   | Some a ->
     Alcotest.(check bool) "incumbent feasible" true
       (Rentcost.Allocation.feasible shared_problem ~target a));
  Alcotest.(check bool) "wall time measured" true (o.S.telemetry.S.wall_time > 0.0);
  Alcotest.(check bool) "fallback evaluated" true (o.S.telemetry.S.evaluations > 0)

let test_node_budget_degrades () =
  (* A zero node cap stops branch and bound before any node, so no
     incumbent exists: the H32Jump fallback's split is returned as
     budget-exhausted. *)
  let target = 70 in
  let o =
    solve ~budget:{ B.unlimited with node_cap = Some 0 } ~spec:S.Exact_ilp
      shared_problem ~target
  in
  Alcotest.(check bool) "status" true (o.S.status = S.Budget_exhausted);
  (match o.S.allocation with
   | None -> Alcotest.fail "no incumbent under zero node cap"
   | Some a ->
     Alcotest.(check bool) "incumbent feasible" true
       (Rentcost.Allocation.feasible shared_problem ~target a))

let test_eval_budget_on_heuristic () =
  (* H32Jump under a tight evaluation cap stops at a move boundary,
     still returning a feasible incumbent. *)
  let target = 70 in
  let unbounded =
    solve ~rng:(Numeric.Prng.create 3) ~spec:(S.Heuristic H.H32_jump)
      shared_problem ~target
  in
  let capped =
    solve
      ~budget:{ B.unlimited with eval_cap = Some 10 }
      ~rng:(Numeric.Prng.create 3)
      ~spec:(S.Heuristic H.H32_jump) shared_problem ~target
  in
  Alcotest.(check bool) "unbounded runs to completion" true
    (unbounded.S.status = S.Feasible);
  Alcotest.(check bool) "capped flags exhaustion" true
    (capped.S.status = S.Budget_exhausted);
  Alcotest.(check bool) "capped spent less" true
    (capped.S.telemetry.S.evaluations < unbounded.S.telemetry.S.evaluations);
  match capped.S.allocation with
  | None -> Alcotest.fail "no incumbent under eval cap"
  | Some a ->
    Alcotest.(check bool) "incumbent feasible" true
      (Rentcost.Allocation.feasible shared_problem ~target a)

(* --- telemetry accounting --- *)

let test_telemetry_ilp () =
  let o = solve ~spec:S.Exact_ilp shared_problem ~target:70 in
  let t = o.S.telemetry in
  Alcotest.(check bool) "optimal" true (o.S.status = S.Optimal);
  Alcotest.(check bool) "nonzero wall time" true (t.S.wall_time > 0.0);
  Alcotest.(check bool) "nonzero nodes" true (t.S.nodes > 0);
  Alcotest.(check bool) "nonzero pivots" true (t.S.pivots > 0);
  (* The branch and bound's own rounding seeds it; no heuristic runs,
     so no oracle evaluation registers. *)
  Alcotest.(check int) "no oracle evaluations" 0 t.S.evaluations

let test_telemetry_heuristic () =
  let o = solve ~spec:(S.Heuristic H.H1) shared_problem ~target:70 in
  let t = o.S.telemetry in
  (* H1 probes each of the 3 recipes exactly once. *)
  Alcotest.(check int) "H1 evaluations" 3 t.S.evaluations;
  Alcotest.(check int) "no nodes" 0 t.S.nodes;
  Alcotest.(check int) "no pivots" 0 t.S.pivots

let test_telemetry_dp () =
  let o = solve ~spec:S.Auto disjoint_problem ~target:25 in
  let t = o.S.telemetry in
  Alcotest.(check bool) "dp engine" true (t.S.engine = S.Dp_disjoint);
  Alcotest.(check int) "no nodes" 0 t.S.nodes;
  Alcotest.(check int) "no evaluations" 0 t.S.evaluations

(* A warm start seeds the heuristics only: [warm_started] says that a
   heuristic that reads seeds ran with it, as the engine or as the
   ILP's budget fallback. The exact engines, H0, H1 and a
   max-throughput search drop it, and the ILP's proved tree is the
   unseeded one. *)
let test_warm_start_seeds_heuristics_only () =
  let inst = Rentcost.Instance.compile shared_problem in
  let seed =
    Option.get (solve ~spec:(S.Heuristic H.H1) shared_problem ~target:100).S.allocation
  in
  let run ?budget ?warm_start spec =
    S.run ?budget ?warm_start ~spec inst
      ~objective:(Rentcost.Objective.min_cost ~target:80)
  in
  List.iter
    (fun (name, budget, spec, expected) ->
      Alcotest.(check bool) name expected
        (run ?budget ~warm_start:seed spec).S.telemetry.S.warm_started)
    [ ("ilp", None, S.Exact_ilp, false);
      ("ilp fallback", Some { B.unlimited with node_cap = Some 0 }, S.Exact_ilp, true);
      ("exhaustive", None, S.Exhaustive, false);
      ("h0", None, S.Heuristic H.H0, false);
      ("h1", None, S.Heuristic H.H1, false);
      ("h2", None, S.Heuristic H.H2, true);
      ("h31", None, S.Heuristic H.H31, true);
      ("h32", None, S.Heuristic H.H32, true);
      ("h32jump", None, S.Heuristic H.H32_jump, true) ];
  let seeded = run ~warm_start:seed S.Exact_ilp and cold = run S.Exact_ilp in
  Alcotest.(check (pair int int)) "ilp: the unseeded cost and nodes"
    ((Option.get cold.S.allocation).Rentcost.Allocation.cost, cold.S.telemetry.S.nodes)
    ((Option.get seeded.S.allocation).Rentcost.Allocation.cost,
     seeded.S.telemetry.S.nodes);
  let dual =
    S.run ~warm_start:seed ~spec:(S.Heuristic H.H32_jump)
      (Rentcost.Instance.compile
         ~scenario:(Rentcost.Scenario.max_throughput ~budget:150 ())
         shared_problem)
      ~objective:(Rentcost.Objective.max_throughput ~budget:150)
  in
  Alcotest.(check bool) "max-throughput drops the seed" false
    dual.S.telemetry.S.warm_started

let test_telemetry_isolated_per_solve () =
  (* Telemetry is a delta around each solve, not a cumulative global:
     two identical solves report identical (deterministic) counts. *)
  let t1 = (solve ~spec:S.Exact_ilp shared_problem ~target:40).S.telemetry in
  let t2 = (solve ~spec:S.Exact_ilp shared_problem ~target:40).S.telemetry in
  Alcotest.(check int) "same nodes" t1.S.nodes t2.S.nodes;
  Alcotest.(check int) "same pivots" t1.S.pivots t2.S.pivots;
  Alcotest.(check int) "same evaluations" t1.S.evaluations t2.S.evaluations

(* --- convergence timelines --- *)

module TP = Telemetry.Progress

let check_timeline ?optimal name (events : TP.event list) =
  Alcotest.(check bool) (name ^ ": timeline non-empty") true (events <> []);
  let rec walk last_elapsed last_inc last_bound = function
    | [] -> ()
    | (e : TP.event) :: rest ->
      Alcotest.(check bool) (name ^ ": elapsed non-decreasing") true
        (e.TP.elapsed >= last_elapsed);
      let last_inc =
        match (last_inc, e.TP.incumbent) with
        | Some prev, Some inc ->
          Alcotest.(check bool) (name ^ ": incumbents non-increasing") true
            (inc <= prev);
          Some inc
        | prev, inc -> if inc = None then prev else inc
      in
      let last_bound =
        match (last_bound, e.TP.bound) with
        | Some prev, Some b ->
          Alcotest.(check bool) (name ^ ": bounds non-decreasing") true
            (b >= prev);
          Some b
        | prev, b -> if b = None then prev else b
      in
      walk e.TP.elapsed last_inc last_bound rest
  in
  walk neg_infinity None None events;
  let final opt = List.fold_left (fun acc e -> match opt e with Some v -> Some v | None -> acc) None events in
  match optimal with
  | None -> ()
  | Some cost ->
    Alcotest.(check (option (float 1e-9)))
      (name ^ ": final incumbent is the optimum")
      (Some (float_of_int cost))
      (final (fun e -> e.TP.incumbent));
    Alcotest.(check (option (float 1e-9)))
      (name ^ ": bound closes the gap")
      (Some (float_of_int cost))
      (final (fun e -> e.TP.bound))

(* The acceptance instance: a Fig. 7-scale MILP solve (the paper's
   illustrating problem routes to the ILP) must leave a timeline with
   non-increasing incumbents and non-decreasing bounds ending at the
   proved optimal cost. *)
let test_convergence_milp () =
  let target = 70 in
  let optimal = solve_cost ~spec:S.Exhaustive shared_problem ~target in
  let o = solve ~spec:S.Exact_ilp shared_problem ~target in
  Alcotest.(check bool) "optimality proved" true (o.S.status = S.Optimal);
  check_timeline ~optimal "milp" o.S.convergence;
  (* Node rounding reports incumbents, then the proof event carries
     the milp source. *)
  let sources = List.map (fun (e : TP.event) -> e.TP.source) o.S.convergence in
  Alcotest.(check bool) "proof event present" true
    (List.mem "milp.proved" sources)

let test_convergence_heuristic () =
  let o =
    solve ~rng:(Numeric.Prng.create 7) ~spec:(S.Heuristic Rentcost.Heuristics.H32_jump)
      shared_problem ~target:70
  in
  check_timeline "h32jump" o.S.convergence;
  (* Heuristics prove nothing: incumbent-only events, every one from
     the heuristic itself. *)
  List.iter
    (fun (e : TP.event) ->
      Alcotest.(check (option (float 1e-9))) "no bounds" None e.TP.bound;
      Alcotest.(check string) "source" "h32jump" e.TP.source)
    o.S.convergence

let test_convergence_empty_when_disabled () =
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled true)
    (fun () ->
      Telemetry.set_enabled false;
      let o = solve ~spec:S.Exact_ilp shared_problem ~target:70 in
      Alcotest.(check bool) "still optimal" true (o.S.status = S.Optimal);
      Alcotest.(check bool) "no timeline when disabled" true
        (o.S.convergence = []);
      Alcotest.(check (triple int int int)) "effort frozen when disabled"
        (0, 0, 0)
        S.(o.telemetry.pivots, o.telemetry.nodes, o.telemetry.evaluations))

(* --- spec parsing --- *)

let test_spec_strings () =
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (S.spec_to_string spec ^ " round-trips")
        true
        (S.spec_of_string (S.spec_to_string spec) = Some spec))
    [ S.Auto; S.Exact_ilp; S.Dp_blackbox; S.Dp_disjoint; S.Exhaustive;
      S.Heuristic H.H0; S.Heuristic H.H1; S.Heuristic H.H2; S.Heuristic H.H31;
      S.Heuristic H.H32; S.Heuristic H.H32_jump ];
  (* Every CLI spelling, pinned explicitly so a parser change that
     breaks a documented flag cannot hide behind the round-trip. *)
  List.iter
    (fun (cli, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%S parses" cli)
        true
        (S.spec_of_string cli = Some expected))
    [ ("auto", S.Auto);
      ("ilp", S.Exact_ilp);
      ("dp", S.Dp_disjoint);
      ("dp-disjoint", S.Dp_disjoint);
      ("dp-blackbox", S.Dp_blackbox);
      ("exhaustive", S.Exhaustive);
      ("h0", S.Heuristic H.H0);
      ("h1", S.Heuristic H.H1);
      ("h2", S.Heuristic H.H2);
      ("h31", S.Heuristic H.H31);
      ("h32", S.Heuristic H.H32);
      ("h32jump", S.Heuristic H.H32_jump);
      (* Parsing is case-insensitive. *)
      ("AUTO", S.Auto);
      ("ILP", S.Exact_ilp);
      ("Dp-Blackbox", S.Dp_blackbox);
      ("H32Jump", S.Heuristic H.H32_jump) ];
  List.iter
    (fun junk ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" junk)
        true
        (S.spec_of_string junk = None))
    [ "gurobi"; ""; "h3"; "h33"; "dp_blackbox"; "ilp "; "h32-jump" ]

let suite =
  ( "solver",
    [ Alcotest.test_case "auto routes blackbox" `Quick test_auto_routes_blackbox;
      Alcotest.test_case "auto routes disjoint" `Quick test_auto_routes_disjoint;
      Alcotest.test_case "auto routes shared" `Quick test_auto_routes_shared;
      Alcotest.test_case "auto_of_instance pure" `Quick
        test_auto_of_instance_pure;
      Alcotest.test_case "engines agree with oracle" `Quick test_engines_agree;
      Alcotest.test_case "heuristics bounded by optimum" `Quick
        test_heuristics_bounded_by_optimum;
      Alcotest.test_case "forced dp raises on shared" `Quick
        test_forced_dp_raises_on_shared;
      Alcotest.test_case "negative target raises" `Quick test_negative_target_raises;
      Alcotest.test_case "zero deadline degrades" `Quick test_zero_deadline_degrades;
      Alcotest.test_case "node budget degrades" `Quick test_node_budget_degrades;
      Alcotest.test_case "eval budget on heuristic" `Quick
        test_eval_budget_on_heuristic;
      Alcotest.test_case "telemetry ilp" `Quick test_telemetry_ilp;
      Alcotest.test_case "telemetry heuristic" `Quick test_telemetry_heuristic;
      Alcotest.test_case "telemetry dp" `Quick test_telemetry_dp;
      Alcotest.test_case "telemetry isolated per solve" `Quick
        test_telemetry_isolated_per_solve;
      Alcotest.test_case "warm start seeds heuristics only" `Quick
        test_warm_start_seeds_heuristics_only;
      Alcotest.test_case "milp convergence timeline" `Quick
        test_convergence_milp;
      Alcotest.test_case "heuristic convergence timeline" `Quick
        test_convergence_heuristic;
      Alcotest.test_case "convergence empty when disabled" `Quick
        test_convergence_empty_when_disabled;
      Alcotest.test_case "spec strings" `Quick test_spec_strings ] )
