(* Differential battery for the LP fast path: the fraction-free engine
   must agree with the exact Rat engine solve-by-solve wherever it
   completes, and must raise [Kernel.Overflow] rather than return a
   wrong value where it cannot. Directed tests probe the overflow
   boundary (on input, mid-pivot, on a row scaled by its lcm), the
   per-relaxation exact fallback of [Lp.Simplex.solve] as the [Rentcost.Ilp] driver
   sees it, and that the paper's figure presets never need it. *)

module R = Numeric.Rat
module K = Numeric.Kernel
module M = Lp.Model
module S = Lp.Simplex

let check_rat msg a b = Alcotest.(check string) msg (R.to_string a) (R.to_string b)

(* The fast engine's exclusive bound on tableau entries and scales. *)
let bound = 1 lsl 30

let prop ?(count = 500) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* --- qcheck: solver-level differential --- *)

(* Random always-feasible bounded covering LPs (the generator of
   test_lp). *)
let covering_gen =
  QCheck2.Gen.(
    let small = int_range 1 9 in
    pair
      (pair (int_range 1 4) (int_range 1 4))
      (pair (list_size (return 16) small) (list_size (return 4) small)))

let build_covering ((nv, nc), (coeffs, rhs)) =
  let m = M.create () in
  let vars = Array.init nv (fun _ -> M.add_var m) in
  let coeff = Array.of_list coeffs in
  let rhs = Array.of_list rhs in
  for c = 0 to nc - 1 do
    let terms =
      Array.to_list
        (Array.mapi (fun i v -> (v, coeff.(((c * nv) + i) mod 16))) vars)
    in
    M.add_constraint m terms M.Ge rhs.(c mod 4)
  done;
  M.set_objective m (Array.to_list (Array.mapi (fun i v -> (v, 1 + (i mod 3))) vars));
  m

let result_equal a b =
  match (a, b) with
  | S.Optimal x, S.Optimal y ->
    R.equal x.S.objective y.S.objective
    && Array.length x.S.values = Array.length y.S.values
    && Array.for_all2 R.equal x.S.values y.S.values
  | S.Infeasible, S.Infeasible | S.Unbounded, S.Unbounded -> true
  | _ -> false

let solver_props =
  [ prop ~count:200 "Fast simplex is bit-identical to exact" covering_gen
      (fun input ->
        let m = build_covering input in
        match S.solve_fast m with
        | fast -> result_equal fast (S.solve_exact m)
        | exception K.Overflow -> true (* exercised by directed tests *)) ]

(* --- directed: overflow inside a solve, and the fallback --- *)

(* Counter deltas of [f ()]: (fast solves, fallbacks). *)
let count_relaxations f =
  let fast0 = Telemetry.value Telemetry.numeric_fast_solves in
  let fb0 = Telemetry.value Telemetry.numeric_fallbacks in
  let x = f () in
  ( x,
    Telemetry.value Telemetry.numeric_fast_solves - fast0,
    Telemetry.value Telemetry.numeric_fallbacks - fb0 )

(* [S.solve] on a model the fast engine cannot take: one fallback, no
   fast solve, and the exact engine's answer. *)
let check_falls_back m =
  let result, fast, fallbacks = count_relaxations (fun () -> S.solve m) in
  Alcotest.(check int) "one fallback" 1 fallbacks;
  Alcotest.(check int) "no fast solve" 0 fast;
  Alcotest.(check bool) "answer is the exact engine's" true
    (result_equal result (S.solve_exact m));
  result

(* A cost at the range bound overflows on injection, before any
   pivot; the exact engine is untroubled. *)
let test_simplex_overflow_on_injection () =
  let m = M.create () in
  let x = M.add_var m in
  M.add_constraint m [ (x, 1) ] M.Ge 1;
  M.set_objective m [ (x, bound) ];
  Alcotest.check_raises "Fast overflows at the bound" K.Overflow (fun () ->
      ignore (S.solve_fast m));
  match check_falls_back m with
  | S.Optimal sol -> check_rat "exact optimum" (R.of_int bound) sol.S.objective
  | _ -> Alcotest.fail "exact engine must solve the model"

(* Every input fits the range, but the first pivot multiplies two
   near-bound coprime entries: the updated row outgrows the range and
   its content gcd is 1, so no reduction can restore it. *)
let test_simplex_overflow_on_pivot () =
  let a = bound - 3 and b = bound - 5 and d = bound - 1 in
  let m = M.create () in
  let x = M.add_var m in
  let y = M.add_var m in
  M.add_constraint m [ (x, a); (y, b) ] M.Ge 1;
  M.add_constraint m [ (x, d); (y, 1) ] M.Ge 1;
  M.set_objective m [ (x, 1); (y, 1) ];
  let pivots0 = Telemetry.value Telemetry.lp_pivots in
  Alcotest.check_raises "Fast overflows mid-pivot" K.Overflow (fun () ->
      ignore (S.solve_fast m));
  Alcotest.(check int) "overflow came on the first pivot" 1
    (Telemetry.value Telemetry.lp_pivots - pivots0);
  match check_falls_back m with
  | S.Optimal sol ->
    Alcotest.(check bool) "exact optimum is feasible" true
      (Test_lp.feasible m sol.S.values)
  | _ -> Alcotest.fail "exact engine must solve the model"

(* The row x/p1 + y/p2 >= 1 of two coprime near-range denominators,
   scaled by their lcm to integer data: its right-hand side p1 p2
   exceeds the fraction-free range, so the fast engine overflows while
   filling the row — before any pivot — and the exact rerun is what
   saves such models. *)
let test_simplex_overflow_on_row_lcm () =
  let p1 = bound - 1 and p2 = bound - 3 in
  let m = M.create () in
  let x = M.add_var m in
  let y = M.add_var m in
  M.add_constraint m [ (x, p2); (y, p1) ] M.Ge (p1 * p2);
  M.set_objective m [ (x, 1); (y, 1) ];
  Alcotest.check_raises "Fast overflows on the row lcm" K.Overflow
    (fun () -> ignore (S.solve_fast m));
  match check_falls_back m with
  | S.Optimal sol ->
    check_rat "exact optimum survives" (R.of_int p2) sol.S.objective
  | _ -> Alcotest.fail "exact engine must solve the model"

(* The Ilp driver on a well-scaled problem: every node relaxation
   answers on the fast path, none falls back, and the answer matches
   the exhaustive oracle. *)
let test_driver_fast_path () =
  let problem = Rentcost.Problem.illustrating in
  let instance = Rentcost.Instance.compile problem in
  let target = 70 in
  let o, fast, fallbacks =
    count_relaxations (fun () -> Rentcost.Ilp.optimize instance ~target)
  in
  Alcotest.(check bool) "proved optimal" true o.Rentcost.Ilp.proved_optimal;
  Alcotest.(check int) "cost matches the oracle"
    (Rentcost.Exhaustive.run instance ~target).Rentcost.Allocation.cost
    (Option.get o.Rentcost.Ilp.allocation).Rentcost.Allocation.cost;
  Alcotest.(check int) "one fast solve per node" o.Rentcost.Ilp.nodes fast;
  Alcotest.(check int) "no fallback" 0 fallbacks

(* Near-max-int costs (far beyond the fast range): the relaxations
   overflow the fast engine, each reruns on Rat, and the answer still
   matches the exhaustive oracle exactly. Then a warm child that
   overflows: it re-solves cold. *)
let test_driver_falls_back_on_huge_costs () =
  let huge = max_int / 1024 in
  let chain types = Rentcost.Task_graph.chain ~ntypes:2 ~types in
  let problem =
    Rentcost.Problem.create
      (Rentcost.Platform.of_list [ (10, huge); (25, 2 * huge) ])
      [| chain [| 0 |]; chain [| 0; 1 |] |]
  in
  let instance = Rentcost.Instance.compile problem in
  let target = 20 in
  let o, fast, fallbacks =
    count_relaxations (fun () -> Rentcost.Ilp.optimize instance ~target)
  in
  Alcotest.(check bool) "proved optimal" true o.Rentcost.Ilp.proved_optimal;
  Alcotest.(check int) "cost matches the oracle"
    (Rentcost.Exhaustive.run instance ~target).Rentcost.Allocation.cost
    (Option.get o.Rentcost.Ilp.allocation).Rentcost.Allocation.cost;
  Alcotest.(check bool) "at least one fallback" true (fallbacks >= 1);
  Alcotest.(check int) "one relaxation per node" o.Rentcost.Ilp.nodes
    (fast + fallbacks);
  (* Warm children overflow too. Here the root and every cold
     relaxation fit the fast range, but a child's dual pivots on top of
     the root's tableau do not: that child re-solves cold, still on the
     fast engine, and still counts as exactly one relaxation. The
     model is one whose strengthened tree still reaches such a child
     (7 nodes, the optimum x0 = x1 = 1 at cost 11). *)
  let m = M.create () in
  let xs = Array.init 3 (fun _ -> M.add_var m) in
  let row coeffs rhs =
    M.add_constraint m (List.mapi (fun i c -> (xs.(i), c)) coeffs) M.Ge rhs
  in
  row [ 3797; 2147; 3 ] 2774;
  row [ 1655; 3503; 338 ] 2006;
  row [ 3584; 2; 3 ] 1817;
  Array.iter (fun x -> M.add_constraint m [ (x, 1) ] M.Le 50) xs;
  M.set_objective m [ (xs.(0), 6); (xs.(1), 5); (xs.(2), 7) ];
  Alcotest.(check bool) "root fits the fast range" true
    (match S.solve_fast m with
     | _ -> true
     | exception K.Overflow -> false);
  let warm0 = Telemetry.value Telemetry.milp_warm_nodes in
  let o, fast, fallbacks =
    count_relaxations (fun () -> Milp.Solver.solve m)
  in
  let warm = Telemetry.value Telemetry.milp_warm_nodes - warm0 in
  let nodes = o.Milp.Solver.nodes in
  Alcotest.(check bool) "MIP proved optimal" true
    (o.Milp.Solver.status = Milp.Solver.Optimal);
  (match o.Milp.Solver.solution with
   | Some sol ->
     Alcotest.(check int) "MIP optimum (x0 = x1 = 1)" 11 sol.Milp.Solver.objective;
     Alcotest.(check (array int)) "MIP point" [| 1; 1; 0 |] sol.Milp.Solver.values
   | None -> Alcotest.fail "MIP must have a solution");
  Alcotest.(check int) "MIP: one relaxation per node" nodes (fast + fallbacks);
  Alcotest.(check int) "MIP: no fallback" 0 fallbacks;
  Alcotest.(check bool)
    (Printf.sprintf "a child with a parent tableau solved cold (%d warm of %d)"
       warm nodes)
    true
    (warm < nodes - 1)

(* Regression: the paper's figure presets stay inside the fast range.
   Node-capped solves over four seeded instances of each of the Fig. 3,
   6 and 7 presets must not fall back on a single relaxation. *)
let test_presets_never_fall_back () =
  List.iter
    (fun id ->
      let preset = Option.get (Cloudsim.Experiments.find id) in
      let rng = Numeric.Prng.create 2016 in
      for k = 1 to 4 do
        let problem =
          Cloudsim.Generator.problem ~rng preset.Cloudsim.Experiments.graphs
            preset.Cloudsim.Experiments.cloud
        in
        List.iter
          (fun target ->
            let _, fast, fallbacks =
              count_relaxations (fun () ->
                  Rentcost.Ilp.optimize ~node_limit:300
                    (Rentcost.Instance.compile problem) ~target)
            in
            let label = Printf.sprintf "%s #%d at %d" id k target in
            Alcotest.(check int) (label ^ ": no fallback") 0 fallbacks;
            Alcotest.(check bool) (label ^ ": relaxations ran") true (fast > 0))
          [ 20; 60; 100; 140; 200 ]
      done)
    [ "fig3"; "fig6"; "fig7" ]

(* Random shared-type instances priced near max_int / 1024: 2-3 types
   at 1-4 times that (plus a small odd part, so costs share no
   factor), 2-3 recipes of 1-3 tasks, targets 1-30. The root overflows
   the fast range and solves on Rat, so the tree branches on Rats
   points, whose floors and ceilings become the int branch bounds;
   the proved cost must still be the exhaustive oracle's. *)
let huge_gen =
  QCheck2.Gen.(
    let huge = max_int / 1024 in
    let machine =
      map2
        (fun (k, odd) r -> ((k * huge) + odd, r))
        (pair (int_range 1 4) (int_range 0 999))
        (int_range 1 30)
    in
    triple
      (list_size (int_range 2 3) machine)
      (list_size (int_range 2 3) (list_size (int_range 1 3) (int_range 0 2)))
      (int_range 1 30))

(* The problem of a [huge_gen] draw, without its target. *)
let huge_problem (machines, recipes, _) =
  let ntypes = List.length machines in
  Rentcost.Problem.create
    (Rentcost.Platform.of_list machines)
    (Array.of_list
       (List.map
          (fun types ->
            Rentcost.Task_graph.chain ~ntypes
              ~types:(Array.of_list (List.map (fun q -> q mod ntypes) types)))
          recipes))

let huge_props =
  [ prop ~count:100 "ILP on Rat relaxations matches the oracle" huge_gen
      (fun ((_, _, target) as input) ->
        let instance = Rentcost.Instance.compile (huge_problem input) in
        let o, _, fallbacks =
          count_relaxations (fun () -> Rentcost.Ilp.optimize instance ~target)
        in
        o.Rentcost.Ilp.proved_optimal && fallbacks >= 1
        && (Option.get o.Rentcost.Ilp.allocation).Rentcost.Allocation.cost
           = (Rentcost.Exhaustive.run instance ~target).Rentcost.Allocation.cost) ]

let suite =
  ( "numeric-kernel",
    [ Alcotest.test_case "simplex overflow on injection" `Quick
        test_simplex_overflow_on_injection;
      Alcotest.test_case "simplex overflow on pivot" `Quick
        test_simplex_overflow_on_pivot;
      Alcotest.test_case "simplex overflow on row lcm" `Quick
        test_simplex_overflow_on_row_lcm;
      Alcotest.test_case "driver fast path" `Quick test_driver_fast_path;
      Alcotest.test_case "driver falls back on huge costs" `Quick
        test_driver_falls_back_on_huge_costs;
      Alcotest.test_case "zero fallbacks on figure presets" `Slow
        test_presets_never_fall_back ]
    @ solver_props @ huge_props )
