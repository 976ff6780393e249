(* Tests for the exact simplex: hand-checked LPs covering optimal,
   infeasible, unbounded and degenerate cases, plus qcheck properties
   on randomly generated feasible programs. *)

module R = Numeric.Rat
module M = Lp.Model
module S = Lp.Simplex

let r = R.of_ints
let ri = R.of_int

(* The row [x_v cmp b]: a model's only way to bound a variable. *)
let bound m v cmp b = M.add_constraint m [ (v, 1) ] cmp b

(* The equality [terms = b] as a [>=] and a [<=] row. *)
let equal m terms b =
  M.add_constraint m terms M.Ge b;
  M.add_constraint m terms M.Le b

let check_rat msg expected actual =
  Alcotest.(check string) msg (R.For_testing.to_string expected)
    (R.For_testing.to_string actual)

(* [Σ c·x] at a rational point. *)
let value terms values =
  List.fold_left (fun acc (v, c) -> R.add acc (R.mul (ri c) values.(v))) R.zero terms

(* [M.check_feasible] at an LP's rational point. *)
let feasible m values =
  Array.length values = M.num_vars m
  && Array.for_all (fun v -> R.sign v >= 0) values
  && List.for_all
       (fun { M.terms; cmp; rhs } ->
         let c = R.compare (value terms values) (ri rhs) in
         match cmp with M.Le -> c <= 0 | M.Ge -> c >= 0)
       (M.constraints m)

let solve_opt m =
  match S.For_testing.solve m with
  | S.Optimal sol -> sol
  | S.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | S.Unbounded -> Alcotest.fail "unexpected: unbounded"

let wraps label f =
  Alcotest.check_raises label
    (Invalid_argument "Numeric.Kernel: integer overflow") (fun () ->
      ignore (f ()))

(* --- the model --- *)

(* A row's and the objective's value at an integer point: terms are
   kept in the order given, and a value past the int range raises
   rather than wraps. *)
let test_model_evaluation () =
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  M.add_constraint m [ (y, 3); (x, 2) ] M.Ge 8;
  M.add_constraint m [ (x, 1) ] M.Le 4;
  M.set_objective m [ (x, 2); (y, 3) ];
  Alcotest.(check (list (pair int int))) "terms in the order given"
    [ (y, 3); (x, 2) ]
    (List.hd (M.constraints m)).M.terms;
  Alcotest.(check int) "2*1 + 3*2" 8 (M.objective_value m [| 1; 2 |]);
  Alcotest.(check bool) "(1, 2) is feasible" true (M.check_feasible m [| 1; 2 |]);
  Alcotest.(check bool) "(5, 0) breaks x <= 4" false
    (M.check_feasible m [| 5; 0 |]);
  Alcotest.(check bool) "a negative value" false (M.check_feasible m [| -1; 4 |]);
  Alcotest.(check bool) "a point of the wrong length" false
    (M.check_feasible m [| 1 |]);
  Alcotest.check_raises "a variable past the point"
    (Invalid_argument "Model: variable past the point") (fun () ->
      ignore (M.objective_value m [| 1 |]));
  wraps "an objective sum past max_int" (fun () ->
      M.objective_value m [| max_int / 2; 1 |]);
  wraps "a row product past max_int" (fun () ->
      M.check_feasible m [| 0; max_int / 2 |])

(* --- basic LPs --- *)

(* max 3x + 2y, as min -3x - 2y, s.t. x + y <= 4; x + 3y <= 6
   -> x=4, y=0, obj -12 *)
let test_lp_max_basic () =
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  M.add_constraint m [ (x, 1); (y, 1) ] M.Le 4;
  M.add_constraint m [ (x, 1); (y, 3) ] M.Le 6;
  M.set_objective m [ (x, -3); (y, -2) ];
  let sol = solve_opt m in
  check_rat "objective" (ri (-12)) sol.objective;
  check_rat "x" (ri 4) sol.values.(x);
  check_rat "y" R.zero sol.values.(y)

(* min x + y s.t. x + 2y >= 4; 3x + y >= 6 -> intersection (8/5, 6/5), obj 14/5 *)
let test_lp_min_cover () =
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  M.add_constraint m [ (x, 1); (y, 2) ] M.Ge 4;
  M.add_constraint m [ (x, 3); (y, 1) ] M.Ge 6;
  M.set_objective m [ (x, 1); (y, 1) ];
  let sol = solve_opt m in
  check_rat "objective" (r 14 5) sol.objective;
  check_rat "x" (r 8 5) sol.values.(x);
  check_rat "y" (r 6 5) sol.values.(y)

let test_lp_equality () =
  (* min 2x + y s.t. x + y = 3 (a >= and a <= row), x <= 2 -> x=0,
     y=3, cost 3. *)
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  equal m [ (x, 1); (y, 1) ] 3;
  bound m x M.Le 2;
  M.set_objective m [ (x, 2); (y, 1) ];
  let sol = solve_opt m in
  check_rat "objective" (ri 3) sol.objective;
  check_rat "y" (ri 3) sol.values.(y)

let test_lp_infeasible () =
  let m = M.create () in
  let x = M.add_var m in
  M.add_constraint m [ (x, 1) ] M.Le 1;
  M.add_constraint m [ (x, 1) ] M.Ge 2;
  M.set_objective m [ (x, 1) ];
  (match S.For_testing.solve m with
   | S.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible");
  let m2 = M.create () in
  let x = M.add_var m2 and y = M.add_var m2 in
  equal m2 [ (x, 1); (y, 1) ] 1;
  equal m2 [ (x, 1); (y, 1) ] 2;
  M.set_objective m2 [ (x, 1) ];
  match S.For_testing.solve m2 with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible (equalities)"

let test_lp_unbounded () =
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  M.add_constraint m [ (x, 1); (y, -1) ] M.Le 1;
  M.set_objective m [ (x, -1) ];
  (match S.For_testing.solve m with
   | S.Unbounded -> ()
   | _ -> Alcotest.fail "expected unbounded");
  let m2 = M.create () in
  let x = M.add_var m2 in
  M.set_objective m2 [ (x, -1) ];
  match S.For_testing.solve m2 with
  | S.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded (no constraints)"

let test_lp_no_constraints_bounded () =
  let m = M.create () in
  let x = M.add_var m in
  M.set_objective m [ (x, 1) ];
  let sol = solve_opt m in
  check_rat "objective 0 at origin" R.zero sol.objective

let test_lp_negative_rhs () =
  (* x - y <= -2 with min x: a model takes the row only oriented, as
     -x + y >= 2. Feasible: y >= x + 2; min x = 0 (y = 2). *)
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  Alcotest.check_raises "a negative right-hand side"
    (Invalid_argument "Model.add_constraint: negative right-hand side")
    (fun () -> M.add_constraint m [ (x, 1); (y, -1) ] M.Le (-2));
  Alcotest.(check int) "the rejected row is not added" 0
    (List.length (M.constraints m));
  M.add_constraint m [ (x, -1); (y, 1) ] M.Ge 2;
  M.set_objective m [ (x, 1) ];
  let sol = solve_opt m in
  check_rat "objective" R.zero sol.objective;
  Alcotest.(check bool) "feasible point" true (feasible m sol.values)

let test_lp_degenerate () =
  (* Beale's cycling example, its two fractional rows and its objective
     scaled by 100 to integer data (a positive row scaling leaves
     Bland's walk as it is): Bland's rule must terminate and reach the
     optimum value 100 * -1/20. *)
  let m = M.create () in
  let x1 = M.add_var m and x2 = M.add_var m
  and x3 = M.add_var m and x4 = M.add_var m in
  M.add_constraint m [ (x1, 25); (x2, -6000); (x3, -4); (x4, 900) ] M.Le 0;
  M.add_constraint m [ (x1, 50); (x2, -9000); (x3, -2); (x4, 300) ] M.Le 0;
  M.add_constraint m [ (x3, 1) ] M.Le 1;
  M.set_objective m [ (x1, -75); (x2, 15000); (x3, -2); (x4, 600) ];
  let sol = solve_opt m in
  check_rat "beale optimum" (ri (-5)) sol.objective

let test_lp_fractional_exact () =
  (* An optimum with awkward fractions must come out exact. *)
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  M.add_constraint m [ (x, 7); (y, 3) ] M.Ge 5;
  M.add_constraint m [ (x, 2); (y, 11) ] M.Ge 13;
  M.set_objective m [ (x, 17); (y, 19) ];
  let sol = solve_opt m in
  (* Vertex of the two constraints: x = 16/71, y = 81/71. *)
  check_rat "x" (r 16 71) sol.values.(x);
  check_rat "y" (r 81 71) sol.values.(y);
  check_rat "objective" (r 1811 71) sol.objective

let test_model_copy_isolated () =
  let m = M.create () in
  let x = M.add_var m in
  M.add_constraint m [ (x, 1) ] M.Ge 1;
  M.set_objective m [ (x, 1) ];
  let m2 = M.copy m in
  bound m2 x M.Le 0;
  (match S.For_testing.solve m2 with
   | S.Infeasible -> ()
   | _ -> Alcotest.fail "copy: expected infeasible");
  match S.For_testing.solve m with
  | S.Optimal sol -> check_rat "original intact" R.one sol.objective
  | _ -> Alcotest.fail "original model broken by copy"

(* A row or an objective names every variable once, each a known one
   with a non-zero coefficient. *)
let test_model_validation () =
  let m = M.create () in
  let x = M.add_var m in
  let rejects label msg f = Alcotest.check_raises label (Invalid_argument msg) f in
  rejects "unknown var in constraint" "Model.add_constraint: unknown variable"
    (fun () -> M.add_constraint m [ (5, 1) ] M.Le 1);
  rejects "negative var in constraint" "Model.add_constraint: unknown variable"
    (fun () -> M.add_constraint m [ (-1, 1) ] M.Le 1);
  rejects "repeated var in constraint" "Model.add_constraint: repeated variable"
    (fun () -> M.add_constraint m [ (x, 2); (x, -2) ] M.Le 1);
  rejects "zero coefficient in constraint"
    "Model.add_constraint: zero coefficient" (fun () ->
      M.add_constraint m [ (x, 0) ] M.Le 1);
  rejects "unknown var in objective" "Model.set_objective: unknown variable"
    (fun () -> M.set_objective m [ (3, 1) ]);
  rejects "repeated var in objective" "Model.set_objective: repeated variable"
    (fun () -> M.set_objective m [ (x, 1); (x, 1) ]);
  rejects "zero coefficient in objective" "Model.set_objective: zero coefficient"
    (fun () -> M.set_objective m [ (x, 0) ]);
  Alcotest.(check int) "no row was added" 0 (List.length (M.constraints m));
  Alcotest.(check (list (pair int int))) "the objective is still zero" []
    (M.objective m)

(* --- bound rows ---

   A model bounds a variable with a row [x_v cmp b]. Each case runs
   through both engines, which must agree bit-for-bit: the fast engine
   may not overflow on these small models. *)

let result_equal (a : S.result) (b : S.result) =
  match (a, b) with
  | S.Optimal x, S.Optimal y ->
    R.equal x.objective y.objective && Array.for_all2 R.equal x.values y.values
  | S.Infeasible, S.Infeasible | S.Unbounded, S.Unbounded -> true
  | _ -> false

let solve_both m =
  let exact = S.solve_exact m in
  Alcotest.(check bool) "fast engine agrees with exact" true
    (result_equal (S.solve_fast m) exact);
  exact

let solve_both_opt m =
  match solve_both m with
  | S.Optimal sol -> sol
  | S.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | S.Unbounded -> Alcotest.fail "unexpected: unbounded"

let expect_infeasible m =
  match solve_both m with
  | S.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_upper_bound_binds () =
  (* min -x with x <= 7 as a bound row: the optimum sits at it. *)
  let m = M.create () in
  let x = M.add_var m in
  bound m x M.Le 7;
  M.set_objective m [ (x, -1) ];
  let sol = solve_both_opt m in
  check_rat "x = 7" (ri 7) sol.values.(x);
  check_rat "objective" (ri (-7)) sol.objective

let test_lower_bound_shifts () =
  (* min x + y, x >= 3 (bound row), x + y >= 5. *)
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  M.add_constraint m [ (x, 1); (y, 1) ] M.Ge 5;
  bound m x M.Ge 3;
  M.set_objective m [ (x, 1); (y, 1) ];
  let sol = solve_both_opt m in
  check_rat "objective 5" (ri 5) sol.objective;
  Alcotest.(check bool) "x at least 3" true (R.compare sol.values.(x) (ri 3) >= 0)

let test_crossing_bounds_infeasible () =
  let m = M.create () in
  let x = M.add_var m in
  bound m x M.Ge 5;
  bound m x M.Le 3;
  M.set_objective m [ (x, 1) ];
  expect_infeasible m

let test_fixed_variable () =
  (* x fixed at 4 by equal bounds; min y with y >= 10 - x. *)
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  M.add_constraint m [ (x, 1); (y, 1) ] M.Ge 10;
  bound m x M.Ge 4;
  bound m x M.Le 4;
  M.set_objective m [ (y, 1) ];
  let sol = solve_both_opt m in
  check_rat "x pinned" (ri 4) sol.values.(x);
  check_rat "y" (ri 6) sol.values.(y)

let test_bounds_with_infeasible_rows () =
  (* Bounds satisfiable but rows not. *)
  let m = M.create () in
  let x = M.add_var m in
  M.add_constraint m [ (x, 1) ] M.Ge 5;
  bound m x M.Le 2;
  M.set_objective m [ (x, 1) ];
  expect_infeasible m

let test_unbounded_then_capped () =
  let m = M.create () in
  let x = M.add_var m in
  M.set_objective m [ (x, -1) ];
  (match solve_both m with
   | S.Unbounded -> ()
   | _ -> Alcotest.fail "expected unbounded");
  (* The same objective with an upper bound is bounded. *)
  bound m x M.Le 9;
  check_rat "capped" (ri (-9)) (solve_both_opt m).objective

let test_eq_rows_with_bounds () =
  (* An equality's >= row takes a phase-1 artificial; a bound decides
     the split. *)
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  equal m [ (x, 1); (y, 1) ] 6;
  bound m x M.Le 4;
  M.set_objective m [ (y, 1) ];
  let sol = solve_both_opt m in
  check_rat "x at its cap" (ri 4) sol.values.(x);
  check_rat "y fills the rest" (ri 2) sol.values.(y);
  (* a - b = -3, oriented as -a + b = 3. *)
  let m2 = M.create () in
  let a = M.add_var m2 and b = M.add_var m2 in
  equal m2 [ (a, -1); (b, 1) ] 3;
  M.set_objective m2 [ (a, 1); (b, 1) ];
  check_rat "a=0, b=3" (ri 3) (solve_both_opt m2).objective

let test_negative_rhs_with_bounds () =
  (* x - y <= -2, oriented as -x + y >= 2, needs a phase-1 artificial
     next to a bound row. *)
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  M.add_constraint m [ (x, -1); (y, 1) ] M.Ge 2;
  bound m y M.Le 10;
  M.set_objective m [ (x, -1) ];
  (* y <= 10 and y >= x + 2 force x <= 8. *)
  check_rat "objective -8" (ri (-8)) (solve_both_opt m).objective

(* --- qcheck properties --- *)

(* Random LPs of the covering form: minimize c.x s.t. A x >= b with
   positive data — always feasible and bounded, so the simplex must
   return a feasible optimum. *)
let covering_gen =
  QCheck2.Gen.(
    let small = int_range 1 9 in
    pair
      (pair (int_range 1 4) (int_range 1 4))
      (pair (list_size (return 16) small) (list_size (return 4) small)))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let build_covering ((nv, nc), (coeffs, rhs)) =
  let m = M.create () in
  let vars = Array.init nv (fun _ -> M.add_var m) in
  let coeff = Array.of_list coeffs in
  let rhs = Array.of_list rhs in
  for c = 0 to nc - 1 do
    let terms =
      Array.to_list (Array.mapi (fun i v -> (v, coeff.(((c * nv) + i) mod 16))) vars)
    in
    M.add_constraint m terms M.Ge rhs.(c mod 4)
  done;
  M.set_objective m (Array.to_list (Array.mapi (fun i v -> (v, 1 + (i mod 3))) vars));
  m

let props =
  [ prop "covering LPs solve to a feasible optimum" covering_gen (fun input ->
        let m = build_covering input in
        match S.For_testing.solve m with
        | S.Optimal sol -> feasible m sol.values && R.sign sol.objective >= 0
        | S.Infeasible | S.Unbounded -> false);
    prop "optimal no worse than a generous feasible point" covering_gen
      (fun input ->
        let m = build_covering input in
        match S.For_testing.solve m with
        | S.Optimal sol ->
          let point = Array.make (M.num_vars m) 9 in
          (not (M.check_feasible m point))
          || R.compare sol.objective (ri (M.objective_value m point)) <= 0
        | _ -> false);
    prop "duplicated constraints do not change the optimum" covering_gen
      (fun input ->
        let m1 = build_covering input in
        let m2 = build_covering input in
        List.iter
          (fun { M.terms; cmp; rhs } -> M.add_constraint m2 terms cmp rhs)
          (M.constraints m1);
        match (S.For_testing.solve m1, S.For_testing.solve m2) with
        | S.Optimal a, S.Optimal b -> R.equal a.objective b.objective
        | _ -> false) ]

(* Random models with mixed row senses, signed data and bound rows,
   through both engines. A generated row with a negative right-hand
   side is added oriented (both sides negated, the comparison
   flipped), an equality as a [>=] and a [<=] row, and a maximization
   as the minimization of the negated costs; zero coefficients are
   left out. *)
let bounded_gen =
  QCheck2.Gen.(
    pair
      (pair (int_range 1 4) (int_range 0 4))
      (pair
         (pair (list_size (return 16) (int_range (-4) 4))
            (list_size (return 4) (int_range (-8) 8)))
         (pair
            (pair (list_size (return 4) (int_range 0 6))
               (list_size (return 4) (option (int_range 0 9))))
            (pair (list_size (return 4) (int_range 0 2)) bool))))

let build_bounded
    ((nvars, nrows), ((coeffs, rhs), ((lowers, uppers), (senses, maximize)))) =
  let coeffs = Array.of_list coeffs and rhs = Array.of_list rhs in
  let lowers = Array.of_list lowers and uppers = Array.of_list uppers in
  let senses = Array.of_list senses in
  let m = M.create () in
  let vars = Array.init nvars (fun _ -> M.add_var m) in
  let nonzero l = List.filter (fun (_, c) -> c <> 0) l in
  for row = 0 to nrows - 1 do
    let terms =
      nonzero
        (Array.to_list
           (Array.mapi (fun i v -> (v, coeffs.(((row * nvars) + i) mod 16))) vars))
    in
    let b = rhs.(row mod 4) in
    let terms, b, (ge, le) =
      if b < 0 then (List.map (fun (v, c) -> (v, -c)) terms, -b, (M.Le, M.Ge))
      else (terms, b, (M.Ge, M.Le))
    in
    match senses.(row mod 4) with
    | 0 -> M.add_constraint m terms ge b
    | 1 -> M.add_constraint m terms le b
    | _ -> equal m terms b
  done;
  (* Each variable's bounds after the rows, a zero lower bound left
     out. *)
  Array.iteri
    (fun i v ->
      if lowers.(i mod 4) > 0 then bound m v M.Ge lowers.(i mod 4);
      Option.iter (fun u -> bound m v M.Le u) uppers.(i mod 4))
    vars;
  let sign = if maximize then -1 else 1 in
  M.set_objective m
    (nonzero
       (Array.to_list (Array.mapi (fun i v -> (v, sign * coeffs.(i mod 16))) vars)));
  m

let bounded_props =
  [ prop "fast and exact agree on bounded models" bounded_gen (fun input ->
        let m = build_bounded input in
        result_equal (S.solve_fast m) (S.solve_exact m));
    prop "solutions are feasible including bounds" bounded_gen (fun input ->
        let m = build_bounded input in
        match S.For_testing.solve m with
        | S.Optimal sol -> feasible m sol.values
        | S.Infeasible | S.Unbounded -> true) ]

let suite =
  ( "lp",
    [ Alcotest.test_case "model evaluation" `Quick test_model_evaluation;
      Alcotest.test_case "max basic" `Quick test_lp_max_basic;
      Alcotest.test_case "min cover" `Quick test_lp_min_cover;
      Alcotest.test_case "equality constraint" `Quick test_lp_equality;
      Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
      Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
      Alcotest.test_case "no constraints, bounded" `Quick test_lp_no_constraints_bounded;
      Alcotest.test_case "negative rhs reorientation" `Quick test_lp_negative_rhs;
      Alcotest.test_case "degenerate (Beale)" `Quick test_lp_degenerate;
      Alcotest.test_case "fractional exact optimum" `Quick test_lp_fractional_exact;
      Alcotest.test_case "model copy isolation" `Quick test_model_copy_isolated;
      Alcotest.test_case "model validation" `Quick test_model_validation;
      Alcotest.test_case "upper bound binds" `Quick test_upper_bound_binds;
      Alcotest.test_case "lower bound shifts" `Quick test_lower_bound_shifts;
      Alcotest.test_case "crossing bounds infeasible" `Quick
        test_crossing_bounds_infeasible;
      Alcotest.test_case "fixed variable" `Quick test_fixed_variable;
      Alcotest.test_case "bounds with infeasible rows" `Quick
        test_bounds_with_infeasible_rows;
      Alcotest.test_case "unbounded then capped" `Quick test_unbounded_then_capped;
      Alcotest.test_case "equality rows with bounds" `Quick test_eq_rows_with_bounds;
      Alcotest.test_case "negative rhs with bounds (phase 1)" `Quick
        test_negative_rhs_with_bounds ]
    @ props @ bounded_props )
