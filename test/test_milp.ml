(* Tests for the branch-and-bound integer solver: hand-checked integer
   programs, a brute-force enumeration oracle on random small IPs,
   and limit behaviour. *)

module R = Numeric.Rat
module B = Numeric.Bigint
module M = Lp.Model
module Solver = Milp.Solver

let check_int msg expected actual = Alcotest.(check int) msg expected actual

let solve ?time_limit ?node_limit m = Solver.solve ?time_limit ?node_limit m

let get_solution outcome =
  match outcome.Solver.solution with
  | Some s -> s
  | None -> Alcotest.fail "expected a solution"

(* --- hand-checked MIPs --- *)

(* max x + y, as min -x - y, over 2x + y <= 5, x + 3y <= 6, integers
   -> LP opt at (1.8, 1.4); integer optimum (2, 1) with value -3. *)
let test_basic_branching () =
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  M.add_constraint m [ (x, 2); (y, 1) ] M.Le 5;
  M.add_constraint m [ (x, 1); (y, 3) ] M.Le 6;
  M.set_objective m [ (x, -1); (y, -1) ];
  let outcome = solve m in
  Alcotest.(check bool) "optimal" true (outcome.Solver.status = Solver.Optimal);
  let sol = get_solution outcome in
  check_int "objective" (-3) sol.Solver.objective

(* Knapsack-flavoured: min 5x + 4y s.t. 3x + 2y >= 7 -> LP (0, 3.5) = 14;
   integer candidates: y=4 -> 16, x=1,y=2 -> 13 (3+4=7 ok). Optimum 13. *)
let test_min_cover_integer () =
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  M.add_constraint m [ (x, 3); (y, 2) ] M.Ge 7;
  M.set_objective m [ (x, 5); (y, 4) ];
  let outcome = solve m in
  let sol = get_solution outcome in
  check_int "objective" 13 sol.Solver.objective;
  check_int "x" 1 sol.Solver.values.(x);
  check_int "y" 2 sol.Solver.values.(y)

let test_already_integral_relaxation () =
  (* LP optimum is integral: should solve in a single node. *)
  let m = M.create () in
  let x = M.add_var m in
  M.add_constraint m [ (x, 1) ] M.Ge 4;
  M.set_objective m [ (x, 3) ];
  let outcome = solve m in
  Alcotest.(check int) "single node" 1 outcome.Solver.nodes;
  check_int "objective" 12 (get_solution outcome).Solver.objective

let test_infeasible_integer () =
  (* 1/3 <= x <= 2/3 has no integer point. *)
  let m = M.create () in
  let x = M.add_var m in
  M.add_constraint m [ (x, 3) ] M.Ge 1;
  M.add_constraint m [ (x, 3) ] M.Le 2;
  M.set_objective m [ (x, 1) ];
  let outcome = solve m in
  Alcotest.(check bool) "infeasible" true (outcome.Solver.status = Solver.Infeasible)

let test_lp_infeasible_root () =
  let m = M.create () in
  let x = M.add_var m in
  M.add_constraint m [ (x, 1) ] M.Le 1;
  M.add_constraint m [ (x, 1) ] M.Ge 2;
  M.set_objective m [ (x, 1) ];
  let outcome = solve m in
  Alcotest.(check bool) "infeasible" true (outcome.Solver.status = Solver.Infeasible)

let test_unbounded_root () =
  let m = M.create () in
  let x = M.add_var m in
  M.set_objective m [ (x, -1) ];
  let outcome = solve m in
  Alcotest.(check bool) "unbounded" true (outcome.Solver.status = Solver.Unbounded)

let test_node_limit () =
  (* A MIP needing several nodes, capped at 1 node: status Feasible or
     Unknown, never Optimal. *)
  let m = M.create () in
  let x = M.add_var m and y = M.add_var m in
  M.add_constraint m [ (x, 2); (y, 3) ] M.Ge 7;
  M.set_objective m [ (x, 3); (y, 4) ];
  let outcome = solve ~node_limit:1 m in
  Alcotest.(check bool) "not proven optimal" true
    (outcome.Solver.status <> Solver.Optimal);
  Alcotest.(check bool) "bound reported" true (outcome.Solver.best_bound <> None)

let test_time_limit_zero () =
  let m = M.create () in
  let x = M.add_var m in
  M.add_constraint m [ (x, 2) ] M.Ge 3;
  M.set_objective m [ (x, 1) ];
  let outcome = solve ~time_limit:(-1.0) m in
  (* The budget is already exhausted before the first node. *)
  Alcotest.(check bool) "unknown" true (outcome.Solver.status = Solver.Unknown);
  Alcotest.(check int) "no nodes" 0 outcome.Solver.nodes

(* The primal-heuristic hook: its point is checked exactly,
   installed only when strictly better, and can close a node's gap on
   its own. On min 3x + 3y over 2x + 2y >= 5 the LP bound 15/2
   strengthens to 8, below the integer optimum 9, so the root's
   rounding (0, 3) leaves the gap open and later nodes call the hook
   again. On min x + y over the same row the bound 5/2 strengthens to
   3, which the rounding (3, 0) meets at the root. *)
let test_round_hook () =
  let build cost =
    let m = M.create () in
    let x = M.add_var m and y = M.add_var m in
    M.add_constraint m [ (x, 2); (y, 2) ] M.Ge 5;
    M.set_objective m [ (x, cost); (y, cost) ];
    m
  in
  let rounded point ~incumbent:_ _ = Some point in
  let m = build 1 in
  Alcotest.check_raises "infeasible rounded point"
    (Invalid_argument
       "Milp.Solver.solve: rounded point is not a feasible integer point")
    (fun () -> ignore (Solver.solve ~round:(rounded [| 1; 1 |]) m));
  (* The root's point (0, 3) becomes the incumbent; the equally cheap
     (3, 0) offered at every later node never replaces it. The hook
     sees the incumbent's objective and the node's LP point, the
     root's (5/2, 0). *)
  let seen = ref [] and points = ref [] in
  let no_cheaper ~incumbent point =
    seen := incumbent :: !seen;
    points := point :: !points;
    Some (if incumbent = None then [| 0; 3 |] else [| 3; 0 |])
  in
  let kept = Solver.solve ~round:no_cheaper (build 3) in
  Alcotest.(check bool) "optimal" true (kept.Solver.status = Solver.Optimal);
  Alcotest.(check (array int)) "incumbent kept" [| 0; 3 |]
    (get_solution kept).Solver.values;
  check_int "its cost" 9 (get_solution kept).Solver.objective;
  (match List.rev !seen with
   | None :: (_ :: _ as later) ->
     Alcotest.(check bool) "hook saw the incumbent" true
       (List.for_all (( = ) (Some 9)) later)
   | _ -> Alcotest.fail "hook: expected the root's call and a later one");
  (match List.rev !points with
   | point :: _ ->
     Alcotest.(check (list string)) "hook saw the root's LP point" [ "5/2"; "0" ]
       (Array.to_list (Array.map R.to_string (Lp.Simplex.values point)))
   | [] -> Alcotest.fail "hook: expected the root's point");
  (* A root that rounds to its own bound proves optimal at one node;
     without the hook the same solve branches. *)
  let proved = Solver.solve ~round:(rounded [| 3; 0 |]) m in
  Alcotest.(check bool) "optimal" true (proved.Solver.status = Solver.Optimal);
  Alcotest.(check int) "one node" 1 proved.Solver.nodes;
  check_int "optimum" 3 (get_solution proved).Solver.objective;
  let plain = Solver.solve (build 1) in
  check_int "same optimum without the hook" 3
    (get_solution plain).Solver.objective;
  Alcotest.(check bool) "the hook saved nodes" true (plain.Solver.nodes > 1)

(* A cutoff is an incumbent with no point behind it. On min 5x + 4y
   over 3x + 2y >= 7 (optimum 13): above the optimum it changes
   nothing, at or below it nothing beats it and the tree closes
   Infeasible. A rounded point past it is declined rather than
   raised, and the round hook sees it as the incumbent. A
   maximization takes its cutoff in its own sense. *)
let test_cutoff () =
  let build () =
    let m = M.create () in
    let x = M.add_var m and y = M.add_var m in
    M.add_constraint m [ (x, 3); (y, 2) ] M.Ge 7;
    M.set_objective m [ (x, 5); (y, 4) ];
    m
  in
  let m = build () in
  let cut ?node_limit ?round c = Solver.solve ?node_limit ?round ~cutoff:c m in
  let above = cut 14 in
  Alcotest.(check bool) "above the optimum: optimal" true
    (above.Solver.status = Solver.Optimal);
  check_int "above the optimum: same optimum" 13
    (get_solution above).Solver.objective;
  List.iter
    (fun c ->
      let o = cut c in
      Alcotest.(check bool)
        (Printf.sprintf "cutoff %d: infeasible" c)
        true
        (o.Solver.status = Solver.Infeasible && o.Solver.solution = None))
    [ 13; 12; 0 ];
  (* (3, 0) costs 15: past a cutoff of 14 it is declined, not raised. *)
  let over ~incumbent:_ _ = Some [| 3; 0 |] in
  check_int "over-cutoff rounded point declined" 13
    (get_solution (cut ~round:over 14)).Solver.objective;
  let idle = cut ~node_limit:1 ~round:over 14 in
  Alcotest.(check bool) "no incumbent from an over-cutoff rounded point" true
    (idle.Solver.status = Solver.Unknown && idle.Solver.solution = None);
  let seen = ref [] in
  let watch ~incumbent _ =
    seen := incumbent :: !seen;
    None
  in
  ignore (cut ~node_limit:1 ~round:watch 14);
  Alcotest.(check (list (option int))) "the hook sees the cutoff" [ Some 14 ]
    !seen;
  (* min -x - y over 2x + y <= 5, x + 3y <= 6 (a maximization of
     x + y): optimum -3, below a negative cutoff. *)
  let negated c =
    let m = M.create () in
    let x = M.add_var m and y = M.add_var m in
    M.add_constraint m [ (x, 2); (y, 1) ] M.Le 5;
    M.add_constraint m [ (x, 1); (y, 3) ] M.Le 6;
    M.set_objective m [ (x, -1); (y, -1) ];
    Solver.solve ~cutoff:c m
  in
  check_int "negated costs, cutoff above the optimum" (-3)
    (get_solution (negated (-2))).Solver.objective;
  Alcotest.(check bool) "negated costs, cutoff at the optimum: infeasible" true
    ((negated (-3)).Solver.status = Solver.Infeasible)

let test_priority_groups_same_optimum () =
  let build () =
    let m = M.create () in
    let x = M.add_var m and y = M.add_var m in
    M.add_constraint m [ (x, 3); (y, 5) ] M.Ge 11;
    M.set_objective m [ (x, 4); (y, 7) ];
    (m, x, y)
  in
  let m1, _, _ = build () in
  let plain = Solver.solve m1 in
  let m2, x2, y2 = build () in
  let prioritized = Solver.solve ~priority:[ [ y2 ]; [ x2 ] ] m2 in
  check_int "same optimum" (get_solution plain).Solver.objective
    (get_solution prioritized).Solver.objective

let test_gap () =
  let m = M.create () in
  let x = M.add_var m in
  M.add_constraint m [ (x, 1) ] M.Ge 2;
  M.set_objective m [ (x, 1) ];
  let outcome = solve m in
  match Solver.gap outcome with
  | Some g -> Alcotest.(check (float 1e-9)) "zero gap at optimality" 0.0 g
  | None -> Alcotest.fail "gap should be known"

(* --- brute force oracle --- *)

(* Enumerate x in [0..ub]^n for a covering MIP and compare. *)
let brute_force_cover ~costs ~rows ~rhs ~ub =
  let n = Array.length costs in
  let x = Array.make n 0 in
  let best = ref None in
  let feasible () =
    List.for_all2
      (fun row b ->
        let lhs = ref 0 in
        Array.iteri (fun i c -> lhs := !lhs + (c * x.(i))) row;
        !lhs >= b)
      rows rhs
  in
  let rec go i =
    if i = n then begin
      if feasible () then begin
        let cost = ref 0 in
        Array.iteri (fun i c -> cost := !cost + (c * x.(i))) costs;
        match !best with
        | Some b when b <= !cost -> ()
        | _ -> best := Some !cost
      end
    end
    else
      for v = 0 to ub do
        x.(i) <- v;
        go (i + 1)
      done
  in
  go 0;
  !best

let cover_mip_gen =
  QCheck2.Gen.(
    let coeff = int_range 0 4 in
    let cost = int_range 1 9 in
    pair
      (pair (int_range 1 3) (int_range 1 3))
      (pair (list_size (return 9) coeff) (pair (list_size (return 3) cost) (list_size (return 3) (int_range 1 12)))))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen f)

let build_cover_mip ((nv, nc), (coeffs, (costs, rhs))) =
  let coeffs = Array.of_list coeffs and costs = Array.of_list costs in
  let rhs_all = Array.of_list rhs in
  let costs = Array.sub costs 0 nv in
  let rows =
    List.init nc (fun c -> Array.init nv (fun i -> coeffs.(((c * 3) + i) mod 9)))
  in
  (* Keep rows satisfiable within the brute-force box: a row of all
     zeros with positive rhs is infeasible; the solver must agree. *)
  let rhs = List.init nc (fun c -> rhs_all.(c)) in
  let m = M.create () in
  let vars = Array.init nv (fun _ -> M.add_var m) in
  List.iter2
    (fun row b ->
      M.add_constraint m
        (List.filter
           (fun (_, c) -> c <> 0)
           (Array.to_list (Array.mapi (fun i c -> (vars.(i), c)) row)))
        M.Ge b)
    rows rhs;
  (* The brute-force box is implied: x_i <= 12 suffices since rhs <= 12
     and any positive coefficient is >= 1; add it to the model so both
     searches range over the same space. *)
  Array.iter (fun v -> M.add_constraint m [ (v, 1) ] M.Le 12) vars;
  M.set_objective m (Array.to_list (Array.mapi (fun i v -> (v, costs.(i))) vars));
  (m, costs, rows, rhs)

(* Most-fractional branching as it was decided in Rat before nodes kept
   their values as native pairs: the reference for
   [Lp.Simplex.most_fractional]. *)
let reference_branch_var values groups =
  let half = R.of_ints 1 2 in
  let choose_in_group group =
    let best = ref None in
    List.iter
      (fun v ->
        let x = values.(v) in
        if not (R.is_integer x) then begin
          let score = R.abs (R.sub (R.frac x) half) in
          match !best with
          | Some (_, s) when R.compare s score <= 0 -> ()
          | _ -> best := Some (v, score)
        end)
      group;
    Option.map fst !best
  in
  List.fold_left
    (fun acc group -> match acc with Some _ -> acc | None -> choose_in_group group)
    None groups

(* Points as unreduced native pairs: small denominators make ties and
   integral values common, a few large ones reach the 2^30 range, and
   numerators take both signs. Variables are dealt into 1-3 groups. *)
let branch_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 8)
         (pair
            (oneof [ int_range (-40) 40; int_range (-(1 lsl 29)) ((1 lsl 30) - 1) ])
            (oneof [ int_range 1 8; int_range 1 ((1 lsl 30) - 1) ])))
      (list_size (int_range 1 8) (int_range 0 2)))

let branch_groups n deal =
  let deal = Array.of_list deal in
  List.init 3 (fun g ->
      List.filter (fun v -> deal.(v mod Array.length deal) = g) (List.init n Fun.id))

let props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500
         ~name:"int-pair branching picks the Rat rule's variable" branch_gen
         (fun (pairs, deal) ->
           let n = List.length pairs in
           let flat = Array.make (2 * n) 0 in
           List.iteri
             (fun v (num, den) ->
               flat.(2 * v) <- num;
               flat.((2 * v) + 1) <- den)
             pairs;
           let values = Array.of_list (List.map (fun (a, b) -> R.of_ints a b) pairs) in
           let groups = branch_groups n deal in
           let expected = reference_branch_var values groups in
           let pairs = Lp.Simplex.point_of_pairs flat
           and exact = Lp.Simplex.point_of_values values in
           let floors point =
             List.init n (fun v -> Lp.Simplex.floor point v)
           in
           let expected_floors =
             Array.to_list
               (Array.map (fun x -> Numeric.Bigint.to_int_exn (R.floor x)) values)
           in
           Lp.Simplex.most_fractional pairs groups = expected
           && Lp.Simplex.most_fractional exact groups = expected
           && floors pairs = expected_floors
           && floors exact = expected_floors));
    prop "matches brute force on random covering MIPs" cover_mip_gen (fun input ->
        let m, costs, rows, rhs = build_cover_mip input in
        let outcome = solve m in
        let brute = brute_force_cover ~costs ~rows ~rhs ~ub:12 in
        match (outcome.Solver.status, brute) with
        | Solver.Optimal, Some best -> (get_solution outcome).Solver.objective = best
        | Solver.Infeasible, None -> true
        | _ -> false);
    prop "solution values are integral and feasible" cover_mip_gen (fun input ->
        let m, _, _, _ = build_cover_mip input in
        let outcome = solve m in
        match outcome.Solver.solution with
        | None -> outcome.Solver.status = Solver.Infeasible
        | Some sol -> M.check_feasible m sol.Solver.values) ]

let suite =
  ( "milp",
    [ Alcotest.test_case "basic branching" `Quick test_basic_branching;
      Alcotest.test_case "min cover integer" `Quick test_min_cover_integer;
      Alcotest.test_case "integral relaxation, one node" `Quick
        test_already_integral_relaxation;
      Alcotest.test_case "integer infeasible" `Quick test_infeasible_integer;
      Alcotest.test_case "LP-infeasible root" `Quick test_lp_infeasible_root;
      Alcotest.test_case "unbounded root" `Quick test_unbounded_root;
      Alcotest.test_case "node limit" `Quick test_node_limit;
      Alcotest.test_case "exhausted time budget" `Quick test_time_limit_zero;
      Alcotest.test_case "gap at optimality" `Quick test_gap;
      Alcotest.test_case "round hook" `Quick test_round_hook;
      Alcotest.test_case "cutoff" `Quick test_cutoff;
      Alcotest.test_case "priority groups" `Quick test_priority_groups_same_optimum ]
    @ props )
