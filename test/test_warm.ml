(* The branch-and-bound warm start. [Lp.Simplex.reoptimize] and
   [Lp.Simplex.replay] must agree with a cold [Lp.Simplex.solve] of the
   same child LP, its bounds as rows: the same result, the same exact
   objective, and a point feasible for the child. Then the warm tree of
   [Milp.Solver], end to end: against the exhaustive oracle, and past
   the snapshot word budget, where children replay their paths on the
   root's tableau. *)

module R = Numeric.Rat
module M = Lp.Model
module S = Lp.Simplex

let ri = R.of_int
let check_rat msg expected actual =
  Alcotest.(check string) msg (R.to_string expected) (R.to_string actual)

(* The row [x_v <= b] ([Upper]) or [x_v >= b] ([Lower]); a negative
   [b] as the oriented row [-x_v >= -b] or [-x_v <= -b]. *)
let bound_row m v dir b =
  let cmp = match dir with S.Upper -> M.Le | S.Lower -> M.Ge in
  if b >= 0 then M.add_constraint m [ (v, 1) ] cmp b
  else
    M.add_constraint m [ (v, -1) ] (if cmp = M.Le then M.Ge else M.Le) (-b)

(* [m] with one more bound, as a row. *)
let child m v dir b =
  let c = M.copy m in
  bound_row c v dir b;
  c

(* A finite float as the exact rational it is. *)
let rat_of_float f =
  let m, e = Float.frexp f in
  let n = R.of_int (int_of_float (Float.ldexp m 53)) in
  let p = R.of_bigint (Numeric.Bigint.pow Numeric.Bigint.two (abs (e - 53))) in
  if e >= 53 then R.mul n p else R.div n p

(* The relaxation's float interval holds its exact objective (an
   infinite end holds anything). *)
let interval_holds (r : S.relaxation) =
  let lo, hi = S.objective_interval r.S.objective in
  let x = S.exact_objective r.S.objective in
  (lo = neg_infinity || R.compare (rat_of_float lo) x <= 0)
  && (hi = infinity || R.compare x (rat_of_float hi) <= 0)

(* A warm answer for [m] agrees with a cold solve of [m], and its
   objective interval holds its exact objective. [m]'s bounds are
   rows, so [Test_lp.feasible] checks them. *)
let agrees m warm =
  match (warm, S.solve m) with
  | S.Optimal r, S.Optimal c ->
    let w = S.solution_of r in
    interval_holds r
    && R.equal w.S.objective c.S.objective
    && Test_lp.feasible m w.S.values
  | S.Infeasible, S.Infeasible -> true
  | _ -> false

let snapshot_of m =
  match S.solve_with_snapshot m with
  | S.Optimal r, Some snap -> (S.solution_of r, snap)
  | _ -> Alcotest.fail "parent must solve optimally on the fast engine"

let row_count s = Array.length (fst (S.snapshot_rows s))

let warm_nodes () = Telemetry.value Telemetry.milp_warm_nodes

(* [f ()] and whether it answered warm: a child solved cold, after
   an overflow, does not bump [milp.warm_nodes]. *)
let answered_warm f =
  let w0 = warm_nodes () in
  let x = f () in
  (x, warm_nodes () > w0)

(* Warm-solve the child of [m] from [snap], check it against the cold
   solve and that an optimal child kept its parent's rows, and return
   the child model and the warm answer. *)
let check_child label m snap v dir b =
  let c = child m v dir b in
  let warm = S.reoptimize snap ~var:v ~dir ~bound:b in
  Alcotest.(check bool) (label ^ ": agrees with a cold solve") true
    (agrees c (fst warm));
  (match warm with
   | _, Some csnap ->
     Alcotest.(check int) (label ^ ": the parent's row count") (row_count snap)
       (row_count csnap)
   | _, None -> ());
  (c, warm)

let objective_of label = function
  | S.Optimal (r : S.relaxation), Some _ -> S.exact_objective r.S.objective
  | S.Optimal _, None -> Alcotest.fail (label ^ ": optimal without a snapshot")
  | _ -> Alcotest.fail (label ^ ": expected an optimum")

(* min -x - y + z  s.t.  2x + y <= 5,  x + 2y - z <= 5.
   Optimum x = y = 5/3, z = 0 (objective -10/3): x and y are basic and
   fractional, z is nonbasic with reduced cost 2/3. *)
let parent_model () =
  let m = M.create () in
  let x = M.add_var m in
  let y = M.add_var m in
  let z = M.add_var m in
  M.add_constraint m [ (x, 2); (y, 1) ] M.Le 5;
  M.add_constraint m [ (x, 1); (y, 2); (z, -1) ] M.Le 5;
  M.set_objective m [ (x, -1); (y, -1); (z, 1) ];
  (m, x, y, z)

let test_parent () =
  let m, x, _, z = parent_model () in
  let sol, _ = snapshot_of m in
  check_rat "parent objective" (R.of_ints (-10) 3) sol.S.objective;
  check_rat "x fractional" (R.of_ints 5 3) sol.S.values.(x);
  check_rat "z at zero" R.zero sol.S.values.(z)

let test_upper_on_basic () =
  let m, x, _, _ = parent_model () in
  let _, snap = snapshot_of m in
  let _, warm = check_child "x <= 1" m snap x S.Upper 1 in
  check_rat "x <= 1 optimum" (ri (-3)) (objective_of "x <= 1" warm)

let test_lower_on_basic () =
  let m, x, _, _ = parent_model () in
  let _, snap = snapshot_of m in
  let _, warm = check_child "x >= 2" m snap x S.Lower 2 in
  check_rat "x >= 2 optimum" (ri (-3)) (objective_of "x >= 2" warm)

let test_bounds_on_nonbasic () =
  let m, _, _, z = parent_model () in
  let _, snap = snapshot_of m in
  let _, lower = check_child "z >= 1" m snap z S.Lower 1 in
  check_rat "z >= 1 optimum" (R.of_ints (-8) 3) (objective_of "z >= 1" lower);
  let _, upper = check_child "z <= 0" m snap z S.Upper 0 in
  check_rat "z <= 0 leaves the optimum" (R.of_ints (-10) 3)
    (objective_of "z <= 0" upper)

let test_infeasible_child () =
  let m, x, _, _ = parent_model () in
  let _, snap = snapshot_of m in
  match check_child "x >= 3" m snap x S.Lower 3 with
  | _, (S.Infeasible, None) -> ()
  | _ -> Alcotest.fail "x >= 3 contradicts 2x + y <= 5"

(* The snapshot is never mutated: both children of one parent, in
   either order, see the parent's tableau. *)
let test_siblings_share_snapshot () =
  let m, x, _, _ = parent_model () in
  let _, snap = snapshot_of m in
  for _ = 1 to 2 do
    ignore (check_child "x <= 1" m snap x S.Upper 1);
    ignore (check_child "x >= 2" m snap x S.Lower 2)
  done

(* Only an owning call may change a snapshot. [x] also has bound rows
   in the model, which are rows of the snapshot, and the branch bounds
   tighten its column. The Upper and Lower children, in both orders,
   must each agree with a cold solve, which they cannot if an earlier
   call changed the snapshot; then an owning call agrees too, and its
   result took the snapshot's rows instead of copying them. *)
let test_non_owning_leaves_snapshot () =
  let m, x, _, _ = parent_model () in
  bound_row m x S.Upper 2;
  bound_row m x S.Lower 1;
  let _, snap = snapshot_of m in
  let rows s = fst (S.snapshot_rows s) in
  let copied label (_, warm) =
    match warm with
    | S.Optimal _, Some c ->
      Alcotest.(check bool) (label ^ ": rows copied") true (rows c != rows snap)
    | _ -> Alcotest.fail (label ^ ": expected an optimum")
  in
  let upper () = copied "x <= 1" (check_child "x <= 1" m snap x S.Upper 1) in
  let lower () = copied "x >= 2" (check_child "x >= 2" m snap x S.Lower 2) in
  upper ();
  lower ();
  lower ();
  upper ();
  match S.reoptimize ~own:true snap ~var:x ~dir:S.Upper ~bound:1 with
  | (S.Optimal _ as owned), Some c ->
    Alcotest.(check bool) "owning call agrees with a cold solve" true
      (agrees (child m x S.Upper 1) owned);
    Alcotest.(check bool) "owning call takes the rows" true (rows c == rows snap)
  | _ -> Alcotest.fail "owning call: expected an optimum"

(* A chain of bounds, each warm from the last child, each checked
   against a cold solve and keeping the root's rows. [x] also has a
   bound row in the model, which stays a row; the branch bounds are column
   bounds. A bound on a basic variable lets the dual simplex move it
   out at that bound; a bound on a nonbasic one moves it at once,
   also from its upper bound; a looser bound than the column's own
   changes nothing. Whether each bounded variable was basic is
   checked against the parent's basis, and its value in the parent
   point: a nonbasic variable sits at one of its bounds. *)
let test_bound_chain () =
  let m, x, y, z = parent_model () in
  bound_row m x S.Upper 2;
  let steps =
    [ ("x <= 1 (basic, leaves at its upper bound)", x, S.Upper, 1, true,
       R.of_ints 5 3);
      ("x <= 4 (looser than the column's own)", x, S.Upper, 4, false, R.one);
      ("z >= 1 (nonbasic at lower, moves)", z, S.Lower, 1, false, R.zero);
      ("z >= 2 (nonbasic at lower, moves again)", z, S.Lower, 2, false, R.one);
      ("y <= 2 (basic, leaves at its upper bound)", y, S.Upper, 2, true, ri 3);
      ("y <= 1 (nonbasic at upper, moves)", y, S.Upper, 1, false, ri 2);
      ("x <= 0 (nonbasic at upper, moves)", x, S.Upper, 0, false, R.one) ]
  in
  let sol, snap = snapshot_of m in
  ignore
    (List.fold_left
       (fun (m, (sol : S.solution), snap) (label, v, dir, b, basic, value) ->
         Alcotest.(check bool) (label ^ ": basic in the parent") basic
           (Array.mem v (snd (S.snapshot_rows snap)));
         check_rat (label ^ ": value in the parent") value sol.S.values.(v);
         match check_child label m snap v dir b with
         | c, (S.Optimal r, Some snap) -> (c, S.solution_of r, snap)
         | _ -> Alcotest.fail (label ^ ": expected an optimum"))
       (m, sol, snap) steps)

(* --- qcheck: random bounded models, two levels deep --- *)

let floor_int x = Numeric.Bigint.to_int_exn (R.floor x)
let ceil_int x = Numeric.Bigint.to_int_exn (R.ceil x)

(* The branch bounds in both directions around [x], and a bound one
   past each. *)
let bounds_around x =
  [ (S.Upper, floor_int x); (S.Lower, ceil_int x);
    (S.Upper, floor_int x - 1); (S.Lower, ceil_int x + 1) ]

let warm_agrees_twice m =
  match S.solve_with_snapshot m with
  | S.Optimal r, Some snap ->
    let sol = S.solution_of r in
    let n = M.num_vars m in
    List.for_all
      (fun v ->
        List.for_all
          (fun (dir, b) ->
            let c = child m v dir b in
            match S.reoptimize snap ~var:v ~dir ~bound:b with
            | (S.Optimal cr, Some csnap) as warm ->
              let csol = S.solution_of cr in
              let w = (v + 1) mod n in
              agrees c (fst warm)
              && List.for_all
                   (fun (dir, b) ->
                     let gwarm, _ = S.reoptimize csnap ~var:w ~dir ~bound:b in
                     agrees (child c w dir b) gwarm)
                   (bounds_around csol.S.values.(w))
            | warm, _ -> agrees c warm)
          (bounds_around sol.S.values.(v)))
      (List.init n Fun.id)
  | _ -> true

(* A chain of 3-6 bounds, each warm from the last child. A step names
   the last step's variable again (offset 0) or another one, and its
   bound relative to that variable's value [x] in the parent: kinds
   0-5 are [<= floor x], [>= ceil x], [<= ceil x], [>= ceil x + 1],
   [<= floor x - 1] and [>= floor x]. So chains mix both directions,
   bounds that cut and looser ones, and variables that are basic or
   nonbasic at either bound (an Upper bound that a basic variable
   leaves at, named again). Every child must agree with a
   cold solve of its model and, when it answered warm, keep its
   parent's row count, and so must the whole path so far replayed at
   once on the root's snapshot. A child that overflowed was solved
   cold, with its path's bounds as rows. *)
let chain_gen =
  QCheck2.Gen.(
    pair Test_lp.bounded_gen
      (list_size (int_range 3 6) (pair (int_range 0 3) (int_range 0 5))))

let chain_bound kind x =
  let fl = floor_int x and cl = ceil_int x in
  match kind with
  | 0 -> (S.Upper, fl)
  | 1 -> (S.Lower, cl)
  | 2 -> (S.Upper, cl)
  | 3 -> (S.Lower, cl + 1)
  | 4 -> (S.Upper, fl - 1)
  | _ -> (S.Lower, fl)

let warm_chain_agrees (input, steps) =
  let m = Test_lp.build_bounded input in
  match S.solve_with_snapshot m with
  | S.Optimal r, Some root ->
    let sol = S.solution_of r in
    let n = M.num_vars m and rows = row_count root in
    let replayed c path =
      match answered_warm (fun () -> S.replay root path) with
      | ((S.Optimal _ as replay), Some rsnap), warm ->
        agrees c replay && ((not warm) || row_count rsnap = rows)
      | (replay, _), _ -> agrees c replay
    in
    let rec go m snap (sol : S.solution) path last = function
      | [] -> true
      | (offset, kind) :: rest -> (
        let v = if offset = 0 then last else (last + offset) mod n in
        let dir, b = chain_bound kind sol.S.values.(v) in
        let c = child m v dir b and path = (v, dir, b) :: path in
        replayed c path
        &&
        match answered_warm (fun () -> S.reoptimize snap ~var:v ~dir ~bound:b) with
        | ((S.Optimal cr, Some csnap) as warm), is_warm ->
          agrees c (fst warm)
          && ((not is_warm) || row_count csnap = row_count snap)
          && go c csnap (S.solution_of cr) path v rest
        | (warm, _), _ -> agrees c warm)
    in
    go m root sol [] 0 steps
  | _ -> true

let reoptimize_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"reoptimize agrees with cold solves, two bounds deep"
         Test_lp.bounded_gen (fun input ->
           warm_agrees_twice (Test_lp.build_bounded input)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"warm chains of 3-6 bounds agree with cold solves" chain_gen
         warm_chain_agrees) ]

(* --- qcheck: children that leave the native range --- *)

(* The model a child is solved on cold: [m] with the tightest of the
   path's bounds as rows after its own, for each variable in ascending
   order its lower bound (none at 0 or below) and then its upper bound
   (a negative one as the row [-x >= -b]). *)
let with_path_rows m path =
  let c = M.copy m in
  for v = 0 to M.num_vars m - 1 do
    let tightest dir pick =
      List.fold_left
        (fun acc (v', d, b) ->
          if v' = v && d = dir then Some (Option.fold ~none:b ~some:(pick b) acc)
          else acc)
        None path
    in
    (match tightest S.Lower Int.max with
     | Some lo when lo > 0 -> M.add_constraint c [ (v, 1) ] M.Ge lo
     | _ -> ());
    match tightest S.Upper Int.min with
    | Some up when up < 0 -> M.add_constraint c [ (v, -1) ] M.Ge (-up)
    | Some up -> M.add_constraint c [ (v, 1) ] M.Le up
    | None -> ()
  done;
  c

(* [f ()], whether it answered warm, and how many relaxations it
   counted: numeric.fast_solves plus numeric.fallbacks. *)
let child_counts f =
  let fast0 = Telemetry.value Telemetry.numeric_fast_solves
  and fb0 = Telemetry.value Telemetry.numeric_fallbacks in
  let x, warm = answered_warm f in
  ( x,
    warm,
    Telemetry.value Telemetry.numeric_fast_solves - fast0
    + Telemetry.value Telemetry.numeric_fallbacks - fb0 )

(* A child against [cold], the solve of its path's model [c]: exactly
   one relaxation counted, and the same objective; a warm answer at a
   point feasible for [c], a cold one at [cold]'s point. [cold_only]
   requires a cold answer. *)
let child_agrees ~cold_only c cold ((answer, _), warm, relaxations) =
  relaxations = 1
  && ((not cold_only) || not warm)
  &&
  match (answer, cold) with
  | S.Optimal r, S.Optimal s ->
    let w = S.solution_of r in
    R.equal w.S.objective s.S.objective
    &&
    if warm then Test_lp.feasible c w.S.values
    else Array.for_all2 R.equal w.S.values s.S.values
  | S.Infeasible, S.Infeasible -> true
  | _ -> false

(* [chain_bound], and for kinds 6 and 7 an upper or lower bound past
   the native range, which no tableau takes: the child is solved
   cold. *)
let step_bound kind x =
  match kind with
  | 6 -> (S.Upper, 1 lsl 30)
  | 7 -> (S.Lower, (1 lsl 30) + 1)
  | _ -> chain_bound kind x

(* A chain of bounds below the root of [m], each chosen from the last
   cold solve's point by [step_bound]: at each step the child of the
   last child's snapshot (while one is kept) and the whole path
   replayed on the root's snapshot, both checked against a cold solve
   of [m] with the path's bounds as rows. [cold_from_tableau] counts
   the children that a snapshot with a tableau answered cold. *)
let overflow_chain_agrees ?(cold_from_tableau = ref 0) ~cold_only m steps =
  match S.solve_with_snapshot m with
  | S.Optimal r, Some root ->
    let n = M.num_vars m in
    let rec go snap (values : R.t array) path last = function
      | [] -> true
      | (offset, kind) :: rest -> (
        let v = (last + offset) mod n in
        let dir, b = step_bound kind values.(v) in
        let path = (v, dir, b) :: path in
        let c = with_path_rows m path in
        let cold = S.solve c in
        let warm =
          Option.map
            (fun s -> child_counts (fun () -> S.reoptimize s ~var:v ~dir ~bound:b))
            snap
        in
        let replayed = child_counts (fun () -> S.replay root path) in
        let count_cold s (_, warm, _) =
          if S.snapshot_words s > 0 && not warm then incr cold_from_tableau
        in
        count_cold root replayed;
        (match (snap, warm) with
         | Some s, Some w -> count_cold s w
         | _ -> ());
        child_agrees ~cold_only c cold replayed
        && Option.fold ~none:true ~some:(child_agrees ~cold_only c cold) warm
        &&
        match cold with
        | S.Optimal s ->
          go
            (Option.bind warm (fun ((_, snap), _, _) -> snap))
            s.S.values path v rest
        | S.Infeasible | S.Unbounded -> true)
    in
    go (Some root) (S.solution_of r).S.values [] 0 steps
  | _ -> false

let steps_gen kinds =
  QCheck2.Gen.(
    list_size (int_range 3 6) (pair (int_range 0 3) (int_range 0 (kinds - 1))))

(* Three covering rows [a·x >= b] with [a], [b] up to 1000, and
   [x_i <= 50]: about a fifth of the roots leave the native range and
   are answered by the exact engine. *)
let wide_gen =
  QCheck2.Gen.(
    triple
      (list_size (return 9) (int_range 1 1000))
      (list_size (return 3) (int_range 1 1000))
      (list_size (return 3) (int_range 1 9)))

let build_wide (coeffs, rhs, costs) =
  let m = M.create () in
  let xs = Array.init 3 (fun _ -> M.add_var m) in
  let coeffs = Array.of_list coeffs in
  List.iteri
    (fun row b ->
      M.add_constraint m
        (List.init 3 (fun i -> (xs.(i), coeffs.((3 * row) + i))))
        M.Ge b)
    rhs;
  Array.iter (fun x -> M.add_constraint m [ (x, 1) ] M.Le 50) xs;
  M.set_objective m (List.mapi (fun i c -> (xs.(i), c)) costs);
  m

(* The model of the numeric-kernel suite's warm overflow: its root
   fits the native range, but the dual pivots of some children do not,
   and a cold solve of those children fits again. Every chain of two
   and three bounds must agree, and some child of a tableau must have
   answered cold. *)
let test_warm_overflow_chains () =
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
  let steps = List.concat_map (fun o -> List.init 6 (fun k -> (o, k))) [ 0; 1; 2 ] in
  let cold_from_tableau = ref 0 in
  List.iter
    (fun s1 ->
      List.iter
        (fun s2 ->
          List.iter
            (fun tail ->
              let chain = s1 :: s2 :: tail in
              Alcotest.(check bool)
                (Printf.sprintf "chain of %d agrees" (List.length chain))
                true
                (overflow_chain_agrees ~cold_from_tableau ~cold_only:false m
                   chain))
            [ []; [ (1, 0) ]; [ (2, 1) ] ])
        steps)
    steps;
  Alcotest.(check bool)
    (Printf.sprintf "children of a tableau answered cold (%d)"
       !cold_from_tableau)
    true
    (!cold_from_tableau > 0)

let overflow_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100
         ~name:"children of a Rat root equal cold solves of their paths"
         QCheck2.Gen.(pair Test_numeric.huge_gen (steps_gen 6))
         (fun (((_, _, target) as input), steps) ->
           let instance =
             Rentcost.Instance.compile (Test_numeric.huge_problem input)
           in
           overflow_chain_agrees ~cold_only:true
             (Rentcost.Ilp.model instance ~target)
             steps));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"children that overflow equal cold solves of their paths"
         QCheck2.Gen.(pair wide_gen (steps_gen 8))
         (fun (input, steps) ->
           overflow_chain_agrees ~cold_only:false (build_wide input) steps)) ]

(* --- objective intervals: node keys without the exact value --- *)

(* Term lists [(a, b)], [0 < b <= 2^60], as the engine makes them and
   worse: small terms; numerators near 2^60 over a small denominator or
   over another near 2^60; small numerators over one near 2^60;
   integral terms [k b / b]; and a term followed by its negation, so
   sums cancel. *)
let term_gen =
  QCheck2.Gen.(
    let near60 = map (fun k -> (1 lsl 60) - k) (int_range 0 1000) in
    let signed g = map2 (fun neg a -> if neg then -a else a) bool g in
    let term =
      oneof
        [ pair (int_range (-1000) 1000) (int_range 1 1000);
          pair (signed near60) (oneofl [ 1; 3; 7 ]);
          pair (signed near60) near60;
          pair (signed (int_range 1 1000)) near60;
          map2 (fun k b -> (k * b, b)) (int_range (-50) 50) (int_range 1 (1 lsl 29)) ]
    in
    list_size (int_range 0 6)
      (oneof
         [ map (fun t -> [ t ]) term;
           map (fun (a, b) -> [ (a, b); (-a, b) ]) term ])
    |> map List.concat)

(* Pairs of term lists: unrelated, or the second an exact tie of the
   first: its terms reversed, each split into two halves over twice its
   denominator. *)
let tie terms =
  List.rev (List.concat_map (fun (a, b) -> [ (a, 2 * b); (a, 2 * b) ]) terms)

let terms_pair_gen =
  QCheck2.Gen.(
    term_gen >>= fun t1 ->
    oneof [ map (fun t2 -> (t1, t2)) term_gen; return (t1, tie t1) ])

let exact_sum terms =
  List.fold_left (fun acc (a, b) -> R.add acc (R.of_ints a b)) R.zero terms

(* [S.ceil_objective o] is [⌈x⌉] when that is an int, [None] past
   [max_int], and raises below [min_int]: sums of six terms near
   [±2^60] leave the int range. *)
let ceil_agrees o x =
  match Numeric.Bigint.to_int (R.ceil x) with
  | Some c -> S.ceil_objective o = Some c
  | None when R.sign x > 0 -> S.ceil_objective o = None
  | None -> (
    match S.ceil_objective o with
    | _ -> false
    | exception Invalid_argument _ -> true)

let intervals_agree (t1, t2) =
  let o1 = S.objective_of_terms t1 and o2 = S.objective_of_terms t2 in
  let x1 = exact_sum t1 and x2 = exact_sum t2 in
  let holds o x =
    let lo, hi = S.objective_interval o in
    R.compare (rat_of_float lo) x <= 0 && R.compare x (rat_of_float hi) <= 0
  in
  holds o1 x1 && holds o2 x2
  && Int.compare (S.compare_objectives o1 o2) 0 = Int.compare (R.compare x1 x2) 0
  && S.compare_objectives o1 o1 = 0
  && ceil_agrees o1 x1 && ceil_agrees o2 x2
  && R.equal (S.exact_objective o1) x1
  && R.equal (S.exact_objective o2) x2

(* Separated intervals decide without the exact sums: comparing 1/3
   with 2/3, and ceiling 5/2, count no exact objective. *)
let test_intervals_decide_alone () =
  let third = S.objective_of_terms [ (1, 3) ]
  and two_thirds = S.objective_of_terms [ (2, 3) ]
  and five_halves = S.objective_of_terms [ (5, 2) ] in
  let before = Telemetry.value Telemetry.lp_exact_objectives in
  Alcotest.(check int) "1/3 < 2/3" (-1) (S.compare_objectives third two_thirds);
  Alcotest.(check (option int)) "ceil 5/2" (Some 3) (S.ceil_objective five_halves);
  Alcotest.(check int) "no exact objective" before
    (Telemetry.value Telemetry.lp_exact_objectives);
  Alcotest.(check int) "an exact tie goes exact" 0
    (S.compare_objectives third (S.objective_of_terms [ (2, 6) ]));
  Alcotest.(check int) "both made exact" (before + 2)
    (Telemetry.value Telemetry.lp_exact_objectives)

let interval_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000
         ~name:"interval compare and ceiling agree with exact Rat"
         terms_pair_gen intervals_agree) ]

(* --- the warm tree --- *)

(* Counter deltas of [f ()]: warm nodes, fast solves, fallbacks. *)
let counting f =
  let w0 = warm_nodes () in
  let fast0 = Telemetry.value Telemetry.numeric_fast_solves in
  let fb0 = Telemetry.value Telemetry.numeric_fallbacks in
  let x = f () in
  ( x,
    warm_nodes () - w0,
    Telemetry.value Telemetry.numeric_fast_solves - fast0,
    Telemetry.value Telemetry.numeric_fallbacks - fb0 )

(* Random shared-type instances: 3-4 recipes over 3 types. *)
let instance_gen =
  QCheck2.Gen.(
    pair
      (pair
         (list_size (return 3) (pair (int_range 1 20) (int_range 1 20)))
         (list_size (int_range 3 4)
            (list_size (int_range 1 4) (int_range 0 2))))
      (int_range 1 30))

let build_instance ((machines, recipes), target) =
  let platform = Rentcost.Platform.of_list machines in
  let recipes =
    Array.of_list
      (List.map
         (fun types ->
           Rentcost.Task_graph.chain ~ntypes:3 ~types:(Array.of_list types))
         recipes)
  in
  (Rentcost.Problem.create platform recipes, target)

(* Every node but the root has a parent tableau and none overflows at
   this scale, so all of them answer warm. *)
let tree_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100
         ~name:"warm-started ILP matches exhaustive, every child warm"
         instance_gen (fun input ->
           let problem, target = build_instance input in
           let instance = Rentcost.Instance.compile problem in
           let o, warm, fast, fallbacks =
             counting (fun () ->
                 Rentcost.Ilp.optimize instance ~target)
           in
           let nodes = o.Rentcost.Ilp.nodes in
           let cost a = a.Rentcost.Allocation.cost in
           o.Rentcost.Ilp.proved_optimal
           && cost (Option.get o.Rentcost.Ilp.allocation)
              = cost (Rentcost.Exhaustive.run instance ~target)
           && warm = nodes - 1
           && fast + fallbacks = nodes)) ]

(* Consuming the last holder's tableau changes no pivot, so the tree is
   the one every child gets from a copy: same nodes, same optimum. *)
let consume_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100
         ~name:"consuming snapshots leaves the tree unchanged" instance_gen
         (fun input ->
           let problem, target = build_instance input in
           let instance = Rentcost.Instance.compile problem in
           let solve () = Rentcost.Ilp.optimize instance ~target in
           let consumed = solve () in
           let copied = Milp.Solver.always_copying solve in
           let cost o =
             Option.map
               (fun a -> a.Rentcost.Allocation.cost)
               o.Rentcost.Ilp.allocation
           in
           consumed.Rentcost.Ilp.nodes = copied.Rentcost.Ilp.nodes
           && cost consumed = cost copied)) ]

(* The branch and bound's rounding, seen through a 1-node solve: the
   root's rounded point (or its integral LP point) is feasible in the
   submitted problem, costs at least the fluid lower bound, and under
   a budget cap at the optimum it fits the cap. Solved to the end
   (uncapped, [tree_props] checks it against the oracle), the solve
   capped at the optimum finds it, while one unit less of budget is
   infeasible. *)
let rounding_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100
         ~name:"root rounding is feasible, above the fluid bound, within the cap"
         instance_gen (fun input ->
           let problem, target = build_instance input in
           let instance = Rentcost.Instance.compile problem in
           let optimum =
             (Rentcost.Exhaustive.run instance ~target).Rentcost.Allocation.cost
           in
           let fluid = Rentcost.Instance.fluid_lower_bound instance ~target in
           let sound ?budget_cap () =
             match
               (Rentcost.Ilp.optimize ~node_limit:1 ?budget_cap instance ~target)
                 .Rentcost.Ilp.allocation
             with
             | None -> budget_cap <> None
             | Some a ->
               Rentcost.Allocation.feasible problem ~target a
               && a.Rentcost.Allocation.cost >= fluid
               && a.Rentcost.Allocation.cost >= optimum
               && Option.fold ~none:true
                    ~some:(fun cap -> a.Rentcost.Allocation.cost <= cap)
                    budget_cap
           in
           let capped cap = Rentcost.Ilp.optimize ~budget_cap:cap instance ~target in
           sound ()
           && sound ~budget_cap:optimum ()
           && Option.map
                (fun a -> a.Rentcost.Allocation.cost)
                (capped optimum).Rentcost.Ilp.allocation
              = Some optimum
           && (optimum = 0
              || (capped (optimum - 1)).Rentcost.Ilp.status
                 = Milp.Solver.Infeasible))) ]

(* [snapshot_words] is what the budget charges, so it must cover the
   heap that the rows and basis really hold. Checked on the cold
   snapshot of a rental-cost MILP root, compacted because its Ge rows
   had artificials, and on every warm child of it that ends optimal. *)
let test_snapshot_words_cover_heap () =
  let covers label s =
    let tab, basis = S.snapshot_rows s in
    let heap =
      Obj.reachable_words (Obj.repr tab) + Obj.reachable_words (Obj.repr basis)
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d words charged, %d on the heap" label
         (S.snapshot_words s) heap)
      true
      (S.snapshot_words s >= heap)
  in
  let problem, target =
    build_instance
      (([ (3, 2); (5, 7); (4, 3) ], [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0; 0 ] ]), 17)
  in
  let m = Rentcost.Ilp.model (Rentcost.Instance.compile problem) ~target in
  let sol, snap = snapshot_of m in
  covers "cold" snap;
  let warm = ref 0 in
  Array.iteri
    (fun v x ->
      List.iter
        (fun (dir, b) ->
          match S.reoptimize snap ~var:v ~dir ~bound:b with
          | S.Optimal _, Some c ->
            incr warm;
            covers (Printf.sprintf "warm child %d" !warm) c
          | _ -> ())
        (bounds_around x))
    sol.S.values;
  Alcotest.(check bool) "some warm child is optimal" true (!warm > 0)

(* Three recipes of 40 tasks over 100 types: every snapshot (int rows,
   basis and column bounds) is about 21k words, so some hundred open
   tableaus fill the 2M-word budget and later children replay their
   paths on the root's tableau. The optimum must not care, and the
   exhaustive oracle (three recipes) is cheap. *)
let wide_problem () =
  let rng = Numeric.Prng.create 16 in
  let q = 100 in
  let draw () = 1 + Numeric.Prng.int rng 20 in
  let machines =
    List.init q (fun _ ->
        let cost = draw () in
        let throughput = draw () in
        (cost, throughput))
  in
  let recipe () =
    Rentcost.Task_graph.chain ~ntypes:q
      ~types:(Array.init 40 (fun _ -> Numeric.Prng.int rng q))
  in
  let r0 = recipe () in
  let r1 = recipe () in
  let r2 = recipe () in
  Rentcost.Problem.create (Rentcost.Platform.of_list machines) [| r0; r1; r2 |]

(* [f ()] with a count of its [lp.simplex] spans: those replayed on the
   root's tableau, and the cold ones (no [lp.start]). *)
let counting_starts f =
  let replayed = ref 0 and cold = ref 0 in
  Telemetry.Span.set_sink
    (Some
       (fun s ->
         if s.Telemetry.Span.name = "lp.simplex" then
           match List.assoc_opt "lp.start" s.Telemetry.Span.attrs with
           | Some "replay" -> incr replayed
           | Some _ -> ()
           | None -> incr cold));
  Fun.protect
    ~finally:(fun () -> Telemetry.Span.set_sink None)
    (fun () ->
      let x = f () in
      (x, !replayed, !cold))

(* The budget is a property of the branch and bound, not of the ILP's
   branching order, so the tree is driven directly: the ILP's model
   with the splits branched first and no rounding keeps it wide enough
   to fill the budget. Past it, children replay on the root's tableau,
   so no node but the root solves cold; the tree solved the children
   past the budget cold before, in 159,176 pivots, and the replays must
   keep to a third of that. *)
let test_snapshot_budget () =
  let instance = Rentcost.Instance.compile (wide_problem ()) and target = 17 in
  let m = Rentcost.Ilp.model instance ~target in
  let j_count = Rentcost.Instance.num_recipes instance in
  let rho, x =
    List.partition (fun v -> v < j_count) (List.init (M.num_vars m) Fun.id)
  in
  let pivots0 = Telemetry.value Telemetry.lp_pivots in
  let (o, warm, fast, fallbacks), replayed, cold =
    counting_starts (fun () ->
        counting (fun () ->
            Milp.Solver.solve ~priority:[ rho; x ] m))
  in
  let pivots = Telemetry.value Telemetry.lp_pivots - pivots0 in
  let nodes = o.Milp.Solver.nodes in
  Alcotest.(check bool) "proved optimal" true
    (o.Milp.Solver.status = Milp.Solver.Optimal);
  Alcotest.(check int) "cost matches the oracle"
    (Rentcost.Exhaustive.run instance ~target).Rentcost.Allocation.cost
    (Option.get o.Milp.Solver.solution).Milp.Solver.objective;
  Alcotest.(check int) "no fallback" 0 fallbacks;
  Alcotest.(check int) "one relaxation per node" nodes fast;
  Alcotest.(check int) "every node but the root warm" (nodes - 1) warm;
  Alcotest.(check bool)
    (Printf.sprintf "warm children from a parent's tableau (%d of %d nodes)"
       (warm - replayed) nodes)
    true
    (warm - replayed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "children replayed from the root past the budget (%d)"
       replayed)
    true (replayed > 0);
  Alcotest.(check int) "one cold lp.simplex span: the root" 1 cold;
  Alcotest.(check bool)
    (Printf.sprintf "%d pivots, at most 53,058" pivots)
    true (pivots <= 53_058);
  (* The budget binds: the peak came within one snapshot of it. *)
  let one =
    match S.solve_with_snapshot m with
    | _, Some snap -> S.snapshot_words snap
    | _, None -> Alcotest.fail "the root keeps no snapshot"
  in
  let peak = o.Milp.Solver.peak_retained_words in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d words within one snapshot (%d) of the budget %d"
       peak one Milp.Solver.snapshot_budget)
    true
    (peak <= Milp.Solver.snapshot_budget
    && Milp.Solver.snapshot_budget - peak < one)

let suite =
  ( "lp-warm",
    [ Alcotest.test_case "parent optimum" `Quick test_parent;
      Alcotest.test_case "upper bound on a basic variable" `Quick
        test_upper_on_basic;
      Alcotest.test_case "lower bound on a basic variable" `Quick
        test_lower_on_basic;
      Alcotest.test_case "bounds on a nonbasic variable" `Quick
        test_bounds_on_nonbasic;
      Alcotest.test_case "infeasible child" `Quick test_infeasible_child;
      Alcotest.test_case "siblings share one snapshot" `Quick
        test_siblings_share_snapshot;
      Alcotest.test_case "non-owning calls leave the snapshot alone" `Quick
        test_non_owning_leaves_snapshot;
      Alcotest.test_case "chain of bounds" `Quick test_bound_chain;
      Alcotest.test_case "snapshot words cover the heap" `Quick
        test_snapshot_words_cover_heap;
      Alcotest.test_case "snapshot budget: warm and replayed children" `Quick
        test_snapshot_budget;
      Alcotest.test_case "warm children that overflow solve cold" `Quick
        test_warm_overflow_chains;
      Alcotest.test_case "separated intervals decide alone" `Quick
        test_intervals_decide_alone ]
    @ interval_props @ reoptimize_props @ overflow_props @ tree_props @ consume_props @ rounding_props )
