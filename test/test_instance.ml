(* Tests for the compiled-instance layer: the incremental cost oracle
   against fresh [Allocation.of_rho] repricing (including across undo
   and reset), dominance preprocessing (soundness: the optimal cost
   never changes; bookkeeping: index maps and dropped pairs), the
   closed-form per-recipe costs, and the fluid lower bound. *)

module AL = Rentcost.Allocation
module I = Rentcost.Instance
module O = Rentcost.Instance.Oracle
module PB = Rentcost.Problem
module S = Rentcost.Solver
module G = Cloudsim.Generator
module Prng = Numeric.Prng

let platform3 = Rentcost.Platform.of_list [ (10, 10); (18, 20); (25, 30) ]

let chain ?(ntypes = 3) types = Rentcost.Task_graph.chain ~ntypes ~types

(* Small random instances for the properties: 4 alternatives over 4
   types keeps the exhaustive cross-checks fast. *)
let problem_of_seed seed =
  G.problem ~rng:(Prng.create seed)
    { G.num_graphs = 4; min_tasks = 2; max_tasks = 5; mutation_pct = 0.5 }
    { G.num_types = 4; min_cost = 1; max_cost = 20; min_throughput = 3;
      max_throughput = 10 }

let prop ?(count = 100) ?print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen f)

(* --- compile: shape and bookkeeping --- *)

let test_compile_illustrating () =
  let inst = I.compile PB.illustrating in
  Alcotest.(check int) "no pruning" 0 (I.num_pruned inst);
  Alcotest.(check int) "all recipes survive" (PB.num_recipes PB.illustrating)
    (I.num_recipes inst);
  Alcotest.(check bool) "not blackbox" false (I.is_blackbox inst);
  Alcotest.(check bool) "not disjoint" false (I.is_disjoint inst);
  for j = 0 to I.num_recipes inst - 1 do
    Alcotest.(check int) "identity index map" j (I.original_index inst j);
    let counts = PB.type_counts PB.illustrating j in
    let s = I.support inst j in
    Array.iteri
      (fun q n ->
        Alcotest.(check int) (Printf.sprintf "count %d/%d" j q) n (I.count inst j q))
      counts;
    Array.iteri
      (fun i q ->
        Alcotest.(check bool) "support positive" true (s.I.counts.(i) > 0);
        Alcotest.(check int)
          (Printf.sprintf "support %d/%d" j i)
          counts.(q) s.I.counts.(i))
      s.I.types
  done

let test_single_cost_closed_form () =
  let inst = I.compile PB.illustrating in
  List.iter
    (fun target ->
      for j = 0 to I.num_recipes inst - 1 do
        Alcotest.(check int)
          (Printf.sprintf "single_cost j=%d rho=%d" j target)
          (Rentcost.Costing.single_graph PB.illustrating
             ~j:(I.original_index inst j) ~target)
          (I.single_cost inst ~j ~target)
      done)
    [ 0; 1; 17; 70 ]

(* --- dominance preprocessing --- *)

let test_dominance_drops_superset () =
  (* (1,1,0) dominates (1,1,1): the longer recipe can never price
     cheaper at any throughput. *)
  let p = PB.create platform3 [| chain [| 0; 1 |]; chain [| 0; 1; 2 |] |] in
  let inst = I.compile p in
  Alcotest.(check int) "one survivor" 1 (I.num_recipes inst);
  Alcotest.(check int) "one pruned" 1 (I.num_pruned inst);
  Alcotest.(check int) "survivor is recipe 0" 0 (I.original_index inst 0);
  Alcotest.(check (list (pair int int))) "dropped pair" [ (1, 0) ] (I.dropped inst);
  Alcotest.(check (array int)) "expand_rho scatters" [| 5; 0 |]
    (I.expand_rho inst [| 5 |])

let test_dominance_equal_rows_keep_one () =
  let p = PB.create platform3 [| chain [| 0; 1 |]; chain [| 1; 0 |] |] in
  let inst = I.compile p in
  Alcotest.(check int) "one survivor" 1 (I.num_recipes inst);
  Alcotest.(check (list (pair int int))) "lower index survives" [ (1, 0) ]
    (I.dropped inst)

let test_dominance_chain_chases_to_survivor () =
  (* Recipe 2 dominates 0 dominates 1; the reported dominator of 1 must
     be the *surviving* recipe 2, not the intermediate 0. *)
  let p =
    PB.create platform3 [| chain [| 0; 1 |]; chain [| 0; 1; 2 |]; chain [| 0 |] |]
  in
  let inst = I.compile p in
  Alcotest.(check int) "one survivor" 1 (I.num_recipes inst);
  Alcotest.(check int) "survivor is recipe 2" 2 (I.original_index inst 0);
  Alcotest.(check (list (pair int int))) "chains chased" [ (0, 2); (1, 2) ]
    (I.dropped inst)

let test_prune_false_keeps_everything () =
  let p = PB.create platform3 [| chain [| 0; 1 |]; chain [| 0; 1; 2 |] |] in
  let inst = I.compile ~prune:false p in
  Alcotest.(check int) "no pruning" 0 (I.num_pruned inst);
  Alcotest.(check int) "all survive" 2 (I.num_recipes inst)

let test_pruning_preserves_optimum () =
  let p =
    PB.create platform3 [| chain [| 0; 1 |]; chain [| 0; 1; 2 |]; chain [| 2 |] |]
  in
  let pruned = I.compile p and full = I.compile ~prune:false p in
  Alcotest.(check bool) "something pruned" true (I.num_pruned pruned > 0);
  List.iter
    (fun target ->
      Alcotest.(check int)
        (Printf.sprintf "optimal cost at rho=%d" target)
        (Rentcost.Exhaustive.run full ~target).AL.cost
        (Rentcost.Exhaustive.run pruned ~target).AL.cost)
    [ 0; 1; 9; 25; 60 ]

let prop_pruning_preserves_optimum =
  prop ~count:60 "pruning preserves optimum (generated)"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let p = problem_of_seed seed in
      let pruned = I.compile p and full = I.compile ~prune:false p in
      List.for_all
        (fun target ->
          (Rentcost.Exhaustive.run full ~target).AL.cost
          = (Rentcost.Exhaustive.run pruned ~target).AL.cost)
        [ 0; 7; 12 ])

(* The dominance test as it was first written, one [Array.iteri] over
   the whole row: the reference for [Instance]'s early-exit scan. *)
let reference_dominates rows j j' =
  let cj = rows.(j) and cj' = rows.(j') in
  let le = ref true and strict = ref false in
  Array.iteri
    (fun q n -> if n > cj'.(q) then le := false else if n < cj'.(q) then strict := true)
    cj;
  !le && (!strict || j < j')

(* Survivors and (dropped, surviving dominator) pairs by the reference
   test, in the order [Instance.compile] reports them. *)
let reference_prune rows =
  let j_orig = Array.length rows in
  let dominator = Array.make j_orig (-1) in
  for j' = 0 to j_orig - 1 do
    let j = ref 0 in
    while dominator.(j') < 0 && !j < j_orig do
      if !j <> j' && reference_dominates rows !j j' then dominator.(j') <- !j;
      incr j
    done
  done;
  let rec survivor j = if dominator.(j) < 0 then j else survivor dominator.(j) in
  let all = List.init j_orig Fun.id in
  ( List.filter (fun j -> dominator.(j) < 0) all,
    List.filter_map
      (fun j' -> if dominator.(j') < 0 then None else Some (j', survivor j'))
      all )

(* Rows over up to 4 types with counts 0..2, half of them copies of an
   earlier row, so equal rows and chains of dominance are common. *)
let gen_rows =
  QCheck2.Gen.(
    int_range 1 4 >>= fun q_count ->
    let row =
      array_size (return q_count) (int_range 0 2) >|= fun counts ->
      if Array.for_all (( = ) 0) counts then counts.(0) <- 1;
      counts
    in
    list_size (int_range 1 8) (pair bool row) >|= fun picks ->
    let rows = Array.of_list (List.map snd picks) in
    List.iteri
      (fun j (copy, _) -> if copy && j > 0 then rows.(j) <- rows.(j / 2))
      picks;
    rows)

(* A recipe per row: a chain with [n] tasks of type [q] for each
   count [n] of the row. *)
let problem_of_rows rows =
  let q_count = Array.length rows.(0) in
  let platform =
    Rentcost.Platform.of_list (List.init q_count (fun q -> (q + 1, 10)))
  in
  let tasks counts =
    Array.concat (Array.to_list (Array.mapi (fun q n -> Array.make n q) counts))
  in
  PB.create platform
    (Array.map (fun counts -> chain ~ntypes:q_count (tasks counts)) rows)

let prop_pruning_matches_reference =
  prop ~count:500 "pruning matches the reference dominance test"
    ~print:
      QCheck2.Print.(array (array int))
    gen_rows
    (fun rows ->
      let inst = I.compile (problem_of_rows rows) in
      let original, dropped = reference_prune rows in
      List.init (I.num_recipes inst) (I.original_index inst) = original
      && I.dropped inst = dropped)

let test_pruning_unlocks_blackbox_routing () =
  (* The only structure violations are dominated recipes (a duplicate
     single-task recipe and a two-task superset): the pruned instance
     is black-box and Auto routes to the § V-A DP, still optimally. *)
  let p =
    PB.create platform3
      [| chain [| 0 |]; chain [| 1 |]; chain [| 0 |]; chain [| 0; 1 |] |]
  in
  Alcotest.(check bool) "raw problem is not blackbox" false (PB.is_blackbox p);
  let inst = I.compile p in
  Alcotest.(check bool) "pruned instance is blackbox" true (I.is_blackbox inst);
  Alcotest.(check bool) "auto routes to knapsack DP" true
    (S.auto_of_instance inst = S.Dp_blackbox);
  List.iter
    (fun target ->
      let o =
        S.run ~spec:S.Auto inst
          ~objective:(Rentcost.Objective.min_cost ~target)
      in
      let cost =
        match o.S.allocation with
        | Some a -> a.AL.cost
        | None -> Alcotest.fail "no allocation"
      in
      Alcotest.(check int)
        (Printf.sprintf "dp matches oracle at rho=%d" target)
        (Rentcost.Exhaustive.run (I.compile ~prune:false p) ~target).AL.cost
        cost;
      Alcotest.(check int)
        (Printf.sprintf "telemetry reports pruning at rho=%d" target)
        2 o.S.telemetry.S.pruned_recipes)
    [ 0; 5; 33 ]

(* --- the incremental oracle --- *)

let scratch_state inst o =
  let rho = I.expand_rho inst (O.rho o) in
  let problem = I.problem inst in
  let a = AL.of_rho problem ~rho in
  (a.AL.cost, AL.loads problem ~rho, a.AL.machines)

let oracle_matches_scratch inst o =
  let cost, loads, machines = scratch_state inst o in
  O.cost o = cost && O.loads o = loads && O.machines o = machines

let prop_oracle_matches_scratch =
  prop ~count:100 "oracle matches scratch repricing under random moves"
    QCheck2.Gen.(
      triple (int_range 0 10_000)
        (list_size (int_range 1 30) (pair (int_range 0 1000) (int_range (-3) 4)))
        (int_range 0 4))
    (fun (seed, raw_moves, base) ->
      let p = problem_of_seed seed in
      let inst = I.compile p in
      let j_count = I.num_recipes inst in
      let o = O.create inst in
      let rho0 = Array.make j_count base in
      O.reset o ~rho:rho0;
      let start_cost = O.cost o in
      let ok = ref (oracle_matches_scratch inst o) in
      let applied = ref 0 in
      List.iter
        (fun (jraw, d) ->
          let j = jraw mod j_count in
          (* Clamp so throughputs stay non-negative, as callers do. *)
          let drho = max d (-O.rho_at o j) in
          O.apply o ~j ~drho;
          incr applied;
          ok := !ok && oracle_matches_scratch inst o)
        raw_moves;
      ok := !ok && O.depth o = !applied;
      (* Unwind the whole log: exact return to the starting state. *)
      while O.depth o > 0 do
        O.undo o
      done;
      !ok && O.cost o = start_cost && O.rho o = rho0
      && oracle_matches_scratch inst o)

let prop_oracle_reset_matches_scratch =
  prop ~count:100 "oracle reset matches scratch on arbitrary rho"
    QCheck2.Gen.(
      pair (int_range 0 10_000) (list_size (int_range 1 8) (int_range 0 9)))
    (fun (seed, rho_list) ->
      let p = problem_of_seed seed in
      let inst = I.compile p in
      let j_count = I.num_recipes inst in
      let rho =
        Array.init j_count (fun j ->
            List.nth rho_list (j mod List.length rho_list))
      in
      let o = O.create inst in
      O.reset o ~rho;
      O.depth o = 0 && oracle_matches_scratch inst o)

let test_oracle_allocation_and_commit () =
  let inst = I.compile PB.illustrating in
  let o = O.create inst in
  O.reset o ~rho:[| 10; 20; 40 |];
  let a = O.allocation o in
  Alcotest.(check int) "allocation cost" (O.cost o) a.AL.cost;
  Alcotest.(check (array int)) "allocation rho" [| 10; 20; 40 |] a.AL.rho;
  O.apply o ~j:0 ~drho:5;
  O.apply o ~j:2 ~drho:(-5);
  Alcotest.(check int) "depth tracks log" 2 (O.depth o);
  O.commit o;
  Alcotest.(check int) "commit clears log" 0 (O.depth o);
  Alcotest.(check (array int)) "commit keeps state" [| 15; 20; 35 |] (O.rho o);
  Alcotest.check_raises "undo past commit"
    (Invalid_argument "Instance.Oracle.undo: nothing to undo") (fun () ->
      O.undo o)

let test_oracle_validation () =
  let inst = I.compile PB.illustrating in
  let o = O.create inst in
  Alcotest.check_raises "reset wrong length"
    (Invalid_argument "Instance.Oracle.reset: rho has wrong length") (fun () ->
      O.reset o ~rho:[| 1; 2 |]);
  Alcotest.check_raises "reset negative"
    (Invalid_argument "Instance.Oracle.reset: negative throughput") (fun () ->
      O.reset o ~rho:[| 1; -2; 3 |]);
  O.reset o ~rho:[| 0; 0; 0 |];
  Alcotest.check_raises "apply below zero"
    (Invalid_argument "Instance.Oracle.apply: negative throughput") (fun () ->
      O.apply o ~j:1 ~drho:(-1))

(* --- bounds --- *)

let test_fluid_lower_bound () =
  let inst = I.compile PB.illustrating in
  Alcotest.(check int) "zero at target 0" 0 (I.fluid_lower_bound inst ~target:0);
  List.iter
    (fun target ->
      let lb = I.fluid_lower_bound inst ~target in
      let opt = (Rentcost.Exhaustive.run inst ~target).AL.cost in
      Alcotest.(check bool)
        (Printf.sprintf "positive bound at rho=%d" target)
        true (lb > 0);
      Alcotest.(check bool)
        (Printf.sprintf "bound below optimum at rho=%d" target)
        true (lb <= opt))
    [ 1; 10; 70 ]

let prop_fluid_lower_bound =
  prop ~count:60 "fluid bound below optimum (generated)"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 15))
    (fun (seed, target) ->
      let inst = I.compile (problem_of_seed seed) in
      I.fluid_lower_bound inst ~target
      <= (Rentcost.Exhaustive.run inst ~target).AL.cost)

let suite =
  ( "instance",
    [ Alcotest.test_case "compile illustrating" `Quick test_compile_illustrating;
      Alcotest.test_case "single_cost closed form" `Quick
        test_single_cost_closed_form;
      Alcotest.test_case "dominance drops superset" `Quick
        test_dominance_drops_superset;
      Alcotest.test_case "dominance equal rows keep one" `Quick
        test_dominance_equal_rows_keep_one;
      Alcotest.test_case "dominance chain chases to survivor" `Quick
        test_dominance_chain_chases_to_survivor;
      Alcotest.test_case "prune:false keeps everything" `Quick
        test_prune_false_keeps_everything;
      Alcotest.test_case "pruning preserves optimum" `Quick
        test_pruning_preserves_optimum;
      prop_pruning_preserves_optimum;
      prop_pruning_matches_reference;
      Alcotest.test_case "pruning unlocks blackbox routing" `Quick
        test_pruning_unlocks_blackbox_routing;
      prop_oracle_matches_scratch;
      prop_oracle_reset_matches_scratch;
      Alcotest.test_case "oracle allocation and commit" `Quick
        test_oracle_allocation_and_commit;
      Alcotest.test_case "oracle validation" `Quick test_oracle_validation;
      Alcotest.test_case "fluid lower bound" `Quick test_fluid_lower_bound;
      prop_fluid_lower_bound ] )
