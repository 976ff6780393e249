(* Tests for the discrete-event stream simulator: the weighted
   round-robin assigner, single-machine sanity cases with exactly
   computable timings, the throughput-validation loop against the
   model's allocations, and failure injection (under-provisioning,
   deadlock guards). *)

module TG = Rentcost.Task_graph
module PF = Rentcost.Platform
module PB = Rentcost.Problem
module AL = Rentcost.Allocation
module A = Streamsim.Assign
module S = Streamsim.Sim

let illustrating = Rentcost.Instance.compile PB.illustrating

(* --- Assign --- *)

let test_assign_proportions () =
  let a = A.create ~weights:[| 1; 3 |] in
  let picks = List.init 8 (fun _ -> A.next a) in
  Alcotest.(check (array int)) "counts 2/6" [| 2; 6 |] (A.counts a);
  Alcotest.(check int) "total" 8 (A.total a);
  (* smoothness: recipe 1 never lags more than one item behind 3/4 share *)
  let c1 = ref 0 in
  List.iteri
    (fun i j ->
      if j = 1 then incr c1;
      let expected = 3.0 /. 4.0 *. float_of_int (i + 1) in
      Alcotest.(check bool) "smooth" true (Float.abs (float_of_int !c1 -. expected) <= 1.0))
    picks

let test_assign_zero_weight_skipped () =
  let a = A.create ~weights:[| 0; 5; 0 |] in
  for _ = 1 to 10 do
    Alcotest.(check int) "always recipe 1" 1 (A.next a)
  done

(* qcheck properties over random weight vectors: weights 0..9, at
   least one positive (fixed up deterministically when the draw is all
   zeros). *)
let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let weights_gen =
  QCheck2.Gen.(
    map2
      (fun ws fix ->
        let ws = Array.of_list ws in
        if Array.exists (fun w -> w > 0) ws then ws
        else begin
          ws.(fix mod Array.length ws) <- 1;
          ws
        end)
      (list_size (int_range 1 6) (int_range 0 9))
      (int_range 0 5))

let prop_assign_zero_weights_starve =
  prop "zero-weight recipes never receive items"
    QCheck2.Gen.(pair weights_gen (int_range 1 200))
    (fun (weights, n) ->
      let a = A.create ~weights in
      for _ = 1 to n do
        ignore (A.next a)
      done;
      let counts = A.counts a in
      Array.for_all Fun.id
        (Array.mapi (fun j c -> weights.(j) > 0 || c = 0) counts))

let prop_assign_counts_within_one =
  prop "after any prefix, counts stay within one of n*rho_j/rho"
    QCheck2.Gen.(pair weights_gen (int_range 1 200))
    (fun (weights, n) ->
      let a = A.create ~weights in
      let total = float_of_int (Array.fold_left ( + ) 0 weights) in
      let ok = ref true in
      for i = 1 to n do
        ignore (A.next a);
        Array.iteri
          (fun j c ->
            let share = float_of_int i *. float_of_int weights.(j) /. total in
            if Float.abs (float_of_int c -. share) > 1.0 +. 1e-9 then
              ok := false)
          (A.counts a)
      done;
      !ok && A.total a = n)

let test_assign_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Assign.create: no weights")
    (fun () -> ignore (A.create ~weights:[||]));
  Alcotest.check_raises "all zero" (Invalid_argument "Assign.create: all weights are zero")
    (fun () -> ignore (A.create ~weights:[| 0; 0 |]));
  Alcotest.check_raises "negative" (Invalid_argument "Assign.create: negative weight")
    (fun () -> ignore (A.create ~weights:[| 1; -1 |]))

(* --- exactly computable single-recipe case --- *)

(* One recipe = one task of type 0; r_0 = 10, one machine: service time
   0.1; N items saturated -> makespan N * 0.1, throughput 10. *)
let tiny_problem =
  PB.create (PF.of_list [ (5, 10) ]) [| TG.create ~ntypes:1 ~types:[| 0 |] ~edges:[] |]

let test_single_machine_timing () =
  let alloc = AL.make tiny_problem ~rho:[| 10 |] ~machines:[| 1 |] in
  let report =
    S.run tiny_problem alloc { S.default_config with S.items = 100 }
  in
  Alcotest.(check int) "all done" 100 report.S.completed;
  Alcotest.(check (float 1e-6)) "makespan 10.0" 10.0 report.S.makespan;
  Alcotest.(check (float 0.2)) "throughput 10" 10.0 report.S.throughput;
  Alcotest.(check (float 1e-6)) "fully utilized" 1.0 report.S.utilization.(0);
  Alcotest.(check int) "in-order, no buffer" 0 report.S.max_reorder

let test_two_machines_double_throughput () =
  let alloc = AL.make tiny_problem ~rho:[| 20 |] ~machines:[| 2 |] in
  let report = S.run tiny_problem alloc { S.default_config with S.items = 200 } in
  Alcotest.(check (float 0.5)) "throughput 20" 20.0 report.S.throughput

let test_chain_latency () =
  (* Two-task chain, types r = (10, 10): latency of a lone item is
     0.1 + 0.1 = 0.2. *)
  let p =
    PB.create (PF.of_list [ (1, 10); (1, 10) ])
      [| TG.chain ~ntypes:2 ~types:[| 0; 1 |] |]
  in
  let alloc = AL.make p ~rho:[| 1 |] ~machines:[| 1; 1 |] in
  let report = S.run p alloc { S.default_config with S.items = 1; warmup_fraction = 0.0 } in
  Alcotest.(check (float 1e-9)) "latency 0.2" 0.2 report.S.mean_latency

let test_parallel_dag_shorter_than_chain () =
  (* Diamond 0 -> {1,2} -> 3 vs chain 0 -> 1 -> 2 -> 3 of the same four
     tasks: with one machine per type and a single item, the diamond's
     middle tasks of distinct types run in parallel. *)
  let ntypes = 4 in
  let diamond =
    TG.create ~ntypes ~types:[| 0; 1; 2; 3 |] ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
  in
  let chain = TG.chain ~ntypes ~types:[| 0; 1; 2; 3 |] in
  let platform = PF.of_list [ (1, 10); (1, 10); (1, 10); (1, 10) ] in
  let run g =
    let p = PB.create platform [| g |] in
    let alloc = AL.make p ~rho:[| 1 |] ~machines:[| 1; 1; 1; 1 |] in
    (S.run p alloc { S.default_config with S.items = 1; warmup_fraction = 0.0 }).S.makespan
  in
  Alcotest.(check (float 1e-9)) "diamond 0.3" 0.3 (run diamond);
  Alcotest.(check (float 1e-9)) "chain 0.4" 0.4 (run chain)

(* --- validation of the provisioning model --- *)

let test_ilp_allocations_sustain_target () =
  List.iter
    (fun target ->
      let o = Rentcost.Ilp.optimize illustrating ~target in
      let alloc = Option.get o.Rentcost.Ilp.allocation in
      Alcotest.(check bool)
        (Printf.sprintf "sustains %d" target)
        true
        (S.sustains PB.illustrating alloc ~target))
    [ 10; 40; 70; 120; 200 ]

let test_heuristic_allocations_sustain_target () =
  let params = { Rentcost.Heuristics.default_params with step = 10 } in
  List.iter
    (fun target ->
      List.iter
        (fun name ->
          let res =
            Rentcost.Heuristics.search ~params ~rng:(Numeric.Prng.create 3)
              name illustrating ~target
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s sustains %d" (Rentcost.Heuristics.name_to_string name)
               target)
            true
            (S.sustains PB.illustrating res.Rentcost.Heuristics.allocation ~target))
        Rentcost.Heuristics.all)
    [ 30; 90 ]

let test_underprovisioned_fails () =
  (* Halving the type-0 fleet of a tight allocation must lose
     throughput under saturation. *)
  let alloc = AL.make tiny_problem ~rho:[| 20 |] ~machines:[| 2 |] in
  ignore alloc;
  let starved = AL.make tiny_problem ~rho:[| 10 |] ~machines:[| 1 |] in
  (* starved provides capacity 10 but we demand 20 *)
  Alcotest.(check bool) "cannot sustain 20" false
    (S.sustains tiny_problem starved ~target:20)

let test_rate_arrival_paces_output () =
  (* Plenty of machines, arrivals at rate 5: output rate ~5, machines
     partly idle. *)
  let alloc = AL.make tiny_problem ~rho:[| 10 |] ~machines:[| 2 |] in
  let report =
    S.run tiny_problem alloc { S.default_config with S.items = 500; arrival = S.Rate 5.0 }
  in
  Alcotest.(check (float 0.2)) "throughput 5" 5.0 report.S.throughput;
  Alcotest.(check bool) "under-utilized" true (report.S.utilization.(0) < 0.5)

let test_reorder_buffer_mixed_recipes () =
  (* Two recipes with very different service times sharing the output:
     in-order delivery needs a buffer > 0 under saturation. *)
  let p =
    PB.create (PF.of_list [ (1, 1); (1, 100) ])
      [| TG.create ~ntypes:2 ~types:[| 0 |] ~edges:[];
         TG.create ~ntypes:2 ~types:[| 1 |] ~edges:[] |]
  in
  let alloc = AL.make p ~rho:[| 1; 1 |] ~machines:[| 1; 1 |] in
  let report = S.run p alloc { S.default_config with S.items = 100 } in
  Alcotest.(check bool) "buffer needed" true (report.S.max_reorder > 0);
  Alcotest.(check int) "all items out" 100 report.S.completed

let test_guards () =
  Alcotest.check_raises "zero items" (Invalid_argument "Sim.run: items must be positive")
    (fun () ->
      let alloc = AL.make tiny_problem ~rho:[| 1 |] ~machines:[| 1 |] in
      ignore (S.run tiny_problem alloc { S.default_config with S.items = 0 }));
  Alcotest.check_raises "no throughput"
    (Invalid_argument "Sim.run: allocation routes no throughput") (fun () ->
      let alloc = AL.make tiny_problem ~rho:[| 0 |] ~machines:[| 0 |] in
      ignore (S.run tiny_problem alloc S.default_config));
  Alcotest.check_raises "bad rate" (Invalid_argument "Sim.run: arrival rate must be positive")
    (fun () ->
      let alloc = AL.make tiny_problem ~rho:[| 1 |] ~machines:[| 1 |] in
      ignore (S.run tiny_problem alloc { S.default_config with S.arrival = S.Rate 0.0 }))

let test_idle_machine_type_is_harmless () =
  (* A valid allocation can rent zero machines of a type no active
     recipe uses; the run must complete and report zero utilization
     for that type. (An *active* recipe with a machine-less type is
     unreachable through the smart constructors: positive throughput
     on a used type forces at least one machine in Allocation.make.) *)
  let p =
    PB.create (PF.of_list [ (1, 5); (1, 5) ])
      [| TG.chain ~ntypes:2 ~types:[| 0; 1 |];
         TG.create ~ntypes:2 ~types:[| 0 |] ~edges:[] |]
  in
  let alloc = AL.make p ~rho:[| 0; 5 |] ~machines:[| 1; 0 |] in
  let report = S.run p alloc { S.default_config with S.items = 50 } in
  Alcotest.(check int) "all done" 50 report.S.completed;
  Alcotest.(check (float 1e-9)) "type 1 idle" 0.0 report.S.utilization.(1)

let test_failure_injection () =
  (* Aggressive failures: the stream still drains (all items complete),
     failures and re-executions are observed, and throughput drops
     versus the reliable run. *)
  let alloc = AL.make tiny_problem ~rho:[| 20 |] ~machines:[| 2 |] in
  let reliable = S.run tiny_problem alloc { S.default_config with S.items = 400 } in
  let flaky =
    S.run tiny_problem alloc
      { S.default_config with
        S.items = 400;
        failures = Some { S.mtbf = 2.0; repair_time = 1.0; seed = 7 } }
  in
  Alcotest.(check int) "all items complete despite failures" 400 flaky.S.completed;
  Alcotest.(check bool) "failures happened" true (flaky.S.failures > 0);
  Alcotest.(check bool) "throughput degrades" true
    (flaky.S.throughput < reliable.S.throughput);
  Alcotest.(check int) "reliable run has no failures" 0 reliable.S.failures;
  Alcotest.(check int) "reliable run has no reexecutions" 0 reliable.S.reexecutions

let test_failure_determinism () =
  let alloc = AL.make tiny_problem ~rho:[| 20 |] ~machines:[| 2 |] in
  let run () =
    S.run tiny_problem alloc
      { S.default_config with
        S.items = 200;
        failures = Some { S.mtbf = 3.0; repair_time = 0.5; seed = 11 } }
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same failures" a.S.failures b.S.failures;
  Alcotest.(check (float 1e-9)) "same makespan" a.S.makespan b.S.makespan

let test_failure_validation () =
  let alloc = AL.make tiny_problem ~rho:[| 10 |] ~machines:[| 1 |] in
  Alcotest.check_raises "bad mtbf" (Invalid_argument "Sim.run: mtbf must be positive")
    (fun () ->
      ignore
        (S.run tiny_problem alloc
           { S.default_config with
             S.failures = Some { S.mtbf = 0.0; repair_time = 1.0; seed = 1 } }));
  Alcotest.check_raises "bad repair"
    (Invalid_argument "Sim.run: repair_time must be non-negative") (fun () ->
      ignore
        (S.run tiny_problem alloc
           { S.default_config with
             S.failures = Some { S.mtbf = 1.0; repair_time = -1.0; seed = 1 } }))

let test_recipe_counts_match_split () =
  let o = Rentcost.Ilp.optimize illustrating ~target:70 in
  let alloc = Option.get o.Rentcost.Ilp.allocation in
  let report = S.run PB.illustrating alloc { S.default_config with S.items = 700 } in
  (* rho = (10, 30, 30) -> 700 items split 100/300/300 *)
  Alcotest.(check (array int)) "split respected" [| 100; 300; 300 |]
    report.S.recipe_counts

let suite =
  ( "streamsim",
    [ Alcotest.test_case "assign proportions" `Quick test_assign_proportions;
      Alcotest.test_case "assign zero weights" `Quick test_assign_zero_weight_skipped;
      Alcotest.test_case "assign validation" `Quick test_assign_validation;
      prop_assign_zero_weights_starve;
      prop_assign_counts_within_one;
      Alcotest.test_case "single machine timing" `Quick test_single_machine_timing;
      Alcotest.test_case "two machines double throughput" `Quick
        test_two_machines_double_throughput;
      Alcotest.test_case "chain latency" `Quick test_chain_latency;
      Alcotest.test_case "parallel DAG beats chain" `Quick
        test_parallel_dag_shorter_than_chain;
      Alcotest.test_case "ILP allocations sustain target" `Slow
        test_ilp_allocations_sustain_target;
      Alcotest.test_case "heuristic allocations sustain target" `Slow
        test_heuristic_allocations_sustain_target;
      Alcotest.test_case "under-provisioning fails" `Quick test_underprovisioned_fails;
      Alcotest.test_case "rate arrival paces output" `Quick test_rate_arrival_paces_output;
      Alcotest.test_case "reorder buffer with mixed recipes" `Quick
        test_reorder_buffer_mixed_recipes;
      Alcotest.test_case "guards" `Quick test_guards;
      Alcotest.test_case "idle machine type is harmless" `Quick
        test_idle_machine_type_is_harmless;
      Alcotest.test_case "failure injection" `Quick test_failure_injection;
      Alcotest.test_case "failure determinism" `Quick test_failure_determinism;
      Alcotest.test_case "failure validation" `Quick test_failure_validation;
      Alcotest.test_case "recipe counts match split" `Quick test_recipe_counts_match_split ]
  )
