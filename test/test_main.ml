(* Aggregated test entry point: one alcotest suite per library module. *)

let () =
  Alcotest.run "rentcost-repro"
    [ Test_bigint.suite;
      Test_pqueue.suite;
      Test_rat.suite;
      Test_numeric.suite;
      Test_prng.suite;
      Test_lp.suite;
      Test_warm.suite;
      Test_simplex_oracle.suite;
      Test_milp.suite;
      Test_knapsack.suite;
      Test_model.suite;
      Test_costing.suite;
      Test_instance.suite;
      Test_dp.suite;
      Test_ilp.suite;
      Test_heuristics.suite;
      Test_streamsim.suite;
      Test_generator.suite;
      Test_runner.suite;
      Test_solver.suite;
      Test_integration.suite;
      Test_analysis.suite;
      Test_format.suite;
      Test_decode.suite;
      Test_service.suite;
      Test_admission.suite;
      Test_autoscale.suite;
      Test_scenario.suite;
      Test_telemetry.suite;
      Test_parallel.suite ]
