(* Tests for the experiment runner and statistics aggregation. *)

module G = Cloudsim.Generator
module R = Cloudsim.Runner
module S = Cloudsim.Stats
module E = Cloudsim.Experiments
module H = Rentcost.Heuristics

let tiny_gp = { G.num_graphs = 3; min_tasks = 2; max_tasks = 4; mutation_pct = 0.5 }

let tiny_cp =
  { G.num_types = 3; min_cost = 1; max_cost = 20; min_throughput = 5;
    max_throughput = 20 }

let run_tiny () =
  R.sweep ~seed:11 ~configs:4 tiny_gp tiny_cp ~targets:[ 10; 20 ]
    ~algorithms:(R.paper_algorithms ())
    ~params:H.default_params

let test_sweep_shape () =
  let ms = run_tiny () in
  (* 4 configs x 2 targets x 6 algorithms *)
  Alcotest.(check int) "measurement count" (4 * 2 * 6) (List.length ms);
  List.iter
    (fun m ->
      Alcotest.(check bool) "cost non-negative" true (m.R.cost >= 0);
      Alcotest.(check bool) "time non-negative" true
        (m.R.telemetry.Rentcost.Solver.wall_time >= 0.0))
    ms

let test_sweep_telemetry () =
  (* Rows carry the solving engine's own telemetry: heuristic rows
     count oracle evaluations (H1 does J of them, never 0), ILP rows
     count branch-and-bound nodes — no more hand-rolled stopwatches or
     hard-coded zeros. *)
  let open Rentcost.Solver in
  List.iter
    (fun m ->
      let t = m.R.telemetry in
      if m.R.algorithm = "ILP" then begin
        Alcotest.(check bool) "ILP engine" true (t.engine = Exact_ilp);
        Alcotest.(check bool) "ILP explored nodes" true (t.nodes >= 1);
        Alcotest.(check bool) "ILP pivoted" true (t.pivots >= 1)
      end
      else begin
        Alcotest.(check bool) "heuristic engine" true
          (match t.engine with Heuristic _ -> true | _ -> false);
        Alcotest.(check bool) "heuristic evaluated" true (t.evaluations >= 1);
        Alcotest.(check int) "heuristic has no nodes" 0 t.nodes
      end)
    (run_tiny ())

let test_sweep_deterministic_costs () =
  let costs ms = List.map (fun m -> (m.R.config, m.R.target, m.R.algorithm, m.R.cost)) ms in
  Alcotest.(check bool) "same costs across runs" true
    (costs (run_tiny ()) = costs (run_tiny ()))

let test_ilp_never_worse () =
  (* The tiny sweep's ILP runs to its proof, so its cost is never
     worse than any heuristic's on the same (config, target). *)
  let ms = run_tiny () in
  let ilp = Hashtbl.create 16 in
  List.iter
    (fun m -> if m.R.algorithm = "ILP" then Hashtbl.replace ilp (m.R.config, m.R.target) m.R.cost)
    ms;
  List.iter
    (fun m ->
      if m.R.algorithm <> "ILP" then
        Alcotest.(check bool)
          (Printf.sprintf "ILP <= %s at (%d, %d)" m.R.algorithm m.R.config m.R.target)
          true
          (Hashtbl.find ilp (m.R.config, m.R.target) <= m.R.cost))
    ms

let test_normalized_cost_series () =
  let ms = run_tiny () in
  let s = S.normalized_cost ms in
  Alcotest.(check (list string)) "column order"
    [ "ILP"; "H1"; "H2"; "H31"; "H32"; "H32Jump" ]
    s.S.algorithms;
  Alcotest.(check int) "one row per target" 2 (List.length s.S.rows);
  List.iter
    (fun (_, values) ->
      Alcotest.(check (float 1e-9)) "ILP normalizes to 1" 1.0 values.(0);
      Array.iter
        (fun v -> Alcotest.(check bool) "ratios in (0, 1]" true (v > 0.0 && v <= 1.0))
        values)
    s.S.rows

let test_best_counts_series () =
  let ms = run_tiny () in
  let s = S.best_counts ms in
  List.iter
    (fun (_, values) ->
      (* ILP is never beaten, so it is best in every configuration. *)
      Alcotest.(check (float 1e-9)) "ILP always best" 4.0 values.(0);
      Array.iter
        (fun v -> Alcotest.(check bool) "counts within configs" true (v >= 0.0 && v <= 4.0))
        values)
    s.S.rows

let test_mean_times_series () =
  let s = S.mean_times (run_tiny ()) in
  List.iter
    (fun (_, values) ->
      Array.iter (fun v -> Alcotest.(check bool) "non-negative" true (v >= 0.0)) values)
    s.S.rows

let test_gap_series () =
  let s = S.mean_gap_vs_reference (run_tiny ()) ~reference:"ILP" in
  List.iter
    (fun (_, values) ->
      Alcotest.(check (float 1e-9)) "ILP gap is zero" 0.0 values.(0);
      Array.iter (fun v -> Alcotest.(check bool) "gaps >= 0" true (v >= 0.0)) values)
    s.S.rows

let test_optimality_rate () =
  let s = S.optimality_rate (run_tiny ()) in
  List.iter
    (fun (_, values) ->
      Array.iter
        (fun v -> Alcotest.(check bool) "rate in [0,1]" true (v >= 0.0 && v <= 1.0))
        values)
    s.S.rows

let test_csv_rendering () =
  let s = S.normalized_cost (run_tiny ()) in
  let csv = Cloudsim.Report.series_to_csv s in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check bool) "header" true
    (List.hd lines = "target,ILP,H1,H2,H31,H32,H32Jump")

let test_presets_complete () =
  let ids = List.map (fun p -> p.E.id) E.all in
  Alcotest.(check (list string)) "all figures present"
    [ "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8" ] ids;
  Alcotest.(check bool) "find works" true (E.find "fig7" <> None);
  Alcotest.(check bool) "find rejects junk" true (E.find "fig9" = None);
  (* Parameters of the paper, spot-checked. *)
  let fig7 = Option.get (E.find "fig7") in
  Alcotest.(check int) "fig7 max tasks" 100 fig7.E.graphs.G.max_tasks;
  Alcotest.(check int) "fig7 max throughput" 50 fig7.E.cloud.G.max_throughput;
  let fig8 = Option.get (E.find "fig8") in
  Alcotest.(check int) "fig8 types" 50 fig8.E.cloud.G.num_types;
  Alcotest.(check (option (float 1e-9))) "fig8 cap" (Some 100.0) fig8.E.ilp_time_limit;
  Alcotest.(check int) "sweep targets" 19 (List.length E.sweep_targets)

(* The title names the ILP cap the run used: [--time-limit 20] prints
   "20 s", the preset's own cap is the default, and a preset without a
   cap names none. *)
let test_title_names_the_cap () =
  let fig8 = Option.get (E.find "fig8") and fig3 = Option.get (E.find "fig3") in
  let contains s sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  let capped = E.title ~time_limit:20. ~configs:2 ~seed:2016 fig8 in
  Alcotest.(check bool) ("20 s cap in " ^ capped) true (contains capped "20 s");
  Alcotest.(check bool) "no 100 s in it" false (contains capped "100 s");
  Alcotest.(check bool) "default cap is the preset's" true
    (contains (E.title ~configs:10 ~seed:2016 fig8) "100 s");
  Alcotest.(check string) "uncapped title unchanged"
    "fig3: normalized cost, small recipes (Figure 3) (100 configs, seed 2016)"
    (E.title ~configs:100 ~seed:2016 fig3)

let test_table3_experiment () =
  let rows = E.table3 () in
  Alcotest.(check int) "20 targets" 20 (List.length rows);
  let target, entries = List.hd rows in
  Alcotest.(check int) "first target" 10 target;
  Alcotest.(check (list string)) "algorithms"
    [ "ILP"; "H1"; "H2"; "H31"; "H32"; "H32Jump" ]
    (List.map (fun (a, _, _) -> a) entries);
  (* ILP column must equal the published optimal costs. *)
  let expected =
    [ 28; 38; 58; 69; 86; 107; 124; 134; 155; 172; 192; 199; 220; 237; 257;
      268; 285; 306; 323; 333 ]
  in
  List.iter2
    (fun (t, entries) want ->
      match entries with
      | ("ILP", _, cost) :: _ ->
        Alcotest.(check int) (Printf.sprintf "ILP at %d" t) want cost
      | _ -> Alcotest.fail "ILP missing")
    rows expected

let suite =
  ( "runner",
    [ Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
      Alcotest.test_case "sweep telemetry" `Quick test_sweep_telemetry;
      Alcotest.test_case "deterministic costs" `Quick test_sweep_deterministic_costs;
      Alcotest.test_case "ILP never worse" `Quick test_ilp_never_worse;
      Alcotest.test_case "normalized cost series" `Quick test_normalized_cost_series;
      Alcotest.test_case "best counts series" `Quick test_best_counts_series;
      Alcotest.test_case "mean times series" `Quick test_mean_times_series;
      Alcotest.test_case "gap series" `Quick test_gap_series;
      Alcotest.test_case "optimality rate" `Quick test_optimality_rate;
      Alcotest.test_case "csv rendering" `Quick test_csv_rendering;
      Alcotest.test_case "presets complete" `Quick test_presets_complete;
      Alcotest.test_case "title names the ILP cap" `Quick
        test_title_names_the_cap;
      Alcotest.test_case "table3 experiment" `Slow test_table3_experiment ] )
