(* Command-line harness regenerating every evaluation artefact of the
   paper (Table III and Figures 3-8). See DESIGN.md § 4 for the
   experiment index.

   Usage:
     dune exec bin/experiments.exe -- list
     dune exec bin/experiments.exe -- table3
     dune exec bin/experiments.exe -- fig3 [--configs 100] [--seed 2016]
     dune exec bin/experiments.exe -- fig8 --time-limit 100 --configs 10
     dune exec bin/experiments.exe -- all --configs 10
     dune exec bin/experiments.exe -- validate --targets 70,130

   Figures print as aligned tables; pass --csv FILE to also write CSV. *)

open Cmdliner

let run_preset preset ~configs ~seed ~time_limit ~csv ~quiet =
  let configs = Option.value configs ~default:preset.Cloudsim.Experiments.default_configs in
  let progress c =
    if not quiet then begin
      Printf.eprintf "\r[%s] config %d/%d%!" preset.Cloudsim.Experiments.id (c + 1) configs;
      if c + 1 = configs then prerr_newline ()
    end
  in
  let ms =
    Cloudsim.Experiments.run ~configs ~seed ?time_limit ~progress preset
  in
  (* Figure 5's heuristics run in microseconds; Figure 8's capped ILP
     runs for seconds. *)
  let series, decimals =
    match preset.Cloudsim.Experiments.id with
    | "fig4" -> (Cloudsim.Stats.best_counts ms, None)
    | "fig5" -> (Cloudsim.Stats.mean_times ~microseconds:true ms, Some 1)
    | "fig8" -> (Cloudsim.Stats.mean_times ms, None)
    | _ -> (Cloudsim.Stats.normalized_cost ms, None)
  in
  Cloudsim.Report.print_series ?decimals Format.std_formatter
    ~title:(Cloudsim.Experiments.title ?time_limit ~configs ~seed preset)
    series;
  (* The companion statistics the paper discusses alongside each plot. *)
  (match preset.Cloudsim.Experiments.id with
   | "fig3" | "fig6" | "fig7" ->
     Cloudsim.Report.print_series Format.std_formatter
       ~title:(preset.Cloudsim.Experiments.id ^ " companion: cost overhead vs ILP")
       (Cloudsim.Stats.mean_gap_vs_reference ms ~reference:"ILP")
   | "fig5" ->
     Cloudsim.Report.print_series Format.std_formatter
       ~title:"fig5 companion: cost-oracle evaluations (machine-independent effort)"
       (Cloudsim.Stats.mean_evaluations ms)
   | "fig8" ->
     Cloudsim.Report.print_series Format.std_formatter
       ~title:"fig8 companion: fraction of ILP runs proved optimal"
       (Cloudsim.Stats.optimality_rate ms);
     Cloudsim.Report.print_series Format.std_formatter
       ~title:"fig8 companion: branch-and-bound effort"
       (Cloudsim.Stats.mean_nodes ms)
   | _ -> ());
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Cloudsim.Report.series_to_csv series);
      close_out oc;
      Printf.printf "wrote %s\n" path)
    csv

let cmd_list () =
  print_endline "table3    illustrating example (paper Table III)";
  List.iter
    (fun p ->
      Printf.printf "%-9s %s (default %d configs)\n" p.Cloudsim.Experiments.id
        p.Cloudsim.Experiments.description p.Cloudsim.Experiments.default_configs)
    Cloudsim.Experiments.all;
  print_endline "all       every figure in sequence";
  print_endline "validate  stream-simulate ILP allocations (illustrating example)"

let cmd_table3 seed =
  Cloudsim.Report.print_table3 Format.std_formatter
    (Cloudsim.Experiments.table3 ~seed ())

let cmd_validate targets items =
  let problem = Rentcost.Problem.illustrating in
  let instance = Rentcost.Instance.compile problem in
  Format.printf "Validating exact allocations by discrete-event execution@.";
  Format.printf "%8s %8s %10s %12s %12s@." "target" "cost" "measured" "max_reorder"
    "mean_latency";
  List.iter
    (fun target ->
      match
        (Rentcost.Solver.run ~spec:Rentcost.Solver.Auto instance
           ~objective:(Rentcost.Objective.min_cost ~target))
          .Rentcost.Solver.allocation
      with
      | None -> Format.printf "%8d (no allocation)@." target
      | Some alloc ->
        let report =
          Streamsim.Sim.run problem alloc
            { Streamsim.Sim.default_config with Streamsim.Sim.items }
        in
        Format.printf "%8d %8d %10.2f %12d %12.4f@." target
          alloc.Rentcost.Allocation.cost report.Streamsim.Sim.throughput
          report.Streamsim.Sim.max_reorder report.Streamsim.Sim.mean_latency)
    targets

let experiment_arg =
  let doc =
    "Experiment to run: table3, fig3, fig4, fig5, fig6, fig7, fig8, all, \
     validate, or list."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)

let configs_arg =
  let doc = "Number of random configurations (default: the paper's count)." in
  Arg.(value & opt (some int) None & info [ "configs"; "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed; experiments are deterministic given the seed." in
  Arg.(value & opt int 2016 & info [ "seed" ] ~docv:"SEED" ~doc)

let time_limit_arg =
  let doc = "ILP wall-clock limit in seconds (fig8 defaults to 100)." in
  Arg.(value & opt (some float) None & info [ "time-limit" ] ~docv:"SECONDS" ~doc)

let csv_arg =
  let doc = "Also write the main series as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let quiet_arg =
  let doc = "Suppress progress output." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let targets_arg =
  let doc = "Comma-separated targets for validate (default 10,70,130,200)." in
  Arg.(value & opt (list int) [ 10; 70; 130; 200 ] & info [ "targets" ] ~docv:"T,..." ~doc)

let items_arg =
  let doc = "Stream items per validation run." in
  Arg.(value & opt int 2000 & info [ "items" ] ~docv:"N" ~doc)

let main experiment configs seed time_limit csv quiet targets items =
  match experiment with
  | "list" -> `Ok (cmd_list ())
  | "table3" -> `Ok (cmd_table3 seed)
  | "validate" -> `Ok (cmd_validate targets items)
  | "all" ->
    `Ok
      (cmd_table3 seed;
       List.iter
         (fun p -> run_preset p ~configs ~seed ~time_limit ~csv:None ~quiet)
         Cloudsim.Experiments.all)
  | id ->
    (match Cloudsim.Experiments.find id with
     | Some preset -> `Ok (run_preset preset ~configs ~seed ~time_limit ~csv ~quiet)
     | None -> `Error (false, Printf.sprintf "unknown experiment %S; try list" id))

let cmd =
  let doc = "Regenerate the paper's evaluation tables and figures" in
  let info = Cmd.info "experiments" ~doc in
  Cmd.v info
    Term.(
      ret
        (const main $ experiment_arg $ configs_arg $ seed_arg $ time_limit_arg
        $ csv_arg $ quiet_arg $ targets_arg $ items_arg))

let () = exit (Cmd.eval cmd)
