(* Production command-line tool: solve, inspect and validate
   user-supplied problem instances (Problem_format files).

   Usage:
     dune exec bin/rentcost.exe -- example > app.rentcost
     dune exec bin/rentcost.exe -- info app.rentcost
     dune exec bin/rentcost.exe -- solve app.rentcost --target 70
     dune exec bin/rentcost.exe -- solve app.rentcost --target 70 -a h32jump
     dune exec bin/rentcost.exe -- solve app.rentcost --target 70 --time-limit 5
     dune exec bin/rentcost.exe -- solve app.rentcost \
       --objective max-throughput --budget 120
     dune exec bin/rentcost.exe -- solve app.rentcost --target 70 \
       --pricebook clouds.pricebook
     dune exec bin/rentcost.exe -- validate app.rentcost --target 70
     dune exec bin/rentcost.exe -- trace --pattern diurnal --ticks 96 > load.trace
     dune exec bin/rentcost.exe -- track app.rentcost --load load.trace
     dune exec bin/rentcost.exe -- track app.rentcost --ticks 96 --deadband 0.15
     dune exec bin/rentcost.exe -- serve --socket /tmp/rentcost.sock
     dune exec bin/rentcost.exe -- serve --workers 4 < requests.jsonl
     dune exec bin/rentcost.exe -- serve < requests.jsonl
     dune exec bin/rentcost.exe -- stats --socket /tmp/rentcost.sock
     dune exec bin/rentcost.exe -- stats --socket /tmp/rentcost.sock --text
     dune exec bin/rentcost.exe -- serve --socket /tmp/rentcost.sock \
       --audit audit.jsonl
     dune exec bin/rentcost.exe -- audit --socket /tmp/rentcost.sock --last 20
     dune exec bin/rentcost.exe -- explain app.rentcost --target 70 -a ilp
     dune exec bin/rentcost.exe -- solve app.rentcost --target 70 --trace t.jsonl

   Every solve goes through the unified [Rentcost.Solver] engine; the
   default algorithm "auto" routes on problem structure (§ V-A/V-B
   DPs, § V-C ILP) and degrades to the best heuristic incumbent when
   a --time-limit / --node-limit / --max-evals budget expires.

   --objective picks the scenario: "min-cost" (the default; --target
   required) minimizes rental cost at a throughput target;
   "max-throughput" (--budget required) maximizes throughput under a
   monetary budget, by binary search over min-cost solves bracketed
   by the fluid bound. --pricebook FILE prices machine types from a
   multi-cloud price book (see Rentcost.Pricebook's text format); the
   solve then reports which book and tier each rented type is
   cheapest from.

   "serve" starts the provisioning daemon (Rentcost_service): a
   long-running solve loop speaking line-delimited JSON over a Unix
   socket (--socket) or stdin/stdout, with instance fingerprinting,
   an LRU solution cache and warm-start reuse for the heuristics. --time-limit /
   --node-limit / --max-evals set the default per-request budget;
   --workers N drains the admission queue with N worker domains, one
   request per wakeup, with identical in-flight solves coalesced to
   one; --queue-policy picks who is shed when the queue is full.

   "stats" scrapes a running daemon: it sends {"op":"metrics"} over
   the socket and prints the reply — raw JSON by default, the
   Prometheus-style text exposition with --text. "audit" queries the
   daemon's solve journal ({"op":"audit"}): one line per completed
   request with its trace id, reuse rung, cost, timings and
   convergence summary; serve --audit FILE additionally mirrors the
   journal to FILE as JSON lines.

   "explain" runs one solve like "solve" and prints its convergence
   timeline — every incumbent improvement and (for the ILP) dual-bound
   advance the engines emitted, ending with the final optimality
   gap.

   "trace" prints a synthetic traffic trace (Rentcost_autoscale.Trace
   text format) to stdout; "track" replays a trace — loaded with
   --load or synthesized from the same generator flags — through the
   drift-watching elastic controller and compares its hourly-billed
   rental bill against static-peak provisioning and the clairvoyant
   per-hour oracle (Rentcost_autoscale.Policy).

   --trace FILE (any command) appends every completed Telemetry span
   to FILE as JSON lines while the command runs. *)

open Cmdliner

module S = Rentcost.Solver

let load path =
  try Ok (Rentcost.Problem_format.load path) with
  | Failure msg | Invalid_argument msg -> Error msg
  | Sys_error msg -> Error msg

let load_pricebook = function
  | None -> Ok None
  | Some path -> (
    try Ok (Some (Rentcost.Pricebook.load path)) with
    | Failure msg | Invalid_argument msg -> Error msg
    | Sys_error msg -> Error msg)

let print_allocation ?pricebook problem target (a : Rentcost.Allocation.t) =
  Format.printf "cost %d@." a.Rentcost.Allocation.cost;
  Array.iteri
    (fun j r -> if r > 0 then Format.printf "recipe %d: throughput %d@." j r)
    a.Rentcost.Allocation.rho;
  Array.iteri
    (fun q x ->
      if x > 0 then begin
        Format.printf "type %d: rent %d machine(s)" q x;
        (match pricebook with
         | None -> ()
         | Some pb ->
           (* Provenance of the effective price this solve used. *)
           let s = Rentcost.Pricebook.sourcing pb q in
           Format.printf " from %s%s @@ %s (unit cost %d)"
             s.Rentcost.Pricebook.src_book
             (match s.Rentcost.Pricebook.src_region with
              | Some r -> "/" ^ r
              | None -> "")
             s.Rentcost.Pricebook.src_tier s.Rentcost.Pricebook.src_cost);
        Format.printf "@."
      end)
    a.Rentcost.Allocation.machines;
  if not (Rentcost.Allocation.feasible problem ~target a) then
    Format.printf "WARNING: allocation does not reach the target@."

let print_telemetry status (t : S.telemetry) =
  Format.printf "%s via %s (%.3f s" (S.status_to_string status)
    (S.spec_to_string t.S.engine) t.S.wall_time;
  if t.S.nodes > 0 then Format.printf ", %d nodes" t.S.nodes;
  if t.S.pivots > 0 then Format.printf ", %d pivots" t.S.pivots;
  if t.S.evaluations > 0 then Format.printf ", %d evaluations" t.S.evaluations;
  if t.S.pruned_recipes > 0 then
    Format.printf ", %d dominated recipe(s) pruned" t.S.pruned_recipes;
  Format.printf ")@."

(* Compile [problem] for [objective], under [pricebook] when given. *)
let compile ?pricebook problem ~objective =
  Rentcost.Instance.compile
    ~scenario:(Rentcost.Scenario.make ~objective ?pricebook ())
    problem

let solve_with problem ~objective ~pricebook ~spec ~seed ~step ~budget =
  let params = { Rentcost.Heuristics.default_params with step } in
  let rng = Numeric.Prng.create seed in
  match
    S.run ~budget ~rng ~params ~spec
      (compile ?pricebook problem ~objective)
      ~objective
  with
  | exception Invalid_argument msg -> Error msg
  | o ->
    print_telemetry o.S.status o.S.telemetry;
    (match o.S.allocation with
     | Some a -> Ok (a, o.S.throughput)
     | None -> Error "no allocation meets the target")

let cmd_solve path objective pricebook spec seed step budget =
  match load path with
  | Error msg -> `Error (false, msg)
  | Ok problem -> (
    match load_pricebook pricebook with
    | Error msg -> `Error (false, msg)
    | Ok pricebook -> (
      match
        solve_with problem ~objective ~pricebook ~spec ~seed ~step ~budget
      with
      | Ok (a, achieved) ->
        (* The feasibility check below prices the allocation against
           the throughput it must reach: the requested target for
           min-cost, the achieved throughput for max-throughput. *)
        (match objective with
         | Rentcost.Objective.Min_cost { target } ->
           print_allocation ?pricebook problem target a
         | Rentcost.Objective.Max_throughput { budget } ->
           Format.printf "throughput %d (budget %d)@." achieved budget;
           print_allocation ?pricebook problem achieved a);
        `Ok ()
      | Error msg -> `Error (false, msg)))

let cmd_info path =
  match load path with
  | Error msg -> `Error (false, msg)
  | Ok problem ->
    let open Rentcost in
    Format.printf "types: %d@.recipes: %d@." (Problem.num_types problem)
      (Problem.num_recipes problem);
    Array.iteri
      (fun j r ->
        Format.printf "recipe %d: %d tasks, %d edges, critical path %d, types {%s}@."
          j (Task_graph.num_tasks r)
          (List.length (Task_graph.edges r))
          (Task_graph.critical_path_length r)
          (String.concat "," (List.map string_of_int (Task_graph.types_used r))))
      (Problem.recipes problem);
    let instance = Instance.compile problem in
    (* Classification is read off the compiled instance: dominance
       pruning may reveal structure the raw recipe list hides. *)
    Format.printf "classification: %s (auto engine: %s)@."
      (if Instance.is_blackbox instance then "black-box (§ V-A)"
       else if Instance.is_disjoint instance then "disjoint types (§ V-B)"
       else "shared types (§ V-C)")
      (S.spec_to_string (S.auto_of_instance instance));
    List.iter
      (fun (j', j) ->
        Format.printf "recipe %d is dominated by recipe %d (pruned from solves)@."
          j' j)
      (Instance.dropped instance);
    `Ok ()

let cmd_validate path target items budget =
  match load path with
  | Error msg -> `Error (false, msg)
  | Ok problem ->
    (match
       S.run ~budget
         (Rentcost.Instance.compile problem)
         ~objective:(Rentcost.Objective.min_cost ~target)
     with
     | { S.allocation = None; _ } -> `Error (false, "no solution")
     | { S.allocation = Some a; status; telemetry; _ } ->
       print_telemetry status telemetry;
       print_allocation problem target a;
       let report =
         Streamsim.Sim.run problem a
           { Streamsim.Sim.default_config with Streamsim.Sim.items }
       in
       Format.printf
         "simulated: throughput %.2f, mean latency %.4f, max reorder buffer %d@."
         report.Streamsim.Sim.throughput report.Streamsim.Sim.mean_latency
         report.Streamsim.Sim.max_reorder;
       `Ok ())

let cmd_example () =
  print_string (Rentcost.Problem_format.to_string Rentcost.Problem.illustrating)

(* --- autoscaling --- *)

module A = Rentcost_autoscale

type autoscale_opts = {
  load_trace : string option;
  pattern : [ `Diurnal | `Burst | `Flash_crowd ];
  ticks : int;
  base : int;
  amplitude : int;
  period : int;
  noise : float;
  ticks_per_hour : int;
  deadband : float;
  headroom : float;
}

(* Burst and flash-crowd derive their shape from the shared flags:
   the event peaks [amplitude] above [base], starts a third of the way
   in, and spans on the order of one [period]. *)
let make_trace opts ~seed =
  match opts.load_trace with
  | Some path -> A.Trace.load path
  | None -> (
    let { ticks; base; amplitude; period; noise; _ } = opts in
    match opts.pattern with
    | `Diurnal -> A.Trace.diurnal ~noise ~ticks ~base ~amplitude ~period ~seed ()
    | `Burst ->
      A.Trace.burst ~noise ~ticks ~base ~height:amplitude ~at:(ticks / 3)
        ~width:(max 1 (period / 2)) ~seed ()
    | `Flash_crowd ->
      A.Trace.flash_crowd ~noise ~ticks ~base ~peak:(base + amplitude)
        ~at:(ticks / 3) ~ramp:(max 1 (period / 8)) ~decay:(max 1 (period / 4))
        ~seed ())

let with_trace opts ~seed k =
  match make_trace opts ~seed with
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
    `Error (false, msg)
  | trace -> k trace

let cmd_trace opts seed = with_trace opts ~seed (fun trace ->
    print_string (A.Trace.to_string trace);
    `Ok ())

let int_row a =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list a)) ^ "]"

let cmd_track path opts spec seed budget =
  match load path with
  | Error msg -> `Error (false, msg)
  | Ok problem ->
    with_trace opts ~seed (fun trace ->
        let { ticks_per_hour; deadband; headroom; _ } = opts in
        let config =
          { A.Controller.ticks_per_hour; deadband; headroom; spec; budget }
        in
        let instance = Rentcost.Instance.compile problem in
        match A.Policy.elastic ~config instance trace with
        | exception Invalid_argument msg -> `Error (false, msg)
        | elastic, plans ->
          Format.printf "trace: %d ticks, peak demand %d, %d ticks/hour@."
            (A.Trace.length trace) (A.Trace.peak trace) ticks_per_hour;
          List.iter
            (fun (p : A.Controller.plan) ->
              (* Quiet holds are the common case; print the ticks where
                 money moved or the controller acted. *)
              if p.A.Controller.action = A.Controller.Reconfigure
                 || p.A.Controller.charged > 0 then
                Format.printf
                  "tick %4d: demand %4d %-11s target %4d rent %s renew %s \
                   release %s charged %4d%s@."
                  p.A.Controller.tick p.A.Controller.demand
                  (A.Controller.action_to_string p.A.Controller.action)
                  p.A.Controller.target
                  (int_row p.A.Controller.rent)
                  (int_row p.A.Controller.renew)
                  (int_row p.A.Controller.release)
                  p.A.Controller.charged
                  (if p.A.Controller.violation then " (SLO violation)" else ""))
            plans;
          let static =
            A.Policy.static_peak ~budget ~spec ~ticks_per_hour instance trace
          in
          let oracle =
            A.Policy.oracle ~budget ~spec ~ticks_per_hour instance trace
          in
          Format.printf "elastic:     cost %5d, %d replans, %d SLO violations@."
            elastic.A.Policy.total_cost elastic.A.Policy.replans
            elastic.A.Policy.violations;
          Format.printf "static-peak: cost %5d@." static.A.Policy.total_cost;
          Format.printf "oracle:      cost %5d@." oracle.A.Policy.total_cost;
          Format.printf
            "elastic saves %.1f%% vs static-peak, pays %.1f%% over the \
             clairvoyant oracle@."
            (100. *. A.Policy.savings ~of_:elastic ~over:static)
            (if oracle.A.Policy.total_cost = 0 then 0.
             else
               100.
               *. float_of_int
                    (elastic.A.Policy.total_cost - oracle.A.Policy.total_cost)
               /. float_of_int oracle.A.Policy.total_cost);
          `Ok ())

(* One request over the daemon socket, one reply line back. *)
let scrape_socket path request =
  let module J = Rentcost_service.Json in
  let module Pr = Rentcost_service.Protocol in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_UNIX path);
      let oc = Unix.out_channel_of_descr sock in
      output_string oc (J.to_string (Pr.request_to_json request));
      output_char oc '\n';
      flush oc;
      input_line (Unix.in_channel_of_descr sock))

let print_audit_record (r : Rentcost_service.Audit.record) =
  Format.printf "#%-4d %s tenant=%s %s@@%d %s/%s cost %d wall %.4fs queue %.4fs%s%s@."
    r.Rentcost_service.Audit.seq r.trace_id r.tenant r.objective r.scalar
    r.served r.status r.cost r.wall r.queue_wait
    (if r.engine = "" then "" else " engine=" ^ r.engine)
    (match r.convergence with
     | None -> ""
     | Some c ->
       Printf.sprintf " (%d events%s%s)" c.Rentcost_service.Audit.events
         (match c.Rentcost_service.Audit.time_to_first with
          | Some t -> Printf.sprintf ", ttf %.4fs" t
          | None -> "")
         (match c.Rentcost_service.Audit.final_gap with
          | Some g -> Printf.sprintf ", gap %.2f%%" (100. *. g)
          | None -> ""))

(* Query a running daemon's audit journal: the last N records (all
   held, without --last), one human-readable line each. *)
let cmd_audit socket last =
  match socket with
  | None -> `Error (true, "audit requires --socket PATH")
  | Some path -> (
    let module J = Rentcost_service.Json in
    let module Pr = Rentcost_service.Protocol in
    match scrape_socket path (Pr.Audit { last }) with
    | exception Unix.Unix_error (err, fn, _) ->
      `Error (false, Printf.sprintf "audit: %s: %s" fn (Unix.error_message err))
    | exception End_of_file ->
      `Error (false, "audit: daemon closed the connection")
    | line -> (
      match J.of_string line with
      | Error msg -> `Error (false, "audit: bad reply: " ^ msg)
      | Ok reply -> (
        match Pr.response_of_json reply with
        | Ok (Pr.Audit_reply records) ->
          if records = [] then Format.printf "audit journal is empty@."
          else List.iter print_audit_record records;
          `Ok ()
        | Ok (Pr.Error { message; _ }) -> `Error (false, "audit: " ^ message)
        | Ok _ -> `Error (false, "audit: unexpected reply shape")
        | Error msg -> `Error (false, "audit: bad reply: " ^ msg))))

(* Run one solve with the convergence timeline switched on and print
   it: every incumbent improvement and dual-bound advance the engines
   emitted, with the final optimality gap. *)
let cmd_explain path objective pricebook spec seed step budget =
  match load path with
  | Error msg -> `Error (false, msg)
  | Ok problem -> (
    match load_pricebook pricebook with
    | Error msg -> `Error (false, msg)
    | Ok pricebook -> (
      let params = { Rentcost.Heuristics.default_params with step } in
      let rng = Numeric.Prng.create seed in
      match
        S.run ~budget ~rng ~params ~spec
          (compile ?pricebook problem ~objective)
          ~objective
      with
      | exception Invalid_argument msg -> `Error (false, msg)
      | o ->
        print_telemetry o.S.status o.S.telemetry;
        (match o.S.allocation with
         | Some a -> Format.printf "cost %d@." a.Rentcost.Allocation.cost
         | None -> ());
        let events = o.S.convergence in
        if events = [] then
          Format.printf
            "no convergence events (cache hit, closed-form solve, or \
             telemetry disabled)@."
        else begin
          Format.printf "convergence timeline (%d events):@."
            (List.length events);
          List.iter
            (fun (e : Telemetry.Progress.event) ->
              let what =
                match
                  (e.Telemetry.Progress.incumbent, e.Telemetry.Progress.bound)
                with
                | Some i, Some b ->
                  Printf.sprintf "incumbent %d, bound %.2f" (int_of_float i) b
                | Some i, None -> Printf.sprintf "incumbent %d" (int_of_float i)
                | None, Some b -> Printf.sprintf "bound %.2f" b
                | None, None -> "-"
              in
              Format.printf "  t+%8.4fs  %-30s [%s]@."
                e.Telemetry.Progress.elapsed what e.Telemetry.Progress.source)
            events;
          match Rentcost_service.Audit.summarize events with
          | None -> ()
          | Some c ->
            let part label = function
              | None -> ""
              | Some v -> Printf.sprintf ", %s %.2f" label v
            in
            Format.printf "final: incumbent %s%s%s%s@."
              (match c.Rentcost_service.Audit.last_incumbent with
               | Some v -> string_of_int (int_of_float v)
               | None -> "-")
              (part "bound" c.Rentcost_service.Audit.final_bound)
              (match c.Rentcost_service.Audit.final_gap with
               | Some g -> Printf.sprintf ", gap %.2f%%" (100. *. g)
               | None -> "")
              (match c.Rentcost_service.Audit.time_to_first with
               | Some t -> Printf.sprintf ", first feasible at %.4fs" t
               | None -> "")
        end;
        `Ok ()))

let cmd_stats socket text_mode =
  match socket with
  | None -> `Error (true, "stats requires --socket PATH")
  | Some path -> (
    let module J = Rentcost_service.Json in
    let module Pr = Rentcost_service.Protocol in
    match scrape_socket path Pr.Metrics with
    | exception Unix.Unix_error (err, fn, _) ->
      `Error (false, Printf.sprintf "stats: %s: %s" fn (Unix.error_message err))
    | exception End_of_file ->
      `Error (false, "stats: daemon closed the connection")
    | line -> (
      match J.of_string line with
      | Error msg -> `Error (false, "stats: bad reply: " ^ msg)
      | Ok reply ->
        if not text_mode then begin
          print_endline line;
          `Ok ()
        end
        else (
          match J.get_string "text" reply with
          | Some text ->
            print_string text;
            `Ok ()
          | None -> `Error (false, "stats: reply carries no text exposition"))))

let cmd_serve socket cache_capacity queue_capacity queue_policy budget workers
    audit =
  if cache_capacity <= 0 then `Error (true, "--cache must be positive")
  else if queue_capacity <= 0 then `Error (true, "--queue must be positive")
  else if workers < 1 then `Error (true, "--workers must be at least 1")
  else begin
    let config =
      { Rentcost_service.Engine.cache_capacity; queue_capacity; queue_policy;
        default_budget = budget }
    in
    match socket with
    | Some path ->
      (match
         Rentcost_service.Daemon.serve_socket ~config ~workers ?audit ~path ()
       with
       | () -> `Ok ()
       | exception Unix.Unix_error (err, fn, _) ->
         `Error (false, Printf.sprintf "serve: %s: %s" fn (Unix.error_message err)))
    | None ->
      `Ok
        (Rentcost_service.Daemon.serve_channels ~config ~workers ?audit stdin
           stdout)
  end

(* --- cmdliner plumbing --- *)

(* The spellings of {!S.specs}, read as the daemon's ["spec"] field is:
   any case, no prefixes. *)
let algorithm_arg =
  let parse s =
    match S.spec_of_string s with
    | Some spec -> Ok spec
    | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  let print ppf spec = Format.pp_print_string ppf (S.spec_to_string spec) in
  Arg.(value
      & opt (conv (parse, print)) S.Auto
      & info [ "algorithm"; "a" ] ~docv:"ALG"
          ~doc:("One of: " ^ String.concat ", " (List.map fst S.specs) ^ "."))

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let step_arg =
  Arg.(value & opt int 1 & info [ "step" ] ~docv:"D" ~doc:"Heuristic exchange quantum.")

let time_limit_arg =
  Arg.(value & opt (some float) None & info [ "time-limit" ] ~docv:"S"
         ~doc:"Wall-clock budget in seconds.")

let node_limit_arg =
  Arg.(value & opt (some int) None & info [ "node-limit" ] ~docv:"N"
         ~doc:"Branch-and-bound node budget (deterministic).")

let max_evals_arg =
  Arg.(value & opt (some int) None & info [ "max-evals" ] ~docv:"N"
         ~doc:"Cost-oracle evaluation budget for heuristics (deterministic).")

let items_arg =
  Arg.(value & opt int 2000 & info [ "items" ] ~docv:"N" ~doc:"Simulated stream items.")

let subcommand =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"COMMAND"
         ~doc:"solve, explain, info, validate, track, trace, serve, stats, \
               audit, or example.")

let autoscale_term =
  let make load_trace pattern ticks base amplitude period noise ticks_per_hour
      deadband headroom =
    { load_trace; pattern; ticks; base; amplitude; period; noise;
      ticks_per_hour; deadband; headroom }
  in
  Term.(
    const make
    $ Arg.(value & opt (some file) None
           & info [ "load" ] ~docv:"FILE"
               ~doc:"Replay a saved traffic trace instead of generating one.")
    $ Arg.(value
           & opt (enum [ ("diurnal", `Diurnal); ("burst", `Burst);
                         ("flash-crowd", `Flash_crowd) ]) `Diurnal
           & info [ "pattern" ] ~docv:"SHAPE"
               ~doc:"Synthetic trace shape: diurnal, burst, or flash-crowd.")
    $ Arg.(value & opt int 96
           & info [ "ticks" ] ~docv:"N" ~doc:"Trace length in ticks.")
    $ Arg.(value & opt int 20
           & info [ "base" ] ~docv:"N" ~doc:"Baseline demand per tick.")
    $ Arg.(value & opt int 60
           & info [ "amplitude" ] ~docv:"N"
               ~doc:"Demand swing above the baseline.")
    $ Arg.(value & opt int 48
           & info [ "period" ] ~docv:"N"
               ~doc:"Diurnal period (ticks); also scales the burst and \
                     flash-crowd event lengths.")
    $ Arg.(value & opt float 0.08
           & info [ "noise" ] ~docv:"F"
               ~doc:"Multiplicative demand noise in [0,1] (seeded).")
    $ Arg.(value & opt int 12
           & info [ "ticks-per-hour" ] ~docv:"N"
               ~doc:"Billing granularity: ticks per paid machine-hour.")
    $ Arg.(value & opt float 0.25
           & info [ "deadband" ] ~docv:"F"
               ~doc:"Controller hysteresis: no downscale re-solve while \
                     demand stays above (1-F) x the solved target.")
    $ Arg.(value & opt float 0.15
           & info [ "headroom" ] ~docv:"F"
               ~doc:"Over-provisioning applied to each re-solve target."))

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Serve on a Unix-domain socket instead of stdin/stdout.")

let cache_arg =
  Arg.(value & opt int 128 & info [ "cache" ] ~docv:"N"
         ~doc:
           "Solution-cache capacity (LRU entries) for serve; also bounds the \
            registered names, inline texts and compiled instances it keeps.")

let queue_arg =
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
         ~doc:"Admission-queue capacity for serve.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Append completed telemetry spans to FILE as JSON lines.")

let text_arg =
  Arg.(value & flag & info [ "text" ]
         ~doc:"Print the Prometheus-style text exposition (stats).")

let audit_file_arg =
  Arg.(value & opt (some string) None & info [ "audit" ] ~docv:"FILE"
         ~doc:"Append one audit record per completed request to FILE as \
               JSON lines (serve).")

let last_arg =
  Arg.(value & opt (some int) None & info [ "last" ] ~docv:"N"
         ~doc:"Only the last N audit records (audit).")

let objective_arg =
  Arg.(value
      & opt (enum [ ("min-cost", `Min_cost); ("max-throughput", `Max_throughput) ])
          `Min_cost
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:
            "What to optimize: min-cost (reach --target at minimum rental \
             cost, the default) or max-throughput (maximize throughput with \
             rental cost at most --budget).")

let money_arg =
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"COST"
         ~doc:"Monetary budget for --objective max-throughput.")

let pricebook_arg =
  Arg.(value & opt (some file) None & info [ "pricebook" ] ~docv:"FILE"
         ~doc:"Price machine types from a multi-cloud price-book file \
               instead of the instance's own cost vector.")

let workers_arg =
  Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N"
         ~doc:"Worker domains draining the serve queue concurrently.")

let queue_policy_arg =
  let module A = Rentcost_service.Admission in
  Arg.(value
      & opt
          (enum
             [ ("reject-new", A.Reject_new); ("drop-oldest", A.Drop_oldest);
               ("tenant-fair", A.Tenant_fair) ])
          A.Reject_new
      & info [ "queue-policy" ] ~docv:"POLICY"
          ~doc:
            "Who loses when the serve queue is full: reject-new sheds the \
             arrival, drop-oldest evicts the oldest queued request, \
             tenant-fair evicts the newest request of the tenant holding \
             the most slots (never a tenant's only one).")

let main sub path target spec seed step time_limit node_limit max_evals items
    socket cache_capacity queue_capacity queue_policy trace text_mode
    workers objective_kind money pricebook audit_file last auto_opts =
  let budget =
    { Rentcost.Budget.deadline = time_limit; node_cap = node_limit;
      eval_cap = max_evals }
  in
  (match trace with
   | None -> ()
   | Some path ->
     Rentcost_service.Metrics.install_trace ~path;
     at_exit Rentcost_service.Metrics.close_trace);
  let with_objective k =
    match (objective_kind, target, money) with
    | `Min_cost, Some target, _ -> k (Rentcost.Objective.min_cost ~target)
    | `Min_cost, None, _ -> `Error (true, "--target is required")
    | `Max_throughput, _, Some money ->
      k (Rentcost.Objective.max_throughput ~budget:money)
    | `Max_throughput, _, None ->
      `Error (true, "--objective max-throughput requires --budget")
  in
  match (sub, path, target) with
  | "example", _, _ -> `Ok (cmd_example ())
  | "serve", _, _ ->
    cmd_serve socket cache_capacity queue_capacity queue_policy budget workers
      audit_file
  | "stats", _, _ -> cmd_stats socket text_mode
  | "audit", _, _ -> cmd_audit socket last
  | "info", Some path, _ -> cmd_info path
  | "solve", Some path, _ ->
    with_objective (fun objective ->
        cmd_solve path objective pricebook spec seed step budget)
  | "explain", Some path, _ ->
    with_objective (fun objective ->
        cmd_explain path objective pricebook spec seed step budget)
  | "validate", Some path, Some target -> cmd_validate path target items budget
  | "validate", Some _, None -> `Error (true, "--target is required")
  | "trace", _, _ -> cmd_trace auto_opts seed
  | "track", Some path, _ -> cmd_track path auto_opts spec seed budget
  | ("info" | "solve" | "explain" | "validate" | "track"), None, _ ->
    `Error (true, "a problem FILE is required")
  | (other, _, _) -> `Error (true, Printf.sprintf "unknown command %S" other)

let cmd =
  let doc = "Solve cloud rental-cost problems from instance files" in
  let info = Cmd.info "rentcost" ~doc in
  Cmd.v info
    Term.(
      ret
        (const main $ subcommand
        $ Arg.(value & pos 1 (some file) None
               & info [] ~docv:"FILE" ~doc:"Problem file.")
        $ Arg.(value & opt (some int) None
               & info [ "target"; "t" ] ~docv:"N" ~doc:"Target throughput.")
        $ algorithm_arg $ seed_arg $ step_arg $ time_limit_arg $ node_limit_arg
        $ max_evals_arg $ items_arg $ socket_arg $ cache_arg $ queue_arg
        $ queue_policy_arg
        $ trace_arg $ text_arg $ workers_arg $ objective_arg
        $ money_arg $ pricebook_arg $ audit_file_arg $ last_arg
        $ autoscale_term))

let () = exit (Cmd.eval cmd)
