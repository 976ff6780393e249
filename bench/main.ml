(* The bench: writes the committed BENCH_*.json files and gates them.
   The paper's tables and figures themselves are reproduced by
   [bin/experiments.exe]; the daemon's end-to-end latency and
   throughput live in perfbench ([perfbench/run.py]).

   Run with: dune exec bench/main.exe

   It takes no arguments. Every run writes, through one JSON writer
   and tagged with the root seed (RENTCOST_BENCH_SEED, default 2016,
   from which every workload seed is split):
   - BENCH_solver.json: per-engine cost, status and effort, and the
     incremental-vs-scratch oracle throughput;
   - BENCH_observability.json: the instrumented hot path, enabled vs
     kill-switched;
   - BENCH_scenarios.json: the dual objective against a scan of the
     cost curve, max-throughput sweeps over seeded fig3 and fig6
     instances, and single- vs multi-cloud cost;
   - BENCH_numeric.json: the fast LP engine against exact Rat, the
     figure-preset and fig8 workloads' relaxations, fallbacks, pivots,
     warm nodes, peak retained words, capped cost sum and proved count,
     the overflow stress workload's relaxations, fallbacks, nodes,
     pivots and cost sum, the words one decode of an inline problem allocates ("wire"), and
     a tree that fills the snapshot budget ("budget_tree");
   - BENCH_autoscale.json: elastic vs static-peak vs oracle cost.

   It then prints "smoke OK" if: the exact engines agree and the
   heuristics are feasible; the incremental oracle matches scratch
   repricing; the kill switch freezes every instrument and enabled
   instrumentation costs under 5%; the dual objective and price books
   behave, with the dual answer costing the min cost at its
   throughput, and each dual sweep's money, throughputs, costs, nodes,
   pivots and exact objectives equal to the committed
   BENCH_scenarios.json, its nodes within a fixed bound and zero
   fallbacks; the
   fast LP engine is bit-identical and fast enough, with the
   figure-preset, fig8 and stress effort counts, capped answers, wire
   decode words and budget-tree counts equal to the committed
   BENCH_numeric.json; and the
   autoscale policies are ordered oracle <= elastic <= static-peak.
   Otherwise it prints a FAIL line per failed check and exits 1.
   Minor-word counts depend on the dune profile, so BENCH_numeric.json
   records the profile they were pinned under; a run under another
   profile compares none of them and fails once, naming both. *)

module G = Cloudsim.Generator
module H = Rentcost.Heuristics
module I = Rentcost.Instance
module P = Numeric.Prng
module S = Rentcost.Solver

module J = Rentcost_service.Json

(* --- fixed workloads --- *)

(* One root seed for the whole run, split in a fixed order so each
   consumer gets a stable, independent stream. A new consumer draws
   last, so no existing stream shifts. *)
let default_seed = 2016

let root_seed =
  match Sys.getenv_opt "RENTCOST_BENCH_SEED" with
  | None -> default_seed
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "bench: RENTCOST_BENCH_SEED=%S is not an integer\n" v;
      exit 2)

let workload_seed, kernel_seed, autoscale_seed =
  let r = P.create root_seed in
  let sub () = Int64.to_int (P.bits64 r) land 0x3FFFFFFF in
  let workload = sub () in
  let kernel = sub () in
  (* A retired consumer's draw, kept so the autoscale stream does not
     shift. *)
  let _sweep = sub () in
  let autoscale = sub () in
  (workload, kernel, autoscale)

let illustrating = Rentcost.Problem.illustrating

let params10 = { H.default_params with step = 10 }

(* The instances are built once, on first use. The compiled instance
   carries its problem ([Instance.problem]), so one lazy cell serves
   both views. *)

let large_instance =
  lazy
    (let preset = Option.get (Cloudsim.Experiments.find "fig7") in
     I.compile
       (G.problem ~rng:(P.create workload_seed) preset.Cloudsim.Experiments.graphs
          preset.Cloudsim.Experiments.cloud))

let illustrating_instance = lazy (I.compile illustrating)

let min_cost target = Rentcost.Objective.min_cost ~target

(* --- the structured instances that Auto routes to the § V DPs --- *)

let platform4 =
  Rentcost.Platform.of_list [ (10, 10); (18, 20); (25, 30); (33, 40) ]

let blackbox_instance =
  lazy
    (I.compile
       (Rentcost.Problem.create platform4
          (Array.init 4 (fun q ->
               Rentcost.Task_graph.chain ~ntypes:4 ~types:[| q |]))))

let disjoint_instance =
  lazy
    (I.compile
       (Rentcost.Problem.create platform4
          [| Rentcost.Task_graph.chain ~ntypes:4 ~types:[| 0; 1 |];
             Rentcost.Task_graph.chain ~ntypes:4 ~types:[| 2; 3 |] |]))

(* --- the provisioning service, for the kill-switch gate --- *)

module Svc = Rentcost_service

(* An engine with the illustrating problem registered as "app", and a
   solve on it that opts out of reuse, so every call runs the ILP. *)
let cold_engine =
  lazy
    (let e = Svc.Engine.create () in
     ignore (Svc.Engine.register e ~name:"app" illustrating);
     e)

let cold_solve () =
  match
    Svc.Engine.handle (Lazy.force cold_engine)
      (Svc.Protocol.Solve
         { id = None; trace_id = None; tenant = None;
           source = Svc.Protocol.Ref "app"; objective = min_cost 70;
           pricebook = None; spec = S.Auto; budget = None;
           reuse = Svc.Protocol.No_reuse })
  with
  | [ Svc.Protocol.Solved _ ] -> ()
  | _ -> failwith "bench: unexpected service response"

(* --- scenarios: the dual objective and multi-cloud price books --- *)

module Ob = Rentcost.Objective
module Pb = Rentcost.Pricebook
module Sc = Rentcost.Scenario

(* Three books over a platform's own list prices: the platform itself,
   a +25% region whose reserved tier still lands above list, and a
   spot market at 60% of list — the effective price for every type. *)
let multicloud_books platform =
  let q = Rentcost.Platform.num_types platform in
  let prices f =
    Array.init q (fun i -> f (Rentcost.Platform.cost platform i))
  in
  Pb.create
    [ { Pb.book_name = "on-prem"; region = None; prices = prices Fun.id;
        tiers = [] };
      { Pb.book_name = "us-east"; region = Some "us-east-1";
        prices = prices (fun c -> (c * 5 / 4) + 1);
        tiers = [ { Pb.tier_name = "reserved"; percent = 90 } ] };
      { Pb.book_name = "ap-spot"; region = Some "ap-south-1";
        prices = prices Fun.id;
        tiers = [ { Pb.tier_name = "spot"; percent = 60 } ] } ]

(* Three books that all quote exactly the platform vector; compiling
   under this pricebook must be bit-identical to compiling without
   one. *)
let identical_books platform =
  let q = Rentcost.Platform.num_types platform in
  Pb.create
    (List.map
       (fun name ->
         { Pb.book_name = name; region = None;
           prices = Array.init q (Rentcost.Platform.cost platform);
           tiers = [] })
       [ "alpha"; "beta"; "gamma" ])

let illustrating_maxthr_instance =
  lazy (I.compile ~scenario:(Sc.max_throughput ~budget:120 ()) illustrating)

(* --- numeric: the LP fast path vs the exact Rat engine ---

   Both sides solve the SAME prebuilt model (the solvers never mutate
   it), so the split isolates arithmetic from model construction.
   Results are bit-identical — gated below and in the differential
   test suite, so these pairs measure speed, not behaviour. *)

let lp_model_illustrating =
  lazy (Rentcost.Ilp.model (I.compile illustrating) ~target:70)

(* The fig7 relaxation: 50-100 task recipes, the paper-scale LP. *)
let lp_model_large =
  lazy (Rentcost.Ilp.model (Lazy.force large_instance) ~target:100)

(* --- autoscale: the policy comparison --- *)

module As = Rentcost_autoscale

(* The pinned bench scenario: a deep diurnal swing (trough 20, crest
   ~80) with mild noise, hours of 12 ticks, and a controller whose
   headroom (15%) covers the noise band (8%) so wiggles inside an hour
   do not force mid-hour re-rents. Under this config the policy
   ordering oracle <= elastic <= static-peak is robust across seeds —
   gated below. *)
let autoscale_trace =
  lazy
    (As.Trace.diurnal ~ticks:96 ~base:20 ~amplitude:60 ~period:48 ~noise:0.08
       ~seed:autoscale_seed ())

let autoscale_config =
  { As.Controller.default_config with
    ticks_per_hour = 12;
    deadband = 0.25;
    headroom = 0.15 }

(* --- the one writer: BENCH_<name>.json, one top-level field a line --- *)

let emit name ~schema fields =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let fields =
    ("schema", J.String schema) :: ("seed", J.Int root_seed) :: fields
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\n";
      List.iteri
        (fun i (key, value) ->
          Printf.fprintf oc "%s  %s: %s"
            (if i = 0 then "" else ",\n")
            (J.to_string (J.String key)) (J.to_string value))
        fields;
      output_string oc "\n}\n");
  Printf.printf "%s written\n" path

(* [x] rounded to [digits] decimals, so a committed file records no
   more precision than the measurement has. *)
let fixed digits x =
  let scale = 10. ** float_of_int digits in
  J.Float (Float.round (x *. scale) /. scale)

let quotient a b = a /. Float.max b 1e-9

(* Per-call seconds of [a] and of [b], each the best of 7 batches, the
   batches of the two alternating so that a drift of the host touches
   both alike. A batch runs its function [inner] times, [inner] chosen
   so that a batch of [b] takes at least 10 ms. *)
let alternating_best ~a ~b =
  let batch f inner =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to inner do
      ignore (Sys.opaque_identity (f ()))
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (Sys.opaque_identity (a ()));
  let rec calibrate inner =
    if batch b inner >= 0.01 then inner else calibrate (2 * inner)
  in
  let inner = calibrate 1 in
  let best_a = ref infinity and best_b = ref infinity in
  for _ = 1 to 7 do
    best_a := Float.min !best_a (batch a inner);
    best_b := Float.min !best_b (batch b inner)
  done;
  (!best_a /. float_of_int inner, !best_b /. float_of_int inner)

(* Best-of-[reps] over [inner]-call batches, per-call seconds. Same
   best-of discipline as the observability split: the minimum is the
   honest "how fast can this go" number. *)
let best_of_seconds ~reps ~inner f =
  ignore (Sys.opaque_identity (f ()));
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to inner do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best /. float_of_int inner

(* Words allocated by one call of [f], after a first call has warmed
   it up. Promoted words are counted in the minor heap already, so
   they are taken out of the major-heap growth. *)
let allocated_words f =
  ignore (Sys.opaque_identity (f ()));
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  int_of_float
    (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* A small (fig3) and a medium (fig6) problem from a pinned seed, the
   sizes perfbench's paper-sweep sends. Counts measured on them do not
   follow RENTCOST_BENCH_SEED and are gated exactly. *)
let wire_seed = 2016

let pinned_problems =
  lazy
    (let rng = P.create wire_seed in
     let generate id =
       let preset = Option.get (Cloudsim.Experiments.find id) in
       G.problem ~rng preset.Cloudsim.Experiments.graphs
         preset.Cloudsim.Experiments.cloud
     in
     let small = generate "fig3" in
     let medium = generate "fig6" in
     (small, medium))

(* --- BENCH_solver.json: machine-readable per-engine record --- *)

type engine_row = {
  row_name : string;
  row_cost : int;
  row_status : S.status;
  row_telemetry : S.telemetry;
}

let solve_row name spec inst ~target =
  let o =
    S.run ~rng:(P.create kernel_seed) ~params:params10 ~spec
      (Lazy.force inst) ~objective:(min_cost target)
  in
  let cost =
    match o.S.allocation with
    | Some a -> a.Rentcost.Allocation.cost
    | None -> -1
  in
  { row_name = name; row_cost = cost; row_status = o.S.status;
    row_telemetry = o.S.telemetry }

let engine_rows () =
  [ solve_row "ilp_illustrating_rho70" S.Exact_ilp illustrating_instance
      ~target:70;
    solve_row "exhaustive_illustrating_rho70" S.Exhaustive illustrating_instance
      ~target:70;
    solve_row "auto_illustrating_rho70" S.Auto illustrating_instance ~target:70;
    solve_row "dp_blackbox_rho100" S.Auto blackbox_instance ~target:100;
    solve_row "dp_disjoint_rho100" S.Auto disjoint_instance ~target:100 ]
  @ List.map
      (fun name ->
        solve_row
          (Printf.sprintf "%s_illustrating_rho70"
             (String.lowercase_ascii (H.name_to_string name)))
          (S.Heuristic name) illustrating_instance ~target:70)
      [ H.H0; H.H1; H.H2; H.H31; H.H32; H.H32_jump ]

(* Incremental-vs-scratch oracle throughput on the large workload: the
   headline number for the compiled-instance layer. Both sides price
   the same neighbour moves of rho = (5,…,5), the incremental side
   with [Oracle.price], as the heuristics do. *)
let oracle_throughput ~evals =
  let inst = Lazy.force large_instance in
  let problem = I.problem inst in
  let j_compact = I.num_recipes inst in
  let j_orig = Rentcost.Problem.num_recipes problem in
  let o = I.Oracle.create inst in
  I.Oracle.reset o ~rho:(Array.make j_compact 5);
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for i = 0 to evals - 1 do
    acc := !acc + I.Oracle.price o ~j:(i mod j_compact) ~drho:1
  done;
  let dt_inc = Unix.gettimeofday () -. t0 in
  let scratch_evals = max 1 (evals / 50) in
  let t0 = Unix.gettimeofday () in
  let rho = Array.make j_orig 5 in
  for i = 0 to scratch_evals - 1 do
    let j = i mod j_orig in
    rho.(j) <- 6;
    acc := !acc + (Rentcost.Allocation.of_rho problem ~rho).Rentcost.Allocation.cost;
    rho.(j) <- 5
  done;
  let dt_scratch = Unix.gettimeofday () -. t0 in
  ignore !acc;
  let inc_rate = float_of_int evals /. Float.max dt_inc 1e-9 in
  let scratch_rate = float_of_int scratch_evals /. Float.max dt_scratch 1e-9 in
  (inc_rate, scratch_rate)

(* The § VI search layer on its own: H2, H31, H32 and H32Jump with the
   default parameters on the pinned fig3 and fig6 problems at two
   targets, with the kill switch on so that nothing but the search
   runs. Evaluations, cost and the words one run allocates are
   deterministic, so they are gated exactly against the committed
   file: a probe that moves and reverts, or allocates per evaluation,
   shows as a count. Microseconds per run are recorded only. *)
let heuristic_targets = [ 60; 140 ]

let heuristic_names = [ H.H2; H.H31; H.H32; H.H32_jump ]

type heuristic_row = {
  hr_name : string;
  hr_evaluations : int;
  hr_cost : int;
  hr_words : int;
  hr_us : float;
}

(* The fields gated exactly, with this run's values. *)
let heuristic_gated r =
  [ ("evaluations", r.hr_evaluations); ("cost", r.hr_cost);
    ("minor_words", r.hr_words) ]

let heuristic_rows () =
  let small, medium = Lazy.force pinned_problems in
  Telemetry.set_enabled false;
  let rows =
    List.concat_map
      (fun (label, problem) ->
        let inst = I.compile problem in
        List.concat_map
          (fun target ->
            List.map
              (fun name ->
                let run () =
                  H.search ~rng:(P.create wire_seed) name inst ~target
                in
                let r = run () in
                { hr_name =
                    Printf.sprintf "%s_%s_rho%d"
                      (String.lowercase_ascii (H.name_to_string name))
                      label target;
                  hr_evaluations = r.H.evaluations;
                  hr_cost = r.H.allocation.Rentcost.Allocation.cost;
                  hr_words = allocated_words run;
                  hr_us = 1e6 *. best_of_seconds ~reps:5 ~inner:5 run })
              heuristic_names)
          heuristic_targets)
      [ ("fig3", small); ("fig6", medium) ]
  in
  Telemetry.set_enabled true;
  rows

let emit_solver () =
  let rows = engine_rows () in
  let heuristics = heuristic_rows () in
  let inc_rate, scratch_rate = oracle_throughput ~evals:20_000 in
  let row_json r =
    let t = r.row_telemetry in
    J.Obj
      [ ("name", J.String r.row_name);
        ("engine", J.String (S.spec_to_string t.S.engine));
        ("status", J.String (S.status_to_string r.row_status));
        ("cost", J.Int r.row_cost); ("wall_time", fixed 6 t.S.wall_time);
        ("evaluations", J.Int t.S.evaluations); ("pivots", J.Int t.S.pivots);
        ("nodes", J.Int t.S.nodes); ("pruned_recipes", J.Int t.S.pruned_recipes) ]
  in
  emit "solver" ~schema:"rentcost-bench-solver/1"
    [ ("engines", J.List (List.map row_json rows));
      ( "oracle",
        J.Obj
          [ ("incremental_evals_per_sec", fixed 1 inc_rate);
            ("scratch_evals_per_sec", fixed 1 scratch_rate);
            ("speedup", fixed 2 (quotient inc_rate scratch_rate)) ] );
      ( "heuristics",
        J.Obj
          [ ("seed", J.Int wire_seed); ("telemetry", J.Bool false);
            ( "runs",
              J.List
                (List.map
                   (fun r ->
                     J.Obj
                       ((("name", J.String r.hr_name)
                        :: List.map (fun (k, v) -> (k, J.Int v))
                             (heuristic_gated r))
                       @ [ ("us", fixed 1 r.hr_us) ]))
                   heuristics) ) ] ) ];
  (rows, heuristics)

(* --- BENCH_observability.json: instrumentation overhead on the
   heuristic hot path --- *)

(* Best-of-[reps] alternating enabled/disabled timings of the same
   H32Jump solve. Alternation plus best-of defends against frequency
   drift and one-off scheduler hiccups: the minimum of each side is
   the honest "how fast can this go" comparison. *)
let bench_requests_vec =
  Telemetry.counter_vec "bench.requests" ~labels:[ "tenant"; "rung" ]

let observability_overhead ~reps =
  let inst = Lazy.force illustrating_instance in
  let run () =
    ignore
      ((S.run ~rng:(P.create kernel_seed) ~params:params10
          ~spec:(S.Heuristic H.H32_jump) inst ~objective:(min_cost 70))
         .S.telemetry.S.evaluations);
    (* The labelled path, exactly as the service engine bumps it per
       request: cell lookup guarded by the kill switch, so the
       disabled side measures the hot path with zero instrumentation
       and the enabled side carries the per-request label cost too. *)
    if Telemetry.enabled () then
      Telemetry.bump
        (Telemetry.counter_with bench_requests_vec [ "default"; "cold" ])
  in
  let inner = 20 in
  let time_one enabled =
    Telemetry.set_enabled enabled;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to inner do run () done;
    Unix.gettimeofday () -. t0
  in
  run ();
  (* warm-up: faults, caches, lazy cells *)
  let best_on = ref infinity and best_off = ref infinity in
  for _ = 1 to reps do
    best_off := Float.min !best_off (time_one false);
    best_on := Float.min !best_on (time_one true)
  done;
  Telemetry.set_enabled true;
  (!best_on /. float_of_int inner, !best_off /. float_of_int inner)

let emit_observability () =
  let on, off = observability_overhead ~reps:7 in
  emit "observability" ~schema:"rentcost-bench-observability/2"
    [ ( "hot_path",
        J.Obj
          [ ("kernel", J.String "h32jump_labelled_rho70");
            ("enabled_us", fixed 3 (on *. 1e6));
            ("disabled_us", fixed 3 (off *. 1e6));
            ("overhead_pct", fixed 2 (100. *. (quotient on off -. 1.))) ] ) ];
  (on, off)

(* --- BENCH_scenarios.json: the dual objective checked against an
   independent scan of the cost curve, and single-cloud vs 3-book
   multi-cloud cost on the fig7 workload --- *)

(* Largest t with optimal min-cost c(t) <= budget, by linear scan up
   the monotone curve — the independent oracle the binary-search dual
   is asserted against. *)
let exact_dual_scan inst ~budget =
  let cost_at t =
    match (S.run inst ~objective:(min_cost t)).S.allocation with
    | Some a -> a.Rentcost.Allocation.cost
    | None -> max_int
  in
  let rec go t = if cost_at (t + 1) <= budget then go (t + 1) else t in
  go 0

(* A dual sweep: max throughput on the first two seeded instances of
   a preset, at the money that each target's ILP min cost takes, so
   every answer reaches its target. Nodes, pivots, fallbacks and
   exact objectives (relaxation objectives that a node had to make
   exact) are summed over the max-throughput solves alone. *)
let dual_sweep_targets = [ 20; 60; 100; 140 ]

(* The fig6 sweep's throughputs at the default seed, and the most
   nodes each sweep may take. *)
let fig6_sweep_throughputs = [ 21; 61; 100; 140; 21; 60; 100; 140 ]
let fig3_sweep_max_nodes = 1_000
let fig6_sweep_max_nodes = 30_000

type dual_sweep = {
  ds_money : int list;
  ds_throughputs : int list;
  ds_costs : int list;
  ds_nodes : int;
  ds_pivots : int;
  ds_fallbacks : int;
  ds_exact_objectives : int;
  ds_seconds : float;
}

let dual_sweep preset_id =
  let preset = Option.get (Cloudsim.Experiments.find preset_id) in
  let rng = P.create root_seed in
  let generate () =
    G.problem ~rng preset.Cloudsim.Experiments.graphs
      preset.Cloudsim.Experiments.cloud
  in
  let first = generate () in
  let second = generate () in
  let solves =
    List.concat_map
      (fun problem ->
        let inst = I.compile problem in
        List.map
          (fun target ->
            let money =
              match
                (S.run ~spec:S.Exact_ilp inst ~objective:(min_cost target))
                  .S.allocation
              with
              | Some a -> a.Rentcost.Allocation.cost
              | None -> assert false (* an unlimited ILP always answers *)
            in
            (problem, money))
          dual_sweep_targets)
      [ first; second ]
  in
  let fallbacks0 = Telemetry.value Telemetry.numeric_fallbacks in
  let exact0 = Telemetry.value Telemetry.lp_exact_objectives in
  let outcomes =
    List.map
      (fun (problem, money) ->
        let objective = Ob.max_throughput ~budget:money in
        S.run ~spec:S.Exact_ilp
          (I.compile ~scenario:(Sc.make ~objective ()) problem)
          ~objective)
      solves
  in
  let sum f = List.fold_left (fun acc o -> acc + f o.S.telemetry) 0 outcomes in
  { ds_money = List.map snd solves;
    ds_throughputs = List.map (fun o -> o.S.throughput) outcomes;
    ds_costs =
      List.map
        (fun o ->
          Option.fold ~none:(-1)
            ~some:(fun a -> a.Rentcost.Allocation.cost)
            o.S.allocation)
        outcomes;
    ds_nodes = sum (fun t -> t.S.nodes);
    ds_pivots = sum (fun t -> t.S.pivots);
    ds_fallbacks = Telemetry.value Telemetry.numeric_fallbacks - fallbacks0;
    ds_exact_objectives =
      Telemetry.value Telemetry.lp_exact_objectives - exact0;
    ds_seconds =
      List.fold_left (fun acc o -> acc +. o.S.telemetry.S.wall_time) 0. outcomes
  }

type scenarios_row = {
  sc_budget : int;
  sc_throughput : int;
  sc_exact_dual : int;
  sc_dual_cost : int;
  sc_recheck_cost : int;
  sc_sweep : dual_sweep;
  sc_sweep_fig6 : dual_sweep;
  sc_cost_single : int;
  sc_cost_multibook : int;
  sc_bit_identical : bool;
}

let scenarios_data () =
  (* The dual objective on the § VII illustrating instance. *)
  let budget = 120 in
  let dual =
    S.run (Lazy.force illustrating_maxthr_instance)
      ~objective:(Ob.max_throughput ~budget)
  in
  let cost_of o =
    match o.S.allocation with
    | Some a -> a.Rentcost.Allocation.cost
    | None -> -1
  in
  let exact = exact_dual_scan (Lazy.force illustrating_instance) ~budget in
  let recheck =
    S.run (Lazy.force illustrating_instance)
      ~objective:(min_cost dual.S.throughput)
  in
  (* Single-cloud vs 3-book multi-cloud on the fig7 workload. *)
  let problem = I.problem (Lazy.force large_instance) in
  let platform = Rentcost.Problem.platform problem in
  let h32 inst =
    S.run ~rng:(P.create kernel_seed) ~params:params10
      ~spec:(S.Heuristic H.H32_jump) inst ~objective:(min_cost 100)
  in
  let single = h32 (Lazy.force large_instance) in
  let multibook =
    h32
      (I.compile
         ~scenario:
           (Sc.min_cost ~pricebook:(multicloud_books platform) ~target:100 ())
         problem)
  in
  let identical_inst =
    I.compile
      ~scenario:
        (Sc.min_cost ~pricebook:(identical_books platform) ~target:100 ())
      problem
  in
  let alloc_of o =
    Option.map
      (fun a ->
        ( a.Rentcost.Allocation.rho, a.Rentcost.Allocation.machines,
          a.Rentcost.Allocation.cost ))
      o.S.allocation
  in
  let bit_identical =
    I.canonical_encoding identical_inst
    = I.canonical_encoding (Lazy.force large_instance)
    && alloc_of (h32 identical_inst) = alloc_of single
  in
  { sc_budget = budget; sc_throughput = dual.S.throughput;
    sc_exact_dual = exact; sc_dual_cost = cost_of dual;
    sc_recheck_cost = cost_of recheck; sc_sweep = dual_sweep "fig3";
    sc_sweep_fig6 = dual_sweep "fig6";
    sc_cost_single = cost_of single;
    sc_cost_multibook = cost_of multibook; sc_bit_identical = bit_identical }

let emit_scenarios () =
  let r = scenarios_data () in
  let saving =
    1.
    -. quotient (float_of_int r.sc_cost_multibook) (float_of_int r.sc_cost_single)
  in
  let ints l = J.List (List.map (fun i -> J.Int i) l) in
  let sweep workload sw =
    J.Obj
      [ ("workload", J.String workload);
        ("targets", ints dual_sweep_targets); ("money", ints sw.ds_money);
        ("throughputs", ints sw.ds_throughputs); ("costs", ints sw.ds_costs);
        ("nodes", J.Int sw.ds_nodes); ("pivots", J.Int sw.ds_pivots);
        ("fallbacks", J.Int sw.ds_fallbacks);
        ("exact_objectives", J.Int sw.ds_exact_objectives);
        ("seconds", fixed 2 sw.ds_seconds) ]
  in
  emit "scenarios" ~schema:"rentcost-bench-scenarios/4"
    [ ( "dual",
        J.Obj
          [ ("budget", J.Int r.sc_budget); ("throughput", J.Int r.sc_throughput);
            ("exact_dual", J.Int r.sc_exact_dual); ("cost", J.Int r.sc_dual_cost);
            ("min_cost_at_achieved", J.Int r.sc_recheck_cost) ] );
      ("dual_sweep", sweep "fig3 x2, ilp max-throughput" r.sc_sweep);
      ( "dual_sweep_fig6",
        sweep "fig6 x2, ilp max-throughput" r.sc_sweep_fig6 );
      ( "multicloud",
        J.Obj
          [ ("workload", J.String "fig7 h32jump rho100"); ("books", J.Int 3);
            ("cost_single", J.Int r.sc_cost_single);
            ("cost_multibook", J.Int r.sc_cost_multibook);
            ("saving_pct", fixed 1 (100. *. saving));
            ("identical_books_bit_identical", J.Bool r.sc_bit_identical) ] ) ];
  r

(* --- BENCH_numeric.json: fast-path speedup and fallback count --- *)

let lp_result_identical a b =
  match (a, b) with
  | Lp.Simplex.Optimal x, Lp.Simplex.Optimal y ->
    Numeric.Rat.equal x.Lp.Simplex.objective y.Lp.Simplex.objective
    && Array.for_all2 Numeric.Rat.equal x.Lp.Simplex.values y.Lp.Simplex.values
  | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible
  | Lp.Simplex.Unbounded, Lp.Simplex.Unbounded -> true
  | _ -> false

type kernel_split = {
  ks_label : string;
  ks_rat_us : float;
  ks_fast_us : float;
  ks_identical : bool;
}

let ks_speedup k = quotient k.ks_rat_us k.ks_fast_us

let lp_split label model =
  let m = Lazy.force model in
  let exact () = Lp.Simplex.solve_exact m and fast () = Lp.Simplex.solve_fast m in
  let rat, fast_s = alternating_best ~a:exact ~b:fast in
  { ks_label = label;
    ks_rat_us = 1e6 *. rat;
    ks_fast_us = 1e6 *. fast_s;
    ks_identical = lp_result_identical (fast ()) (exact ()) }

type fallback_stats = {
  fb_relaxations : int;
  fb_fallbacks : int;
  fb_pivots : int;
  fb_nodes : int;
  fb_warm_nodes : int;
  fb_exact_objectives : int;
  fb_peak_words : int;
  fb_minor_words : int;
  fb_cost_sum : int;
  fb_proved : int;
}

(* What a workload's solves answered: the most words one of them
   retained in warm-start tableaus, the sum of their costs and how
   many proved optimality. *)
type answers = { peak : int; cost_sum : int; proved : int }

let no_answers = { peak = 0; cost_sum = 0; proved = 0 }

let answered acc o =
  { peak = Int.max acc.peak o.Rentcost.Ilp.peak_retained_words;
    cost_sum =
      acc.cost_sum
      + Option.fold ~none:0
          ~some:(fun a -> a.Rentcost.Allocation.cost)
          o.Rentcost.Ilp.allocation;
    proved = (acc.proved + if o.Rentcost.Ilp.proved_optimal then 1 else 0) }

(* Solver effort under [f], read as counter deltas (each LP relaxation
   bumps exactly one of numeric.fast_solves / numeric.fallbacks), and
   the minor-heap words it allocated. *)
let count_fallbacks f =
  let names =
    Telemetry.
      [ numeric_fast_solves; numeric_fallbacks; lp_pivots; milp_nodes;
        milp_warm_nodes; lp_exact_objectives ]
  in
  let before = List.map Telemetry.value names in
  let minor0 = Gc.minor_words () in
  let a = f () in
  let minor = int_of_float (Gc.minor_words () -. minor0) in
  match List.map2 (fun n b -> Telemetry.value n - b) names before with
  | [ fast; fb; pivots; nodes; warm; exact ] ->
    { fb_relaxations = fast + fb; fb_fallbacks = fb; fb_pivots = pivots;
      fb_nodes = nodes; fb_warm_nodes = warm; fb_exact_objectives = exact;
      fb_peak_words = a.peak;
      fb_minor_words = minor; fb_cost_sum = a.cost_sum; fb_proved = a.proved }
  | _ -> assert false

let words_per_node s = s.fb_minor_words / Int.max s.fb_nodes 1

let ratio a b = float_of_int a /. Float.max (float_of_int b) 1.

let paper_presets = [ "fig3"; "fig6"; "fig7" ]
let paper_instances_per_preset = 4
let paper_targets = [ 20; 60; 100; 140; 200 ]
let paper_node_limit = 300

let paper_solves =
  List.length paper_presets * paper_instances_per_preset
  * List.length paper_targets

let words_per_solve s = s.fb_minor_words / paper_solves

(* Minor words of the capped workloads, measured with this bench
   (OCaml 5.1.1, no flambda): fig8 per node while every node built its
   relaxation's exact objective and a canonical Rat per value; the
   figure presets per solve while the branch and bound took the splits
   before the machine counts. A figure-preset solve's root and model
   build cost the same whatever its tree, so it is gated per solve. *)
let paper_words_per_solve_before = 123_670
let fig8_words_per_node_before = 8125

(* Node-capped solves over seeded instances of [presets], each preset
   drawing its instances from a stream of the root seed. *)
let capped_workload presets () =
  let acc = ref no_answers in
  List.iter
    (fun id ->
      let preset = Option.get (Cloudsim.Experiments.find id) in
      let rng = P.create root_seed in
      for _ = 1 to paper_instances_per_preset do
        let problem =
          G.problem ~rng preset.Cloudsim.Experiments.graphs
            preset.Cloudsim.Experiments.cloud
        in
        List.iter
          (fun target ->
            acc :=
              answered !acc
                (Rentcost.Ilp.optimize ~node_limit:paper_node_limit
                   (I.compile problem) ~target))
          paper_targets
      done)
    presets;
  !acc

(* The paper-scale workload over the Fig. 3, 6 and 7 presets. The
   acceptance bar is zero fallbacks here. *)
let paper_workload = capped_workload paper_presets

(* The same solves on the Fig. 8 preset (J = 10, Q = 50, 100-200 tasks
   per recipe), where trees are widest and the snapshot budget can
   bind. *)
let fig8_workload = capped_workload [ "fig8" ]

(* Throughputs near max_int / 1024 sit far outside the fast range, so
   every relaxation must overflow and rerun on Rat: the root, and each
   child, solved cold with its path bounds as rows. *)
let overflow_problem =
  let huge = max_int / 1024 in
  let chain types = Rentcost.Task_graph.chain ~ntypes:2 ~types in
  Rentcost.Problem.create
    (Rentcost.Platform.of_list [ (10, huge); (25, 2 * huge) ])
    [| chain [| 0 |]; chain [| 0; 1 |] |]

let stress_workload () =
  List.fold_left
    (fun acc target ->
      answered acc (Rentcost.Ilp.optimize (I.compile overflow_problem) ~target))
    no_answers [ 10; 20; 30 ]

(* --- BENCH_numeric.json "budget_tree": a tree past the snapshot
   budget ---

   The lp-warm "snapshot budget" test's tree, counted: three recipes
   of 40 tasks over 100 types (seed 16, pinned whatever the root
   seed), solved to optimality by [Milp.Solver] on the ILP's model
   at target 17 with the splits branched first and no rounding. Every
   tableau is about 21k words, so open nodes fill the 2M-word budget
   and the children created past it replay their paths on the root's
   tableau. [budget_tree_pivots_before] is what the tree took while
   those children solved cold, with their path bounds as model rows
   (the same tree, 1,840 nodes). *)
let budget_tree_pivots_before = 159_176

let budget_tree_problem () =
  let rng = P.create 16 in
  let q = 100 in
  let draw () = 1 + P.int rng 20 in
  let machines =
    List.init q (fun _ ->
        let cost = draw () in
        let throughput = draw () in
        (cost, throughput))
  in
  let recipe () =
    Rentcost.Task_graph.chain ~ntypes:q
      ~types:(Array.init 40 (fun _ -> P.int rng q))
  in
  let r0 = recipe () in
  let r1 = recipe () in
  let r2 = recipe () in
  Rentcost.Problem.create (Rentcost.Platform.of_list machines) [| r0; r1; r2 |]

(* (field, count) of the budget tree. Children are warm from a
   parent's tableau, replayed on the root's, or cold; the root is
   none of them. *)
let budget_tree () =
  let instance = I.compile (budget_tree_problem ()) in
  let m = Rentcost.Ilp.model instance ~target:17 in
  let rho, x =
    List.partition
      (fun v -> v < I.num_recipes instance)
      (List.init (Lp.Model.num_vars m) Fun.id)
  in
  let replayed = ref 0 in
  Telemetry.Span.set_sink
    (Some
       (fun sp ->
         if
           sp.Telemetry.Span.name = "lp.simplex"
           && List.assoc_opt "lp.start" sp.Telemetry.Span.attrs = Some "replay"
         then incr replayed));
  let warm0 = Telemetry.value Telemetry.milp_warm_nodes
  and pivots0 = Telemetry.value Telemetry.lp_pivots in
  let o =
    Fun.protect
      ~finally:(fun () -> Telemetry.Span.set_sink None)
      (fun () ->
        Milp.Solver.solve ~priority:[ rho; x ] m)
  in
  let warm = Telemetry.value Telemetry.milp_warm_nodes - warm0 in
  let nodes = o.Milp.Solver.nodes in
  [ ("nodes", nodes);
    ("warm_children", warm - !replayed);
    ("replayed_children", !replayed);
    ("cold_children", nodes - 1 - warm);
    ("pivots", Telemetry.value Telemetry.lp_pivots - pivots0);
    ("peak_retained_words", o.Milp.Solver.peak_retained_words);
    ( "cost",
      match o.Milp.Solver.solution with
      | Some sol -> sol.Milp.Solver.objective
      | None -> -1 ) ]

(* The capped-workload counts that are deterministic for a seed, gated
   exactly against the committed file: (block, field, this run's
   value). The stress workload's tree is the one every relaxation
   answered on Rat builds: its root's children solve cold. *)
let numeric_gated paper fig8 stress =
  [ ("fallback", "paper_relaxations", paper.fb_relaxations);
    ("warm_start", "paper_pivots", paper.fb_pivots);
    ("warm_start", "paper_warm_nodes", paper.fb_warm_nodes);
    ("warm_start", "paper_exact_objectives", paper.fb_exact_objectives);
    ("warm_start", "paper_peak_retained_words", paper.fb_peak_words);
    ("warm_start", "paper_minor_words_per_node", words_per_node paper);
    ("warm_start", "paper_minor_words_per_solve", words_per_solve paper);
    ("warm_start", "paper_capped_cost_sum", paper.fb_cost_sum);
    ("warm_start", "paper_proved", paper.fb_proved);
    ("fig8", "nodes", fig8.fb_nodes);
    ("fig8", "warm_nodes", fig8.fb_warm_nodes);
    ("fig8", "exact_objectives", fig8.fb_exact_objectives);
    ("fig8", "pivots", fig8.fb_pivots);
    ("fig8", "fallbacks", fig8.fb_fallbacks);
    ("fig8", "peak_retained_words", fig8.fb_peak_words);
    ("fig8", "minor_words_per_node", words_per_node fig8);
    ("fig8", "capped_cost_sum", fig8.fb_cost_sum);
    ("fig8", "proved", fig8.fb_proved);
    ("fallback", "stress_nodes", stress.fb_nodes);
    ("fallback", "stress_pivots", stress.fb_pivots);
    ("fallback", "stress_cost_sum", stress.fb_cost_sum) ]

(* The committed file's seed and its JSON, read before this run
   rewrites it. *)
let committed path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    Option.bind (Result.to_option (Svc.Json.of_string text)) (fun json ->
        Option.map (fun seed -> (seed, json)) (Svc.Json.get_int "seed" json))

(* The committed file's seed and a reader of its [block.field] ints. *)
let committed_paper_counts path =
  Option.map
    (fun (seed, json) ->
      ( seed,
        fun block name ->
          Option.bind (Svc.Json.member block json) (Svc.Json.get_int name) ))
    (committed path)

(* --- BENCH_numeric.json "wire": what decoding an inline problem
   allocates ---

   Words allocated (minor heap, plus the blocks too large for it that
   go straight to the major heap) by one decode of: a solve line
   carrying a fig3 ("small") and a fig6 ("medium") problem inline, as
   perfbench's paper-sweep sends them; the problem texts alone; and
   the price book of the CI service smoke. [repeat_inline_words] is
   what [Engine.handle] allocates to serve the fig6 problem inline
   once the engine has seen its text. The problems come from a pinned
   seed, so the counts do not follow RENTCOST_BENCH_SEED and are gated
   exactly. *)

let ci_pricebook =
  {|pricebook version 1
book us-east
  region us-east-1
  price 0 10
  price 1 18
  price 2 25
  price 3 33
book eu-west
  region eu-west-2
  price 0 14
  price 1 24
  price 2 32
  price 3 40
  tier reserved 80
book ap-spot
  region ap-south-1
  price 0 10
  price 1 18
  price 2 25
  price 3 33
  tier spot 60
|}

(* The same decodes before the single-pass scanners, measured with
   this code on the per-byte JSON string decoder and the line-splitting
   problem and price-book parsers (OCaml 5.1.1, no flambda);
   [repeat_inline_words] with this code on the engine that compiled
   and fingerprinted every inline problem again (same compiler). *)
let wire_before =
  [ ("json_small_words", 12482); ("problem_small_words", 33507);
    ("json_medium_words", 32206); ("problem_medium_words", 91658);
    ("pricebook_words", 1258); ("repeat_inline_words", 10625) ]

(* The share of its [_before] each wire count may use. *)
let wire_share name =
  if String.starts_with ~prefix:"json" name then (1, 3)
  else if String.starts_with ~prefix:"repeat" name then (1, 4)
  else (2, 5)

let wire_counts () =
  let small, medium = Lazy.force pinned_problems in
  let inline_solve ?(spec = S.Auto) name problem =
    Svc.Protocol.Solve
      { id = Some 1; trace_id = Some name; tenant = None;
        source = Svc.Protocol.Inline (Rentcost.Problem_format.to_string problem);
        objective = min_cost 100; pricebook = None; spec; budget = None;
        reuse = Svc.Protocol.No_reuse }
  in
  let decode name problem =
    let line = J.to_string (Svc.Protocol.request_to_json (inline_solve name problem))
    and text = Rentcost.Problem_format.to_string problem in
    [ ("json_" ^ name ^ "_words", allocated_words (fun () -> J.of_string line));
      ( "problem_" ^ name ^ "_words",
        allocated_words (fun () -> Rentcost.Problem_format.of_string text) ) ]
  in
  (* A fig6 text the engine has seen (the warm-up call is its first
     sight), solved by h1 with reuse off, as paper-sweep sends it. *)
  let repeat_inline =
    let engine = Svc.Engine.create () in
    let request =
      inline_solve ~spec:(S.Heuristic Rentcost.Heuristics.H1) "repeat" medium
    in
    allocated_words (fun () -> Svc.Engine.handle engine request)
  in
  decode "small" small @ decode "medium" medium
  @ [ ( "pricebook_words",
        allocated_words (fun () -> Rentcost.Pricebook.of_string ci_pricebook) );
      ("repeat_inline_words", repeat_inline) ]

let wire_json counts =
  J.Obj
    (("seed", J.Int wire_seed)
    :: List.concat_map
         (fun (name, words) ->
           [ (name, J.Int words);
             (name ^ "_before", J.Int (List.assoc name wire_before)) ])
         counts)

let emit_numeric () =
  let splits =
    [ lp_split "lp_simplex_illustrating_rho70" lp_model_illustrating;
      lp_split "lp_simplex_fig7_rho100" lp_model_large ]
  in
  let paper = count_fallbacks paper_workload in
  let fig8 = count_fallbacks fig8_workload in
  let stress = count_fallbacks stress_workload in
  let wire = wire_counts () in
  let tree = budget_tree () in
  let split_json k =
    J.Obj
      [ ("name", J.String k.ks_label); ("rat_us", fixed 3 k.ks_rat_us);
        ("fast_us", fixed 3 k.ks_fast_us); ("speedup", fixed 2 (ks_speedup k));
        ("identical", J.Bool k.ks_identical) ]
  in
  let ints l = J.List (List.map (fun i -> J.Int i) l) in
  emit "numeric" ~schema:"rentcost-bench-numeric/13"
    [ ("profile", J.String Build_profile.name);
      ( "kernels",
        J.Obj
          [ ("fast", J.String Lp.Simplex.fast_kernel);
            ("exact", J.String Lp.Simplex.exact_kernel) ] );
      ("timings", J.List (List.map split_json splits));
      ( "paper_workload",
        J.Obj
          [ ("presets", J.List (List.map (fun p -> J.String p) paper_presets));
            ("instances_per_preset", J.Int paper_instances_per_preset);
            ("targets", ints paper_targets);
            ("node_limit", J.Int paper_node_limit) ] );
      ( "fallback",
        J.Obj
          [ ("paper_relaxations", J.Int paper.fb_relaxations);
            ("paper_fallbacks", J.Int paper.fb_fallbacks);
            ("stress_relaxations", J.Int stress.fb_relaxations);
            ("stress_fallbacks", J.Int stress.fb_fallbacks);
            ( "stress_fallback_rate",
              fixed 3 (ratio stress.fb_fallbacks stress.fb_relaxations) );
            ("stress_nodes", J.Int stress.fb_nodes);
            ("stress_pivots", J.Int stress.fb_pivots);
            ("stress_cost_sum", J.Int stress.fb_cost_sum) ] );
      ( "warm_start",
        J.Obj
          [ ("paper_nodes", J.Int paper.fb_nodes);
            ("paper_warm_nodes", J.Int paper.fb_warm_nodes);
            ( "paper_warm_share",
              fixed 4 (ratio paper.fb_warm_nodes paper.fb_nodes) );
            ("paper_exact_objectives", J.Int paper.fb_exact_objectives);
            ("paper_pivots", J.Int paper.fb_pivots);
            ( "paper_pivots_per_relaxation",
              fixed 3 (ratio paper.fb_pivots paper.fb_relaxations) );
            ("paper_peak_retained_words", J.Int paper.fb_peak_words);
            ("paper_minor_words_per_node", J.Int (words_per_node paper));
            ("paper_minor_words_per_solve", J.Int (words_per_solve paper));
            ( "paper_minor_words_per_solve_before",
              J.Int paper_words_per_solve_before );
            ("snapshot_budget_words", J.Int Milp.Solver.snapshot_budget);
            ("paper_capped_cost_sum", J.Int paper.fb_cost_sum);
            ("paper_proved", J.Int paper.fb_proved) ] );
      ( "fig8",
        J.Obj
          [ ("instances", J.Int paper_instances_per_preset);
            ("targets", ints paper_targets);
            ("node_limit", J.Int paper_node_limit);
            ("nodes", J.Int fig8.fb_nodes);
            ("warm_nodes", J.Int fig8.fb_warm_nodes);
            ("warm_share", fixed 4 (ratio fig8.fb_warm_nodes fig8.fb_nodes));
            ("exact_objectives", J.Int fig8.fb_exact_objectives);
            ("pivots", J.Int fig8.fb_pivots);
            ("fallbacks", J.Int fig8.fb_fallbacks);
            ("peak_retained_words", J.Int fig8.fb_peak_words);
            ("minor_words_per_node", J.Int (words_per_node fig8));
            ("minor_words_per_node_before", J.Int fig8_words_per_node_before);
            ("capped_cost_sum", J.Int fig8.fb_cost_sum);
            ("proved", J.Int fig8.fb_proved) ] );
      ("wire", wire_json wire);
      ( "budget_tree",
        J.Obj
          (List.map (fun (name, n) -> (name, J.Int n)) tree
          @ [ ("pivots_before", J.Int budget_tree_pivots_before) ]) ) ];
  (splits, paper, fig8, stress, wire, tree)

(* --- BENCH_autoscale.json: elastic vs static-peak vs oracle --- *)

let autoscale_data () =
  As.Policy.compare_policies ~config:autoscale_config
    (Lazy.force illustrating_instance)
    (Lazy.force autoscale_trace)

let emit_autoscale () =
  let c = autoscale_data () in
  let outcome_json (o : As.Policy.outcome) =
    J.Obj
      [ ("policy", J.String o.As.Policy.policy);
        ("total_cost", J.Int o.As.Policy.total_cost);
        ("violations", J.Int o.As.Policy.violations);
        ("replans", J.Int o.As.Policy.replans) ]
  in
  let savings ~of_ ~over = fixed 1 (100. *. As.Policy.savings ~of_ ~over) in
  emit "autoscale" ~schema:"rentcost-bench-autoscale/1"
    [ ( "trace",
        J.Obj
          [ ("pattern", J.String "diurnal"); ("ticks", J.Int 96);
            ("base", J.Int 20); ("amplitude", J.Int 60); ("period", J.Int 48);
            ("noise", J.Float 0.08) ] );
      ( "controller",
        J.Obj
          [ ( "ticks_per_hour",
              J.Int autoscale_config.As.Controller.ticks_per_hour );
            ("deadband", fixed 2 autoscale_config.As.Controller.deadband);
            ("headroom", fixed 2 autoscale_config.As.Controller.headroom) ] );
      ( "policies",
        J.List
          (List.map outcome_json
             [ c.As.Policy.elastic; c.As.Policy.static_peak; c.As.Policy.oracle ]) );
      ( "savings",
        J.Obj
          [ ( "elastic_vs_static_pct",
              savings ~of_:c.As.Policy.elastic ~over:c.As.Policy.static_peak );
            ( "oracle_vs_elastic_pct",
              savings ~of_:c.As.Policy.oracle ~over:c.As.Policy.elastic ) ] ) ];
  c

(* --- the run: write every BENCH file and gate what it measured --- *)

let smoke () =
  let failures = ref 0 in
  let check name ok =
    if not ok then begin
      incr failures;
      Printf.printf "FAIL %s\n" name
    end
  in
  (* Minor-word counts are compared only under the dune profile they
     were pinned under; under another one the run fails here, once. *)
  let pinned_profile =
    Option.bind (committed "BENCH_numeric.json") (fun (_, json) ->
        Svc.Json.get_string "profile" json)
  in
  let words_comparable = pinned_profile = Some Build_profile.name in
  check
    (Printf.sprintf
       "minor-word counts were pinned under the %s dune profile, and this \
        run is %s: none of them is compared"
       (Option.value pinned_profile ~default:"(unrecorded)")
       Build_profile.name)
    words_comparable;
  let compared field =
    words_comparable
    || not
         (List.mem field
            [ "minor_words"; "paper_minor_words_per_node";
              "paper_minor_words_per_solve"; "minor_words_per_node" ])
  in
  let committed_solver = committed "BENCH_solver.json" in
  let rows, heuristics = emit_solver () in
  (* The heuristic layer's counts are gated exactly against the
     committed file (its problems and seed are pinned, whatever the
     root seed). *)
  let committed_run name =
    match committed_solver with
    | None -> None
    | Some (_, json) -> (
      match
        Option.bind (Svc.Json.member "heuristics" json) (Svc.Json.member "runs")
      with
      | Some (J.List runs) ->
        List.find_opt
          (fun r -> Svc.Json.get_string "name" r = Some name)
          runs
      | _ -> None)
  in
  List.iter
    (fun r ->
      let run = committed_run r.hr_name in
      List.iter
        (fun (field, value) ->
          let c = Option.bind run (Svc.Json.get_int field) in
          if compared field then
            check
              (Printf.sprintf
                 "heuristics %s %s matches the committed BENCH_solver.json \
                  (%d; committed %s)"
                 r.hr_name field value
                 (Option.fold ~none:"none" ~some:string_of_int c))
              (c = Some value))
        (heuristic_gated r))
    heuristics;
  let cost_of name =
    (List.find (fun r -> r.row_name = name) rows).row_cost
  in
  let exact = cost_of "exhaustive_illustrating_rho70" in
  check "ilp agrees with exhaustive" (cost_of "ilp_illustrating_rho70" = exact);
  check "auto agrees with exhaustive" (cost_of "auto_illustrating_rho70" = exact);
  List.iter
    (fun r ->
      if Filename.check_suffix r.row_name "_illustrating_rho70" then
        check (r.row_name ^ " is feasible (cost >= exact)")
          (r.row_cost >= exact))
    rows;
  (* The structured instances route to their DPs and must match the
     brute-force oracle. *)
  List.iter
    (fun (label, inst, expected_engine) ->
      let dp = solve_row label S.Auto inst ~target:60 in
      let ex = solve_row (label ^ "_oracle") S.Exhaustive inst ~target:60 in
      check (label ^ " routed to " ^ S.spec_to_string expected_engine)
        (dp.row_telemetry.S.engine = expected_engine);
      check (label ^ " agrees with exhaustive") (dp.row_cost = ex.row_cost))
    [ ("smoke_blackbox", blackbox_instance, S.Dp_blackbox);
      ("smoke_disjoint", disjoint_instance, S.Dp_disjoint) ];
  (* Incremental oracle vs scratch repricing on the illustrating
     instance, including after inverse applies. *)
  let inst = Lazy.force illustrating_instance in
  let o = I.Oracle.create inst in
  let j_count = I.num_recipes inst in
  I.Oracle.reset o ~rho:(Array.make j_count 3);
  let scratch () =
    (Rentcost.Allocation.of_rho (I.problem inst)
       ~rho:(I.expand_rho inst (I.Oracle.rho o)))
      .Rentcost.Allocation.cost
  in
  check "oracle matches scratch at start" (I.Oracle.cost o = scratch ());
  for j = 0 to j_count - 1 do
    I.Oracle.apply o ~j ~drho:(2 * (j + 1));
    check (Printf.sprintf "oracle matches scratch after apply %d" j)
      (I.Oracle.cost o = scratch ())
  done;
  for j = j_count - 1 downto 0 do
    I.Oracle.apply o ~j ~drho:(-2 * (j + 1));
    check (Printf.sprintf "oracle matches scratch after inverse apply %d" j)
      (I.Oracle.cost o = scratch ())
  done;
  (* Observability: the kill switch must freeze every instrument, and
     enabled instrumentation must stay within 5% of the disabled hot
     path (the absolute slack absorbs clock granularity on a ~100 us
     kernel). *)
  let hist_count name =
    match
      List.find_opt
        (fun h -> h.Telemetry.h_name = name)
        (Telemetry.histograms ())
    with
    | Some h -> h.Telemetry.h_count
    | None -> 0
  in
  let labelled_total name =
    match
      List.find_opt (fun (n, _, _) -> n = name) (Telemetry.counter_vecs ())
    with
    | Some (_, _, cells) -> List.fold_left (fun acc (_, v) -> acc + v) 0 cells
    | None -> 0
  in
  Telemetry.set_enabled false;
  let evals_frozen = Telemetry.value Telemetry.heuristic_evals in
  let hist_frozen = hist_count Telemetry.heuristic_run_evals in
  let lat_frozen = hist_count Telemetry.service_latency_seconds in
  let spans_frozen = Telemetry.Span.recorded () in
  let labelled_frozen = labelled_total Telemetry.service_requests in
  let audit_frozen =
    Svc.Audit.recorded (Svc.Engine.audit (Lazy.force cold_engine))
  in
  ignore
    (S.run ~rng:(P.create kernel_seed) ~params:params10
       ~spec:(S.Heuristic H.H32_jump)
       (Lazy.force illustrating_instance) ~objective:(min_cost 70));
  cold_solve ();
  check "disabled mode freezes counters"
    (Telemetry.value Telemetry.heuristic_evals = evals_frozen);
  check "disabled mode freezes solver histograms"
    (hist_count Telemetry.heuristic_run_evals = hist_frozen);
  check "disabled mode freezes service latency buckets"
    (hist_count Telemetry.service_latency_seconds = lat_frozen);
  check "disabled mode records no spans"
    (Telemetry.Span.recorded () = spans_frozen);
  check "disabled mode freezes labelled request counters"
    (labelled_total Telemetry.service_requests = labelled_frozen);
  check "disabled mode freezes the audit journal"
    (Svc.Audit.recorded (Svc.Engine.audit (Lazy.force cold_engine))
    = audit_frozen);
  Telemetry.set_enabled true;
  let on, off = emit_observability () in
  check "labelled instrumentation overhead under 5% on the heuristic hot path"
    (on <= (off *. 1.05) +. 2.5e-4);
  (* Scenario axes: the binary-search dual must equal the scanned
     exact dual, duality must hold at the achieved throughput, the
     dual sweep must reach every target with zero fallbacks and the
     committed throughputs, nodes and pivots, three books must never
     price above single-cloud, and identical-price books must be
     bit-identical to no book. *)
  let committed_scenarios = committed "BENCH_scenarios.json" in
  let sc = emit_scenarios () in
  check "dual throughput equals the scanned exact dual"
    (sc.sc_throughput = sc.sc_exact_dual);
  check "dual allocation fits the monetary budget"
    (sc.sc_dual_cost <= sc.sc_budget);
  check "min-cost at the achieved dual throughput fits the budget"
    (sc.sc_recheck_cost <= sc.sc_budget);
  check
    (Printf.sprintf
       "dual cost equals the min cost at its throughput (%d vs %d)"
       sc.sc_dual_cost sc.sc_recheck_cost)
    (sc.sc_dual_cost = sc.sc_recheck_cost);
  let targets = dual_sweep_targets @ dual_sweep_targets in
  let show l = String.concat "," (List.map string_of_int l) in
  (* A sweep's lists and counts are deterministic for a seed, so they
     are gated exactly against the committed block. *)
  let gate_sweep name sw ~max_nodes =
    check
      (Printf.sprintf "%s reaches every target at its min cost" name)
      (List.for_all2 ( <= ) targets sw.ds_throughputs);
    check (Printf.sprintf "zero fallbacks on the %s" name) (sw.ds_fallbacks = 0);
    check
      (Printf.sprintf "%s within %d nodes (%d)" name max_nodes sw.ds_nodes)
      (sw.ds_nodes <= max_nodes);
    match committed_scenarios with
    | Some (seed, json) when seed = root_seed ->
      let block = Svc.Json.member name json in
      let ints field =
        match Option.bind block (Svc.Json.member field) with
        | Some (J.List l) -> Some (List.filter_map Svc.Json.to_int l)
        | _ -> None
      in
      List.iter
        (fun (field, value) ->
          check
            (Printf.sprintf
               "%s %s match the committed BENCH_scenarios.json (%s; \
                committed %s)"
               name field (show value)
               (Option.fold ~none:"none" ~some:show (ints field)))
            (ints field = Some value))
        [ ("money", sw.ds_money); ("throughputs", sw.ds_throughputs);
          ("costs", sw.ds_costs) ];
      let int field = Option.bind block (Svc.Json.get_int field) in
      List.iter
        (fun (field, value) ->
          check
            (Printf.sprintf
               "%s %s matches the committed BENCH_scenarios.json (%d; \
                committed %s)"
               name field value
               (Option.fold ~none:"none" ~some:string_of_int (int field)))
            (int field = Some value))
        [ ("nodes", sw.ds_nodes); ("pivots", sw.ds_pivots);
          ("fallbacks", sw.ds_fallbacks);
          ("exact_objectives", sw.ds_exact_objectives) ]
    | Some (seed, _) ->
      Printf.printf
        "SKIP %s effort gate (committed seed %d, this run %d; not counted \
         as a pass)\n"
        name seed root_seed
    | None ->
      check
        (Printf.sprintf "committed BENCH_scenarios.json carries the %s" name)
        false
  in
  gate_sweep "dual_sweep" sc.sc_sweep ~max_nodes:fig3_sweep_max_nodes;
  gate_sweep "dual_sweep_fig6" sc.sc_sweep_fig6 ~max_nodes:fig6_sweep_max_nodes;
  if root_seed = default_seed then
    check
      (Printf.sprintf "dual_sweep_fig6 throughputs are %s (%s)"
         (show fig6_sweep_throughputs)
         (show sc.sc_sweep_fig6.ds_throughputs))
      (sc.sc_sweep_fig6.ds_throughputs = fig6_sweep_throughputs);
  check "3-book multicloud no more expensive than single-cloud"
    (sc.sc_cost_multibook <= sc.sc_cost_single);
  check "identical-price books solve bit-identically to single-cloud"
    sc.sc_bit_identical;
  (* Numerics: the LP fast path must answer bit-identically to the
     exact engine and clear 2x over it on the paper-scale LP, and the
     figure-preset workload must complete with zero exact fallbacks
     (while the overflow stress workload must fall back on every
     relaxation — the fallback demonstrably fires, it is not dead
     code). *)
  let committed = committed_paper_counts "BENCH_numeric.json" in
  let splits, paper, fig8, stress, wire, tree = emit_numeric () in
  List.iter
    (fun k -> check (k.ks_label ^ " bit-identical across engines") k.ks_identical)
    splits;
  let split_named name = List.find (fun k -> k.ks_label = name) splits in
  (* The 2x bar is the paper-scale acceptance criterion and is gated on
     the fig7 LP. The § VII illustrating LP finishes in ~15 us — too
     little work to amortize the scan machinery fully — so it gets a
     lower floor: still strictly faster, not laundered into the 2x
     claim. *)
  let lp = split_named "lp_simplex_illustrating_rho70" in
  check
    (Printf.sprintf
       "fast path at least 1.3x faster on the illustrating lp.simplex \
        (measured %.2fx)"
       (ks_speedup lp))
    (ks_speedup lp >= 1.3);
  let lp7 = split_named "lp_simplex_fig7_rho100" in
  check
    (Printf.sprintf
       "fast path at least 2x faster on paper-scale lp.simplex (measured \
        %.2fx)"
       (ks_speedup lp7))
    (ks_speedup lp7 >= 2.0);
  check "paper workload ran relaxations" (paper.fb_relaxations > 0);
  check "zero fallbacks on the figure-preset workload" (paper.fb_fallbacks = 0);
  (* Pivots, warm nodes, the peak retained words and the capped
     answers (their cost sum and how many proved optimal) of the
     figure-preset and fig8 workloads are deterministic for a seed, so
     they are gated exactly against the committed file. *)
  (match committed with
   | Some (seed, field) when seed = root_seed ->
     List.iter
       (fun (block, name, value) ->
         match field block name with
         | _ when not (compared name) -> ()
         | Some c ->
           check
             (Printf.sprintf
                "%s.%s matches the committed BENCH_numeric.json (%d; \
                 committed %d)"
                block name value c)
             (value = c)
         | None ->
           check
             (Printf.sprintf "committed BENCH_numeric.json carries %s.%s" block
                name)
             false)
       (numeric_gated paper fig8 stress)
   | Some (seed, _) ->
     Printf.printf
       "SKIP capped-workload effort gate (committed seed %d, this run %d; \
        not counted as a pass)\n"
       seed root_seed
   | None ->
     check "committed BENCH_numeric.json carries capped-workload effort" false);
  (* Decode allocation: the counts are gated exactly against the
     committed file (their seed is pinned, whatever the root seed), and
     each must stay within its share of what the decoders they replaced
     allocated. *)
  List.iter
    (fun (name, words) ->
      (match committed with
       | _ when not words_comparable -> ()
       | Some (_, field) ->
         check
           (Printf.sprintf
              "wire %s matches the committed BENCH_numeric.json (%d; \
               committed %s)"
              name words
              (Option.fold ~none:"none" ~some:string_of_int
                 (field "wire" name)))
           (field "wire" name = Some words)
       | None -> check "committed BENCH_numeric.json carries wire counts" false);
      let before = List.assoc name wire_before in
      let num, den = wire_share name in
      check
        (Printf.sprintf "wire %s at most %d/%d of before (%d of %d)" name num
           den words before)
        (words * den <= before * num))
    wire;
  (* The budget tree: every count gated exactly against the committed
     file (its instance is pinned, whatever the root seed), the root
     the only cold relaxation, and the replays at most a third of the
     pivots the cold children took. *)
  List.iter
    (fun (name, n) ->
      match committed with
      | Some (_, field) ->
        check
          (Printf.sprintf
             "budget_tree.%s matches the committed BENCH_numeric.json (%d; \
              committed %s)"
             name n
             (Option.fold ~none:"none" ~some:string_of_int
                (field "budget_tree" name)))
          (field "budget_tree" name = Some n)
      | None -> check "committed BENCH_numeric.json carries budget_tree" false)
    tree;
  check "budget tree: no cold child" (List.assoc "cold_children" tree = 0);
  check
    (Printf.sprintf "budget tree: at most a third of %d pivots (%d)"
       budget_tree_pivots_before (List.assoc "pivots" tree))
    (List.assoc "pivots" tree * 3 <= budget_tree_pivots_before);
  (* Warm-path allocation: gated exactly above, and each workload must
     stay within its share of its [_before]: fig8 at most 2/3 per node,
     the figure presets at most 1/2 per solve. *)
  check
    (Printf.sprintf
       "warm_start.paper_minor_words_per_solve at most 1/2 of before (%d of \
        %d words per solve)"
       (words_per_solve paper) paper_words_per_solve_before)
    (words_per_solve paper * 2 <= paper_words_per_solve_before);
  check
    (Printf.sprintf
       "fig8.minor_words_per_node at most 2/3 of before (%d of %d words per \
        node)"
       (words_per_node fig8) fig8_words_per_node_before)
    (words_per_node fig8 * 3 <= fig8_words_per_node_before * 2);
  check
    (Printf.sprintf
       "paper workload retains under the snapshot budget (peak %d of %d words)"
       paper.fb_peak_words Milp.Solver.snapshot_budget)
    (paper.fb_peak_words <= Milp.Solver.snapshot_budget);
  check "overflow stress workload falls back on every relaxation"
    (stress.fb_relaxations > 0 && stress.fb_fallbacks = stress.fb_relaxations);
  (* Autoscale: on the pinned diurnal trace the elastic controller must
     land between the static-peak baseline and the clairvoyant oracle,
     and the baselines must behave as advertised (static never
     violates, the oracle re-plans once per hour block). *)
  let ac = emit_autoscale () in
  let elastic = ac.As.Policy.elastic
  and static = ac.As.Policy.static_peak
  and oracle = ac.As.Policy.oracle in
  check
    (Printf.sprintf "elastic no costlier than static-peak (%d vs %d)"
       elastic.As.Policy.total_cost static.As.Policy.total_cost)
    (elastic.As.Policy.total_cost <= static.As.Policy.total_cost);
  check
    (Printf.sprintf "oracle no costlier than elastic (%d vs %d)"
       oracle.As.Policy.total_cost elastic.As.Policy.total_cost)
    (oracle.As.Policy.total_cost <= elastic.As.Policy.total_cost);
  check "static-peak never violates the SLO" (static.As.Policy.violations = 0);
  check "elastic re-plans less often than once per tick"
    (elastic.As.Policy.replans < As.Trace.length (Lazy.force autoscale_trace));
  check "oracle re-plans once per hour block"
    (oracle.As.Policy.replans
    = (As.Trace.length (Lazy.force autoscale_trace) + 11) / 12);
  if !failures = 0 then print_endline "smoke OK"
  else begin
    Printf.printf "smoke: %d failure(s)\n" !failures;
    exit 1
  end

let () = smoke ()
