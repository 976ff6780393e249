(* Tests for the autoscale subsystem (Rentcost_autoscale): seeded
   trace generators and the replayable text format, streamsim routing
   conservation, the hourly billing ledger, the drift-watching
   controller's deadband decision rule, and the policy comparison
   harness (elastic between static-peak and the clairvoyant oracle). *)

module T = Rentcost_autoscale.Trace
module Bl = Rentcost_autoscale.Billing
module Ct = Rentcost_autoscale.Controller
module Po = Rentcost_autoscale.Policy
module AL = Rentcost.Allocation

let illustrating = Rentcost.Instance.compile Rentcost.Problem.illustrating

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* --- generators: determinism and shape --- *)

(* Diurnal parameters: small enough to stay fast, wide enough to cover
   trough-only, flat and noisy traces. *)
let diurnal_gen =
  QCheck2.Gen.(
    map
      (fun (ticks, base, amplitude, (period, noise20, seed)) ->
        (ticks, base, amplitude, period, float_of_int noise20 /. 20., seed))
      (tup4 (int_range 0 60) (int_range 0 50) (int_range 0 50)
         (tup3 (int_range 1 24) (int_range 0 10) (int_range 0 10_000))))

let prop_diurnal_deterministic =
  prop "equal params and seed give bit-equal diurnal traces" diurnal_gen
    (fun (ticks, base, amplitude, period, noise, seed) ->
      let gen () =
        T.diurnal ~ticks ~base ~amplitude ~period ~noise ~seed ()
      in
      (gen ()).T.demand = (gen ()).T.demand)

let prop_diurnal_bounded_without_noise =
  prop "noiseless diurnal stays within [base, base + amplitude]"
    diurnal_gen (fun (ticks, base, amplitude, period, _, seed) ->
      let t = T.diurnal ~ticks ~base ~amplitude ~period ~seed () in
      Array.for_all (fun d -> base <= d && d <= base + amplitude) t.T.demand)

(* --- text format --- *)

let demand_gen =
  QCheck2.Gen.(
    map Array.of_list (list_size (int_range 0 40) (int_range 0 1000)))

let trace_gen =
  QCheck2.Gen.(
    map
      (fun (demand, ts_tenths) ->
        T.create ~tick_seconds:(float_of_int ts_tenths /. 10.) ~demand)
      (pair demand_gen (int_range 1 6000)))

let prop_text_roundtrip =
  prop "of_string (to_string t) = t" trace_gen (fun t ->
      let t' = T.of_string (T.to_string t) in
      t'.T.tick_seconds = t.T.tick_seconds && t'.T.demand = t.T.demand)

let test_text_rejects_malformed () =
  let rejects s =
    match T.of_string s with
    | exception Failure _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty input" true (rejects "");
  Alcotest.(check bool) "unknown version" true
    (rejects "trace version 2\ntick-seconds 60\ndemand 1 2\n");
  Alcotest.(check bool) "missing demand" true
    (rejects "trace version 1\ntick-seconds 60\n");
  Alcotest.(check bool) "negative demand" true
    (rejects "trace version 1\ntick-seconds 60\ndemand 1 -2\n");
  Alcotest.(check bool) "bad tick-seconds" true
    (rejects "trace version 1\ntick-seconds nope\ndemand 1\n");
  Alcotest.(check bool) "unknown key" true
    (rejects "trace version 1\ntick-seconds 60\nload 1 2\n")

let test_text_comments_ignored () =
  let t =
    T.of_string
      "# a comment\ntrace version 1\n\ntick-seconds 60\n# more\ndemand 3 1 4\n"
  in
  Alcotest.(check (array int)) "demand parsed" [| 3; 1; 4 |] t.T.demand

(* --- streamsim routing: conservation --- *)

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

let prop_route_conserves_items =
  prop "routed counts sum to the trace's total demand"
    QCheck2.Gen.(pair trace_gen weights_gen)
    (fun (t, weights) ->
      Array.fold_left ( + ) 0 (T.route t ~weights) = T.total_demand t)

(* --- billing: the hourly ledger --- *)

let test_billing_hourly_cycle () =
  let b = Bl.create ~num_types:2 ~ticks_per_hour:4 in
  let costs = [| 5; 8 |] in
  (* Renting pays each machine's rate once, through tick 4. *)
  let e0 = Bl.step b ~tick:0 ~desired:[| 2; 1 |] ~costs in
  Alcotest.(check (array int)) "fresh rentals" [| 2; 1 |] e0.Bl.rented;
  Alcotest.(check int) "charged the hourly rates" 18 e0.Bl.charged;
  Alcotest.(check (array int)) "held = desired" [| 2; 1 |] (Bl.held b);
  (* Mid-hour downscale: paid machines idle for free, nothing released
     before its horizon, nothing charged. *)
  let e1 = Bl.step b ~tick:1 ~desired:[| 1; 0 |] ~costs in
  Alcotest.(check int) "idle-keep is free" 0 e1.Bl.charged;
  Alcotest.(check (array int)) "nothing released mid-hour" [| 0; 0 |]
    e1.Bl.released;
  Alcotest.(check (array int)) "still held through the hour" [| 2; 1 |]
    (Bl.held b);
  (* At the boundary every expired machine still wanted is renewed —
     charged again, never released-and-re-rented. *)
  let e4 = Bl.step b ~tick:4 ~desired:[| 2; 1 |] ~costs in
  Alcotest.(check (array int)) "renewed at the boundary" [| 2; 1 |]
    e4.Bl.renewed;
  Alcotest.(check (array int)) "no fresh rentals needed" [| 0; 0 |] e4.Bl.rented;
  Alcotest.(check int) "renewals pay the same rates" 18 e4.Bl.charged;
  (* Releasing at the next boundary forfeits nothing and costs
     nothing. *)
  let e8 = Bl.step b ~tick:8 ~desired:[| 0; 0 |] ~costs in
  Alcotest.(check (array int)) "released at expiry" [| 2; 1 |] e8.Bl.released;
  Alcotest.(check int) "release is free" 0 e8.Bl.charged;
  Alcotest.(check (array int)) "ledger empty" [| 0; 0 |] (Bl.held b);
  Alcotest.(check int) "total = two paid hours" 36 (Bl.total_charged b)

let test_billing_validates () =
  let b = Bl.create ~num_types:1 ~ticks_per_hour:4 in
  ignore (Bl.step b ~tick:5 ~desired:[| 1 |] ~costs:[| 3 |]);
  Alcotest.check_raises "decreasing tick"
    (Invalid_argument "Billing.step: tick went backwards") (fun () ->
      ignore (Bl.step b ~tick:4 ~desired:[| 1 |] ~costs:[| 3 |]))

(* --- controller: the deadband decision rule --- *)

let controller_config =
  { Ct.default_config with Ct.ticks_per_hour = 4; deadband = 0.25 }

let check_covers c ~demand (p : Ct.plan) =
  (match Ct.allocation c with
   | Some a ->
     Alcotest.(check bool)
       (Printf.sprintf "fleet covers demand %d after tick %d" demand p.Ct.tick)
       true
       (AL.total_rho a >= demand)
   | None -> Alcotest.fail "controller lost its allocation");
  p

let test_controller_decision_rule () =
  let c = Ct.create_on ~config:controller_config illustrating in
  (* First observation: empty fleet, so the SLO is already violated
     and the controller must rent. *)
  let p0 = check_covers c ~demand:50 (Ct.tick c ~demand:50) in
  Alcotest.(check string) "first tick reconfigures" "reconfigure"
    (Ct.action_to_string p0.Ct.action);
  Alcotest.(check bool) "first tick is a violation" true p0.Ct.violation;
  Alcotest.(check bool) "first tick rents machines" true
    (Array.fold_left ( + ) 0 p0.Ct.rent > 0);
  Alcotest.(check bool) "first tick is charged" true (p0.Ct.charged > 0);
  (* Demand inside the deadband (45 >= 0.75 * 50): hold, free. *)
  let p1 = check_covers c ~demand:45 (Ct.tick c ~demand:45) in
  Alcotest.(check string) "inside the deadband holds" "hold"
    (Ct.action_to_string p1.Ct.action);
  Alcotest.(check bool) "hold is not a violation" false p1.Ct.violation;
  Alcotest.(check int) "mid-hour hold charges nothing" 0 p1.Ct.charged;
  (* Demand below the deadband floor (30 < 37.5): downscale re-solve,
     no violation. *)
  let p2 = check_covers c ~demand:30 (Ct.tick c ~demand:30) in
  Alcotest.(check string) "drift below the deadband reconfigures"
    "reconfigure"
    (Ct.action_to_string p2.Ct.action);
  Alcotest.(check bool) "downscale is not a violation" false p2.Ct.violation;
  (* Demand above the fleet: reactive upscale, counted as a
     violation. *)
  let p3 = check_covers c ~demand:100 (Ct.tick c ~demand:100) in
  Alcotest.(check string) "overload reconfigures" "reconfigure"
    (Ct.action_to_string p3.Ct.action);
  Alcotest.(check bool) "overload is a violation" true p3.Ct.violation;
  Alcotest.(check int) "four ticks" 4 (Ct.ticks c);
  Alcotest.(check int) "three replans" 3 (Ct.replans c);
  Alcotest.(check int) "one hold" 1 (Ct.holds c);
  Alcotest.(check int) "two violations" 2 (Ct.violations c)

let test_controller_validates () =
  Alcotest.check_raises "deadband out of range"
    (Invalid_argument "Controller: deadband must lie in [0, 1)")
    (fun () ->
      ignore
        (Ct.create_on
           ~config:{ Ct.default_config with Ct.deadband = 1.5 }
           illustrating));
  let c = Ct.create_on illustrating in
  Alcotest.check_raises "negative demand"
    (Invalid_argument "Controller.tick: negative demand") (fun () ->
      ignore (Ct.tick c ~demand:(-1)))

(* --- policy comparison --- *)

(* The pinned bench scenario (deep diurnal swing, headroom over the
   noise band) on a fresh seed from the validated sweep: the elastic
   policy must land between the static-peak fleet and the clairvoyant
   per-hour oracle. *)
let policy_config =
  { Ct.default_config with
    Ct.ticks_per_hour = 12;
    deadband = 0.25;
    headroom = 0.15 }

let policy_trace =
  lazy
    (T.diurnal ~ticks:96 ~base:20 ~amplitude:60 ~period:48 ~noise:0.08 ~seed:5
       ())

let test_policy_ordering () =
  let c =
    Po.compare_policies ~config:policy_config illustrating
      (Lazy.force policy_trace)
  in
  Alcotest.(check bool)
    (Printf.sprintf "elastic (%d) <= static-peak (%d)"
       c.Po.elastic.Po.total_cost c.Po.static_peak.Po.total_cost)
    true
    (c.Po.elastic.Po.total_cost <= c.Po.static_peak.Po.total_cost);
  Alcotest.(check bool)
    (Printf.sprintf "oracle (%d) <= elastic (%d)" c.Po.oracle.Po.total_cost
       c.Po.elastic.Po.total_cost)
    true
    (c.Po.oracle.Po.total_cost <= c.Po.elastic.Po.total_cost);
  Alcotest.(check int) "static-peak never violates" 0
    c.Po.static_peak.Po.violations;
  Alcotest.(check int) "static-peak solves once" 1 c.Po.static_peak.Po.replans;
  Alcotest.(check int) "oracle re-plans once per hour block" 8
    c.Po.oracle.Po.replans;
  Alcotest.(check bool) "elastic re-plans less often than every tick" true
    (c.Po.elastic.Po.replans < T.length (Lazy.force policy_trace))

let test_elastic_outcome_consistent () =
  let outcome, plans =
    Po.elastic ~config:policy_config illustrating (Lazy.force policy_trace)
  in
  Alcotest.(check int) "one plan per tick"
    (T.length (Lazy.force policy_trace))
    (List.length plans);
  Alcotest.(check int) "total cost = sum of per-tick charges"
    outcome.Po.total_cost
    (List.fold_left (fun acc (p : Ct.plan) -> acc + p.Ct.charged) 0 plans);
  Alcotest.(check int) "replans = reconfigure plans" outcome.Po.replans
    (List.length
       (List.filter (fun (p : Ct.plan) -> p.Ct.action = Ct.Reconfigure) plans));
  Alcotest.(check int) "violations = violating plans" outcome.Po.violations
    (List.length (List.filter (fun (p : Ct.plan) -> p.Ct.violation) plans))

let suite =
  ( "autoscale",
    [ prop_diurnal_deterministic;
      prop_diurnal_bounded_without_noise;
      prop_text_roundtrip;
      prop_route_conserves_items;
      Alcotest.test_case "text format rejects malformed input" `Quick
        test_text_rejects_malformed;
      Alcotest.test_case "text format ignores comments" `Quick
        test_text_comments_ignored;
      Alcotest.test_case "billing hourly cycle" `Quick test_billing_hourly_cycle;
      Alcotest.test_case "billing validates ticks" `Quick test_billing_validates;
      Alcotest.test_case "controller decision rule" `Quick
        test_controller_decision_rule;
      Alcotest.test_case "controller validates inputs" `Quick
        test_controller_validates;
      Alcotest.test_case "policy ordering on the diurnal trace" `Quick
        test_policy_ordering;
      Alcotest.test_case "elastic outcome is self-consistent" `Quick
        test_elastic_outcome_consistent ] )
