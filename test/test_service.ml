(* Tests for the provisioning service (Rentcost_service): the JSON
   codec, fingerprint invariance under renumbering, LRU cache
   behavior, the engine's reuse ladder (exact replay, monotone serve,
   warm start) with allocations always valid for the submitted
   problem, admission shedding, and an end-to-end daemon session over
   a pipe. *)

module P = Rentcost.Problem
module PF = Rentcost.Platform
module TG = Rentcost.Task_graph
module AL = Rentcost.Allocation
module B = Rentcost.Budget
module S = Rentcost.Solver
module Svc = Rentcost_service
module C = Svc.Cache
module E = Svc.Engine
module F = Svc.Fingerprint
module J = Svc.Json
module Pr = Svc.Protocol

let mem = C.For_testing.mem
let default_config = E.For_testing.default_config

(* A shared-types problem (routes to the ILP) with no dominated
   recipe: type-count vectors (1,1,0), (0,1,1), (1,0,1). *)
let recipes types_lists =
  Array.of_list
    (List.map
       (fun ts -> TG.chain ~ntypes:3 ~types:(Array.of_list ts))
       types_lists)

let base =
  P.create (PF.of_list [ (5, 10); (8, 20); (11, 30) ])
    (recipes [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ])

(* [base] with types renamed (0,1,2) -> (1,2,0) and the recipes listed
   in a different order — structurally the same problem. *)
let permuted =
  P.create (PF.of_list [ (11, 30); (5, 10); (8, 20) ])
    (recipes [ [ 2; 0 ]; [ 1; 0 ]; [ 1; 2 ] ])

(* A problem submitted inline, as its text. *)
let inline p = Pr.Inline (Rentcost.Problem_format.to_string p)

let solve_req ?id ?trace_id ?tenant ?(source = Pr.Ref "app") ?(spec = S.Auto)
    ?budget ?(reuse = Pr.Monotone) ?pricebook target =
  Pr.Solve
    { id; trace_id; tenant; source;
      objective = Rentcost.Objective.min_cost ~target; pricebook;
      spec; budget; reuse }

type solved = {
  s_status : S.status;
  s_cost : int;
  s_rho : int array;
  s_machines : int array;
  s_served : Pr.served;
}

let solved1 engine req =
  match E.handle engine req with
  | [ Pr.Solved { status; cost; rho; machines; served; _ } ] ->
    { s_status = status; s_cost = cost; s_rho = rho; s_machines = machines;
      s_served = served }
  | [ Pr.Error { message; _ } ] -> Alcotest.fail ("engine error: " ^ message)
  | _ -> Alcotest.fail "expected exactly one solved response"

let engine_with ?config problem =
  let e = E.create ?config () in
  ignore (E.register e ~name:"app" problem);
  e

let check_served what expected got =
  Alcotest.(check string) what
    (Pr.served_to_string expected)
    (Pr.served_to_string got)

(* The response must be a valid allocation of the *submitted* problem:
   machine counts covering the loads, target reached. *)
let check_valid_for problem ~target r =
  let a = AL.make problem ~rho:r.s_rho ~machines:r.s_machines in
  Alcotest.(check bool) "feasible for submitted problem" true
    (AL.feasible problem ~target a);
  Alcotest.(check int) "reported cost matches machines" r.s_cost
    a.AL.cost

(* --- Json --- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [ ("a", J.List [ J.Int 1; J.Float 2.5; J.String "x\n\"\\"; J.Bool true;
                       J.Null ]);
        ("empty", J.Obj []) ]
  in
  match J.of_string (J.to_string v) with
  | Error e -> Alcotest.fail e
  | Ok v' -> Alcotest.(check string) "stable" (J.to_string v) (J.to_string v')

let test_json_unicode_and_errors () =
  (match J.of_string {|"Aé😀"|} with
   | Ok (J.String s) ->
     Alcotest.(check string) "utf8 escapes" "A\xc3\xa9\xf0\x9f\x98\x80" s
   | _ -> Alcotest.fail "unicode escape parse");
  Alcotest.(check bool) "trailing garbage rejected" true
    (Result.is_error (J.of_string "1 2"));
  Alcotest.(check bool) "bad token rejected" true
    (Result.is_error (J.of_string "{\"a\":nul}"));
  Alcotest.(check bool) "integral float coerces" true
    (J.to_int (J.Float 3.0) = Some 3);
  Alcotest.(check bool) "fractional float does not" true
    (J.to_int (J.Float 3.5) = None)

(* Integral floats beyond 1e15 print without a fraction or exponent
   unless the printer adds one, so the generator mixes them in. *)
let prop_json_float_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"json float prints back to itself"
       QCheck2.Gen.(oneof [ float; map Int.to_float int ])
       (fun f ->
         QCheck2.assume (Float.is_finite f);
         match J.of_string (J.to_string (J.Float f)) with
         | Ok (J.Float g) -> Int64.bits_of_float g = Int64.bits_of_float f
         | _ -> false))

(* --- Fingerprint --- *)

let test_fingerprint_permutation_invariant () =
  let fingerprint p = F.of_instance (Rentcost.Instance.compile p) in
  let fa = fingerprint base and fb = fingerprint permuted in
  Alcotest.(check bool) "equal encodings" true (F.equal fa fb);
  Alcotest.(check string) "equal digests" (F.digest fa) (F.digest fb)

let test_fingerprint_distinguishes () =
  let other =
    P.create (PF.of_list [ (5, 10); (8, 20); (12, 30) ])
      (recipes [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ])
  in
  Alcotest.(check bool) "different cost, different fingerprint" false
    (F.equal
       (F.of_instance (Rentcost.Instance.compile base))
       (F.of_instance (Rentcost.Instance.compile other)))

(* --- Cache --- *)

let entry ?(spec = "ilp") ?(optimal = true) target =
  { C.target; spec; canonical_rho = [| target; 0; 0 |]; cost = target;
    optimal }

let test_cache_lru_eviction () =
  let c = C.create ~capacity:2 in
  C.insert c ~digest:"a" ~encoding:"ea" (entry 10);
  C.insert c ~digest:"b" ~encoding:"eb" (entry 20);
  (* Touch "a" so "b" becomes the LRU entry. *)
  Alcotest.(check bool) "a hit" true
    (C.find_exact c ~digest:"a" ~encoding:"ea" ~target:10 ~spec:"ilp" <> None);
  C.insert c ~digest:"c" ~encoding:"ec" (entry 30);
  Alcotest.(check bool) "a survives" true (mem c ~digest:"a" ~target:10 ~spec:"ilp");
  Alcotest.(check bool) "b evicted" false (mem c ~digest:"b" ~target:20 ~spec:"ilp");
  Alcotest.(check bool) "c present" true (mem c ~digest:"c" ~target:30 ~spec:"ilp");
  Alcotest.(check int) "one eviction" 1 (C.evictions c);
  Alcotest.(check int) "at capacity" 2 (C.length c)

let test_cache_lookups () =
  let c = C.create ~capacity:8 in
  let digest = "d" and encoding = "e" in
  C.insert c ~digest ~encoding (entry 50);
  C.insert c ~digest ~encoding (entry 100);
  C.insert c ~digest ~encoding (entry ~optimal:false 70);
  (* A digest collision (same digest, different encoding) must miss. *)
  Alcotest.(check bool) "collision misses" true
    (C.find_exact c ~digest ~encoding:"other" ~target:50 ~spec:"ilp" = None);
  (* Monotone: smallest optimal target >= request; 70 is not optimal. *)
  (match C.find_monotone c ~digest ~encoding ~target:60 with
   | Some e -> Alcotest.(check int) "monotone 60 -> 100" 100 e.C.target
   | None -> Alcotest.fail "monotone 60 missed");
  (match C.find_monotone c ~digest ~encoding ~target:40 with
   | Some e -> Alcotest.(check int) "monotone 40 -> 50" 50 e.C.target
   | None -> Alcotest.fail "monotone 40 missed");
  (* Nearest usable: any entry at or above the target. *)
  (match C.find_nearest c ~digest ~encoding ~target:60 with
   | Some e -> Alcotest.(check int) "nearest 60 -> 70" 70 e.C.target
   | None -> Alcotest.fail "nearest 60 missed");
  Alcotest.(check bool) "nearest never below target" true
    (C.find_nearest c ~digest ~encoding ~target:101 = None);
  (* An optimal entry answers an exact request from another engine. *)
  (match C.find_exact c ~digest ~encoding ~target:100 ~spec:"h1" with
   | Some e -> Alcotest.(check bool) "cross-spec needs optimal" true e.C.optimal
   | None -> Alcotest.fail "cross-spec exact missed");
  Alcotest.(check bool) "non-optimal other-spec entry does not" true
    (C.find_exact c ~digest ~encoding ~target:70 ~spec:"h1" = None)

(* --- Engine: the reuse ladder --- *)

let test_exact_replay () =
  let e = engine_with base in
  let r1 = solved1 e (solve_req ~id:1 120) in
  let r2 = solved1 e (solve_req ~id:2 120) in
  check_served "first cold" Pr.Cold r1.s_served;
  check_served "second from cache" Pr.Exact_hit r2.s_served;
  Alcotest.(check int) "same cost" r1.s_cost r2.s_cost;
  Alcotest.(check (array int)) "identical rho" r1.s_rho r2.s_rho;
  Alcotest.(check (array int)) "identical machines" r1.s_machines r2.s_machines;
  Alcotest.(check string) "still optimal"
    (S.status_to_string r1.s_status) (S.status_to_string r2.s_status);
  check_valid_for base ~target:120 r2

let test_monotone_reuse_feasible () =
  let e = engine_with base in
  let high = solved1 e (solve_req 120) in
  let low = solved1 e (solve_req 90) in
  check_served "low target served monotone" Pr.Monotone_hit low.s_served;
  Alcotest.(check string) "feasible, not proved optimal" "feasible"
    (S.status_to_string low.s_status);
  Alcotest.(check int) "replays the cached optimum's cost" high.s_cost
    low.s_cost;
  check_valid_for base ~target:90 low;
  (* The incumbent is an upper bound: a true solve can only be <=. *)
  let cold = solved1 (engine_with base) (solve_req ~reuse:Pr.No_reuse 90) in
  Alcotest.(check bool) "incumbent upper-bounds the optimum" true
    (cold.s_cost <= low.s_cost)

(* The warm rung seeds heuristics only. After an unproved entry, an
   exact engine answers cold, at a fresh engine's cost; a heuristic
   seeded from a node-capped ILP entry answers warm-started, in the
   numbering it was submitted in. The ILP case climbs the "warm"
   ladder, which skips the monotone rung. *)
let test_warm_start_reuse () =
  List.iter
    (fun (spec, reuse) ->
      let e = engine_with base in
      ignore (solved1 e (solve_req ~spec:(S.Heuristic Rentcost.Heuristics.H1) 100));
      let r = solved1 e (solve_req ~spec ~reuse 80) in
      let name = S.spec_to_string spec in
      check_served (name ^ " after an unproved entry") Pr.Cold r.s_served;
      let fresh = solved1 (engine_with base) (solve_req ~reuse:Pr.No_reuse ~spec 80) in
      Alcotest.(check int) (name ^ " at a fresh engine's cost") fresh.s_cost
        r.s_cost)
    [ (S.Exhaustive, Pr.Monotone); (S.Exact_ilp, Pr.Warm) ];
  let e = engine_with base in
  let capped =
    solved1 e
      (solve_req ~spec:S.Exact_ilp ~budget:{ B.unlimited with node_cap = Some 0 } 100)
  in
  Alcotest.(check string) "node-capped entry is unproved" "budget-exhausted"
    (S.status_to_string capped.s_status);
  let warm =
    solved1 e
      (solve_req ~source:(inline permuted)
         ~spec:(S.Heuristic Rentcost.Heuristics.H32_jump) 80)
  in
  check_served "heuristic seeded from the cached split" Pr.Warm_started
    warm.s_served;
  check_valid_for permuted ~target:80 warm

let test_equivalent_inline_shares_cache () =
  let e = E.create () in
  let r1 = solved1 e (solve_req ~source:(inline base) 100) in
  let r2 = solved1 e (solve_req ~source:(inline permuted) 100) in
  check_served "permuted problem hits the cache" Pr.Exact_hit r2.s_served;
  Alcotest.(check int) "same optimal cost" r1.s_cost r2.s_cost;
  (* The cached split is translated into the submitted numbering. *)
  check_valid_for permuted ~target:100 r2

let test_reuse_none_never_hits () =
  let e = engine_with base in
  ignore (solved1 e (solve_req 70));
  let r = solved1 e (solve_req ~reuse:Pr.No_reuse 70) in
  check_served "reuse none solves cold" Pr.Cold r.s_served

(* --- the inline-text table ---

   An inline problem is compiled the first time its text is seen and
   looked up by that text afterwards. A miss and a hit must answer
   exactly what a fresh engine answers. *)

module G = Cloudsim.Generator

(* Preset problems from a pinned seed. *)
let preset_problem ~seed id =
  let preset = Option.get (Cloudsim.Experiments.find id) in
  G.problem ~rng:(Numeric.Prng.create seed) preset.Cloudsim.Experiments.graphs
    preset.Cloudsim.Experiments.cloud

(* [p] with its types and recipes renumbered at random: a different
   text for a fingerprint-equal problem. *)
let renumber ~rng p =
  let q_count = P.num_types p and platform = P.platform p in
  let to_new = Array.init q_count Fun.id in
  Numeric.Prng.shuffle rng to_new;
  let to_old = Array.make q_count 0 in
  Array.iteri (fun old q -> to_old.(q) <- old) to_new;
  let recipe g =
    TG.create ~ntypes:q_count
      ~types:(Array.init (TG.num_tasks g) (fun i -> to_new.(TG.type_of g i)))
      ~edges:(TG.edges g)
  in
  let order = Array.init (P.num_recipes p) Fun.id in
  Numeric.Prng.shuffle rng order;
  P.create
    (PF.of_list
       (List.init q_count (fun q ->
            (PF.cost platform to_old.(q), PF.throughput platform to_old.(q)))))
    (Array.map (fun j -> recipe (P.recipe p j)) order)

(* Two books over [q_count] types: list prices above the platform's
   range, one of them with a spot tier. *)
let pricebook_for q_count =
  let prices name pct =
    String.concat ""
      (Printf.sprintf "book %s\n" name
      :: List.init q_count (fun q -> Printf.sprintf "  price %d %d\n" q (20 + (7 * q mod 90))))
    ^ if pct < 100 then Printf.sprintf "  tier spot %d\n" pct else ""
  in
  Rentcost.Pricebook.of_string
    ("pricebook version 1\n" ^ prices "east" 100 ^ prices "west" 60)

(* What an inline solve answered, with the fingerprint its audit
   record carries. *)
let inline_answer e ~objective ?pricebook text =
  let request =
    Pr.Solve
      { id = None; trace_id = None; tenant = None; source = Pr.Inline text;
        objective; pricebook; spec = S.Auto;
        budget = Some { B.deadline = None; node_cap = Some 2_000; eval_cap = None };
        reuse = Pr.No_reuse }
  in
  match E.handle e request with
  | [ Pr.Solved { status; cost; rho; machines; _ } ] ->
    let fingerprint =
      match Svc.Audit.recent ~last:1 (E.audit e) with
      | [ r ] -> r.Svc.Audit.fingerprint
      | _ -> Alcotest.fail "no audit record"
    in
    (S.status_to_string status, cost, rho, machines, fingerprint)
  | [ Pr.Error { message; _ } ] -> Alcotest.fail ("engine error: " ^ message)
  | _ -> Alcotest.fail "expected exactly one solved response"

let stat e name =
  match List.assoc_opt name (E.stats e) with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "stats carry no integer %S" name

let test_inline_text_memo () =
  let answer =
    Alcotest.(
      pair string (pair int (pair (array int) (pair (array int) string))))
  in
  let flat (st, c, r, m, f) = (st, (c, (r, (m, f)))) in
  List.iter
    (fun id ->
      let problem = preset_problem ~seed:7 id in
      let rng = Numeric.Prng.create 11 in
      let texts =
        List.map Rentcost.Problem_format.to_string
          (problem :: List.init 2 (fun _ -> renumber ~rng problem))
      in
      let pricebook = pricebook_for (P.num_types problem) in
      let scenarios =
        [ ("min-cost", Rentcost.Objective.min_cost ~target:60, None);
          ("max-throughput", Rentcost.Objective.max_throughput ~budget:400, None);
          ("price book", Rentcost.Objective.min_cost ~target:60, Some pricebook) ]
      in
      List.iteri
        (fun i text ->
          (* One engine per text sees each scenario twice: the first
             request of the first scenario misses, every later one hits
             the text. *)
          let e = E.create () in
          List.iter
            (fun (name, objective, pricebook) ->
              let what kind = Printf.sprintf "%s text %d %s: %s" id i name kind in
              let fresh = inline_answer (E.create ()) ~objective ?pricebook text in
              let first = inline_answer e ~objective ?pricebook text in
              let repeat = inline_answer e ~objective ?pricebook text in
              Alcotest.check answer (what "first") (flat fresh) (flat first);
              Alcotest.check answer (what "repeat") (flat fresh) (flat repeat))
            scenarios;
          Alcotest.(check int) (id ^ ": one text kept") 1 (stat e "inline_texts"))
        texts;
      (* Renumbered texts in one engine share a compiled instance: each
         is a text of its own, all of them one fingerprint. *)
      let e = E.create () in
      let objective = Rentcost.Objective.min_cost ~target:60 in
      let fingerprints =
        List.map
          (fun text ->
            let _, _, _, _, fp = inline_answer e ~objective text in
            fp)
          (texts @ texts)
      in
      Alcotest.(check int) (id ^ ": one fingerprint") 1
        (List.length (List.sort_uniq compare fingerprints));
      Alcotest.(check int) (id ^ ": a text each") (List.length texts)
        (stat e "inline_texts");
      Alcotest.(check int) (id ^ ": one compiled instance") 1
        (stat e "instances"))
    [ "fig3"; "fig6" ]

(* Both instance tables hold at most [cache_capacity] entries; a text
   that fell out solves again as a fresh engine solves it. *)
let test_inline_text_table_bound () =
  let capacity = 3 in
  let e = E.create ~config:{ default_config with E.cache_capacity = capacity } () in
  let problem i =
    P.create
      (PF.of_list [ (5 + i, 10); (8, 20); (11, 30) ])
      (recipes [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ])
  in
  let texts =
    List.init (capacity + 1) (fun i -> Rentcost.Problem_format.to_string (problem i))
  in
  let objective = Rentcost.Objective.min_cost ~target:70 in
  List.iter (fun text -> ignore (inline_answer e ~objective text)) texts;
  let reused () = Telemetry.value Telemetry.service_compile_reuse in
  let before = reused () in
  ignore (inline_answer e ~objective (List.nth texts capacity));
  Alcotest.(check int) "a text hit counts as compile reuse" (before + 1) (reused ());
  Alcotest.(check int) "texts at capacity" capacity (stat e "inline_texts");
  Alcotest.(check int) "instances at capacity" capacity (stat e "instances");
  let evicted = List.hd texts in
  let fresh = inline_answer (E.create ()) ~objective evicted in
  Alcotest.(check bool) "the evicted text solves as a fresh engine does" true
    (inline_answer e ~objective evicted = fresh);
  Alcotest.(check int) "still at capacity" capacity (stat e "inline_texts");
  Alcotest.(check int) "instances still at capacity" capacity (stat e "instances")

(* The name registry holds at most [cache_capacity] names too: a
   daemon that registers endless names keeps the latest, and a solve
   on an evicted name answers the unknown-ref error. *)
let test_registry_bound () =
  let capacity = 3 in
  let e = E.create ~config:{ default_config with E.cache_capacity = capacity } () in
  let problem i =
    P.create
      (PF.of_list [ (5 + i, 10); (8, 20); (11, 30) ])
      (recipes [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ])
  in
  let name i = Printf.sprintf "app%d" i in
  for i = 0 to (3 * capacity) - 1 do
    ignore (E.register e ~name:(name i) (problem i));
    Alcotest.(check int)
      (Printf.sprintf "registered after %d names" (i + 1))
      (Int.min (i + 1) capacity) (stat e "registered")
  done;
  (match E.handle e (solve_req ~source:(Pr.Ref (name 0)) 50) with
   | [ Pr.Error { message; _ } ] ->
     Alcotest.(check string) "an evicted name is unknown"
       "solve: unknown ref \"app0\"" message
   | _ -> Alcotest.fail "expected the unknown-ref error");
  match E.handle e (solve_req ~source:(Pr.Ref (name ((3 * capacity) - 1))) 50) with
  | [ Pr.Solved _ ] -> ()
  | _ -> Alcotest.fail "the latest name must still solve"

(* A text first seen under another scenario is compiled under that
   scenario alone; the default-scenario instance is compiled when a
   default request first needs it, and each answers as a fresh engine
   does. *)
let test_inline_text_scenario_miss () =
  let text = Rentcost.Problem_format.to_string (preset_problem ~seed:7 "fig6") in
  let e = E.create () in
  let throughput = Rentcost.Objective.max_throughput ~budget:400 in
  let min_cost = Rentcost.Objective.min_cost ~target:60 in
  let fresh objective = inline_answer (E.create ()) ~objective text in
  Alcotest.(check bool) "max-throughput miss" true
    (inline_answer e ~objective:throughput text = fresh throughput);
  Alcotest.(check int) "one text kept" 1 (stat e "inline_texts");
  Alcotest.(check int) "compiled under its scenario only" 1 (stat e "instances");
  Alcotest.(check bool) "max-throughput hit" true
    (inline_answer e ~objective:throughput text = fresh throughput);
  Alcotest.(check int) "no further instance" 1 (stat e "instances");
  Alcotest.(check bool) "min-cost after it" true
    (inline_answer e ~objective:min_cost text = fresh min_cost);
  Alcotest.(check int) "the default instance now" 2 (stat e "instances");
  Alcotest.(check int) "still one text" 1 (stat e "inline_texts")

let test_unknown_ref_errors () =
  let e = E.create () in
  match E.handle e (solve_req ~source:(Pr.Ref "nope") 50) with
  | [ Pr.Error { message; _ } ] ->
    Alcotest.(check bool) "mentions the ref" true
      (String.length message > 0)
  | _ -> Alcotest.fail "expected an error response"

(* --- admission control --- *)

let test_admission_door_shed () =
  let e =
    engine_with ~config:{ default_config with E.queue_capacity = 2 } base
  in
  Alcotest.(check bool) "first admitted" true
    (E.submit ~now:0.0 e (solve_req ~id:1 50) = []);
  Alcotest.(check bool) "second admitted" true
    (E.submit ~now:0.0 e (solve_req ~id:2 60) = []);
  (match E.submit ~now:0.0 e (solve_req ~id:3 70) with
   | [ Pr.Overloaded { id = Some 3; retry_after_ms = Some ms; _ } ] ->
     Alcotest.(check bool) "retry hint is positive" true (ms > 0)
   | _ -> Alcotest.fail "expected the third request shed at the door");
  Alcotest.(check int) "two queued" 2 (E.For_testing.queue_length e);
  let responses = E.For_testing.drain ~now:0.0 e in
  Alcotest.(check int) "both drained" 2 (List.length responses);
  Alcotest.(check bool) "drained in arrival order" true
    (match responses with
     | [ Pr.Solved { id = Some 1; _ }; Pr.Solved { id = Some 2; _ } ] -> true
     | _ -> false)

let test_admission_deadline_shed () =
  let e = engine_with base in
  Alcotest.(check bool) "admitted" true
    (E.submit ~now:0.0 e
       (solve_req ~id:9 ~budget:{ B.unlimited with deadline = Some 0.5 } 50)
     = []);
  match E.For_testing.drain ~now:10.0 e with
  | [ Pr.Overloaded { id = Some 9; _ } ] -> ()
  | _ -> Alcotest.fail "expected the expired request shed at dispatch"

(* A request whose deadline has nearly — but not — expired by the time
   it is drained must still be answered: the engine derives the solve
   budget from the remaining slack, so the solver degrades to its
   heuristic incumbent instead of missing the deadline. *)
let test_deadline_slack_degrades () =
  let e = engine_with base in
  Alcotest.(check bool) "admitted" true
    (E.submit ~now:0.0 e
       (solve_req ~id:4 ~reuse:Pr.No_reuse
          ~budget:{ B.unlimited with deadline = Some 10.0 } 110)
     = []);
  match E.For_testing.drain ~now:9.999999 e with
  | [ Pr.Solved { id = Some 4; status; cost; rho; machines; _ } ] ->
    Alcotest.(check string) "budget exhausted, not missed" "budget-exhausted"
      (S.status_to_string status);
    let a = AL.make base ~rho ~machines in
    Alcotest.(check bool) "incumbent still feasible" true
      (AL.feasible base ~target:110 a);
    let cold = solved1 (engine_with base) (solve_req ~reuse:Pr.No_reuse 110) in
    Alcotest.(check bool) "incumbent upper-bounds the optimum" true
      (cold.s_cost <= cost)
  | [ Pr.Overloaded _ ] ->
    Alcotest.fail "request with remaining slack was shed as overloaded"
  | _ -> Alcotest.fail "expected one solved response"

(* --- autoscale sessions: protocol codec and the engine ops --- *)

let track_req ?(session = "fleet") ?(source = Pr.Ref "app")
    ?(ticks_per_hour = 4) ?(deadband = 0.25) ?(headroom = 0.) () =
  Pr.Track
    { session; source; ticks_per_hour; deadband; headroom; spec = S.Auto }

let test_track_protocol_roundtrip () =
  let roundtrip r =
    match Pr.request_of_json (Pr.request_to_json r) with
    | Ok r' -> r'
    | Error e -> Alcotest.fail ("request did not survive the codec: " ^ e)
  in
  (match roundtrip (track_req ()) with
   | Pr.Track { session = "fleet"; source = Pr.Ref "app"; ticks_per_hour = 4;
                deadband = 0.25; headroom = 0.; spec = S.Auto } -> ()
   | _ -> Alcotest.fail "track request mangled");
  (match roundtrip (Pr.Tick { id = Some 7; session = "fleet"; demand = 55 }) with
   | Pr.Tick { id = Some 7; session = "fleet"; demand = 55 } -> ()
   | _ -> Alcotest.fail "tick request mangled");
  (match roundtrip (Pr.Untrack { session = "fleet" }) with
   | Pr.Untrack { session = "fleet" } -> ()
   | _ -> Alcotest.fail "untrack request mangled");
  (* Defaults mirror Controller.default_config when the knobs are
     absent; the inline problem is carried as the text sent. *)
  let text = Rentcost.Problem_format.to_string base in
  match
    Pr.request_of_json
      (J.Obj [ ("op", J.String "track"); ("problem", J.String text) ])
  with
  | Ok (Pr.Track { session = "default"; source = Pr.Inline sent;
                   ticks_per_hour; deadband; headroom; _ }) ->
    Alcotest.(check string) "inline text verbatim" text sent;
    let d = Rentcost_autoscale.Controller.default_config in
    Alcotest.(check int) "default ticks_per_hour"
      d.Rentcost_autoscale.Controller.ticks_per_hour ticks_per_hour;
    Alcotest.(check (float 0.)) "default deadband"
      d.Rentcost_autoscale.Controller.deadband deadband;
    Alcotest.(check (float 0.)) "default headroom"
      d.Rentcost_autoscale.Controller.headroom headroom
  | Ok _ -> Alcotest.fail "track defaults mangled"
  | Error e -> Alcotest.fail ("track with defaults rejected: " ^ e)

(* --- request fields: mistyped is an error, absent is the default --- *)

let solve_fields = [ ("op", J.String "solve"); ("ref", J.String "app"); ("target", J.Int 70) ]
let track_fields = [ ("op", J.String "track"); ("ref", J.String "app") ]
let tick_fields = [ ("op", J.String "tick"); ("demand", J.Int 5) ]

(* Each optional request field: the request it rides on (valid without
   it), a value of the wrong JSON type, and what the request decodes to
   without it. *)
let optional_field_cases =
  let d = Rentcost_autoscale.Controller.default_config in
  let solve_budget_none = function
    | Pr.Solve { budget = None; _ } -> true
    | _ -> false
  in
  [ (solve_fields, "id", J.String "1",
     function Pr.Solve { id = None; _ } -> true | _ -> false);
    (solve_fields, "trace_id", J.Int 1,
     function Pr.Solve { trace_id = None; _ } -> true | _ -> false);
    (solve_fields, "tenant", J.Int 1,
     function Pr.Solve { tenant = None; _ } -> true | _ -> false);
    (solve_fields, "objective", J.Int 1,
     function
     | Pr.Solve { objective; _ } ->
       objective = Rentcost.Objective.min_cost ~target:70
     | _ -> false);
    (solve_fields, "pricebook", J.Int 1,
     function Pr.Solve { pricebook = None; _ } -> true | _ -> false);
    (solve_fields, "pricebook_path", J.Int 1,
     function Pr.Solve { pricebook = None; _ } -> true | _ -> false);
    (solve_fields, "spec", J.Int 3,
     function Pr.Solve { spec = S.Auto; _ } -> true | _ -> false);
    (solve_fields, "reuse", J.Int 7,
     function Pr.Solve { reuse = Pr.Monotone; _ } -> true | _ -> false);
    (solve_fields, "deadline", J.String "0", solve_budget_none);
    (solve_fields, "nodes", J.String "0", solve_budget_none);
    (solve_fields, "nodes", J.Float 2.5, solve_budget_none);
    (solve_fields, "nodes", J.Null, solve_budget_none);
    (solve_fields, "evals", J.String "0", solve_budget_none);
    ( [ ("op", J.String "register"); ("name", J.String "app");
        ("problem", J.String (Rentcost.Problem_format.to_string base)) ],
      "path", J.Int 1,
      function Pr.Register { name = "app"; _ } -> true | _ -> false );
    (track_fields, "session", J.Int 1,
     function Pr.Track { session = "default"; _ } -> true | _ -> false);
    (track_fields, "ticks_per_hour", J.String "4",
     function
     | Pr.Track { ticks_per_hour; _ } ->
       ticks_per_hour = d.Rentcost_autoscale.Controller.ticks_per_hour
     | _ -> false);
    (track_fields, "deadband", J.String "0.1",
     function
     | Pr.Track { deadband; _ } ->
       deadband = d.Rentcost_autoscale.Controller.deadband
     | _ -> false);
    (track_fields, "headroom", J.Bool true,
     function
     | Pr.Track { headroom; _ } ->
       headroom = d.Rentcost_autoscale.Controller.headroom
     | _ -> false);
    (track_fields, "spec", J.Int 1,
     function Pr.Track { spec = S.Auto; _ } -> true | _ -> false);
    (tick_fields, "id", J.String "1",
     function Pr.Tick { id = None; _ } -> true | _ -> false);
    (tick_fields, "session", J.Int 1,
     function Pr.Tick { session = "default"; _ } -> true | _ -> false);
    ( [ ("op", J.String "untrack") ], "session", J.Int 1,
      function Pr.Untrack { session = "default" } -> true | _ -> false );
    ( [ ("op", J.String "audit") ], "last", J.String "5",
      function Pr.Audit { last = None } -> true | _ -> false ) ]

(* Required fields: mistyped names the field too, and absent stays an
   error. *)
let required_field_cases =
  [ (solve_fields, "target", J.String "70");
    ( [ ("op", J.String "solve"); ("ref", J.String "app");
        ("objective", J.String "max-throughput"); ("budget", J.Int 150) ],
      "budget", J.String "150" );
    (solve_fields, "ref", J.Int 1);
    ( [ ("op", J.String "register"); ("name", J.String "app");
        ("problem", J.String (Rentcost.Problem_format.to_string base)) ],
      "name", J.Int 1 );
    (tick_fields, "demand", J.String "5") ]

let test_request_field_types () =
  let op_of fields =
    match List.assoc "op" fields with J.String op -> op | _ -> assert false
  in
  let mistyped fields key bad =
    let line = List.remove_assoc key fields @ [ (key, bad) ] in
    let what = Printf.sprintf "%s %S = %s" (op_of fields) key (J.to_string bad) in
    match Pr.request_of_json (J.Obj line) with
    | Ok _ -> Alcotest.failf "%s: mistyped field decoded" what
    | Error message ->
      let prefix = Printf.sprintf "%s: bad %S: expected " (op_of fields) key in
      Alcotest.(check bool)
        (Printf.sprintf "%s: error names the field (%s)" what message)
        true
        (String.starts_with ~prefix message)
  in
  List.iter
    (fun (fields, key, bad, default) ->
      mistyped fields key bad;
      let without = List.remove_assoc key fields in
      match Pr.request_of_json (J.Obj without) with
      | Ok r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s without %S keeps its default" (op_of fields) key)
          true (default r)
      | Error e ->
        Alcotest.failf "%s without %S rejected: %s" (op_of fields) key e)
    optional_field_cases;
  List.iter
    (fun (fields, key, bad) ->
      mistyped fields key bad;
      match Pr.request_of_json (J.Obj (List.remove_assoc key fields)) with
      | Ok _ -> Alcotest.failf "%s without %S decoded" (op_of fields) key
      | Error _ -> ())
    required_field_cases

let test_track_response_roundtrip () =
  let roundtrip r =
    match Pr.response_of_json (Pr.response_to_json r) with
    | Ok r' ->
      Alcotest.(check string) "stable encoding"
        (J.to_string (Pr.response_to_json r))
        (J.to_string (Pr.response_to_json r'));
      r'
    | Error e -> Alcotest.fail ("response did not survive the codec: " ^ e)
  in
  (match roundtrip (Pr.Tracking { session = "fleet"; fingerprint = "abc123" })
   with
   | Pr.Tracking { session = "fleet"; fingerprint = "abc123" } -> ()
   | _ -> Alcotest.fail "tracking response mangled");
  let plan =
    { Rentcost_autoscale.Controller.tick = 3; demand = 55; target = 55;
      action = Rentcost_autoscale.Controller.Reconfigure; rent = [| 1; 0 |];
      renew = [| 0; 2 |]; release = [| 0; 1 |]; machines = [| 4; 2 |];
      rho = [| 40; 15; 0 |]; charged = 34; violation = true }
  in
  (match
     roundtrip
       (Pr.Plan { id = Some 7; session = "fleet"; plan; total_charged = 120 })
   with
   | Pr.Plan { id = Some 7; session = "fleet"; plan = p; total_charged = 120 }
     ->
     Alcotest.(check int) "tick" 3 p.Rentcost_autoscale.Controller.tick;
     Alcotest.(check (array int)) "rent" [| 1; 0 |]
       p.Rentcost_autoscale.Controller.rent;
     Alcotest.(check (array int)) "rho" [| 40; 15; 0 |]
       p.Rentcost_autoscale.Controller.rho;
     Alcotest.(check bool) "violation" true
       p.Rentcost_autoscale.Controller.violation
   | _ -> Alcotest.fail "plan response mangled");
  match
    roundtrip
      (Pr.Untracked
         { session = "fleet"; ticks = 10; replans = 3; holds = 7;
           violations = 2; total_charged = 123 })
  with
  | Pr.Untracked { session = "fleet"; ticks = 10; replans = 3; holds = 7;
                   violations = 2; total_charged = 123 } -> ()
  | _ -> Alcotest.fail "untracked response mangled"

let test_track_session_end_to_end () =
  let e = engine_with base in
  (match E.handle e (track_req ()) with
   | [ Pr.Tracking { session = "fleet"; fingerprint } ] ->
     Alcotest.(check bool) "fingerprint non-empty" true
       (String.length fingerprint > 0)
   | _ -> Alcotest.fail "expected a tracking response");
  (* First observation: empty fleet, so the plan must rent. *)
  (match E.handle e (Pr.Tick { id = Some 1; session = "fleet"; demand = 60 })
   with
   | [ Pr.Plan { id = Some 1; session = "fleet"; plan; total_charged } ] ->
     Alcotest.(check string) "first tick reconfigures" "reconfigure"
       (Rentcost_autoscale.Controller.action_to_string
          plan.Rentcost_autoscale.Controller.action);
     Alcotest.(check bool) "first tick rents machines" true
       (Array.fold_left ( + ) 0 plan.Rentcost_autoscale.Controller.rent > 0);
     Alcotest.(check int) "bill matches the plan"
       plan.Rentcost_autoscale.Controller.charged total_charged
   | _ -> Alcotest.fail "expected a plan response");
  (* Same demand again: inside the deadband, the controller holds. *)
  (match E.handle e (Pr.Tick { id = Some 2; session = "fleet"; demand = 60 })
   with
   | [ Pr.Plan { plan; _ } ] ->
     Alcotest.(check string) "repeat demand holds" "hold"
       (Rentcost_autoscale.Controller.action_to_string
          plan.Rentcost_autoscale.Controller.action)
   | _ -> Alcotest.fail "expected a plan response");
  (match E.handle e Pr.Stats with
   | [ Pr.Stats_reply stats ] ->
     Alcotest.(check (option int)) "stats count the session" (Some 1)
       (J.get_int "tracked" (J.Obj stats))
   | _ -> Alcotest.fail "expected a stats reply");
  (match E.handle e (Pr.Untrack { session = "fleet" }) with
   | [ Pr.Untracked { session = "fleet"; ticks = 2; replans = 1; holds = 1;
                      violations = 1; total_charged } ] ->
     Alcotest.(check bool) "session was billed" true (total_charged > 0)
   | _ -> Alcotest.fail "expected an untracked summary");
  match E.handle e (Pr.Tick { id = Some 3; session = "fleet"; demand = 10 }) with
  | [ Pr.Error { id = Some 3; message; _ } ] ->
    Alcotest.(check bool) "names the missing session" true
      (String.length message > 0)
  | _ -> Alcotest.fail "tick after untrack must error"

let test_track_unknown_ref_errors () =
  let e = E.create () in
  match E.handle e (track_req ~source:(Pr.Ref "nope") ()) with
  | [ Pr.Error { message; _ } ] ->
    Alcotest.(check bool) "mentions track" true
      (String.length message > 0)
  | _ -> Alcotest.fail "expected an error response"

(* --- end to end: a daemon session over a pipe --- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = ref 0 in
  while !n < Bytes.length b do
    n := !n + Unix.write fd b !n (Bytes.length b - !n)
  done

let test_daemon_over_pipe () =
  let req_read, req_write = Unix.pipe () in
  let resp_read, resp_write = Unix.pipe () in
  let requests =
    [ Pr.Register { name = "app"; problem = base };
      solve_req ~id:1 110; solve_req ~id:2 110; Pr.Stats; Pr.Shutdown ]
  in
  let payload =
    String.concat ""
      (List.map
         (fun r -> J.to_string (Pr.request_to_json r) ^ "\n")
         requests)
  in
  write_all req_write payload;
  Unix.close req_write;
  let dump_path = Filename.temp_file "rentcost_service" ".dump" in
  let dump = open_out dump_path in
  let oc = Unix.out_channel_of_descr resp_write in
  Svc.Daemon.serve_channels ~dump (Unix.in_channel_of_descr req_read) oc;
  close_out dump;
  close_out oc;
  let ic = Unix.in_channel_of_descr resp_read in
  let rec read_lines acc =
    match input_line ic with
    | line -> read_lines (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read_lines [] in
  close_in ic;
  let responses =
    List.map
      (fun line ->
        match J.of_string line with
        | Error e -> Alcotest.fail ("bad response json: " ^ e)
        | Ok j -> (
          match Pr.response_of_json j with
          | Error e -> Alcotest.fail ("bad response: " ^ e)
          | Ok r -> r))
      lines
  in
  (match responses with
   | [ Pr.Registered { name = "app"; _ };
       Pr.Solved { id = Some 1; served = s1; cost = c1; rho = r1; _ };
       Pr.Solved { id = Some 2; served = s2; cost = c2; rho = r2; _ };
       Pr.Stats_reply stats;
       Pr.Bye ] ->
     check_served "first cold" Pr.Cold s1;
     check_served "replay served from cache" Pr.Exact_hit s2;
     Alcotest.(check int) "same cost over the wire" c1 c2;
     Alcotest.(check (array int)) "same split over the wire" r1 r2;
     let hits =
       Option.bind
         (J.member "counters" (J.Obj stats))
         (J.get_int Telemetry.service_cache_hits)
     in
     Alcotest.(check bool) "stats report a cache hit" true
       (match hits with Some h -> h >= 1 | None -> false)
   | _ -> Alcotest.fail "unexpected response sequence");
  let dump_ic = open_in dump_path in
  let dump_line = input_line dump_ic in
  close_in dump_ic;
  Sys.remove dump_path;
  Alcotest.(check bool) "shutdown dumped stats" true
    (match J.of_string dump_line with
     | Ok j -> J.member "stats" j <> None
     | Error _ -> false)

(* --- the metrics exposition --- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_metrics_reply () =
  let e = engine_with base in
  (match E.handle e (solve_req ~id:1 90) with
   | [ Pr.Solved _ ] -> ()
   | _ -> Alcotest.fail "expected one solved response");
  match E.handle e Pr.Metrics with
  | [ Pr.Metrics_reply { metrics; text } ] ->
    (* The reply survives the wire codec. *)
    (match
       Pr.response_of_json
         (Pr.response_to_json (Pr.Metrics_reply { metrics; text }))
     with
     | Ok (Pr.Metrics_reply _) -> ()
     | _ -> Alcotest.fail "metrics reply does not survive the codec");
    let counters = J.member "counters" metrics in
    Alcotest.(check bool) "requests counted" true
      (match Option.bind counters (J.get_int Telemetry.service_requests) with
       | Some n -> n >= 1
       | None -> false);
    (match J.member "histograms" metrics with
     | Some (J.List hs) ->
       let names = List.filter_map (J.get_string "name") hs in
       Alcotest.(check bool) "latency histogram exported" true
         (List.mem Telemetry.service_latency_seconds names);
       Alcotest.(check bool) "queue-wait histogram exported" true
         (List.mem Telemetry.service_queue_wait_seconds names)
     | _ -> Alcotest.fail "metrics carry no histograms");
    (match J.member "spans" metrics with
     | Some (J.List spans) ->
       let names = List.filter_map (J.get_string "name") spans in
       Alcotest.(check bool) "request span retained" true
         (List.mem "service.request" names)
     | _ -> Alcotest.fail "metrics carry no spans");
    (match J.member "service" metrics with
     | Some svc ->
       Alcotest.(check bool) "per-op counts included" true
         (J.member "ops" svc <> None);
       Alcotest.(check bool) "uptime included" true
         (J.member "uptime" svc <> None);
       (* Latency is the histogram itself: 1-2.5-5 log-spaced bounds
          from 10 us to 10 s, one count per bucket plus overflow. *)
       (match J.member "latency" svc with
        | Some latency -> (
          match (J.member "bounds" latency, J.member "counts" latency) with
          | Some (J.List bounds), Some (J.List counts) ->
            Alcotest.(check (list (float 0.)))
              "latency bounds"
              [ 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3;
                1e-2; 2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0 ]
              (List.filter_map J.to_float bounds);
            Alcotest.(check int) "one count per bucket plus overflow"
              (List.length bounds + 1) (List.length counts)
          | _ -> Alcotest.fail "latency lacks bounds or counts")
        | None -> Alcotest.fail "service stats carry no latency")
     | None -> Alcotest.fail "metrics carry no service stats");
    (match J.member "numeric" metrics with
     | Some numeric ->
       Alcotest.(check (option string)) "fast kernel named"
         (Some Lp.Simplex.fast_kernel)
         (J.get_string "fast_kernel" numeric);
       Alcotest.(check (option string)) "exact kernel named"
         (Some Lp.Simplex.exact_kernel)
         (J.get_string "exact_kernel" numeric);
       (* The solve above ran its LP relaxations on the fast path, so
          the fast-path counter registers and the fallback count is
          exposed. *)
       Alcotest.(check bool) "fast solves counted" true
         (match J.get_int "fast_solves" numeric with
          | Some n -> n >= 1
          | None -> false);
       Alcotest.(check bool) "fallbacks exposed" true
         (J.get_int "fallbacks" numeric <> None)
     | None -> Alcotest.fail "metrics carry no numeric section");
    Alcotest.(check bool) "text exposition covers service counters" true
      (contains ~sub:"service_requests_total" text);
    Alcotest.(check bool) "text exposition covers histogram buckets" true
      (contains ~sub:"service_latency_seconds_bucket" text)
  | _ -> Alcotest.fail "expected a metrics reply"

(* --- trace ids and the audit journal --- *)

type traced = { t_trace_id : string option; t_cost : int }

let solve_traced ?trace_id ?tenant ?(id = 1) e target =
  match
    E.handle e
      (Pr.Solve
         { id = Some id; trace_id; tenant; source = Pr.Ref "app";
           objective = Rentcost.Objective.min_cost ~target; pricebook = None;
           spec = S.Auto; budget = None; reuse = Pr.Monotone })
  with
  | [ Pr.Solved { trace_id; cost; _ } ] -> { t_trace_id = trace_id; t_cost = cost }
  | [ Pr.Error { message; _ } ] -> Alcotest.fail ("engine error: " ^ message)
  | _ -> Alcotest.fail "expected exactly one solved response"

let test_trace_id_roundtrip () =
  let e = engine_with base in
  (* A client-supplied id is echoed verbatim... *)
  let r1 = solve_traced ~trace_id:"req-client-7" e 110 in
  Alcotest.(check (option string)) "client id echoed" (Some "req-client-7")
    r1.t_trace_id;
  (* ...and an omitted one is engine-assigned, unique per request. *)
  let r2 = solve_traced ~id:2 e 120 in
  let r3 = solve_traced ~id:3 e 120 in
  let assigned r =
    match r.t_trace_id with
    | Some t when String.length t > 4 && String.sub t 0 4 = "req-" -> t
    | Some t -> Alcotest.failf "assigned id %S lacks the req- prefix" t
    | None -> Alcotest.fail "no trace id assigned"
  in
  Alcotest.(check bool) "assigned ids distinct" true
    (assigned r2 <> assigned r3);
  (* The matching audit records carry the same ids, newest last. *)
  match E.handle e (Pr.Audit { last = Some 3 }) with
  | [ Pr.Audit_reply records ] ->
    Alcotest.(check (list string)) "audit records carry the ids"
      [ "req-client-7"; assigned r2; assigned r3 ]
      (List.map (fun (r : Svc.Audit.record) -> r.Svc.Audit.trace_id) records)
  | _ -> Alcotest.fail "expected an audit reply"

let test_trace_id_on_spans () =
  Telemetry.For_testing.clear_spans ();
  let e = engine_with base in
  ignore (solve_traced ~trace_id:"req-spans" e 110);
  let spans = Telemetry.Span.recent () in
  let stamped =
    List.filter
      (fun s ->
        List.assoc_opt "trace_id" s.Telemetry.Span.attrs = Some "req-spans")
      spans
  in
  (* Every span of the request is stamped, from the service.request
     root down to the engine's own spans. *)
  let names = List.map (fun s -> s.Telemetry.Span.name) stamped in
  Alcotest.(check bool) "request root stamped" true
    (List.mem "service.request" names);
  Alcotest.(check bool) "engine solve spans stamped" true
    (List.exists (fun n -> n = "service.solve" || n = "solver.run") names
    || List.length stamped > 1)

let test_audit_journal () =
  let e = engine_with base in
  let r1 = solve_traced ~tenant:"acme" e 110 in
  let _r2 = solve_traced ~id:2 ~tenant:"acme" e 110 in
  (match E.handle e (Pr.Audit { last = None }) with
  | [ Pr.Audit_reply [ cold; hit ] ] ->
    Alcotest.(check string) "tenant recorded" "acme" cold.Svc.Audit.tenant;
    Alcotest.(check bool) "fingerprint digest recorded" true
      (String.length cold.Svc.Audit.fingerprint > 0);
    Alcotest.(check string) "fingerprints agree" cold.Svc.Audit.fingerprint
      hit.Svc.Audit.fingerprint;
    Alcotest.(check string) "cold rung" "cold" cold.Svc.Audit.served;
    Alcotest.(check string) "exact rung" "exact-hit" hit.Svc.Audit.served;
    (* The hit is cheaper than the solve by construction, which the
       effort counts show without a clock: the hit ran no engine. *)
    Alcotest.(check (list int)) "hit did no solver work" [ 0; 0; 0 ]
      [ hit.Svc.Audit.pivots; hit.Svc.Audit.nodes;
        hit.Svc.Audit.evaluations ];
    Alcotest.(check bool) "cold solve did solver work" true
      (List.for_all (fun n -> n > 0)
         [ cold.Svc.Audit.pivots; cold.Svc.Audit.nodes ]);
    (* The cold rung ran the ILP, which rounds its own nodes instead
       of calling a heuristic: no oracle evaluation. *)
    Alcotest.(check int) "cold solve ran no heuristic" 0
      cold.Svc.Audit.evaluations;
    Alcotest.(check int) "cost recorded" r1.t_cost cold.Svc.Audit.cost;
    Alcotest.(check bool) "queue wait sane" true
      (cold.Svc.Audit.queue_wait >= 0.0);
    Alcotest.(check bool) "wall time measured" true
      (cold.Svc.Audit.wall >= 0.0);
    (* The cold solve ran an engine, so its record folds a convergence
       timeline; the cache hit ran nothing. *)
    (match cold.Svc.Audit.convergence with
    | None -> Alcotest.fail "cold solve has no convergence summary"
    | Some s ->
      Alcotest.(check bool) "timeline non-empty" true (s.Svc.Audit.events > 0);
      (match (s.Svc.Audit.last_incumbent, s.Svc.Audit.final_gap) with
      | Some inc, Some gap ->
        Alcotest.(check (float 1e-9)) "final incumbent is the answer"
          (float_of_int r1.t_cost) inc;
        Alcotest.(check (float 1e-9)) "optimality proved: zero gap" 0.0 gap
      | _ -> Alcotest.fail "summary lacks incumbent or gap"));
    Alcotest.(check bool) "hit records no timeline" true
      (hit.Svc.Audit.convergence = None);
    (* Records survive the wire codec. *)
    (match
       Pr.response_of_json (Pr.response_to_json (Pr.Audit_reply [ cold; hit ]))
     with
    | Ok (Pr.Audit_reply [ c'; h' ]) ->
      Alcotest.(check string) "codec keeps trace id" cold.Svc.Audit.trace_id
        c'.Svc.Audit.trace_id;
      Alcotest.(check bool) "codec keeps the summary" true
        (c'.Svc.Audit.convergence = cold.Svc.Audit.convergence);
      Alcotest.(check bool) "codec keeps the absence" true
        (h'.Svc.Audit.convergence = None)
    | _ -> Alcotest.fail "audit reply does not survive the codec")
  | _ -> Alcotest.fail "expected two audit records");
  (* Failed solves are completed requests too: they land in the
     journal with status "error". *)
  (match E.handle e (solve_req ~id:9 ~source:(Pr.Ref "nope") 50) with
  | [ Pr.Error _ ] -> ()
  | _ -> Alcotest.fail "expected an error for the unknown ref");
  match E.handle e (Pr.Audit { last = Some 1 }) with
  | [ Pr.Audit_reply [ r ] ] ->
    Alcotest.(check string) "error status recorded" "error" r.Svc.Audit.status;
    Alcotest.(check string) "no rung on an error" "none" r.Svc.Audit.served
  | _ -> Alcotest.fail "expected the error record"

let test_audit_kill_switch () =
  let e = engine_with base in
  ignore (solve_traced e 110);
  Alcotest.(check int) "one record while enabled" 1
    (Svc.Audit.recorded (E.audit e));
  Fun.protect
    ~finally:(fun () -> Telemetry.set_enabled true)
    (fun () ->
      Telemetry.set_enabled false;
      let r = solve_traced ~id:2 ~trace_id:"req-dark" e 120 in
      (* The solve still answers — with its trace id — but the frozen
         journal records nothing. *)
      Alcotest.(check (option string)) "response still traced"
        (Some "req-dark") r.t_trace_id;
      Alcotest.(check int) "journal frozen" 1 (Svc.Audit.recorded (E.audit e)))

let test_audit_ring_and_file () =
  let ring = Svc.Audit.create ~capacity:2 () in
  let path = Filename.temp_file "rentcost_audit" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Svc.Audit.close ring;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Svc.Audit.open_file ring path;
      let mk trace_id =
        { Svc.Audit.seq = 0; at = 1.0; trace_id; id = None; tenant = "t";
          fingerprint = "fp"; objective = "min-cost"; scalar = 10;
          served = "cold"; engine = "ilp"; status = "optimal"; cost = 5;
          throughput = 10; queue_wait = 0.0; wall = 0.1; evaluations = 1;
          pivots = 2; nodes = 3; convergence = None }
      in
      List.iter (fun t -> Svc.Audit.record ring (mk t)) [ "a"; "b"; "c" ];
      (* The ring holds the newest two, oldest first; the file keeps
         all three. *)
      Alcotest.(check (list string)) "ring keeps the newest"
        [ "b"; "c" ]
        (List.map
           (fun (r : Svc.Audit.record) -> r.Svc.Audit.trace_id)
           (Svc.Audit.recent ring));
      Alcotest.(check int) "sequence numbers assigned" 3
        (Svc.Audit.recorded ring);
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      Alcotest.(check (list string)) "file keeps every record"
        [ "a"; "b"; "c" ]
        (List.rev_map
           (fun line ->
             match Result.bind (J.of_string line) Svc.Audit.record_of_json with
             | Ok r -> r.Svc.Audit.trace_id
             | Error e -> Alcotest.fail ("audit line: " ^ e))
           !lines))

(* --- serving under concurrency: single-flight, shed policies --- *)

let test_domains =
  match Sys.getenv_opt "RENTCOST_TEST_DOMAINS" with
  | Some s -> (
    match int_of_string_opt s with Some n when n > 0 -> n | _ -> 2)
  | None -> 2

let count_solve_spans () =
  List.length
    (List.filter
       (fun s -> s.Telemetry.Span.name = "service.solve")
       (Telemetry.Span.recent ()))

let coalesced_total () =
  Telemetry.read (Telemetry.counter Telemetry.service_coalesced)

let response_trace_id = function
  | Pr.Solved { trace_id; _ } | Pr.Error { trace_id; _ }
  | Pr.Overloaded { trace_id; _ } ->
    Option.value ~default:"" trace_id
  | _ -> ""

let distinct_trace_ids responses =
  List.length
    (List.sort_uniq compare (List.map response_trace_id responses))

(* 32 identical solves queued, drained by one thread: the first is the
   cold leader and its completing flight adopts the 31 still queued —
   1 cold solve, 31 coalesced, deterministically. *)
let test_herd_single_thread () =
  Telemetry.For_testing.clear_spans ();
  let e = engine_with base in
  let before = coalesced_total () in
  let misses_before = Telemetry.value Telemetry.service_cache_misses in
  for i = 1 to 32 do
    Alcotest.(check bool) "admitted" true
      (E.submit ~now:0.0 e (solve_req ~id:i 110) = [])
  done;
  let responses = E.For_testing.drain ~now:0.0 e in
  Alcotest.(check int) "herd fully answered" 32 (List.length responses);
  let cold, rest =
    List.partition
      (function Pr.Solved { served = Pr.Cold; _ } -> true | _ -> false)
      responses
  in
  Alcotest.(check int) "exactly one cold solve" 1 (List.length cold);
  List.iter
    (function
      | Pr.Solved { served = Pr.Coalesced; _ } -> ()
      | _ -> Alcotest.fail "every follower served coalesced")
    rest;
  Alcotest.(check int) "coalesced counter accounts the followers" 31
    (coalesced_total () - before);
  Alcotest.(check int) "cache-miss counter accounts the one solve" 1
    (Telemetry.value Telemetry.service_cache_misses - misses_before);
  Alcotest.(check int) "exactly one service.solve span" 1
    (count_solve_spans ());
  Alcotest.(check int) "every reply carries its own trace id" 32
    (distinct_trace_ids responses);
  (match cold with
   | [ Pr.Solved { cost; rho; _ } ] ->
     List.iter
       (function
         | Pr.Solved { cost = c; rho = r; _ } ->
           Alcotest.(check int) "follower cost identical" cost c;
           Alcotest.(check (array int)) "follower split identical" rho r
         | _ -> ())
       rest
   | _ -> assert false);
  (* The audit journal accounts all 32, one record each. *)
  match E.handle ~now:0.0 e (Pr.Audit { last = None }) with
  | [ Pr.Audit_reply records ] ->
    Alcotest.(check int) "one audit record per request" 32
      (List.length records);
    Alcotest.(check int) "31 records tagged coalesced" 31
      (List.length
         (List.filter
            (fun (r : Svc.Audit.record) -> r.Svc.Audit.served = "coalesced")
            records))
  | _ -> Alcotest.fail "expected an audit reply"

(* The daemon worker loop, inlined over [domains] domains (default
   [test_domains]). Returns the responses in the order the workers
   handed them over. Worker interleavings can turn a late duplicate
   into an exact cache hit (the flight already closed), but never into
   a second solve: the deterministic invariants are one cold solve,
   one service.solve span, bit-identical replies and per-request trace
   ids. *)
let run_worker_herd ?(domains = test_domains) ~engine ~jobs () =
  let stop = Atomic.make false in
  let rm = Mutex.create () in
  let responses = ref [] in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            let rec loop () =
              if
                E.wait_for_work engine ~stop:(fun () -> Atomic.get stop)
              then begin
                (match E.drain_next engine with
                 | [] -> ()
                 | rs ->
                   Mutex.lock rm;
                   responses := List.rev_append rs !responses;
                   Mutex.unlock rm);
                loop ()
              end
            in
            loop ()))
  in
  while
    Mutex.lock rm;
    let n = List.length !responses in
    Mutex.unlock rm;
    n < jobs
  do
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  E.wake_all engine;
  List.iter Domain.join workers;
  List.rev !responses

let test_herd_across_workers () =
  Telemetry.For_testing.clear_spans ();
  let e = engine_with base in
  for i = 1 to 32 do
    Alcotest.(check bool) "admitted" true
      (E.submit e (solve_req ~id:i 110) = [])
  done;
  let responses = run_worker_herd ~engine:e ~jobs:32 () in
  Alcotest.(check int) "herd fully answered" 32 (List.length responses);
  let cold, rest =
    List.partition
      (function Pr.Solved { served = Pr.Cold; _ } -> true | _ -> false)
      responses
  in
  Alcotest.(check int) "exactly one cold solve" 1 (List.length cold);
  Alcotest.(check int) "exactly one service.solve span" 1
    (count_solve_spans ());
  List.iter
    (function
      | Pr.Solved { served = Pr.Coalesced | Pr.Exact_hit; _ } -> ()
      | _ -> Alcotest.fail "follower neither coalesced nor exact hit")
    rest;
  Alcotest.(check int) "every reply carries its own trace id" 32
    (distinct_trace_ids responses);
  match cold with
  | [ Pr.Solved { cost; rho; _ } ] ->
    List.iter
      (function
        | Pr.Solved { cost = c; rho = r; _ } ->
          Alcotest.(check int) "follower cost identical" cost c;
          Alcotest.(check (array int)) "follower split identical" rho r
        | _ -> ())
      rest
  | _ -> assert false

(* A leader that dies — dp-blackbox on a shared-types instance — must
   answer every follower with its error, not strand them, and the
   journal must hold one error record per request, the leader's
   included, each carrying the problem's fingerprint. *)
let test_leader_failure_single_thread () =
  let e = engine_with base in
  for i = 1 to 8 do
    Alcotest.(check bool) "admitted" true
      (E.submit ~now:0.0 e (solve_req ~id:i ~spec:S.Dp_blackbox 110) = [])
  done;
  let responses = E.For_testing.drain ~now:0.0 e in
  Alcotest.(check int) "herd fully answered" 8 (List.length responses);
  List.iter
    (function
      | Pr.Error { message; _ } ->
        Alcotest.(check bool) "error carries a message" true
          (String.length message > 0)
      | _ -> Alcotest.fail "expected every herd member to get the error")
    responses;
  (match E.handle ~now:0.0 e (Pr.Audit { last = None }) with
   | [ Pr.Audit_reply records ] ->
     Alcotest.(check (list string)) "one record per trace id"
       (List.sort compare (List.map response_trace_id responses))
       (List.sort compare
          (List.map (fun (r : Svc.Audit.record) -> r.Svc.Audit.trace_id) records));
     List.iter
       (fun (r : Svc.Audit.record) ->
         Alcotest.(check string) "error status" "error" r.Svc.Audit.status;
         Alcotest.(check bool) "fingerprint recorded" true
           (String.length r.Svc.Audit.fingerprint > 0))
       records
   | _ -> Alcotest.fail "expected an audit reply");
  (* A raise while resolving — a price book that does not cover the
     platform — is answered and audited the same way. *)
  let short_book =
    Rentcost.Pricebook.create
      [ { Rentcost.Pricebook.book_name = "short"; region = None; prices = [| 5 |];
          tiers = [] } ]
  in
  (match E.handle e (solve_req ~id:98 ~pricebook:short_book 110) with
   | [ Pr.Error _ ] -> ()
   | _ -> Alcotest.fail "expected an error response");
  (match E.handle e (Pr.Audit { last = Some 1 }) with
   | [ Pr.Audit_reply [ r ] ] ->
     Alcotest.(check (pair (option int) string)) "resolve failure recorded"
       (Some 98, "error")
       (r.Svc.Audit.id, r.Svc.Audit.status)
   | _ -> Alcotest.fail "expected one audit record");
  (* The flight is gone: the engine serves the next request normally. *)
  let r = solved1 e (solve_req ~id:99 110) in
  check_served "engine recovered after the failed flight" Pr.Cold r.s_served

let test_leader_failure_across_workers () =
  let e = engine_with base in
  for i = 1 to 16 do
    Alcotest.(check bool) "admitted" true
      (E.submit e (solve_req ~id:i ~spec:S.Dp_blackbox 110) = [])
  done;
  (* Termination itself is the assertion: a stranded follower would
     hang this join. *)
  let responses = run_worker_herd ~engine:e ~jobs:16 () in
  Alcotest.(check int) "herd fully answered" 16 (List.length responses);
  List.iter
    (function
      | Pr.Error _ -> ()
      | _ -> Alcotest.fail "expected every herd member to get the error")
    responses

(* A leader that runs for a while: an uncapped ILP on a fig8 problem
   it cannot close within a second, stopped by its half-second
   deadline. *)
let slow_engine () = engine_with (preset_problem ~seed:4 "fig8")

let slow_req id =
  solve_req ~id ~spec:S.Exact_ilp ~budget:{ B.unlimited with deadline = Some 0.5 } 200

let response_id = function
  | Pr.Solved { id; _ } | Pr.Error { id; _ } | Pr.Overloaded { id; _ } -> id
  | _ -> None

(* Duplicates queued behind a slow leader ride its flight from the
   moment it starts, so the second of two workers takes the unrelated
   request queued after them at once instead of waiting out the
   leader's solve. *)
let test_herd_holds_no_worker () =
  let e = slow_engine () in
  for i = 1 to 3 do
    Alcotest.(check bool) "admitted" true (E.submit e (slow_req i) = [])
  done;
  Alcotest.(check bool) "admitted" true
    (E.submit e (solve_req ~id:99 ~spec:(S.Heuristic Rentcost.Heuristics.H1) 100)
     = []);
  let responses = run_worker_herd ~domains:2 ~engine:e ~jobs:4 () in
  Alcotest.(check (list (option int))) "the unrelated reply comes first"
    [ Some 99; Some 1; Some 2; Some 3 ]
    (List.map response_id responses);
  match responses with
  | [ _; Pr.Solved { cost; rho; _ };
      Pr.Solved { served = Pr.Coalesced; cost = c2; rho = r2; _ };
      Pr.Solved { served = Pr.Coalesced; cost = c3; rho = r3; _ } ] ->
    Alcotest.(check (list int)) "followers copy the cost" [ cost; cost ] [ c2; c3 ];
    Alcotest.(check (list (array int))) "followers copy the split" [ rho; rho ]
      [ r2; r3 ]
  | _ -> Alcotest.fail "expected the leader then two coalesced followers"

(* A duplicate submitted while its leader solves attaches at the door:
   it takes no queue slot and is answered with the leader's reply. *)
let test_door_attaches_follower () =
  let e = slow_engine () in
  Alcotest.(check bool) "admitted" true (E.submit e (slow_req 1) = []);
  let worker = Domain.spawn (fun () -> E.drain_next e) in
  while E.For_testing.inflight e = 0 && E.For_testing.queue_length e > 0 do
    Domain.cpu_relax ()
  done;
  Alcotest.(check int) "leader in flight" 1 (E.For_testing.inflight e);
  Alcotest.(check bool) "duplicate attached" true (E.submit e (slow_req 2) = []);
  Alcotest.(check int) "no queue slot taken" 0 (E.For_testing.queue_length e);
  match Domain.join worker with
  | [ Pr.Solved { id = Some 1; cost; rho; _ };
      Pr.Solved { id = Some 2; served = Pr.Coalesced; cost = c; rho = r; _ } ] ->
    Alcotest.(check int) "follower cost identical" cost c;
    Alcotest.(check (array int)) "follower split identical" rho r
  | _ -> Alcotest.fail "expected the leader's reply then its follower's"

(* --- shed policies at the engine level --- *)

let config_with ?(capacity = 2) policy =
  { default_config with E.queue_capacity = capacity; queue_policy = policy }

let test_drop_oldest_policy () =
  let e = engine_with ~config:(config_with Svc.Admission.Drop_oldest) base in
  Alcotest.(check bool) "first admitted" true
    (E.submit ~now:0.0 e (solve_req ~id:1 50) = []);
  Alcotest.(check bool) "second admitted" true
    (E.submit ~now:0.0 e (solve_req ~id:2 60) = []);
  (* The arrival is admitted; the oldest queued request is the one
     answered Overloaded — with a retry hint. *)
  (match E.submit ~now:0.0 e (solve_req ~id:3 70) with
   | [ Pr.Overloaded { id = Some 1; retry_after_ms = Some ms; _ } ] ->
     Alcotest.(check bool) "retry hint positive" true (ms > 0)
   | _ -> Alcotest.fail "expected the oldest request evicted");
  (match E.For_testing.drain ~now:0.0 e with
   | [ Pr.Solved { id = Some 2; _ }; Pr.Solved { id = Some 3; _ } ] -> ()
   | _ -> Alcotest.fail "expected the survivors drained in order");
  (* Conservation on a replayed overload: 24 distinct solves into a
     capacity-4 queue with no worker draining. The 20 evicted are
     answered Overloaded with a retry hint as they are evicted, the 4
     survivors are solved on drain, and no id vanishes or doubles. *)
  let e =
    engine_with ~config:(config_with ~capacity:4 Svc.Admission.Drop_oldest)
      base
  in
  let evicted =
    List.concat_map
      (fun i -> E.submit ~now:0.0 e (solve_req ~id:i (10 + i)))
      (List.init 24 Fun.id)
  in
  let drained = E.For_testing.drain ~now:0.0 e in
  Alcotest.(check int) "20 evictions" 20 (List.length evicted);
  List.iter
    (function
      | Pr.Overloaded { retry_after_ms = Some ms; _ } ->
        Alcotest.(check bool) "eviction carries a retry hint" true (ms >= 1)
      | _ -> Alcotest.fail "expected only Overloaded at submit")
    evicted;
  Alcotest.(check int) "4 survivors" 4 (List.length drained);
  List.iter
    (function
      | Pr.Solved _ -> ()
      | _ -> Alcotest.fail "expected every survivor solved")
    drained;
  let answer_id = function
    | Pr.Solved { id = Some i; _ } | Pr.Overloaded { id = Some i; _ } -> [ i ]
    | _ -> []
  in
  Alcotest.(check (list int)) "every offered id answered exactly once"
    (List.init 24 Fun.id)
    (List.sort compare (List.concat_map answer_id (evicted @ drained)))

let test_tenant_fair_policy () =
  let e =
    engine_with ~config:(config_with ~capacity:3 Svc.Admission.Tenant_fair)
      base
  in
  Alcotest.(check bool) "a/1 admitted" true
    (E.submit ~now:0.0 e (solve_req ~id:1 ~tenant:"a" 50) = []);
  Alcotest.(check bool) "a/2 admitted" true
    (E.submit ~now:0.0 e (solve_req ~id:2 ~tenant:"a" 60) = []);
  Alcotest.(check bool) "b/3 admitted" true
    (E.submit ~now:0.0 e (solve_req ~id:3 ~tenant:"b" 70) = []);
  (* Tenant a hogs two slots: its newest entry is the victim; b's only
     request is untouchable. *)
  (match E.submit ~now:0.0 e (solve_req ~id:4 ~tenant:"c" 80) with
   | [ Pr.Overloaded { id = Some 2; _ } ] -> ()
   | _ -> Alcotest.fail "expected the hog's newest entry evicted");
  (* Now every tenant holds exactly one: nothing fair to evict, the
     arrival is rejected instead. *)
  (match E.submit ~now:0.0 e (solve_req ~id:5 ~tenant:"d" 90) with
   | [ Pr.Overloaded { id = Some 5; _ } ] -> ()
   | _ -> Alcotest.fail "expected the arrival rejected");
  match E.For_testing.drain ~now:0.0 e with
  | [ Pr.Solved { id = Some 1; _ }; Pr.Solved { id = Some 3; _ };
      Pr.Solved { id = Some 4; _ } ] -> ()
  | _ -> Alcotest.fail "expected the three survivors drained in order"

(* Regression: an entry whose deadline lapsed while queued must not
   occupy a slot that bounces a live arrival off a full queue — the
   corpse is shed eagerly at enqueue, the arrival admitted. *)
let test_expired_entry_frees_slot () =
  let e =
    engine_with ~config:{ default_config with E.queue_capacity = 2 } base
  in
  Alcotest.(check bool) "doomed request admitted" true
    (E.submit ~now:0.0 e
       (solve_req ~id:1 ~budget:{ B.unlimited with deadline = Some 0.5 } 50)
     = []);
  Alcotest.(check bool) "live request admitted" true
    (E.submit ~now:0.0 e (solve_req ~id:2 60) = []);
  (match E.submit ~now:10.0 e (solve_req ~id:3 70) with
   | [ Pr.Overloaded { id = Some 1; _ } ] -> ()
   | _ ->
     Alcotest.fail "expected the expired entry shed and the arrival admitted");
  Alcotest.(check int) "arrival holds the freed slot" 2 (E.For_testing.queue_length e);
  match E.For_testing.drain ~now:10.0 e with
  | [ Pr.Solved { id = Some 2; _ }; Pr.Solved { id = Some 3; _ } ] -> ()
  | _ -> Alcotest.fail "expected both live requests solved"

(* --- protocol fuzz: near-valid lines over a pipe daemon --- *)

let run_daemon_session lines =
  let req_read, req_write = Unix.pipe () in
  let resp_read, resp_write = Unix.pipe () in
  write_all req_write (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  Unix.close req_write;
  let dump = open_out Filename.null in
  let oc = Unix.out_channel_of_descr resp_write in
  Svc.Daemon.serve_channels ~dump (Unix.in_channel_of_descr req_read) oc;
  close_out dump;
  close_out oc;
  let ic = Unix.in_channel_of_descr resp_read in
  let rec read_lines acc =
    match input_line ic with
    | line -> read_lines (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = read_lines [] in
  close_in ic;
  out

let decode_response_line line =
  match J.of_string line with
  | Error e -> Alcotest.fail ("response line is not JSON: " ^ e)
  | Ok j -> (
    match Pr.response_of_json j with
    | Error e -> Alcotest.fail ("response line is not a response: " ^ e)
    | Ok r -> r)

(* Hand-picked near-valid lines, each answered by a structured error on
   the same line — pinning which malformations are strict. *)
let strict_fuzz_cases =
  [ {|{"op":"frobnicate"}|};  (* unknown op *)
    {|{"op":""}|};
    {|{"op":42,"id":1}|};  (* wrong-typed op reads as missing *)
    {|{"noop":true}|};  (* no op at all *)
    {|[1,2,3]|};  (* not an object *)
    {|42|};
    {|{"op":"solve","id":1}|};  (* no source *)
    {|{"op":"solve","id":1,"ref":"app"}|};  (* min-cost without target *)
    {|{"op":"solve","id":1,"ref":"app","target":"many"}|};
        (* wrong-typed fields: each names the field *)
    {|{"op":"solve","id":"seven","ref":"app","target":110}|};
    {|{"op":"solve","id":1,"ref":"app","target":70,"nodes":"0"}|};
    {|{"op":"solve","id":1,"ref":"app","target":70,"evals":"0"}|};
    {|{"op":"solve","id":1,"ref":"app","target":70,"deadline":"0"}|};
    {|{"op":"solve","id":1,"ref":"app","target":70,"reuse":7}|};
    {|{"op":"solve","id":1,"ref":"app","target":70,"spec":3}|};
    {|{"op":"solve","id":1,"ref":"app","target":-3}|};
    {|{"op":"solve","id":1,"ref":"app","target":50,"reuse":"psychic"}|};
    {|{"op":"solve","id":1,"ref":"app","target":50,"spec":"gpu"}|};
    {|{"op":"solve","id":1,"ref":"app","problem":"types 1","target":5}|};
        (* ref and problem together *)
    {|{"op":"solve","version":2,"id":1,"ref":"app","target":50}|};
    {|{"op":"tick","session":"s"}|};  (* missing demand *)
    {|{"op":"audit","last":-1}|};
    {|{"op":"solve","id":1,"ref":"app","target":50|};  (* truncated *)
    {|{"op":"solve",}|};  (* trailing comma *)
    {|{"op" "solve"}|};  (* missing colon *)
  ]

let test_protocol_fuzz_strict () =
  (* Every bad line answers one structured error on its own line; the
     session never desyncs — the valid solve after the barrage still
     lands on its line, and Bye is last. *)
  let lines =
    [ J.to_string (Pr.request_to_json (Pr.Register { name = "app"; problem = base })) ]
    @ strict_fuzz_cases
    @ [ J.to_string (Pr.request_to_json (solve_req ~id:777 110));
        J.to_string (Pr.request_to_json Pr.Shutdown) ]
  in
  let out = run_daemon_session lines in
  Alcotest.(check int) "one response line per request line"
    (List.length lines) (List.length out);
  let responses = List.map decode_response_line out in
  (match responses with
   | Pr.Registered _ :: rest -> (
     let n = List.length strict_fuzz_cases in
     List.iteri
       (fun i r ->
         if i < n then
           match r with
           | Pr.Error { message; _ } ->
             Alcotest.(check bool)
               (Printf.sprintf "case %d answers a structured error" i)
               true
               (String.length message > 0)
           | _ ->
             Alcotest.failf "case %d (%s): expected an error"
               i (List.nth strict_fuzz_cases i))
       rest;
     match (List.nth rest n, List.nth rest (n + 1)) with
     | Pr.Solved { id = Some 777; _ }, Pr.Bye -> ()
     | _ -> Alcotest.fail "daemon desynced: sentinel solve or Bye misplaced")
   | _ -> Alcotest.fail "register reply missing")

(* Pinned lenient behaviors: duplicate keys read as their first
   occurrence and unknown fields are ignored. (A wrong-typed field is
   an error; see the strict cases.) *)
let test_protocol_fuzz_lenient () =
  let lines =
    [ J.to_string (Pr.request_to_json (Pr.Register { name = "app"; problem = base }));
      (* duplicate keys: first occurrence wins *)
      {|{"op":"solve","id":5,"id":6,"ref":"app","target":110}|};
      (* unknown extra fields are ignored *)
      {|{"op":"solve","id":7,"ref":"app","target":110,"flavour":"blue"}|};
      J.to_string (Pr.request_to_json Pr.Shutdown) ]
  in
  let out = run_daemon_session lines in
  Alcotest.(check int) "one response line per request line"
    (List.length lines) (List.length out);
  match List.map decode_response_line out with
  | [ Pr.Registered _;
      Pr.Solved { id = Some 5; _ };
      Pr.Solved { id = Some 7; _ };
      Pr.Bye ] -> ()
  | _ -> Alcotest.fail "lenient behaviors changed"

(* Random truncations of a valid solve line: always one structured
   error per line, never a crash or desync. *)
let test_protocol_fuzz_truncations () =
  let whole =
    J.to_string (Pr.request_to_json (solve_req ~id:1 ~trace_id:"req-fz" 110))
  in
  let cuts =
    (* every prefix of a JSON object line is invalid JSON *)
    List.init 24 (fun i ->
        String.sub whole 0 (1 + i * (String.length whole - 2) / 24))
  in
  let lines =
    [ J.to_string (Pr.request_to_json (Pr.Register { name = "app"; problem = base })) ]
    @ cuts
    @ [ J.to_string (Pr.request_to_json (solve_req ~id:888 110));
        J.to_string (Pr.request_to_json Pr.Shutdown) ]
  in
  let out = run_daemon_session lines in
  Alcotest.(check int) "one response line per request line"
    (List.length lines) (List.length out);
  let responses = List.map decode_response_line out in
  List.iteri
    (fun i r ->
      match r with
      | Pr.Error _ when i >= 1 && i <= List.length cuts -> ()
      | Pr.Registered _ when i = 0 -> ()
      | Pr.Solved { id = Some 888; _ } when i = List.length cuts + 1 -> ()
      | Pr.Bye when i = List.length cuts + 2 -> ()
      | _ -> Alcotest.failf "line %d out of place" i)
    responses

let suite =
  ( "service",
    [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
      Alcotest.test_case "json unicode and errors" `Quick
        test_json_unicode_and_errors;
      prop_json_float_roundtrip;
      Alcotest.test_case "fingerprint permutation invariance" `Quick
        test_fingerprint_permutation_invariant;
      Alcotest.test_case "fingerprint distinguishes" `Quick
        test_fingerprint_distinguishes;
      Alcotest.test_case "cache LRU eviction order" `Quick
        test_cache_lru_eviction;
      Alcotest.test_case "cache lookup semantics" `Quick test_cache_lookups;
      Alcotest.test_case "exact replay from cache" `Quick test_exact_replay;
      Alcotest.test_case "monotone reuse is feasible" `Quick
        test_monotone_reuse_feasible;
      Alcotest.test_case "warm-start reuse" `Quick test_warm_start_reuse;
      Alcotest.test_case "equivalent inline problems share the cache" `Quick
        test_equivalent_inline_shares_cache;
      Alcotest.test_case "reuse none never hits" `Quick
        test_reuse_none_never_hits;
      Alcotest.test_case "unknown ref errors" `Quick test_unknown_ref_errors;
      Alcotest.test_case "inline text: a hit answers as a fresh engine" `Quick
        test_inline_text_memo;
      Alcotest.test_case "inline text: tables bounded by cache capacity" `Quick
        test_inline_text_table_bound;
      Alcotest.test_case "registry bounded by cache capacity" `Quick
        test_registry_bound;
      Alcotest.test_case "inline text: a scenario miss compiles once" `Quick
        test_inline_text_scenario_miss;
      Alcotest.test_case "admission sheds at the door" `Quick
        test_admission_door_shed;
      Alcotest.test_case "admission sheds expired deadlines" `Quick
        test_admission_deadline_shed;
      Alcotest.test_case "deadline slack degrades to the incumbent" `Quick
        test_deadline_slack_degrades;
      Alcotest.test_case "track protocol roundtrip" `Quick
        test_track_protocol_roundtrip;
      Alcotest.test_case "request fields: mistyped is an error, absent the default"
        `Quick test_request_field_types;
      Alcotest.test_case "track response roundtrip" `Quick
        test_track_response_roundtrip;
      Alcotest.test_case "track session end to end" `Quick
        test_track_session_end_to_end;
      Alcotest.test_case "track unknown ref errors" `Quick
        test_track_unknown_ref_errors;
      Alcotest.test_case "metrics reply" `Quick test_metrics_reply;
      Alcotest.test_case "trace id round trip" `Quick test_trace_id_roundtrip;
      Alcotest.test_case "trace id stamps request spans" `Quick
        test_trace_id_on_spans;
      Alcotest.test_case "audit journal" `Quick test_audit_journal;
      Alcotest.test_case "audit honours the kill switch" `Quick
        test_audit_kill_switch;
      Alcotest.test_case "audit ring and jsonl file" `Quick
        test_audit_ring_and_file;
      Alcotest.test_case "daemon session over a pipe" `Quick
        test_daemon_over_pipe;
      Alcotest.test_case "thundering herd coalesces (single thread)" `Quick
        test_herd_single_thread;
      Alcotest.test_case "thundering herd coalesces (worker domains)" `Quick
        test_herd_across_workers;
      Alcotest.test_case "leader failure fails followers (single thread)"
        `Quick test_leader_failure_single_thread;
      Alcotest.test_case "leader failure fails followers (worker domains)"
        `Quick test_leader_failure_across_workers;
      Alcotest.test_case "a queued herd holds no worker" `Quick
        test_herd_holds_no_worker;
      Alcotest.test_case "a duplicate attaches at the door" `Quick
        test_door_attaches_follower;
      Alcotest.test_case "drop-oldest evicts the head" `Quick
        test_drop_oldest_policy;
      Alcotest.test_case "tenant-fair evicts the hog's newest" `Quick
        test_tenant_fair_policy;
      Alcotest.test_case "expired queue entry frees its slot" `Quick
        test_expired_entry_frees_slot;
      Alcotest.test_case "protocol fuzz: strict rejections" `Quick
        test_protocol_fuzz_strict;
      Alcotest.test_case "protocol fuzz: pinned leniencies" `Quick
        test_protocol_fuzz_lenient;
      Alcotest.test_case "protocol fuzz: truncated lines" `Quick
        test_protocol_fuzz_truncations ] )
