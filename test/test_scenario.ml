(* Tests for the scenario layer: Objective/Pricebook/Scenario values,
   scenario-aware compilation (fingerprint divergence, degenerate
   bit-identity), the max-throughput dual search and its duality
   property, the service ladder's objective separation, format/protocol
   versioning, and the deprecated-alias equivalences. *)

module P = Rentcost.Problem
module PF = Rentcost.Platform
module I = Rentcost.Instance
module AL = Rentcost.Allocation
module S = Rentcost.Solver
module Ob = Rentcost.Objective
module Pb = Rentcost.Pricebook
module Sc = Rentcost.Scenario
module Svc = Rentcost_service
module C = Svc.Cache
module E = Svc.Engine
module Pr = Svc.Protocol
module J = Svc.Json

let illustrating = P.illustrating

let platform = P.platform illustrating

(* Solve the illustrating problem compiled for [objective] (under
   [pricebook] when given). *)
let run ?budget ?spec ?pricebook objective =
  S.run ?budget ?spec
    (I.compile ~scenario:(Sc.make ~objective ?pricebook ()) illustrating)
    ~objective

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* A 3-book pricebook over the illustrating platform: list prices, a
   dearer region with a reserved tier, and a spot book whose 60%-of-
   list tier is strictly cheapest for every type. *)
let clouds =
  let q = PF.num_types platform in
  let prices f = Array.init q (fun i -> f (PF.cost platform i)) in
  Pb.create
    [ { Pb.book_name = "on-prem"; region = None; prices = prices Fun.id;
        tiers = [] };
      { Pb.book_name = "us-east"; region = Some "us-east-1";
        prices = prices (fun c -> (c * 5 / 4) + 1);
        tiers = [ { Pb.tier_name = "reserved"; percent = 90 } ] };
      { Pb.book_name = "ap-spot"; region = Some "ap-south-1";
        prices = prices Fun.id;
        tiers = [ { Pb.tier_name = "spot"; percent = 60 } ] } ]

let identical_books =
  let q = PF.num_types platform in
  Pb.create
    (List.map
       (fun name ->
         { Pb.book_name = name; region = None;
           prices = Array.init q (PF.cost platform); tiers = [] })
       [ "alpha"; "beta"; "gamma" ])

let cost_of o =
  match o.S.allocation with
  | Some a -> a.AL.cost
  | None -> Alcotest.fail "expected an allocation"

let alloc_sig o =
  Option.map (fun a -> (a.AL.rho, a.AL.machines, a.AL.cost)) o.S.allocation

(* --- Objective / Scenario values --- *)

let test_objective_basics () =
  let mc = Ob.min_cost ~target:70 and mt = Ob.max_throughput ~budget:120 in
  Alcotest.(check int) "min-cost scalar" 70 (Ob.scalar mc);
  Alcotest.(check int) "max-throughput scalar" 120 (Ob.scalar mt);
  Alcotest.(check bool) "kinds differ" true (Ob.kind mc <> Ob.kind mt);
  Alcotest.(check string) "min-cost spelling" "min-cost"
    (Ob.kind_to_string (Ob.kind mc));
  Alcotest.(check string) "max-throughput spelling" "max-throughput"
    (Ob.kind_to_string (Ob.kind mt));
  Alcotest.(check bool) "spelling round-trips" true
    (Ob.kind_of_string "max-throughput" = Some `Max_throughput
    && Ob.kind_of_string "min-cost" = Some `Min_cost
    && Ob.kind_of_string "nonsense" = None);
  Alcotest.check_raises "negative target"
    (Invalid_argument "Objective.min_cost: negative target") (fun () ->
      ignore (Ob.min_cost ~target:(-1)));
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Objective.max_throughput: negative budget") (fun () ->
      ignore (Ob.max_throughput ~budget:(-1)))

(* --- Pricebook: effective costs, text format, versioning --- *)

let test_pricebook_effective_costs () =
  for q = 0 to PF.num_types platform - 1 do
    let list_price = PF.cost platform q in
    let expected = max 1 (((list_price * 60) + 99) / 100) in
    Alcotest.(check int)
      (Printf.sprintf "type %d priced from the spot tier" q)
      expected (Pb.effective_cost clouds q);
    let s = Pb.sourcing clouds q in
    Alcotest.(check string) "spot book wins" "ap-spot" s.Pb.src_book;
    Alcotest.(check string) "spot tier wins" "spot" s.Pb.src_tier;
    Alcotest.(check (option string)) "region carried" (Some "ap-south-1")
      s.Pb.src_region
  done

let test_pricebook_roundtrip () =
  let back = Pb.of_string (Pb.to_string clouds) in
  Alcotest.(check int) "books survive" (Pb.num_books clouds)
    (Pb.num_books back);
  for q = 0 to Pb.num_types clouds - 1 do
    Alcotest.(check int)
      (Printf.sprintf "effective cost %d survives" q)
      (Pb.effective_cost clouds q)
      (Pb.effective_cost back q);
    let a = Pb.sourcing clouds q and b = Pb.sourcing back q in
    Alcotest.(check string) "sourcing book survives" a.Pb.src_book
      b.Pb.src_book;
    Alcotest.(check (option string)) "sourcing region survives"
      a.Pb.src_region b.Pb.src_region
  done

let test_pricebook_version_rejected () =
  (match Pb.of_string "pricebook version 2\nbook a\n  price 0 5\n" with
   | exception Failure msg ->
     Alcotest.(check bool)
       ("message names supported versions: " ^ msg)
       true
       (contains ~sub:"unsupported pricebook version 2" msg)
   | _ -> Alcotest.fail "version 2 must be rejected");
  (* version 1, spelled out, still parses *)
  let pb = Pb.of_string "pricebook version 1\nbook a\n  price 0 5\n" in
  Alcotest.(check int) "explicit version 1 parses" 5 (Pb.effective_cost pb 0)

(* --- scenario compilation: fingerprints and bit-identity --- *)

let test_fingerprints_diverge_across_objectives () =
  let plain = I.compile illustrating in
  let maxthr =
    I.compile ~scenario:(Sc.max_throughput ~budget:120 ()) illustrating
  in
  Alcotest.(check bool) "objective kind recorded" true
    (I.objective_kind maxthr = `Max_throughput
    && I.objective_kind plain = `Min_cost);
  Alcotest.(check bool) "encodings diverge across objectives" true
    (I.canonical_encoding plain <> I.canonical_encoding maxthr);
  Alcotest.(check bool) "fingerprints diverge across objectives" true
    (I.fingerprint plain <> I.fingerprint maxthr)

let test_fingerprints_diverge_across_pricebooks () =
  let plain = I.compile illustrating in
  let multi =
    I.compile
      ~scenario:(Sc.min_cost ~pricebook:clouds ~target:70 ())
      illustrating
  in
  Alcotest.(check bool) "encodings diverge under a real pricebook" true
    (I.canonical_encoding plain <> I.canonical_encoding multi);
  Alcotest.(check bool) "fingerprints diverge under a real pricebook" true
    (I.fingerprint plain <> I.fingerprint multi)

let test_identical_books_bit_identical () =
  let plain = I.compile illustrating in
  let same_prices =
    I.compile
      ~scenario:(Sc.min_cost ~pricebook:identical_books ~target:70 ())
      illustrating
  in
  Alcotest.(check string) "canonical encodings identical"
    (I.canonical_encoding plain)
    (I.canonical_encoding same_prices);
  let solve inst = S.run inst ~objective:(Ob.min_cost ~target:70) in
  Alcotest.(check bool) "allocations identical" true
    (alloc_sig (solve plain) = alloc_sig (solve same_prices));
  (* the degenerate single-book constructor too *)
  let degenerate =
    I.compile
      ~scenario:
        (Sc.min_cost ~pricebook:(Pb.of_platform platform) ~target:70 ())
      illustrating
  in
  Alcotest.(check string) "of_platform compiles bit-identically"
    (I.canonical_encoding plain)
    (I.canonical_encoding degenerate)

let test_multicloud_prices_flow_through () =
  (* Under the spot book every unit price shrinks strictly, so the
     multicloud optimum must undercut the single-cloud one. *)
  let single = run (Ob.min_cost ~target:70) in
  let multi = run ~pricebook:clouds (Ob.min_cost ~target:70) in
  Alcotest.(check bool) "multicloud optimum undercuts single-cloud" true
    (cost_of multi < cost_of single)

(* --- the dual objective --- *)

let test_dual_matches_linear_scan () =
  let budget = 120 in
  let dual = run (Ob.max_throughput ~budget) in
  (* independent oracle: walk the monotone cost curve *)
  let cost_at t = cost_of (run (Ob.min_cost ~target:t)) in
  let rec scan t = if cost_at (t + 1) <= budget then scan (t + 1) else t in
  let exact = scan 0 in
  Alcotest.(check int) "binary search finds the exact dual optimum" exact
    dual.S.throughput;
  Alcotest.(check bool) "dual allocation fits the budget" true
    (cost_of dual <= budget);
  Alcotest.(check bool) "exact engine proves optimality" true
    (dual.S.status = S.Optimal)

let test_dual_zero_budget () =
  let dual = run (Ob.max_throughput ~budget:0) in
  Alcotest.(check int) "zero budget buys zero throughput" 0 dual.S.throughput;
  Alcotest.(check int) "and costs nothing" 0 (cost_of dual)

let test_fluid_bound_brackets () =
  let inst = I.compile illustrating in
  let upper = I.fluid_upper_target inst ~budget:120 in
  let dual = run (Ob.max_throughput ~budget:120) in
  Alcotest.(check bool) "fluid bound is an upper bracket" true
    (upper >= dual.S.throughput);
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Instance.fluid_upper_target: negative budget")
    (fun () -> ignore (I.fluid_upper_target inst ~budget:(-1)))

(* A budget past max_int / 2 puts the fluid bracket there too; the
   binary search's midpoint must not wrap into a negative target. *)
let test_dual_max_int_budget () =
  let dual = run (Ob.max_throughput ~budget:max_int) in
  let a =
    match dual.S.allocation with
    | Some a -> a
    | None -> Alcotest.fail "expected an allocation"
  in
  (* Priced again in Bigint, so a cost that wrapped cannot pass. *)
  let module B = Numeric.Bigint in
  let exact_cost =
    Array.fold_left B.add B.zero
      (Array.mapi
         (fun q x -> B.mul (B.of_int x) (B.of_int (PF.cost platform q)))
         a.AL.machines)
  in
  Alcotest.(check string) "cost priced without wrapping"
    (B.to_string exact_cost) (string_of_int a.AL.cost);
  Alcotest.(check bool) "allocation within the budget" true
    (B.compare exact_cost (B.of_int max_int) <= 0);
  Alcotest.(check bool) "allocation feasible at its throughput" true
    (AL.feasible illustrating ~target:dual.S.throughput a);
  Alcotest.(check bool) "the search buys throughput" true
    (dual.S.throughput > 0)

(* Budgeted probes of the dual search, on each engine family. A capped
   ILP probe is a capped min-cost solve with the money as its cutoff:
   its incumbent is the root's rounding when that fits the money, and
   a probe that reaches no integer point takes the min-cost path's
   heuristic fallback, whose point answers "reachable" when it fits
   the money. At zero nodes every probe runs the fallback, so the
   search still buys throughput. Each check also pins how many probes
   ran the fallback. *)
let test_dual_budgeted_probes () =
  let dual ?budget spec money =
    let fallbacks = ref 0 in
    Telemetry.Span.set_sink
      (Some
         (fun s ->
           if s.Telemetry.Span.name = "solver.fallback" then incr fallbacks));
    Fun.protect
      ~finally:(fun () -> Telemetry.Span.set_sink None)
      (fun () ->
        let o = run ?budget ~spec (Ob.max_throughput ~budget:money) in
        (o, !fallbacks))
  in
  let check label (o, fallbacks) (status, throughput, cost, expected_fallbacks)
      =
    Alcotest.(check (triple string int int))
      label
      (S.status_to_string status, throughput, cost)
      (S.status_to_string o.S.status, o.S.throughput, cost_of o);
    Alcotest.(check int) (label ^ ": fallbacks") expected_fallbacks fallbacks
  in
  let ilp = dual ~budget:(Rentcost.Budget.nodes 1) S.Exact_ilp in
  check "ilp, 1 node, money 120" (ilp 120) (S.Budget_exhausted, 60, 116, 2);
  check "ilp, 1 node, money 300" (ilp 300) (S.Budget_exhausted, 170, 285, 5);
  check "ilp, 0 nodes, money 120"
    (dual ~budget:(Rentcost.Budget.nodes 0) S.Exact_ilp 120)
    (S.Budget_exhausted, 60, 114, 6);
  let h32 = dual (S.Heuristic Rentcost.Heuristics.H32) in
  check "h32, money 120" (h32 120) (S.Feasible, 60, 114, 0);
  check "h32, money 300" (h32 300) (S.Feasible, 160, 276, 0);
  check "h32jump, 5 evals, money 300"
    (dual ~budget:(Rentcost.Budget.evals 5)
       (S.Heuristic Rentcost.Heuristics.H32_jump) 300)
    (S.Budget_exhausted, 160, 276, 0)

(* --- the instance's objective kind guards the solve --- *)

let test_objective_kind_mismatch () =
  Alcotest.check_raises "min-cost instance, max-throughput solve"
    (Invalid_argument
       "Solver.run: instance was compiled for min-cost, not max-throughput \
        (recompile with the matching scenario)")
    (fun () ->
      ignore
        (S.run (I.compile illustrating)
           ~objective:(Ob.max_throughput ~budget:100)))

(* --- problem_format and protocol versioning --- *)

let test_problem_format_version () =
  let text = Rentcost.Problem_format.to_string illustrating in
  Alcotest.(check bool) "to_string leads with the version line" true
    (String.length text >= 9 && String.sub text 0 9 = "version 1");
  Alcotest.(check bool) "round-trips through the versioned text" true
    (Rentcost.Problem_format.of_string text
     |> Rentcost.Problem_format.to_string = text);
  match Rentcost.Problem_format.of_string ("version 3\n" ^ text) with
  | exception Failure msg ->
    Alcotest.(check bool)
      ("rejects unknown version: " ^ msg)
      true
      (contains ~sub:"unsupported problem format version 3" msg)
  | _ -> Alcotest.fail "version 3 must be rejected"

let req_of_string s = Pr.request_of_json (Result.get_ok (J.of_string s))

let test_protocol_version () =
  (match req_of_string {|{"op":"stats","version":1}|} with
   | Result.Ok Pr.Stats -> ()
   | _ -> Alcotest.fail "explicit version 1 must decode");
  (match req_of_string {|{"op":"stats","version":2}|} with
   | Result.Error msg ->
     Alcotest.(check bool)
       ("structured version error: " ^ msg)
       true
       (contains ~sub:"unsupported protocol version 2" msg)
   | _ -> Alcotest.fail "version 2 must be rejected");
  match req_of_string {|{"op":"stats","version":"two"}|} with
  | Result.Error _ -> ()
  | _ -> Alcotest.fail "non-integer version must be rejected"

let test_protocol_objective_roundtrip () =
  let roundtrip req =
    match Pr.request_of_json (Pr.request_to_json req) with
    | Result.Ok r -> r
    | Result.Error msg -> Alcotest.fail ("roundtrip: " ^ msg)
  in
  let solve objective pricebook =
    Pr.Solve
      { id = Some 3; trace_id = None; tenant = None;
        source = Pr.Ref "app"; objective; pricebook;
        spec = S.Auto; budget = None; reuse = Pr.Monotone }
  in
  (match roundtrip (solve (Ob.max_throughput ~budget:120) (Some clouds)) with
   | Pr.Solve
       { objective = Ob.Max_throughput { budget }; pricebook = Some pb; _ } ->
     Alcotest.(check int) "budget survives" 120 budget;
     Alcotest.(check int) "pricebook survives" (Pb.effective_cost clouds 0)
       (Pb.effective_cost pb 0)
   | _ -> Alcotest.fail "max-throughput solve must round-trip");
  (* the historical min-cost shape stays byte-compatible: no
     "objective" key on the wire *)
  let encoded =
    J.to_string (Pr.request_to_json (solve (Ob.min_cost ~target:70) None))
  in
  Alcotest.(check bool) "min-cost encodes without an objective key" true
    (not (contains ~sub:"objective" encoded));
  match
    req_of_string {|{"op":"solve","ref":"app","objective":"max-throughput"}|}
  with
  | Result.Error msg ->
    Alcotest.(check bool)
      ("missing budget is a structured error: " ^ msg)
      true
      (contains ~sub:"budget" msg)
  | _ -> Alcotest.fail "max-throughput without budget must be rejected"

(* --- the cache's dual monotone rung --- *)

let entry ~target ~cost ~optimal =
  { C.target; spec = "ilp"; canonical_rho = [| target |]; cost; optimal }

let test_find_monotone_le () =
  let c = C.create ~capacity:8 in
  let digest = "d" and encoding = "e" in
  C.insert c ~digest ~encoding (entry ~target:50 ~cost:40 ~optimal:true);
  C.insert c ~digest ~encoding (entry ~target:80 ~cost:70 ~optimal:false);
  C.insert c ~digest ~encoding (entry ~target:100 ~cost:90 ~optimal:true);
  let budget_of = function Some e -> e.C.target | None -> -1 in
  Alcotest.(check int) "largest optimal budget <= 90 is 50" 50
    (budget_of (C.find_monotone_le c ~digest ~encoding ~target:90));
  Alcotest.(check int) "exactly at an entry" 100
    (budget_of (C.find_monotone_le c ~digest ~encoding ~target:100));
  Alcotest.(check int) "above all entries takes the largest" 100
    (budget_of (C.find_monotone_le c ~digest ~encoding ~target:500));
  Alcotest.(check int) "below all optimal entries misses" (-1)
    (budget_of (C.find_monotone_le c ~digest ~encoding ~target:40));
  Alcotest.(check int) "other encodings never answer" (-1)
    (budget_of (C.find_monotone_le c ~digest ~encoding:"other" ~target:90))

(* --- the engine ladder across objectives --- *)

let solve_req ?(objective = Ob.min_cost ~target:70) ?pricebook () =
  Pr.Solve
    { id = None; trace_id = None; tenant = None;
      source = Pr.Ref "app"; objective; pricebook; spec = S.Auto;
      budget = None; reuse = Pr.Monotone }

let solved1 engine req =
  match E.handle engine req with
  | [ Pr.Solved { status; cost; served; _ } ] -> (status, cost, served)
  | [ Pr.Error { message; _ } ] -> Alcotest.fail ("engine error: " ^ message)
  | _ -> Alcotest.fail "expected exactly one solved response"

let served_is what expected (_, _, served) =
  Alcotest.(check string) what
    (Pr.served_to_string expected)
    (Pr.served_to_string served)

let test_engine_ladder_never_crosses_objectives () =
  let e = E.create () in
  ignore (E.register e ~name:"app" illustrating);
  (* Prime the min-cost side of the cache generously. *)
  List.iter
    (fun target ->
      ignore (solved1 e (solve_req ~objective:(Ob.min_cost ~target) ())))
    [ 50; 60; 70; 80 ];
  (* The first max-throughput solve must go cold: nothing on the
     min-cost side may answer it. *)
  let mt = solve_req ~objective:(Ob.max_throughput ~budget:120) () in
  let first = solved1 e mt in
  served_is "max-throughput goes cold despite a warm min-cost cache" Pr.Cold
    first;
  let status, cost, _ = first in
  Alcotest.(check bool) "dual solve is optimal and affordable" true
    (status = S.Optimal && cost <= 120);
  (* Replaying it is an exact hit on its own (objective-tagged) key. *)
  served_is "replay is an exact hit" Pr.Exact_hit (solved1 e mt);
  (* A looser budget is served from the tight-budget optimal entry —
     the dual monotone rung. *)
  served_is "larger budget served monotone" Pr.Monotone_hit
    (solved1 e (solve_req ~objective:(Ob.max_throughput ~budget:150) ()));
  (* And the min-cost side still exact-hits its own entries. *)
  served_is "min-cost replay still exact-hits" Pr.Exact_hit
    (solved1 e (solve_req ~objective:(Ob.min_cost ~target:70) ()))

(* One type at cost 1 per 100 units of throughput: a budget near
   max_int affords a fluid throughput past max_int, which no int
   allocation carries. Both surfaces reject it up front with an error
   that names the budget: [Solver.run], which the CLI calls and whose
   [Invalid_argument] it prints, and the daemon's engine, whose reply
   is that message and not a [Failure(...)]. *)
let test_budget_past_max_int_rejected () =
  let cheap =
    P.create (PF.of_list [ (1, 100) ])
      [| Rentcost.Task_graph.chain ~ntypes:1 ~types:[| 0 |] |]
  in
  let budget = max_int in
  let objective = Ob.max_throughput ~budget in
  let named what msg =
    Alcotest.(check bool)
      (Printf.sprintf "%s names the budget (%s)" what msg)
      true
      (contains ~sub:(string_of_int budget) msg
      && not (contains ~sub:"Failure(" msg))
  in
  (match
     S.run (I.compile ~scenario:(Sc.make ~objective ()) cheap) ~objective
   with
   | exception Invalid_argument msg -> named "Solver.run" msg
   | _ -> Alcotest.fail "Solver.run answered a budget past max_int");
  let e = E.create () in
  ignore (E.register e ~name:"app" cheap);
  match E.handle e (solve_req ~objective ()) with
  | [ Pr.Error { message; _ } ] -> named "the daemon's reply" message
  | _ -> Alcotest.fail "the daemon answered a budget past max_int"

(* Two single-task recipes on types priced near max_int / 1024 and
   max_int / 512: every split of 20000 may cost up to
   ⌈20000 · max_j u_j⌉ + Σ_q c_q, past max_int, where the int costs of
   every engine wrapped (a negative "optimal" cost from the exhaustive
   oracle, a Failure from the ILP). Both surfaces refuse that target,
   naming it, on every engine, and still answer 5000 exactly. A
   max-throughput budget of max_int reaches such splits too: the
   exhaustive oracle refuses it, naming the budget, and the ILP, which
   prunes every bound past max_int, answers within the money. *)
let test_split_cost_past_max_int_rejected () =
  let big =
    P.create
      (PF.of_list [ (4503599627370495, 10); (9007199254740990, 25) ])
      [| Rentcost.Task_graph.chain ~ntypes:2 ~types:[| 0 |];
         Rentcost.Task_graph.chain ~ntypes:2 ~types:[| 1 |] |]
  in
  let refused what ~sub msg =
    Alcotest.(check bool)
      (Printf.sprintf "%s names %s (%s)" what sub msg)
      true
      (contains ~sub msg && not (contains ~sub:"Failure(" msg))
  in
  let e = E.create () in
  ignore (E.register e ~name:"app" big);
  let request spec target =
    Pr.Solve
      { id = None; trace_id = None; tenant = None; source = Pr.Ref "app";
        objective = Ob.min_cost ~target; pricebook = None; spec; budget = None;
        reuse = Pr.No_reuse }
  in
  List.iter
    (fun spec ->
      let name = S.spec_to_string spec in
      let objective = Ob.min_cost ~target:20000 in
      (match S.run ~spec (I.compile big) ~objective with
       | exception Invalid_argument msg ->
         refused ("Solver.run, " ^ name) ~sub:"target 20000" msg
       | _ -> Alcotest.fail (name ^ ": Solver.run answered target 20000"));
      (match E.handle e (request spec 20000) with
       | [ Pr.Error { message; _ } ] ->
         refused ("the daemon's reply, " ^ name) ~sub:"target 20000" message
       | _ -> Alcotest.fail (name ^ ": the daemon answered target 20000"));
      let objective = Ob.min_cost ~target:5000 in
      let o = S.run ~spec (I.compile big) ~objective in
      Alcotest.(check (option int)) (name ^ ": Solver.run at 5000")
        (Some 1801439850948198000)
        (Option.map (fun a -> a.AL.cost) o.S.allocation);
      let _, cost, _ = solved1 e (request spec 5000) in
      Alcotest.(check int) (name ^ ": the daemon at 5000") 1801439850948198000 cost)
    [ S.Exhaustive; S.Heuristic Rentcost.Heuristics.H1; S.Exact_ilp; S.Auto ];
  let objective = Ob.max_throughput ~budget:max_int in
  let dual spec =
    S.run ~spec (I.compile ~scenario:(Sc.make ~objective ()) big) ~objective
  in
  (match dual S.Exhaustive with
   | exception Invalid_argument msg ->
     refused "a max-throughput exhaustive solve" ~sub:(string_of_int max_int) msg
   | _ -> Alcotest.fail "the exhaustive oracle answered a budget of max_int");
  let o = dual S.Exact_ilp in
  match o.S.allocation with
  | Some a ->
    Alcotest.(check int) "the ILP's throughput" 12800 o.S.throughput;
    let module B = Numeric.Bigint in
    let exact =
      Array.fold_left B.add B.zero
        (Array.mapi
           (fun q x -> B.mul (B.of_int x) (B.of_int (PF.cost (P.platform big) q)))
           a.AL.machines)
    in
    Alcotest.(check string) "the ILP's cost, priced without wrapping"
      (B.to_string exact) (string_of_int a.AL.cost);
    Alcotest.(check bool) "the ILP's split is feasible" true
      (AL.feasible big ~target:o.S.throughput a)
  | None -> Alcotest.fail "the ILP found no allocation"

let test_engine_pricebook_solves () =
  let e = E.create () in
  ignore (E.register e ~name:"app" illustrating);
  let plain = solved1 e (solve_req ()) in
  let multi = solved1 e (solve_req ~pricebook:clouds ()) in
  (* Distinct price books land on distinct cache keys. *)
  served_is "pricebook solve goes cold" Pr.Cold multi;
  served_is "pricebook replay exact-hits" Pr.Exact_hit
    (solved1 e (solve_req ~pricebook:clouds ()));
  let _, plain_cost, _ = plain and _, multi_cost, _ = multi in
  Alcotest.(check bool) "multicloud undercuts single-cloud" true
    (multi_cost < plain_cost);
  (* Identical-price books compile bit-identically to the single-cloud
     instance, so the plain entry answers exactly. *)
  served_is "identical-price books share the single-cloud cache" Pr.Exact_hit
    (solved1 e (solve_req ~pricebook:identical_books ()))

(* --- qcheck: duality across random budgets --- *)

let prop name count gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* A small shared-types problem: three types, and two to four recipes
   that all run a task on type 0 before one to three tasks on types 1
   and 2. *)
let shared_types_gen =
  QCheck2.Gen.(
    pair
      (list_size (return 3) (pair (int_range 1 20) (int_range 1 20)))
      (list_size (int_range 2 4) (list_size (int_range 1 3) (int_range 1 2))))

let shared_types_problem (machines, recipes) =
  P.create (PF.of_list machines)
    (Array.of_list
       (List.map
          (fun types ->
            Rentcost.Task_graph.chain ~ntypes:3
              ~types:(Array.of_list (0 :: types)))
          recipes))

let props =
  [ prop "duality: min-cost at the achieved throughput fits the budget" 25
      QCheck2.Gen.(pair (opt shared_types_gen) (int_range 0 300))
      (fun (generated, budget) ->
        (* The illustrating problem, or a generated one on the ILP. *)
        let problem, spec =
          match generated with
          | None -> (illustrating, None)
          | Some g -> (shared_types_problem g, Some S.Exact_ilp)
        in
        let run objective =
          S.run ?spec
            (I.compile ~scenario:(Sc.make ~objective ()) problem)
            ~objective
        in
        let dual = run (Ob.max_throughput ~budget) in
        let recheck = run (Ob.min_cost ~target:dual.S.throughput) in
        cost_of dual <= budget
        && cost_of recheck <= budget
        && (dual.S.status <> S.Optimal
           (* an optimal reply costs the min cost at its throughput,
              and one more unit of throughput must not fit *)
           || cost_of dual = cost_of recheck
              && cost_of (run (Ob.min_cost ~target:(dual.S.throughput + 1)))
                 > budget));
    prop "fingerprints: objective and pricebook axes both key the cache" 10
      QCheck2.Gen.(int_range 1 1000)
      (fun scalar ->
        let mc = I.compile illustrating in
        let mt =
          I.compile ~scenario:(Sc.max_throughput ~budget:scalar ())
            illustrating
        in
        let pb =
          I.compile
            ~scenario:(Sc.min_cost ~pricebook:clouds ~target:scalar ())
            illustrating
        in
        I.fingerprint mc <> I.fingerprint mt
        && I.fingerprint mc <> I.fingerprint pb
        && I.fingerprint mt <> I.fingerprint pb) ]

let suite =
  ( "scenario",
    [ Alcotest.test_case "objective basics" `Quick test_objective_basics;
      Alcotest.test_case "pricebook effective costs" `Quick
        test_pricebook_effective_costs;
      Alcotest.test_case "pricebook text round-trip" `Quick
        test_pricebook_roundtrip;
      Alcotest.test_case "pricebook version rejected" `Quick
        test_pricebook_version_rejected;
      Alcotest.test_case "fingerprints diverge across objectives" `Quick
        test_fingerprints_diverge_across_objectives;
      Alcotest.test_case "fingerprints diverge across pricebooks" `Quick
        test_fingerprints_diverge_across_pricebooks;
      Alcotest.test_case "identical books bit-identical" `Quick
        test_identical_books_bit_identical;
      Alcotest.test_case "multicloud prices flow through" `Quick
        test_multicloud_prices_flow_through;
      Alcotest.test_case "dual matches linear scan" `Quick
        test_dual_matches_linear_scan;
      Alcotest.test_case "dual zero budget" `Quick test_dual_zero_budget;
      Alcotest.test_case "fluid bound brackets the dual" `Quick
        test_fluid_bound_brackets;
      Alcotest.test_case "dual max_int budget" `Quick
        test_dual_max_int_budget;
      Alcotest.test_case "dual budgeted probes" `Quick
        test_dual_budgeted_probes;
      Alcotest.test_case "objective-kind mismatch rejected" `Quick
        test_objective_kind_mismatch;
      Alcotest.test_case "problem_format version" `Quick
        test_problem_format_version;
      Alcotest.test_case "protocol version" `Quick test_protocol_version;
      Alcotest.test_case "protocol objective round-trip" `Quick
        test_protocol_objective_roundtrip;
      Alcotest.test_case "cache find_monotone_le" `Quick
        test_find_monotone_le;
      Alcotest.test_case "engine ladder never crosses objectives" `Quick
        test_engine_ladder_never_crosses_objectives;
      Alcotest.test_case "engine pricebook solves" `Quick
        test_engine_pricebook_solves;
      Alcotest.test_case "budget past max_int rejected" `Quick
        test_budget_past_max_int_rejected;
      Alcotest.test_case "split cost past max_int rejected" `Quick
        test_split_cost_past_max_int_rejected ]
    @ props )
