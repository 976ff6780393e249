(* Tests for the six § VI heuristics: exact H1 reproduction of
   Table III, dominance/feasibility invariants for all heuristics,
   determinism by seed, and the paper's quality ordering on the
   illustrating example. *)

module PB = Rentcost.Problem
module AL = Rentcost.Allocation
module H = Rentcost.Heuristics
module ILP = Rentcost.Ilp
module Prng = Numeric.Prng

let illustrating = Rentcost.Instance.compile PB.illustrating

let params10 = { H.default_params with step = 10 }

let cost (res : H.result) = res.H.allocation.AL.cost

(* H1 column of Table III, all 20 rows. *)
let table3_h1 =
  [ (10, 28); (20, 38); (30, 58); (40, 69); (50, 104); (60, 114); (70, 138);
    (80, 138); (90, 174); (100, 189); (110, 199); (120, 199); (130, 256);
    (140, 257); (150, 257); (160, 276); (170, 315); (180, 315); (190, 340);
    (200, 340) ]

let test_h1_table3 () =
  List.iter
    (fun (target, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "H1 at rho=%d" target)
        expected
        (cost (H.search H.H1 illustrating ~target)))
    table3_h1

let test_h1_single_recipe () =
  let p =
    PB.create Rentcost.Platform.table2
      [| Rentcost.Task_graph.chain ~ntypes:4 ~types:[| 0; 1 |] |]
  in
  let res = H.search H.H1 (Rentcost.Instance.compile p) ~target:30 in
  Alcotest.(check (array int)) "all throughput on the only recipe" [| 30 |]
    res.H.allocation.AL.rho

let test_all_heuristics_feasible () =
  let rng () = Prng.create 7 in
  List.iter
    (fun name ->
      List.iter
        (fun target ->
          let res =
            H.search ~params:params10 ~rng:(rng ()) name illustrating ~target
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s feasible at %d" (H.name_to_string name) target)
            true
            (AL.feasible PB.illustrating ~target res.H.allocation);
          Alcotest.(check int)
            (Printf.sprintf "%s split sums to target" (H.name_to_string name))
            target
            (AL.total_rho res.H.allocation))
        [ 0; 10; 70; 155; 200 ])
    H.all

let test_heuristics_never_beat_ilp () =
  let rng () = Prng.create 11 in
  List.iter
    (fun target ->
      let opt =
        match (ILP.optimize illustrating ~target).ILP.allocation with
        | Some a -> a.AL.cost
        | None -> Alcotest.fail "ilp failed"
      in
      List.iter
        (fun name ->
          let c =
            cost
              (H.search ~params:params10 ~rng:(rng ()) name
                 illustrating ~target)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s >= ILP at %d" (H.name_to_string name) target)
            true (c >= opt))
        H.all)
    [ 10; 50; 90; 160 ]

let test_improvers_never_worse_than_h1 () =
  (* H2, H31, H32, H32Jump all start from H1 and only keep improvements
     (H2/H32Jump remember the best visited point). *)
  let rng () = Prng.create 13 in
  List.iter
    (fun target ->
      let h1 = cost (H.search H.H1 illustrating ~target) in
      List.iter
        (fun name ->
          let c =
            cost
              (H.search ~params:params10 ~rng:(rng ()) name
                 illustrating ~target)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s <= H1 at %d" (H.name_to_string name) target)
            true (c <= h1))
        [ H.H2; H.H31; H.H32; H.H32_jump ])
    [ 10; 50; 70; 130; 200 ]

let test_h32jump_finds_table3_improvements () =
  (* Rows where the paper's H32Jump improves on H1: it must reach the
     published cost or better. *)
  List.iter
    (fun (target, paper_value) ->
      let rng = Prng.create 42 in
      let c =
        cost (H.search ~params:params10 ~rng H.H32_jump illustrating ~target)
      in
      Alcotest.(check bool)
        (Printf.sprintf "H32Jump at %d: %d <= %d" target c paper_value)
        true (c <= paper_value))
    [ (50, 86); (60, 107); (70, 124); (90, 155); (100, 172); (130, 224);
      (170, 285); (200, 333) ]

let test_determinism_by_seed () =
  List.iter
    (fun name ->
      let run () =
        H.search ~params:params10 ~rng:(Prng.create 99) name
          illustrating ~target:120
      in
      let a = run () and b = run () in
      Alcotest.(check int)
        (Printf.sprintf "%s deterministic" (H.name_to_string name))
        (cost a) (cost b);
      Alcotest.(check (array int)) "same split" a.H.allocation.AL.rho b.H.allocation.AL.rho)
    H.all

let test_h0_uniform_split_properties () =
  let rng = Prng.create 3 in
  for target = 0 to 50 do
    let res = H.search ~rng H.H0 illustrating ~target in
    Alcotest.(check int) "sums to target" target (AL.total_rho res.H.allocation)
  done

let test_h31_patience_stops () =
  (* With zero patience H31 must return the H1 point untouched. *)
  let params = { params10 with patience = 0 } in
  let rng = Prng.create 5 in
  let h31 = H.search ~params ~rng H.H31 illustrating ~target:70 in
  let h1 = H.search H.H1 illustrating ~target:70 in
  Alcotest.(check int) "H31 = H1" (cost h1) (cost h31)

let test_h2_zero_iterations_is_h1 () =
  let params = { params10 with iterations = 0 } in
  let rng = Prng.create 5 in
  Alcotest.(check int) "H2 = H1"
    (cost (H.search H.H1 illustrating ~target:90))
    (cost (H.search ~params ~rng H.H2 illustrating ~target:90))

let test_evaluation_counts () =
  (* H1 evaluates exactly J splits; the walkers evaluate J + iterations. *)
  let h1 = H.search H.H1 illustrating ~target:50 in
  Alcotest.(check int) "H1 evals" 3 h1.H.evaluations;
  let params = { params10 with iterations = 17 } in
  let h2 = H.search ~params ~rng:(Prng.create 1) H.H2 illustrating ~target:50 in
  Alcotest.(check int) "H2 evals" (3 + 17) h2.H.evaluations

let test_negative_target_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "Heuristics: negative target")
    (fun () -> ignore (H.search H.H1 illustrating ~target:(-1)))

let test_bad_params_rejected () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "zero step" (Invalid_argument "Heuristics: step must be positive")
    (fun () ->
      ignore
        (H.search
           ~params:{ H.default_params with step = 0 }
           ~rng H.H2 illustrating ~target:10));
  Alcotest.check_raises "negative jumps"
    (Invalid_argument "Heuristics: negative iteration parameter") (fun () ->
      ignore
        (H.search
           ~params:{ H.default_params with jumps = -1 }
           ~rng H.H32_jump illustrating ~target:10))

(* qcheck: invariants on random targets and seeds. *)
let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen f)

let gen = QCheck2.Gen.(pair (int_range 0 200) (int_range 0 10000))

let props =
  [ prop "every heuristic returns a feasible exact-sum split" gen
      (fun (target, seed) ->
        List.for_all
          (fun name ->
            let res =
              H.search ~params:params10 ~rng:(Prng.create seed)
                name illustrating ~target
            in
            AL.feasible PB.illustrating ~target res.H.allocation
            && AL.total_rho res.H.allocation = target)
          H.all);
    prop "H32 is a local minimum for single-step moves" gen (fun (target, _) ->
        let res = H.search ~params:params10 H.H32 illustrating ~target in
        let rho = res.H.allocation.AL.rho in
        let base = res.H.allocation.AL.cost in
        let ok = ref true in
        Array.iteri
          (fun j1 _ ->
            Array.iteri
              (fun j2 _ ->
                if j1 <> j2 && rho.(j1) > 0 then begin
                  let d = min 10 rho.(j1) in
                  let rho' = Array.copy rho in
                  rho'.(j1) <- rho'.(j1) - d;
                  rho'.(j2) <- rho'.(j2) + d;
                  if (AL.of_rho PB.illustrating ~rho:rho').AL.cost < base then ok := false
                end)
              rho)
          rho;
        !ok) ]

let suite =
  ( "heuristics",
    [ Alcotest.test_case "H1: all 20 Table III rows" `Quick test_h1_table3;
      Alcotest.test_case "H1 single recipe" `Quick test_h1_single_recipe;
      Alcotest.test_case "all heuristics feasible" `Quick test_all_heuristics_feasible;
      Alcotest.test_case "never beat the ILP" `Quick test_heuristics_never_beat_ilp;
      Alcotest.test_case "improvers never worse than H1" `Quick
        test_improvers_never_worse_than_h1;
      Alcotest.test_case "H32Jump reaches Table III improvements" `Quick
        test_h32jump_finds_table3_improvements;
      Alcotest.test_case "determinism by seed" `Quick test_determinism_by_seed;
      Alcotest.test_case "H0 split properties" `Quick test_h0_uniform_split_properties;
      Alcotest.test_case "H31 zero patience" `Quick test_h31_patience_stops;
      Alcotest.test_case "H2 zero iterations" `Quick test_h2_zero_iterations_is_h1;
      Alcotest.test_case "evaluation counts" `Quick test_evaluation_counts;
      Alcotest.test_case "negative target rejected" `Quick test_negative_target_rejected;
      Alcotest.test_case "bad params rejected" `Quick test_bad_params_rejected ]
    @ props )
