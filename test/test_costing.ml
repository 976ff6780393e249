(* Tests for the closed-form costs of § IV: single-graph and
   independent-applications formulas, checked through
   {!Rentcost.Allocation} against hand calculations and against each
   other. *)

module TG = Rentcost.Task_graph
module PF = Rentcost.Platform
module PB = Rentcost.Problem
module AL = Rentcost.Allocation

(* § IV-A: [C(ρ) = Σ_q ⌈n_q·ρ / r_q⌉·c_q] for recipe [j] alone,
   straight from the formula. *)
let single_graph problem ~j ~target =
  let platform = PB.platform problem in
  let cost q n_q =
    let r_q = PF.throughput platform q in
    ((n_q * target) + r_q - 1) / r_q * PF.cost platform q
  in
  Array.fold_left ( + ) 0 (Array.mapi cost (PB.type_counts problem j))

(* § IV-B: every recipe [j] at [rho.(j)], machines of a type shared
   across recipes: [Σ_q ⌈(Σ_j n^j_q·ρ_j) / r_q⌉·c_q]. *)
let independent problem ~rho = (AL.of_rho problem ~rho).AL.cost

(* The § IV-B cost by machine type ([C_q] of the paper). *)
let per_type problem ~rho =
  let platform = PB.platform problem in
  Array.mapi (fun q x -> x * PF.cost platform q) (AL.of_rho problem ~rho).AL.machines

(* § IV-A on a recipe with repeated types: n = (2 of type 0, 1 of type 1),
   r = (3, 5), c = (7, 11). For ρ = 4: x0 = ⌈8/3⌉ = 3, x1 = ⌈4/5⌉ = 1,
   cost = 21 + 11 = 32. *)
let repeated_types_problem =
  PB.create
    (PF.of_list [ (7, 3); (11, 5) ])
    [| TG.chain ~ntypes:2 ~types:[| 0; 1; 0 |] |]

let test_single_graph_hand () =
  Alcotest.(check int) "rho 4" 32 (single_graph repeated_types_problem ~j:0 ~target:4);
  Alcotest.(check int) "rho 0" 0 (single_graph repeated_types_problem ~j:0 ~target:0);
  (* rho 3: x0 = ⌈6/3⌉ = 2 -> 14, x1 = ⌈3/5⌉ = 1 -> 11; total 25 *)
  Alcotest.(check int) "rho 3" 25 (single_graph repeated_types_problem ~j:0 ~target:3)

let test_single_graph_table3_h1 () =
  (* H1 column of Table III is min_j single_graph: spot-check values. *)
  let p = PB.illustrating in
  let h1 target =
    List.fold_left min max_int
      (List.init 3 (fun j -> single_graph p ~j ~target))
  in
  List.iter
    (fun (target, expected) ->
      Alcotest.(check int) (Printf.sprintf "H1(%d)" target) expected (h1 target))
    [ (10, 28); (20, 38); (30, 58); (40, 69); (50, 104); (70, 138); (120, 199);
      (160, 276); (200, 340) ]

(* § IV-B: two recipes sharing type 0; machines pool across recipes. *)
let shared_pool_problem =
  PB.create
    (PF.of_list [ (5, 10); (9, 10) ])
    [| TG.chain ~ntypes:2 ~types:[| 0; 1 |]; TG.chain ~ntypes:2 ~types:[| 0; 0 |] |]

let test_independent_pools_machines () =
  (* rho = (5, 5): load0 = 5 + 2*5 = 15 -> x0 = 2; load1 = 5 -> x1 = 1.
     Cost = 10 + 9 = 19. Summing per-recipe costs would give
     (1+1)*5... i.e. recipe-separate ceils = ⌈5/10⌉ + ⌈10/10⌉ = 2 for
     type 0 as well here, but at rho=(5,2) pooling wins:
     load0 = 9 -> 1 machine vs separate ⌈5/10⌉+⌈4/10⌉ = 2. *)
  Alcotest.(check int) "pooled" 19 (independent shared_pool_problem ~rho:[| 5; 5 |]);
  let pooled = independent shared_pool_problem ~rho:[| 5; 2 |] in
  let separate =
    single_graph shared_pool_problem ~j:0 ~target:5
    + single_graph shared_pool_problem ~j:1 ~target:2
  in
  Alcotest.(check int) "pooled cheaper" 14 pooled;
  Alcotest.(check bool) "pooling <= separate" true (pooled <= separate);
  Alcotest.(check int) "separate pays twice" 19 separate

let test_per_type_sums_to_independent () =
  let p = PB.illustrating in
  let rho = [| 10; 30; 30 |] in
  let per = per_type p ~rho in
  Alcotest.(check int) "sum" (independent p ~rho) (Array.fold_left ( + ) 0 per);
  Alcotest.(check (array int)) "per-type detail" [| 30; 36; 25; 33 |] per

let test_single_graph_is_independent_special_case () =
  let p = PB.illustrating in
  for j = 0 to 2 do
    let rho = Array.make 3 0 in
    rho.(j) <- 40;
    Alcotest.(check int)
      (Printf.sprintf "recipe %d" j)
      (independent p ~rho)
      (single_graph p ~j ~target:40)
  done

(* qcheck: ceiling formula sanity over random platforms. *)
let gen =
  QCheck2.Gen.(
    pair (pair (int_range 1 20) (int_range 1 20)) (pair (int_range 1 20) (int_range 0 100)))

let prop name g f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name g f)

let props =
  [ prop "single graph cost formula" gen (fun ((c, r), (n, rho)) ->
        let types = Array.make n 0 in
        let p = PB.create (PF.of_list [ (c, r) ]) [| TG.chain ~ntypes:1 ~types |] in
        let expected = ((n * rho) + r - 1) / r * c in
        single_graph p ~j:0 ~target:rho = expected);
    prop "cost superadditive under split" gen (fun ((c, r), (n, rho)) ->
        (* Splitting a load across two separately-ceiled recipes never
           beats pooling: ⌈a+b⌉-style inequality on machine counts. *)
        let types = Array.make n 0 in
        let g = TG.chain ~ntypes:1 ~types in
        let p = PB.create (PF.of_list [ (c, r) ]) [| g; g |] in
        let half = rho / 2 in
        let pooled = independent p ~rho:[| half; rho - half |] in
        let separate =
          single_graph p ~j:0 ~target:half + single_graph p ~j:1 ~target:(rho - half)
        in
        pooled <= separate) ]

let suite =
  ( "costing",
    [ Alcotest.test_case "single graph hand-checked" `Quick test_single_graph_hand;
      Alcotest.test_case "H1 column of Table III" `Quick test_single_graph_table3_h1;
      Alcotest.test_case "independent pools machines" `Quick
        test_independent_pools_machines;
      Alcotest.test_case "per-type sums to total" `Quick test_per_type_sums_to_independent;
      Alcotest.test_case "single graph = independent special case" `Quick
        test_single_graph_is_independent_special_case ]
    @ props )
