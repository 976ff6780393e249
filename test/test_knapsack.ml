(* Tests for the knapsack DPs: hand cases, brute-force oracles, and the
   § V-A equivalence between the covering DP and the knapsack
   reduction. *)

module K = Knapsack
module Ref = Reference_knapsack

let item value weight = { Ref.value; weight }
let citem cost yield = { K.cost; yield }

(* --- unbounded_max --- *)

let test_unbounded_classic () =
  (* items (value,weight): (10,5) (40,4) (30,6) (50,3), capacity 10:
     best = 50 + 40 + ... weights 3+4=7, +3 no; 50+50? two of (50,3):
     weight 6 value 100, plus one more (50,3) -> 9, value 150. *)
  let items = [| item 10 5; item 40 4; item 30 6; item 50 3 |] in
  let { K.best; counts } = Ref.unbounded_max ~items ~capacity:10 in
  Alcotest.(check int) "best" 150 best;
  Alcotest.(check int) "three copies of item 3" 3 counts.(3)

let test_unbounded_zero_capacity () =
  let items = [| item 5 2 |] in
  let { K.best; counts } = Ref.unbounded_max ~items ~capacity:0 in
  Alcotest.(check int) "best 0" 0 best;
  Alcotest.(check int) "no items" 0 counts.(0)

let test_unbounded_no_items () =
  let { K.best; _ } = Ref.unbounded_max ~items:[||] ~capacity:10 in
  Alcotest.(check int) "best 0" 0 best

let test_unbounded_rejects_unbounded_instance () =
  Alcotest.check_raises "zero-weight positive value"
    (Invalid_argument "Reference_knapsack.unbounded_max: unbounded instance") (fun () ->
      ignore (Ref.unbounded_max ~items:[| item 1 0 |] ~capacity:3));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Reference_knapsack.unbounded_max: negative capacity") (fun () ->
      ignore (Ref.unbounded_max ~items:[| item 1 1 |] ~capacity:(-1)))

let test_unbounded_counts_consistent () =
  let items = [| item 7 3; item 9 4; item 2 1 |] in
  let { K.best; counts } = Ref.unbounded_max ~items ~capacity:17 in
  let value = ref 0 and weight = ref 0 in
  Array.iteri
    (fun i n ->
      value := !value + (n * items.(i).Ref.value);
      weight := !weight + (n * items.(i).Ref.weight))
    counts;
  Alcotest.(check int) "counts reach best" best !value;
  Alcotest.(check bool) "within capacity" true (!weight <= 17)

(* --- min_cost_cover --- *)

let test_cover_classic () =
  (* Table II as covering items: (10,10) (18,20) (25,30) (33,40). For a
     demand of 70 the cheapest fleet is P3+P4 = 58 (30+40 = 70). *)
  let items = [| citem 10 10; citem 18 20; citem 25 30; citem 33 40 |] in
  match K.min_cost_cover ~items ~demand:70 with
  | None -> Alcotest.fail "feasible"
  | Some { K.best; counts } ->
    Alcotest.(check int) "best" 58 best;
    let yield = ref 0 in
    Array.iteri (fun i n -> yield := !yield + (n * items.(i).K.yield)) counts;
    Alcotest.(check bool) "covers demand" true (!yield >= 70)

let test_cover_zero_demand () =
  match K.min_cost_cover ~items:[| citem 5 3 |] ~demand:0 with
  | Some { K.best; counts } ->
    Alcotest.(check int) "zero cost" 0 best;
    Alcotest.(check int) "zero machines" 0 counts.(0)
  | None -> Alcotest.fail "zero demand is trivially covered"

let test_cover_infeasible () =
  Alcotest.(check bool) "no positive yield" true
    (K.min_cost_cover ~items:[| citem 5 0 |] ~demand:3 = None);
  Alcotest.(check bool) "empty items" true (K.min_cost_cover ~items:[||] ~demand:3 = None)

let test_cover_negative_cost_rejected () =
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Knapsack: negative cost makes covering unbounded") (fun () ->
      ignore (K.min_cost_cover ~items:[| citem (-1) 2 |] ~demand:3))

let test_cover_free_item () =
  match Ref.cover_of_knapsack ~items:[| citem 3 2; citem 0 5 |] ~demand:11 with
  | Some { K.best; counts } ->
    Alcotest.(check int) "free coverage" 0 best;
    Alcotest.(check int) "uses the free type" 3 counts.(1)
  | None -> Alcotest.fail "feasible"

(* --- brute-force oracles and the § V-A equivalence --- *)

let brute_cover items demand =
  (* Bounded search: never more than demand copies of any item. *)
  let n = Array.length items in
  let best = ref None in
  let counts = Array.make n 0 in
  let rec go i yield cost =
    (match !best with Some (b, _) when cost >= b -> () | _ ->
      if yield >= demand then best := Some (cost, Array.copy counts)
      else if i < n then begin
        let { K.cost = c; yield = y } = items.(i) in
        if y <= 0 then go (i + 1) yield cost
        else begin
          let max_copies = ((demand - yield) + y - 1) / y in
          for k = 0 to max_copies do
            counts.(i) <- k;
            go (i + 1) (yield + (k * y)) (cost + (k * c))
          done;
          counts.(i) <- 0
        end
      end)
  in
  go 0 0 0;
  Option.map fst !best

let cover_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 4) (pair (int_range 0 15) (int_range 0 10)))
      (int_range 0 40))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

let props =
  [ prop "min_cost_cover matches brute force" cover_gen (fun (items, demand) ->
        let items = Array.of_list (List.map (fun (c, y) -> citem c y) items) in
        let dp = K.min_cost_cover ~items ~demand in
        let brute = brute_cover items demand in
        (match (dp, brute) with
         | Some { K.best; _ }, Some b -> best = b
         | None, None -> true
         | Some { K.best; _ }, None -> demand <= 0 && best = 0
         | None, Some _ -> false));
    prop "cover counts satisfy the demand at the stated cost" cover_gen
      (fun (items, demand) ->
        let items = Array.of_list (List.map (fun (c, y) -> citem c y) items) in
        match K.min_cost_cover ~items ~demand with
        | None -> true
        | Some { K.best; counts } ->
          let yield = ref 0 and cost = ref 0 in
          Array.iteri
            (fun i n ->
              yield := !yield + (n * items.(i).K.yield);
              cost := !cost + (n * items.(i).K.cost))
            counts;
          !yield >= demand && !cost = best);
    prop "knapsack reduction agrees with the covering DP (paper § V-A)"
      cover_gen
      (fun (items, demand) ->
        let items = Array.of_list (List.map (fun (c, y) -> citem c y) items) in
        match (K.min_cost_cover ~items ~demand, Ref.cover_of_knapsack ~items ~demand) with
        | Some a, Some b -> a.K.best = b.K.best
        | None, None -> true
        | _ -> false);
    prop "unbounded_max counts are optimal and within capacity"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 4) (pair (int_range 0 12) (int_range 1 8)))
          (int_range 0 30))
      (fun (items, capacity) ->
        let items = Array.of_list (List.map (fun (v, w) -> item v w) items) in
        let { K.best; counts } = Ref.unbounded_max ~items ~capacity in
        let value = ref 0 and weight = ref 0 in
        Array.iteri
          (fun i n ->
            value := !value + (n * items.(i).Ref.value);
            weight := !weight + (n * items.(i).Ref.weight))
          counts;
        !value = best && !weight <= capacity) ]

let suite =
  ( "knapsack",
    [ Alcotest.test_case "unbounded classic" `Quick test_unbounded_classic;
      Alcotest.test_case "unbounded zero capacity" `Quick test_unbounded_zero_capacity;
      Alcotest.test_case "unbounded no items" `Quick test_unbounded_no_items;
      Alcotest.test_case "unbounded rejects bad input" `Quick
        test_unbounded_rejects_unbounded_instance;
      Alcotest.test_case "unbounded counts consistent" `Quick
        test_unbounded_counts_consistent;
      Alcotest.test_case "cover classic (Table II)" `Quick test_cover_classic;
      Alcotest.test_case "cover zero demand" `Quick test_cover_zero_demand;
      Alcotest.test_case "cover infeasible" `Quick test_cover_infeasible;
      Alcotest.test_case "cover rejects negative cost" `Quick
        test_cover_negative_cost_rejected;
      Alcotest.test_case "cover free item" `Quick test_cover_free_item ]
    @ props )
