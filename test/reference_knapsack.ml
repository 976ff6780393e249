(* The paper's § V-A knapsack encoding of the covering problem, kept
   beside the tests as a second route to {!Knapsack.min_cost_cover}:
   an unbounded knapsack DP (Definition 2 of the paper) and the
   reduction of covering to it. [Test_knapsack] checks that both
   routes agree. *)

open Knapsack

(* An item for the classic maximization form. *)
type item = { value : int; weight : int }

(* [unbounded_max ~items ~capacity] maximizes [Σ xᵢ·valueᵢ] subject to
   [Σ xᵢ·weightᵢ <= capacity], [xᵢ ∈ ℕ], in [O(n·capacity)] time.
   Items with non-positive weight must not have positive value. *)
let unbounded_max ~items ~capacity =
  if capacity < 0 then invalid_arg "Reference_knapsack.unbounded_max: negative capacity";
  Array.iter
    (fun { value; weight } ->
      if weight <= 0 && value > 0 then
        invalid_arg "Reference_knapsack.unbounded_max: unbounded instance")
    items;
  (* dp.(w) = best value within capacity w. Inheriting from w-1 makes
     dp monotone, which the reconstruction below relies on. *)
  let dp = Array.make (capacity + 1) 0 in
  for w = 1 to capacity do
    dp.(w) <- dp.(w - 1);
    Array.iter
      (fun { value; weight } ->
        if weight > 0 && weight <= w && dp.(w - weight) + value > dp.(w) then
          dp.(w) <- dp.(w - weight) + value)
      items
  done;
  (* Reconstruction: at each residual capacity either some item of
     positive value explains dp.(w), or the value was inherited from
     dp.(w-1). Items have positive weight, so both moves shrink w. *)
  let counts = Array.make (Array.length items) 0 in
  let w = ref capacity in
  while !w > 0 do
    let found = ref false in
    Array.iteri
      (fun i { value; weight } ->
        if (not !found) && weight > 0 && weight <= !w && value > 0
           && dp.(!w - weight) + value = dp.(!w)
        then begin
          found := true;
          counts.(i) <- counts.(i) + 1;
          w := !w - weight
        end)
      items;
    if not !found then decr w
  done;
  { best = dp.(capacity); counts }

(* [cover_of_knapsack ~items ~demand] is {!Knapsack.min_cost_cover}
   solved through the knapsack encoding; same contract. *)
let cover_of_knapsack ~items ~demand =
  (* The paper's § V-A encoding turns covering into an unbounded
     knapsack (value -c_q, weight -r_q, capacity -ρ). Running a DP over
     negated quantities is awkward, so we use the equivalent classic
     reduction through the knapsack *maximization* solved above:
     with weights = costs and values = yields, [unbounded_max ~capacity:budget]
     gives the largest throughput achievable within a rental budget.
     Throughput is monotone in budget, so the least budget whose
     optimal throughput reaches the demand is the covering optimum —
     found by binary search between 0 and a trivial single-type
     upper bound. Tests assert this agrees with {!min_cost_cover}. *)
  Array.iter
    (fun { cost; _ } ->
      if cost < 0 then invalid_arg "Knapsack: negative cost makes covering unbounded")
    items;
  let n = Array.length items in
  if demand <= 0 then Some { best = 0; counts = Array.make n 0 }
  else begin
    match
      Array.to_seqi items
      |> Seq.find (fun (_, { cost; yield }) -> cost = 0 && yield > 0)
    with
    | Some (i, { yield; _ }) ->
      (* Free machines: cover everything at zero cost. *)
      let counts = Array.make n 0 in
      counts.(i) <- (demand + yield - 1) / yield;
      Some { best = 0; counts }
    | None ->
    let ub =
      Array.fold_left
        (fun acc { cost; yield } ->
          if yield <= 0 then acc
          else begin
            let machines = ((demand + yield - 1) / yield) in
            let total = machines * cost in
            match acc with Some b -> Some (min b total) | None -> Some total
          end)
        None items
    in
    match ub with
    | None -> None
    | Some ub ->
      let kitems =
        Array.map (fun { cost; yield } -> { value = max 0 yield; weight = cost }) items
      in
      let throughput budget = (unbounded_max ~items:kitems ~capacity:budget).best in
      let rec search lo hi =
        (* invariant: throughput hi >= demand, throughput (lo-1) < demand *)
        if lo >= hi then hi
        else begin
          let mid = (lo + hi) / 2 in
          if throughput mid >= demand then search lo mid else search (mid + 1) hi
        end
      in
      let budget = search 0 ub in
      Some { best = budget; counts = (unbounded_max ~items:kitems ~capacity:budget).counts }
  end
