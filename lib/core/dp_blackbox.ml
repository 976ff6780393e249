let run instance ~target =
  if not (Instance.is_blackbox instance) then
    invalid_arg "Dp_blackbox.run: instance is not black-box (one task per \
                 recipe, pairwise distinct types)";
  if target < 0 then invalid_arg "Dp_blackbox.run: negative target";
  let j_count = Instance.num_recipes instance in
  (* Surviving recipe j is a single task of some type q_j (its support
     is exactly {(q_j, 1)}); renting one machine of that type yields
     r_{q_j} results at cost c_{q_j}. *)
  let type_of_recipe =
    Array.init j_count (fun j -> (Instance.support instance j).Instance.types.(0))
  in
  let items =
    Array.map
      (fun q ->
        { Knapsack.cost = Instance.type_cost instance q;
          yield = Instance.type_throughput instance q })
      type_of_recipe
  in
  match Knapsack.min_cost_cover ~items ~demand:target with
  | None -> assert false (* platforms have positive throughputs *)
  | Some { Knapsack.best; counts } ->
    (* Spread the target over recipes up to each fleet's capacity so
       that Σ ρ_j = target exactly. *)
    let rho = Array.make j_count 0 in
    let remaining = ref target in
    Array.iteri
      (fun j n ->
        let cap = n * items.(j).Knapsack.yield in
        let take = min cap !remaining in
        rho.(j) <- take;
        remaining := !remaining - take)
      counts;
    assert (!remaining = 0);
    let machines = Array.make (Instance.num_types instance) 0 in
    Array.iteri
      (fun j n ->
        machines.(type_of_recipe.(j)) <- machines.(type_of_recipe.(j)) + n)
      counts;
    let rho = Instance.expand_rho instance rho in
    let alloc = Allocation.make (Instance.problem instance) ~rho ~machines in
    assert (alloc.Allocation.cost = best);
    alloc
