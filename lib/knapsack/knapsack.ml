type cover_item = { cost : int; yield : int }

type 'a dp_solution = { best : 'a; counts : int array }

let min_cost_cover ~items ~demand =
  Array.iter
    (fun { cost; _ } ->
      if cost < 0 then invalid_arg "Knapsack: negative cost makes covering unbounded")
    items;
  if demand <= 0 then Some { best = 0; counts = Array.make (Array.length items) 0 }
  else if not (Array.exists (fun { yield; _ } -> yield > 0) items) then None
  else begin
    (* dp.(t) = min cost to cover a residual demand of t. *)
    let inf = max_int / 2 in
    let dp = Array.make (demand + 1) inf in
    let choice = Array.make (demand + 1) (-1) in
    dp.(0) <- 0;
    for t = 1 to demand do
      Array.iteri
        (fun i { cost; yield } ->
          if yield > 0 then begin
            let prev = dp.(max 0 (t - yield)) in
            if prev + cost < dp.(t) then begin
              dp.(t) <- prev + cost;
              choice.(t) <- i
            end
          end)
        items
    done;
    let counts = Array.make (Array.length items) 0 in
    let t = ref demand in
    while !t > 0 do
      let i = choice.(!t) in
      assert (i >= 0);
      counts.(i) <- counts.(i) + 1;
      t := max 0 (!t - items.(i).yield)
    done;
    Some { best = dp.(demand); counts }
  end
