let run instance ~target =
  if target < 0 then invalid_arg "Exhaustive.run: negative target";
  let j_count = Instance.num_recipes instance in
  let o = Instance.Oracle.create instance in
  let best_cost = ref max_int and best_rho = ref [||] in
  (* Enumerate compositions over the (dominance-pruned) compact recipe
     space: assign to recipe j any amount of what is left, the last
     recipe takes the remainder, priced without a move. Each unit
     assigned is one O(|supp|) incremental re-price, and one negative
     apply restores a level exactly. *)
  let rec go j remaining =
    if j = j_count - 1 then begin
      let c = Instance.Oracle.price o ~j ~drho:remaining in
      if c < !best_cost then begin
        best_cost := c;
        best_rho := Instance.Oracle.rho o;
        !best_rho.(j) <- remaining
      end
    end
    else begin
      go (j + 1) remaining;
      for v = 1 to remaining do
        Instance.Oracle.apply o ~j ~drho:1;
        go (j + 1) (remaining - v)
      done;
      Instance.Oracle.apply o ~j ~drho:(-remaining)
    end
  in
  go 0 target;
  Allocation.of_rho (Instance.problem instance)
    ~rho:(Instance.expand_rho instance !best_rho)
