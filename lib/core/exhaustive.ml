let run instance ~target =
  if target < 0 then invalid_arg "Exhaustive.run: negative target";
  let j_count = Instance.num_recipes instance in
  let o = Instance.Oracle.create instance in
  let best_cost = ref max_int and best_rho = ref [||] in
  let consider () =
    let c = Instance.Oracle.cost o in
    if c < !best_cost then begin
      best_cost := c;
      best_rho := Instance.Oracle.rho o
    end
  in
  (* Enumerate compositions over the (dominance-pruned) compact recipe
     space: assign to recipe j any amount of what is left, the last
     recipe takes the remainder. Each unit assigned is one O(|supp|)
     incremental re-price; applies and undos are strictly balanced, so
     the oracle log stays bounded by the recursion depth. *)
  let rec go j remaining =
    if j = j_count - 1 then begin
      Instance.Oracle.apply o ~j ~drho:remaining;
      consider ();
      Instance.Oracle.undo o
    end
    else begin
      go (j + 1) remaining;
      for v = 1 to remaining do
        Instance.Oracle.apply o ~j ~drho:1;
        go (j + 1) (remaining - v)
      done;
      for _ = 1 to remaining do
        Instance.Oracle.undo o
      done
    end
  in
  go 0 target;
  Allocation.of_rho (Instance.problem instance)
    ~rho:(Instance.expand_rho instance !best_rho)

let count_compositions ~parts ~total =
  (* C(total + parts - 1, parts - 1) computed multiplicatively. *)
  if parts <= 0 then invalid_arg "Exhaustive.count_compositions: parts <= 0";
  let k = parts - 1 and n = total + parts - 1 in
  let acc = ref 1 in
  for i = 1 to k do
    acc := !acc * (n - k + i) / i
  done;
  !acc
