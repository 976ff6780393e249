let run instance ~target =
  if not (Instance.is_disjoint instance) then
    invalid_arg "Dp_disjoint.run: recipes share task types (general case, \
                 use Ilp or Heuristics)";
  if target < 0 then invalid_arg "Dp_disjoint.run: negative target";
  let j_count = Instance.num_recipes instance in
  (* Tabulate cost_j(t) for every surviving recipe and every
     sub-target, each entry the sparse § IV-A closed form over the
     recipe's support. *)
  let cost_table =
    Array.init j_count (fun j ->
        Array.init (target + 1) (fun t -> Instance.single_cost instance ~j ~target:t))
  in
  (* dp.(j).(t): optimal cost reaching throughput t with recipes 0..j;
     split.(j).(t): the ρ_j chosen there. *)
  let dp = Array.make_matrix j_count (target + 1) 0 in
  let split = Array.make_matrix j_count (target + 1) 0 in
  for t = 0 to target do
    dp.(0).(t) <- cost_table.(0).(t);
    split.(0).(t) <- t
  done;
  for j = 1 to j_count - 1 do
    for t = 0 to target do
      let best = ref max_int and best_tj = ref 0 in
      for tj = 0 to t do
        let c = dp.(j - 1).(t - tj) + cost_table.(j).(tj) in
        if c < !best then begin
          best := c;
          best_tj := tj
        end
      done;
      dp.(j).(t) <- !best;
      split.(j).(t) <- !best_tj
    done
  done;
  let rho = Array.make j_count 0 in
  let t = ref target in
  for j = j_count - 1 downto 0 do
    rho.(j) <- split.(j).(!t);
    t := !t - rho.(j)
  done;
  assert (!t = 0);
  let rho = Instance.expand_rho instance rho in
  let alloc = Allocation.of_rho (Instance.problem instance) ~rho in
  assert (alloc.Allocation.cost = dp.(j_count - 1).(target));
  alloc
