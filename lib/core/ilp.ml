type outcome = {
  allocation : Allocation.t option;
  proved_optimal : bool;
  status : Milp.Solver.status;
  best_bound : int option;
  nodes : int;
  peak_retained_words : int;
  elapsed : float;
}

let ceil_div a b = (a + b - 1) / b

(* The MILP is built over the dominance-pruned compact recipe space:
   one ρ column per surviving recipe. Dominated columns are never
   cheaper at equal throughput (see Instance), so dropping them leaves
   the optimal value of both the MILP and its LP relaxation
   unchanged while shrinking the tableau. *)
let model instance ~target =
  if target < 0 then invalid_arg "Ilp.model: negative target";
  let j_count = Instance.num_recipes instance in
  let q_count = Instance.num_types instance in
  let m = Lp.Model.create () in
  (* Variables [0, J') are the ρ_j and [J', J' + Q) the x_q; every
     term list below is in ascending variable order. *)
  for _ = 1 to j_count + q_count do
    ignore (Lp.Model.add_var m)
  done;
  (* Σ_j ρ_j >= ρ  (constraint (1) of the paper) *)
  Lp.Model.add_constraint m (List.init j_count (fun j -> (j, 1))) Lp.Model.Ge target;
  (* Per type: x_q·r_q - Σ_j n^j_q·ρ_j >= 0  (constraint (2)) *)
  for q = 0 to q_count - 1 do
    let terms = ref [ (j_count + q, Instance.type_throughput instance q) ] in
    for j = j_count - 1 downto 0 do
      let n = Instance.count instance j q in
      if n <> 0 then terms := (j, -n) :: !terms
    done;
    Lp.Model.add_constraint m !terms Lp.Model.Ge 0
  done;
  Lp.Model.set_objective m
    (List.init q_count (fun q -> (j_count + q, Instance.type_cost instance q)));
  m

let decode instance solution =
  let j_count = Instance.num_recipes instance in
  let q_count = Instance.num_types instance in
  let values = solution.Milp.Solver.values in
  let rho = Instance.expand_rho instance (Array.sub values 0 j_count) in
  let machines = Array.sub values j_count q_count in
  Allocation.make (Instance.problem instance) ~rho ~machines

(* The MILP point of a compact split [rho] whose per-type loads are
   [loads], machines minimized through the closed form
   [x_q = ⌈load_q / r_q⌉] so it satisfies the capacity rows with the
   smallest x_q; [None] when it costs more than [limit]. Priced in
   native ints, and the point is the one priced: each term is checked
   against what is left of the limit before it is added, so no sum or
   product wraps. *)
let point_of instance ~rho ~loads ~limit =
  let j_count = Array.length rho and q_count = Array.length loads in
  let point = Array.make (j_count + q_count) 0 in
  Array.blit rho 0 point 0 j_count;
  let rec price q cost =
    if q = q_count then Some point
    else begin
      let x = ceil_div loads.(q) (Instance.type_throughput instance q) in
      let c = Instance.type_cost instance q in
      point.(j_count + q) <- x;
      if x > 0 && c > (limit - cost) / x then None
      else price (q + 1) (cost + (c * x))
    end
  in
  if limit < 0 then None else price 0 0

(* The branch and bound's primal heuristic: round a node's LP split to
   an integer one on the compiled instance. Each ρ_j is floored from
   its native numerator and denominator ([Lp.Simplex.fractions]); the
   missing [target - Σ⌊ρ_j⌋] units (fewer than J') go one at a time
   to the recipe whose unit costs the fewest extra machines at the
   loads so far, ties to the largest fractional part not yet rounded
   up, then to the lowest index. The point is kept only when it is
   strictly cheaper than the incumbent, which before the first point
   is the solve's cutoff. A node whose ρ has no such pair is not
   rounded. *)
let rounder instance ~target =
  let j_count = Instance.num_recipes instance in
  let q_count = Instance.num_types instance in
  let supports = Array.init j_count (Instance.support instance) in
  let rho = Array.make j_count 0 in
  let frac = Array.make j_count 0 and den = Array.make j_count 1 in
  let loads = Array.make q_count 0 in
  (* Local copies keep the inner loops free of calls. *)
  let c = Array.init q_count (Instance.type_cost instance) in
  let r = Array.init q_count (Instance.type_throughput instance) in
  let machines_for load q = ceil_div load r.(q) in
  (* Extra machine cost of one more unit on recipe [j]. *)
  let marginal j =
    let { Instance.types; counts } = supports.(j) in
    let d = ref 0 in
    for i = 0 to Array.length types - 1 do
      let q = types.(i) in
      d :=
        !d
        + c.(q)
          * (machines_for (loads.(q) + counts.(i)) q - machines_for loads.(q) q)
    done;
    !d
  in
  let add j units =
    rho.(j) <- rho.(j) + units;
    let { Instance.types; counts } = supports.(j) in
    for i = 0 to Array.length types - 1 do
      loads.(types.(i)) <- loads.(types.(i)) + (counts.(i) * units)
    done
  in
  (* frac a / den a > frac b / den b, cross-multiplied: both sides stay
     below 2^60. *)
  let larger_frac a b = frac.(a) * den.(b) > frac.(b) * den.(a) in
  let take j n d =
    frac.(j) <- n mod d;
    den.(j) <- d;
    add j (n / d)
  in
  fun ~incumbent point ->
    Array.fill loads 0 q_count 0;
    Array.fill rho 0 j_count 0;
    if not (Lp.Simplex.fractions point j_count take) then None
    else begin
      let missing = ref (target - Array.fold_left ( + ) 0 rho) in
      while !missing > 0 do
        let best = ref 0 and best_cost = ref (marginal 0) in
        for j = 1 to j_count - 1 do
          let m = marginal j in
          if m < !best_cost || (m = !best_cost && larger_frac j !best) then begin
            best := j;
            best_cost := m
          end
        done;
        add !best 1;
        frac.(!best) <- 0;
        decr missing
      done;
      let limit = match incumbent with None -> max_int | Some o -> o - 1 in
      point_of instance ~rho ~loads ~limit
    end

let optimize ?time_limit ?node_limit ?budget_cap instance ~target =
  let t0 = Unix.gettimeofday () in
  (* The money prunes the search as a cutoff: a cost of cap + 1 or
     more is cut off, and a cap of max_int cuts off nothing. *)
  let cutoff =
    Option.bind budget_cap (fun cap ->
        if cap < 0 then invalid_arg "Ilp.optimize: negative budget cap";
        if cap = max_int then None else Some (cap + 1))
  in
  let model =
    Telemetry.Span.with_span "ilp.build" (fun () -> model instance ~target)
  in
  let j_count = Instance.num_recipes instance in
  let q_count = Instance.num_types instance in
  (* Branch where the objective moves: one group per machine count,
     most expensive type first (a stable sort keeps equal costs in type
     order), then the splits. A fractional x_q moves the bound by about
     c_q times its fraction; once every x_q is integral the relaxation
     already prices a whole fleet, and rounding usually settles ρ. *)
  let priority =
    let cost = Instance.type_cost instance in
    let by_cost =
      List.stable_sort
        (fun a b -> compare (cost b) (cost a))
        (List.init q_count Fun.id)
    in
    List.map (fun q -> [ j_count + q ]) by_cost @ [ List.init j_count Fun.id ]
  in
  (* Every fractional node is rounded to a candidate incumbent: the
     role Gurobi's primal heuristics play in the paper's runs. *)
  let result =
    Milp.Solver.solve ?time_limit ?node_limit ?cutoff
      ~round:(rounder instance ~target) ~priority model
  in
  let allocation = Option.map (decode instance) result.Milp.Solver.solution in
  { allocation;
    proved_optimal = result.Milp.Solver.status = Milp.Solver.Optimal;
    status = result.Milp.Solver.status;
    best_bound = result.Milp.Solver.best_bound;
    nodes = result.Milp.Solver.nodes;
    peak_retained_words = result.Milp.Solver.peak_retained_words;
    elapsed = Unix.gettimeofday () -. t0 }
