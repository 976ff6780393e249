module R = Numeric.Rat

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
let model ?budget_cap instance ~target =
  if target < 0 then invalid_arg "Ilp.model: negative target";
  (match budget_cap with
   | Some cap when cap < 0 -> invalid_arg "Ilp.model: negative budget cap"
   | _ -> ());
  let j_count = Instance.num_recipes instance in
  let q_count = Instance.num_types instance in
  let m = Lp.Model.create () in
  let rho_vars =
    Array.init j_count (fun j -> Lp.Model.add_var m ~name:(Printf.sprintf "rho_%d" j))
  in
  let x_vars =
    Array.init q_count (fun q -> Lp.Model.add_var m ~name:(Printf.sprintf "x_%d" q))
  in
  (* Σ_j ρ_j >= ρ  (constraint (1) of the paper) *)
  let total =
    Lp.Linexpr.of_terms (Array.to_list (Array.map (fun v -> (v, R.one)) rho_vars))
  in
  Lp.Model.add_constraint m ~name:"throughput" total Lp.Model.Ge (R.of_int target);
  (* Per type: x_q·r_q - Σ_j n^j_q·ρ_j >= 0  (constraint (2)) *)
  for q = 0 to q_count - 1 do
    let terms =
      (x_vars.(q), R.of_int (Instance.type_throughput instance q))
      :: List.filter_map
           (fun j ->
             let n = Instance.count instance j q in
             if n = 0 then None else Some (rho_vars.(j), R.of_int (-n)))
           (List.init j_count Fun.id)
    in
    Lp.Model.add_constraint m
      ~name:(Printf.sprintf "capacity_%d" q)
      (Lp.Linexpr.of_terms terms)
      Lp.Model.Ge R.zero
  done;
  (* Valid tightening bounds: some optimum has ρ_j <= ρ and therefore
     x_q <= ⌈max_j n^j_q · ρ / r_q⌉ (see DESIGN.md). They are
     variable bounds, which branching tightens in place. *)
  Array.iter (fun v -> Lp.Model.tighten_upper m v (R.of_int target)) rho_vars;
  for q = 0 to q_count - 1 do
    let nmax = ref 0 in
    for j = 0 to j_count - 1 do
      nmax := max !nmax (Instance.count instance j q)
    done;
    let ub = ceil_div (!nmax * target) (Instance.type_throughput instance q) in
    Lp.Model.tighten_upper m x_vars.(q) (R.of_int ub)
  done;
  let objective =
    Lp.Linexpr.of_terms
      (Array.to_list
         (Array.mapi (fun q v -> (v, R.of_int (Instance.type_cost instance q))) x_vars))
  in
  Lp.Model.set_objective m Lp.Model.Minimize objective;
  (* Budget-feasibility cut: Σ c_q·x_q <= cap. Turns the model into
     the feasibility probe of the max-throughput binary search —
     Infeasible here means exactly "target is unreachable within the
     budget". *)
  (match budget_cap with
   | Some cap ->
     Lp.Model.add_constraint m ~name:"budget" objective Lp.Model.Le (R.of_int cap)
   | None -> ());
  (m, Array.to_list rho_vars @ Array.to_list x_vars)

let decode instance solution =
  let j_count = Instance.num_recipes instance in
  let q_count = Instance.num_types instance in
  let values = solution.Milp.Solver.values in
  let to_int v =
    (* Integrality is enforced by the solver; exact rationals make the
       conversion lossless. *)
    Numeric.Bigint.to_int_exn (R.num values.(v))
  in
  let rho = Instance.expand_rho instance (Array.init j_count to_int) in
  let machines = Array.init q_count (fun q -> to_int (j_count + q)) in
  Allocation.make (Instance.problem instance) ~rho ~machines

let optimize ?time_limit ?node_limit ?(warm_start = true) ?incumbent
    ?budget_cap instance ~target =
  let t0 = Unix.gettimeofday () in
  let model, integer =
    Telemetry.Span.with_span "ilp.build" (fun () ->
        model ?budget_cap instance ~target)
  in
  let j_count = Instance.num_recipes instance in
  let q_count = Instance.num_types instance in
  (* With a budget row in the model, a warm point whose cost exceeds
     the cap is infeasible and Milp.Solver.solve rejects it outright —
     drop it and start cold instead. *)
  let within_cap cost =
    match budget_cap with None -> true | Some cap -> cost <= cap
  in
  (* The MILP point of a compact split, machines minimized through the
     closed form so it satisfies the capacity rows with the smallest
     x_q; [None] when that point is over the cap. *)
  let point_of rho =
    let machines =
      Array.init q_count (fun q ->
          let load = ref 0 in
          for j = 0 to j_count - 1 do
            load := !load + (Instance.count instance j q * rho.(j))
          done;
          ceil_div !load (Instance.type_throughput instance q))
    in
    let cost = ref 0 in
    Array.iteri
      (fun q x -> cost := !cost + (x * Instance.type_cost instance q))
      machines;
    if not (within_cap !cost) then None
    else
      Some
        (Array.init (j_count + q_count) (fun i ->
             R.of_int (if i < j_count then rho.(i) else machines.(i - j_count))))
  in
  (* Seed the branch-and-bound with a known feasible point: its cost is
     an upper cutoff that prunes most of the tree (the role played by
     Gurobi's internal primal heuristics in the paper's runs). A
     caller-supplied incumbent (a cached or previous-period solution)
     is used directly when within the cap; otherwise the H32Jump
     warm-up runs. The warm-up shares this solve's deadline, so a
     capped run cannot overshoot it warming up; whatever it produces —
     at worst the H1 floor — still seeds the search. *)
  let warm =
    match Option.bind incumbent point_of with
    | Some _ as point -> point
    | None ->
      if not warm_start then None
      else
        Telemetry.Span.with_span "ilp.warmup" (fun () ->
            let budget =
              match time_limit with
              | Some d -> Budget.deadline (Float.max 0.0 d)
              | None -> Budget.unlimited
            in
            let a =
              (Heuristics.search ~budget ~rng:(Numeric.Prng.create 0x5EED)
                 Heuristics.H32_jump instance ~target)
                .Heuristics.allocation
            in
            point_of
              (Array.init j_count (fun j ->
                   a.Allocation.rho.(Instance.original_index instance j))))
  in
  let priority =
    [ List.init j_count Fun.id; List.init q_count (fun q -> j_count + q) ]
  in
  (* Charge warm-up time against the wall-clock budget. *)
  let time_limit =
    Option.map
      (fun d -> Float.max 0.0 (d -. (Unix.gettimeofday () -. t0)))
      time_limit
  in
  let result =
    Milp.Solver.solve ?time_limit ?node_limit ~integral_objective:true
      ?warm_start:warm ~priority model ~integer
  in
  let allocation = Option.map (decode instance) result.Milp.Solver.solution in
  let best_bound =
    Option.map
      (fun b -> Numeric.Bigint.to_int_exn (R.ceil b))
      result.Milp.Solver.best_bound
  in
  { allocation;
    proved_optimal = result.Milp.Solver.status = Milp.Solver.Optimal;
    status = result.Milp.Solver.status;
    best_bound;
    nodes = result.Milp.Solver.nodes;
    peak_retained_words = result.Milp.Solver.peak_retained_words;
    elapsed = Unix.gettimeofday () -. t0 }

let lp_lower_bound problem ~target =
  let m, _ = model (Instance.compile problem) ~target in
  match Lp.Simplex.solve m with
  | Lp.Simplex.Optimal { objective; _ } -> Numeric.Bigint.to_int_exn (R.ceil objective)
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded ->
    (* The MILP is always feasible (rent enough machines) and bounded
       below by zero. *)
    assert false
