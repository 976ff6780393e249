type spec =
  | Exact_ilp
  | Dp_blackbox
  | Dp_disjoint
  | Exhaustive
  | Heuristic of Heuristics.name
  | Auto

let spec_to_string = function
  | Exact_ilp -> "ilp"
  | Dp_blackbox -> "dp-blackbox"
  | Dp_disjoint -> "dp-disjoint"
  | Exhaustive -> "exhaustive"
  | Heuristic n -> String.lowercase_ascii (Heuristics.name_to_string n)
  | Auto -> "auto"

let specs =
  [ ("auto", Auto); ("ilp", Exact_ilp); ("dp", Dp_disjoint);
    ("dp-disjoint", Dp_disjoint); ("dp-blackbox", Dp_blackbox);
    ("exhaustive", Exhaustive) ]
  @ List.map (fun n -> (spec_to_string (Heuristic n), Heuristic n)) Heuristics.all

let spec_of_string s = List.assoc_opt (String.lowercase_ascii s) specs

type status = Optimal | Feasible | Budget_exhausted | Infeasible

let status_to_string = function
  | Optimal -> "optimal"
  | Feasible -> "feasible"
  | Budget_exhausted -> "budget-exhausted"
  | Infeasible -> "infeasible"

let wall_hist =
  Telemetry.histogram Telemetry.solver_wall_seconds
    ~bounds:[| 0.0001; 0.001; 0.01; 0.1; 1.0; 10.0 |]

type telemetry = {
  engine : spec;
  wall_time : float;
  evaluations : int;
  pivots : int;
  nodes : int;
  pruned_recipes : int;
  warm_started : bool;
}

type outcome = {
  status : status;
  allocation : Allocation.t option;
  throughput : int;
  telemetry : telemetry;
  convergence : Telemetry.Progress.event list;
}

let sum_rho = function
  | None -> 0
  | Some a -> Array.fold_left ( + ) 0 a.Allocation.rho

(* Routing reads the structure flags precomputed at instance compile
   time — and therefore sees the *pruned* structure: a shared-types
   problem whose sharing recipes are all dominated routes to the
   cheaper DP, soundly (pruning preserves the optimal cost). *)
let auto_of_instance instance =
  if Instance.is_blackbox instance then Dp_blackbox
  else if Instance.is_disjoint instance then Dp_disjoint
  else Exact_ilp

(* A caller-supplied warm start is usable when it is feasible for this
   target and routes nothing through a pruned recipe. It is then
   mapped to the compact index space and trimmed to Σρ = target
   exactly — surplus throughput is shed from the highest fluid
   unit-cost recipes first. Trimming keeps the split feasible (loads
   only drop) and puts it inside the search space of the heuristics,
   which exchange throughput at constant Σρ and are the only engines
   that read it. *)
let normalize_warm_start instance ~target alloc =
  let problem = Instance.problem instance in
  let rho = alloc.Allocation.rho in
  if
    Array.length rho <> Problem.num_recipes problem
    || (not (Allocation.feasible problem ~target alloc))
    || List.exists (fun (j', _) -> rho.(j') <> 0) (Instance.dropped instance)
  then None
  else begin
    let jc = Instance.num_recipes instance in
    let compact =
      Array.init jc (fun j -> rho.(Instance.original_index instance j))
    in
    let surplus = ref (Array.fold_left ( + ) 0 compact - target) in
    if !surplus > 0 then begin
      let order = Array.init jc Fun.id in
      Array.sort
        (fun a b ->
          Numeric.Rat.compare (Instance.unit_cost instance b)
            (Instance.unit_cost instance a))
        order;
      Array.iter
        (fun j ->
          if !surplus > 0 then begin
            let cut = min compact.(j) !surplus in
            compact.(j) <- compact.(j) - cut;
            surplus := !surplus - cut
          end)
        order
    end;
    Some compact
  end

(* An engine's answer when its budget runs out first: the heuristic
   [name] under what is left of the budget. *)
let fallback search name =
  Telemetry.Span.with_span "solver.fallback" (fun () ->
      (search name).Heuristics.allocation)

(* The one engine dispatch: run [engine] once at [target], within what
   is left of [budget] for the solve started at [t0]. A caller's
   [warm_start] is normalized and read only where a search heuristic
   runs: a heuristic engine other than H0 and H1, or the ILP's budget
   fallback. [cap] is the money of a max-throughput probe, which the
   ILP prunes by; [(Infeasible, None)] means the target is unreachable
   within it. The last component says whether a heuristic ran with the
   seed. *)
let dispatch ~budget ~rng ~params ?warm_start ~t0 ?cap engine instance ~target =
  let left () = Budget.remaining budget ~elapsed:(Unix.gettimeofday () -. t0) in
  let seeded = ref false in
  let search name =
    let warm =
      match (warm_start, name) with
      | None, _ | _, (Heuristics.H0 | Heuristics.H1) -> None
      | Some a, _ ->
        Telemetry.Span.with_span "solver.warm_start" (fun () ->
            normalize_warm_start instance ~target a)
    in
    seeded := warm <> None;
    Heuristics.search ~params ~budget:(left ()) ?rng ?warm_start:warm name
      instance ~target
  in
  let status, allocation =
    match engine with
    | Auto -> assert false (* resolved by [run] *)
    | Dp_blackbox -> (Optimal, Some (Dp_blackbox.run instance ~target))
    | Dp_disjoint -> (
      let time_limit = (left ()).Budget.deadline in
      match Dp_disjoint.run ?time_limit instance ~target with
      | a -> (Optimal, Some a)
      | exception Dp_disjoint.Out_of_time ->
        (* The H1 closed form, which always completes. *)
        (Budget_exhausted, Some (fallback search Heuristics.H1)))
    | Exhaustive -> (Optimal, Some (Exhaustive.run instance ~target))
    | Exact_ilp -> (
      let { Budget.deadline; node_cap; _ } = left () in
      let o =
        Ilp.optimize ?time_limit:deadline ?node_limit:node_cap ?budget_cap:cap
          instance ~target
      in
      match (o.Ilp.status, o.Ilp.allocation) with
      | Milp.Solver.Optimal, (Some _ as a) -> (Optimal, a)
      | Milp.Solver.Feasible, (Some _ as a) -> (Budget_exhausted, a)
      | Milp.Solver.Infeasible, _ -> (Infeasible, None)
      | (Milp.Solver.Unknown | Milp.Solver.Unbounded), _ | _, None
        when target > Instance.max_target instance ->
        (* A max-throughput probe whose splits can cost past max_int
           (see [run]): a heuristic's int costs could wrap there, so
           the probe ends without a verdict. *)
        (Budget_exhausted, None)
      | (Milp.Solver.Unknown | Milp.Solver.Unbounded), _ | _, None ->
        (* A limit before any integer point (the rental MILP is never
           unbounded): degrade to the best heuristic reachable in what
           remains. H32Jump under an expired budget collapses to the H1
           floor, which always completes, so this cannot come back
           empty. *)
        (Budget_exhausted, Some (fallback search Heuristics.H32_jump)))
    | Heuristic name ->
      let r = search name in
      ( (if r.Heuristics.exhausted then Budget_exhausted else Feasible),
        Some r.Heuristics.allocation )
  in
  (status, allocation, !seeded)

(* Run [f] under the solve's span and collect the convergence timeline
   the engines emit meanwhile. Skipped entirely when telemetry is off —
   the emitters are no-ops then, so the span attributes and the
   collection would only cost allocations and clock reads. *)
let traced name attrs f =
  if not (Telemetry.enabled ()) then (f (), [])
  else
    Telemetry.Progress.collect (fun () ->
        Telemetry.Span.with_span ~attrs:(attrs ()) name f)

(* The one effort meter: [f t0] runs the solve started at [t0]; the
   telemetry counts wall time and the effort spent on this domain
   meanwhile, so solves on other domains never leak into it. *)
let metered engine instance f =
  let t0 = Unix.gettimeofday () in
  let e0 = Telemetry.Effort.here () in
  let (status, allocation, warm_started), convergence = f t0 in
  let wall_time = Unix.gettimeofday () -. t0 in
  Telemetry.observe wall_hist wall_time;
  let e = Telemetry.Effort.since e0 in
  let telemetry =
    { engine;
      wall_time;
      evaluations = e.Telemetry.Effort.evaluations;
      pivots = e.Telemetry.Effort.pivots;
      nodes = e.Telemetry.Effort.nodes;
      pruned_recipes = Instance.num_pruned instance;
      warm_started }
  in
  { status; allocation; throughput = sum_rho allocation; telemetry;
    convergence }

let min_cost ~budget ~rng ~params ~warm_start engine instance ~target t0 =
  traced "solver.solve"
    (fun () ->
      [ ("engine", spec_to_string engine); ("target", string_of_int target) ])
    (fun () ->
      dispatch ~budget ~rng ~params ?warm_start ~t0 engine instance ~target)

(* The all-zero split: cost 0, so always within any monetary budget —
   the trivially-feasible floor of the max-throughput search. *)
let zero_allocation instance =
  let problem = Instance.problem instance in
  Allocation.of_rho problem ~rho:(Array.make (Problem.num_recipes problem) 0)

(* Max-throughput via its dual: the optimal min-cost c(t) is
   nondecreasing in t, so the optimum is the largest t with
   c(t) <= money — found by binary search bracketed above by the fluid
   relaxation ([Instance.fluid_upper_target], a valid bound because
   the fluid cost lower-bounds the integer cost). Each probe is the
   min-cost dispatch at t with the money as its cap, asking "is
   throughput t reachable within money?": the ILP prunes by the cap,
   so its Infeasible *proves* unreachability; the DPs and the oracle
   compare their exact optimum against the cap; heuristic engines
   compare their incumbent — whose "no" is not a proof, hence status
   [Feasible] rather than [Optimal]. No probe is seeded. *)
let max_throughput ~budget ~rng ~params ~hi engine instance ~money t0 =
  let probe_exhausted = ref false in
  (* [Some a]: proof that [target] is reachable within [money].
     [None]: unreachable — a proof for exact engines (modulo
     [probe_exhausted]), best-effort for heuristics. A probe that hit
     its budget without a verdict marks the search exhausted. *)
  let probe target =
    match dispatch ~budget ~rng ~params ~t0 ~cap:money engine instance ~target with
    | _, Some a, _ when a.Allocation.cost <= money -> Some a
    | status, _, _ ->
      if status = Budget_exhausted then probe_exhausted := true;
      None
  in
  let search () =
    let best = ref (zero_allocation instance) in
    let lo = ref 0 in
    let hi = ref hi in
    while !lo < !hi do
      (* The upper midpoint, without forming lo + hi, which wraps once
         the fluid bracket passes max_int / 2. *)
      let mid = !lo + 1 + ((!hi - !lo - 1) / 2) in
      match probe mid with
      | Some a ->
        best := a;
        lo := mid
      | None -> hi := mid - 1
    done;
    !best
  in
  let allocation, convergence =
    traced "solver.max_throughput"
      (fun () ->
        [ ("engine", spec_to_string engine); ("money", string_of_int money) ])
      search
  in
  let status =
    if !probe_exhausted then Budget_exhausted
    else match engine with Heuristic _ -> Feasible | _ -> Optimal
  in
  ((status, Some allocation, false), convergence)

let run ?(budget = Budget.unlimited) ?rng ?(params = Heuristics.default_params)
    ?warm_start ?(spec = Auto) instance ~objective =
  if Objective.kind objective <> Instance.objective_kind instance then
    invalid_arg
      (Printf.sprintf
         "Solver.run: instance was compiled for %s, not %s (recompile with \
          the matching scenario)"
         (Objective.kind_to_string (Instance.objective_kind instance))
         (Objective.kind_to_string (Objective.kind objective)));
  let engine = match spec with Auto -> auto_of_instance instance | s -> s in
  match objective with
  | Objective.Min_cost { target } ->
    if target < 0 then invalid_arg "Solver.run: negative target";
    (* Every engine prices in ints: a target whose splits can cost past
       max_int is rejected before any engine runs. *)
    if target > Instance.max_target instance then
      invalid_arg
        (Printf.sprintf
           "target %d: a split can cost past max_int, which no int cost \
            can carry"
           target);
    metered engine instance
      (min_cost ~budget ~rng ~params ~warm_start engine instance ~target)
  | Objective.Max_throughput { budget = money } ->
    (* The bracket first: a budget that affords a throughput past
       max_int is rejected before any engine runs. *)
    let hi = Instance.fluid_upper_target instance ~budget:money in
    (* A probe below the bracket costs at most what a split at the
       bracket can. Past max_int, only the ILP still answers exactly:
       it prunes every node whose bound passes max_int, its rounding
       stops pricing past its limit, and it takes no heuristic
       fallback at a probe whose splits can pass max_int. *)
    if engine <> Exact_ilp && hi > Instance.max_target instance then
      invalid_arg
        (Printf.sprintf
           "budget %d: a split at its fluid throughput %d can cost past \
            max_int, which only the ilp engine searches"
           money hi);
    metered engine instance
      (max_throughput ~budget ~rng ~params ~hi engine instance ~money)
