type solver = Problem.t -> target:int -> Allocation.t

let ilp_solver problem ~target =
  let instance = Instance.compile problem in
  match (Ilp.optimize instance ~target).Ilp.allocation with
  | Some a -> a
  | None ->
    (* An uncapped ILP runs to its proof, and the rental MILP is always
       feasible (rent enough machines), so it always returns a split. *)
    assert false

let h1_on instance ~target =
  (Heuristics.search Heuristics.H1 instance ~target).Heuristics.allocation

let h1_solver problem ~target = h1_on (Instance.compile problem) ~target

let cost_curve solver problem ~targets =
  List.map (fun target -> (target, solver problem ~target)) targets

let h1_buckets problem ~max_target =
  if max_target < 0 then invalid_arg "Analysis.h1_buckets: negative max_target";
  let instance = Instance.compile problem in
  let cost t = (h1_on instance ~target:t).Allocation.cost in
  let rec go lo t prev acc =
    if t > max_target then List.rev ((lo, max_target, prev) :: acc)
    else begin
      let c = cost t in
      if c = prev then go lo (t + 1) prev acc
      else go t (t + 1) c ((lo, t - 1, prev) :: acc)
    end
  in
  go 0 1 (cost 0) []

let price_sensitivity ?(solver = ilp_solver) problem ~target ~percent =
  if percent <= -100 then invalid_arg "Analysis.price_sensitivity: percent <= -100";
  let baseline = (solver problem ~target).Allocation.cost in
  let platform = Problem.platform problem in
  let q_count = Problem.num_types problem in
  let scaled q =
    let machines = Platform.machines platform in
    let m = machines.(q) in
    (* Round the scaled price up so a positive percentage always means
       a strictly non-cheaper machine. *)
    let cost = ((m.Platform.cost * (100 + percent)) + 99) / 100 in
    machines.(q) <- { m with Platform.cost = max 1 cost };
    Platform.create machines
  in
  let per_type =
    List.init q_count (fun q ->
        let problem' = Problem.create (scaled q) (Problem.recipes problem) in
        (q, (solver problem' ~target).Allocation.cost))
  in
  (baseline, per_type)
