module R = Numeric.Rat

type support = {
  types : int array;
  counts : int array;
}

type t = {
  problem : Problem.t;  (* scenario-effective prices (pricebook applied) *)
  source_problem : Problem.t;  (* as submitted, original platform prices *)
  objective_kind : Objective.kind;
  pricebook : Pricebook.t option;
  costs : int array;  (* c_q *)
  throughputs : int array;  (* r_q *)
  original : int array;  (* compact recipe index -> original index *)
  counts : int array array;  (* dense n^j_q rows, compact j *)
  supports : support array;  (* sparse rows, compact j *)
  dropped : (int * int) list;  (* (dominated, surviving dominator), original *)
  unit_costs : R.t array;  (* fluid cost per throughput unit, compact j *)
  max_target : int;  (* the largest target whose splits cost <= max_int *)
  blackbox : bool;
  disjoint : bool;
  mutable canon : (string * int array) option;
      (* memoized canonical encoding + recipe order (fingerprinting) *)
}

type instance = t

let ceil_div a b = (a + b - 1) / b

(* [j] dominates [j'] when its counts are pointwise <= and the two
   rows differ — or are equal with [j] the lower index, so exactly one
   of an equal pair is dropped. The relation is a strict partial
   order, hence every dropped recipe has a surviving dominator. The
   scan stops at the first type where [j] needs more. *)
let rec covers cj cj' q ~strict ~tie =
  if q = Array.length cj then strict || tie
  else
    let n = cj.(q) and n' = cj'.(q) in
    n <= n' && covers cj cj' (q + 1) ~strict:(strict || n < n') ~tie

let dominates rows j j' = covers rows.(j) rows.(j') 0 ~strict:false ~tie:(j < j')

let compile_impl ?(prune = true) ~source_problem ~objective_kind ~pricebook
    problem =
  let j_orig = Problem.num_recipes problem in
  let q_count = Problem.num_types problem in
  let platform = Problem.platform problem in
  let costs = Array.init q_count (Platform.cost platform) in
  let throughputs = Array.init q_count (Platform.throughput platform) in
  let rows = Array.init j_orig (Problem.type_counts problem) in
  let dominator = Array.make j_orig (-1) in
  if prune then
    for j' = 0 to j_orig - 1 do
      let j = ref 0 in
      while dominator.(j') < 0 && !j < j_orig do
        if !j <> j' && dominates rows !j j' then dominator.(j') <- !j;
        incr j
      done
    done;
  let original =
    Array.of_list
      (List.filter (fun j -> dominator.(j) < 0) (List.init j_orig Fun.id))
  in
  let dropped =
    List.filter_map
      (fun j' ->
        if dominator.(j') < 0 then None
        else begin
          (* Chase the dominance chain to a surviving recipe. *)
          let j = ref dominator.(j') in
          while dominator.(!j) >= 0 do
            j := dominator.(!j)
          done;
          Some (j', !j)
        end)
      (List.init j_orig Fun.id)
  in
  let counts = Array.map (fun j -> rows.(j)) original in
  let supports =
    Array.map
      (fun row ->
        let used = ref [] in
        for q = q_count - 1 downto 0 do
          if row.(q) > 0 then used := q :: !used
        done;
        let types = Array.of_list !used in
        { types; counts = Array.map (fun q -> row.(q)) types })
      counts
  in
  let disjoint =
    let users = Array.make q_count 0 in
    Array.iter (fun s -> Array.iter (fun q -> users.(q) <- users.(q) + 1) s.types)
      supports;
    Array.for_all (fun u -> u <= 1) users
  in
  let blackbox =
    disjoint
    && Array.for_all
         (fun s -> Array.length s.types = 1 && s.counts.(0) = 1)
         supports
  in
  let unit_costs =
    Array.map
      (fun (s : support) ->
        let acc = ref R.zero in
        Array.iteri
          (fun i q ->
            acc := R.add !acc (R.of_ints (s.counts.(i) * costs.(q)) throughputs.(q)))
          s.types;
        !acc)
      supports
  in
  (* B(t) = ⌈t · max_j u_j⌉ + Σ_q c_q <= max_int exactly when
     t · max_j u_j <= max_int - Σ_q c_q, an int. Costs are positive,
     so only the sum can leave the int range. *)
  let max_target =
    let worst = Array.fold_left R.max R.zero unit_costs in
    match Array.fold_left Numeric.Kernel.add_exn 0 costs with
    | exception Invalid_argument _ -> -1
    | _ when R.is_zero worst -> max_int
    | fleet ->
      Option.value ~default:max_int
        (Numeric.Bigint.to_int
           (R.floor (R.div (R.of_int (max_int - fleet)) worst)))
  in
  { problem; source_problem; objective_kind; pricebook; costs; throughputs;
    original; counts; supports; dropped; unit_costs; max_target; blackbox;
    disjoint; canon = None }

let compile ?prune ?scenario problem =
  Telemetry.Span.with_span "instance.compile" (fun () ->
      let objective_kind, pricebook =
        match scenario with
        | None -> (`Min_cost, None)
        | Some s ->
          (Objective.kind (Scenario.objective s), Scenario.pricebook s)
      in
      let effective =
        match pricebook with
        | None -> problem
        | Some pb ->
          Problem.create
            (Pricebook.apply pb (Problem.platform problem))
            (Problem.recipes problem)
      in
      compile_impl ?prune ~source_problem:problem ~objective_kind ~pricebook
        effective)

let problem t = t.problem
let source_problem t = t.source_problem
let objective_kind t = t.objective_kind
let pricebook t = t.pricebook

let num_recipes t = Array.length t.original
let num_types t = Array.length t.costs
let original_index t j = t.original.(j)
let dropped t = t.dropped
let num_pruned t = List.length t.dropped
let support t j = t.supports.(j)
let count t j q = t.counts.(j).(q)
let type_cost t q = t.costs.(q)
let type_throughput t q = t.throughputs.(q)
let is_blackbox t = t.blackbox
let is_disjoint t = t.disjoint

let single_cost t ~j ~target =
  if target < 0 then invalid_arg "Instance.single_cost: negative target";
  let s = t.supports.(j) in
  let total = ref 0 in
  Array.iteri
    (fun i q ->
      total := !total + (t.costs.(q) * ceil_div (s.counts.(i) * target) t.throughputs.(q)))
    s.types;
  !total

let unit_cost t j = t.unit_costs.(j)

let fluid_lower_bound t ~target =
  if target < 0 then invalid_arg "Instance.fluid_lower_bound: negative target";
  if target = 0 || num_recipes t = 0 then 0
  else begin
    let best = Array.fold_left R.min t.unit_costs.(0) t.unit_costs in
    Numeric.Bigint.to_int_exn (R.ceil (R.mul best (R.of_int target)))
  end

let fluid_upper_target t ~budget =
  if budget < 0 then invalid_arg "Instance.fluid_upper_target: negative budget";
  if num_recipes t = 0 then 0
  else begin
    (* fluid(t) = ⌈t·u⌉ <= budget ⟺ t <= ⌊budget/u⌋ with u the best
       fluid unit cost; beyond that even the LP relaxation overspends,
       so the true max-throughput optimum is <= this bracket. u > 0
       because platform costs are strictly positive. *)
    let best = Array.fold_left R.min t.unit_costs.(0) t.unit_costs in
    match Numeric.Bigint.to_int (R.floor (R.div (R.of_int budget) best)) with
    | Some hi -> hi
    | None ->
      invalid_arg
        (Printf.sprintf
           "budget %d affords a throughput past max_int, which no allocation \
            can carry"
           budget)
  end

let max_target t = t.max_target

let expand_rho t rho =
  if Array.length rho <> num_recipes t then
    invalid_arg "Instance.expand_rho: wrong length";
  let out = Array.make (Problem.num_recipes t.problem) 0 in
  Array.iteri (fun j r -> out.(t.original.(j)) <- r) rho;
  out

(* --- structural fingerprinting --- *)

(* Canonical orders over the pruned cost structure. Types are keyed by
   (c_q, r_q, sorted column multiset) — all permutation-invariant —
   then refined by their actual column under the canonical recipe
   order, which breaks most (c, r)-ties deterministically. Recipes are
   ordered lexicographically by their type-reordered rows; equal rows
   are interchangeable, so their relative order is immaterial. All
   compared arrays have equal lengths, so polymorphic compare is a
   plain lexicographic order here. *)
let canonical_orders t =
  let jc = num_recipes t and qc = num_types t in
  let sorted_col q =
    let c = Array.init jc (fun j -> t.counts.(j).(q)) in
    Array.sort compare c;
    c
  in
  let tkeys =
    Array.init qc (fun q -> (t.costs.(q), t.throughputs.(q), sorted_col q))
  in
  let torder = Array.init qc Fun.id in
  Array.sort (fun a b -> compare tkeys.(a) tkeys.(b)) torder;
  let rorder = Array.init jc Fun.id in
  let sort_recipes () =
    let rows =
      Array.init jc (fun j -> Array.map (fun q -> t.counts.(j).(q)) torder)
    in
    Array.sort (fun a b -> compare rows.(a) rows.(b)) rorder
  in
  sort_recipes ();
  (* Refine type ties by the actual column under the recipe order, then
     restore recipe order under the refined type order. *)
  let refined_col q = Array.map (fun j -> t.counts.(j).(q)) rorder in
  Array.sort
    (fun a b ->
      let c = compare tkeys.(a) tkeys.(b) in
      if c <> 0 then c else compare (refined_col a) (refined_col b))
    torder;
  sort_recipes ();
  (torder, rorder)

let canon t =
  match t.canon with
  | Some c -> c
  | None ->
    let torder, rorder = canonical_orders t in
    let b = Buffer.create 256 in
    (* Objective tag: a max-throughput instance must never share a
       cache entry with a min-cost one, so its encoding carries the
       kind. Min-cost stays untagged — the historical encoding. *)
    (match t.objective_kind with
     | `Min_cost -> ()
     | `Max_throughput -> Buffer.add_string b "max-throughput;");
    Buffer.add_string b
      (Printf.sprintf "Q%d J%d" (num_types t) (num_recipes t));
    Array.iter
      (fun q -> Buffer.add_string b (Printf.sprintf ";%d/%d" t.costs.(q) t.throughputs.(q)))
      torder;
    Array.iter
      (fun j ->
        Buffer.add_char b '|';
        Array.iteri
          (fun i q ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b (string_of_int t.counts.(j).(q)))
          torder)
      rorder;
    let c = (Buffer.contents b, rorder) in
    t.canon <- Some c;
    c

let canonical_encoding t = fst (canon t)

let fingerprint t = Digest.to_hex (Digest.string (canonical_encoding t))

let canonical_recipe_order t = Array.copy (snd (canon t))

module Oracle = struct
  type t = {
    inst : instance;
    rho : int array;  (* compact *)
    loads : int array;  (* per type *)
    machines : int array;  (* per type, always ⌈load/r⌉ *)
    mutable cost : int;
  }

  let create inst =
    { inst;
      rho = Array.make (num_recipes inst) 0;
      loads = Array.make (num_types inst) 0;
      machines = Array.make (num_types inst) 0;
      cost = 0 }

  (* The two hot paths: each is one pass over supp(j). Machine counts
     are a function of the loads, so an apply of [-drho] restores the
     state before an apply of [drho] exactly. *)
  let apply o ~j ~drho =
    if drho <> 0 then begin
      let r = o.rho.(j) + drho in
      if r < 0 then invalid_arg "Instance.Oracle.apply: negative throughput";
      o.rho.(j) <- r;
      let s = o.inst.supports.(j) in
      let types = s.types and counts = s.counts in
      for i = 0 to Array.length types - 1 do
        let q = types.(i) in
        let load = o.loads.(q) + (counts.(i) * drho) in
        o.loads.(q) <- load;
        let m = ceil_div load o.inst.throughputs.(q) in
        let dm = m - o.machines.(q) in
        if dm <> 0 then begin
          o.machines.(q) <- m;
          o.cost <- o.cost + (dm * o.inst.costs.(q))
        end
      done
    end

  let price o ~j ~drho =
    if o.rho.(j) + drho < 0 then
      invalid_arg "Instance.Oracle.price: negative throughput";
    let s = o.inst.supports.(j) in
    let types = s.types and counts = s.counts in
    let cost = ref o.cost in
    if drho <> 0 then
      for i = 0 to Array.length types - 1 do
        let q = types.(i) in
        let m =
          ceil_div (o.loads.(q) + (counts.(i) * drho)) o.inst.throughputs.(q)
        in
        cost := !cost + ((m - o.machines.(q)) * o.inst.costs.(q))
      done;
    !cost

  let reset o ~rho =
    if Array.length rho <> num_recipes o.inst then
      invalid_arg "Instance.Oracle.reset: rho has wrong length";
    Array.iter
      (fun r -> if r < 0 then invalid_arg "Instance.Oracle.reset: negative throughput")
      rho;
    Array.blit rho 0 o.rho 0 (Array.length rho);
    Array.fill o.loads 0 (Array.length o.loads) 0;
    Array.iteri
      (fun j rj ->
        if rj > 0 then begin
          let s = o.inst.supports.(j) in
          Array.iteri
            (fun i q -> o.loads.(q) <- o.loads.(q) + (s.counts.(i) * rj))
            s.types
        end)
      o.rho;
    o.cost <- 0;
    Array.iteri
      (fun q load ->
        let m = ceil_div load o.inst.throughputs.(q) in
        o.machines.(q) <- m;
        o.cost <- o.cost + (m * o.inst.costs.(q)))
      o.loads

  let cost o = o.cost
  let rho_at o j = o.rho.(j)
  let rho o = Array.copy o.rho
  let loads o = Array.copy o.loads
  let machines o = Array.copy o.machines

  let allocation o =
    Allocation.of_rho o.inst.problem ~rho:(expand_rho o.inst o.rho)
end
