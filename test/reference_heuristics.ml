(* Reference heuristics for the differential test in [Test_heuristics]:
   the § VI search loops as they stood before neighbour pricing went
   read-only, kept verbatim apart from telemetry (spans, convergence
   events and effort bumps, which never steer a trajectory). Every
   probe moves the state and reverts it through an undo log, so this
   is the trajectory the read-only [Instance.Oracle.price] path must
   reproduce exactly: the same allocation, evaluation count and
   [exhausted] flag for every heuristic, parameter set and budget. *)

open Rentcost
module P = Numeric.Prng

(* The incremental oracle with its undo log, over the compiled
   instance's public tables. *)
module Log_oracle = struct
  type t = {
    inst : Instance.t;
    rho : int array;
    loads : int array;
    machines : int array;
    mutable cost : int;
    mutable log : (int * int) list;
  }

  let create inst =
    { inst;
      rho = Array.make (Instance.num_recipes inst) 0;
      loads = Array.make (Instance.num_types inst) 0;
      machines = Array.make (Instance.num_types inst) 0;
      cost = 0;
      log = [] }

  let ceil_div a b = (a + b - 1) / b

  let apply_raw o j drho =
    if drho <> 0 then begin
      let r = o.rho.(j) + drho in
      if r < 0 then invalid_arg "Reference: negative throughput";
      o.rho.(j) <- r;
      let s = Instance.support o.inst j in
      Array.iteri
        (fun i q ->
          let load = o.loads.(q) + (s.Instance.counts.(i) * drho) in
          o.loads.(q) <- load;
          let m = ceil_div load (Instance.type_throughput o.inst q) in
          let dm = m - o.machines.(q) in
          if dm <> 0 then begin
            o.machines.(q) <- m;
            o.cost <- o.cost + (dm * Instance.type_cost o.inst q)
          end)
        s.Instance.types
    end

  let apply o ~j ~drho =
    apply_raw o j drho;
    o.log <- (j, drho) :: o.log

  let undo o =
    match o.log with
    | [] -> invalid_arg "Reference: nothing to undo"
    | (j, drho) :: rest ->
      o.log <- rest;
      apply_raw o j (-drho)

  let commit o = o.log <- []

  let reset o ~rho =
    Array.blit rho 0 o.rho 0 (Array.length rho);
    Array.fill o.loads 0 (Array.length o.loads) 0;
    Array.iteri
      (fun j rj ->
        if rj > 0 then begin
          let s = Instance.support o.inst j in
          Array.iteri
            (fun i q -> o.loads.(q) <- o.loads.(q) + (s.Instance.counts.(i) * rj))
            s.Instance.types
        end)
      o.rho;
    o.cost <- 0;
    Array.iteri
      (fun q load ->
        let m = ceil_div load (Instance.type_throughput o.inst q) in
        o.machines.(q) <- m;
        o.cost <- o.cost + (m * Instance.type_cost o.inst q))
      o.loads;
    o.log <- []

  let cost o = o.cost
  let rho_at o j = o.rho.(j)
  let rho o = Array.copy o.rho

  let allocation o =
    Allocation.of_rho (Instance.problem o.inst)
      ~rho:(Instance.expand_rho o.inst o.rho)
end

module O = Log_oracle

type oracle = {
  inst : Instance.t;
  state : O.t;
  mutable evals : int;
  eval_cap : int option;
  deadline_at : float option;
  mutable exhausted : bool;
}

let make_oracle inst (budget : Budget.t) =
  { inst; state = O.create inst; evals = 0;
    eval_cap = budget.Budget.eval_cap;
    deadline_at =
      Option.map (fun d -> Unix.gettimeofday () +. d) budget.Budget.deadline;
    exhausted = false }

let stopped oracle =
  oracle.exhausted
  || ((match oracle.eval_cap with
       | Some cap -> oracle.evals >= cap
       | None -> false)
      || (match oracle.deadline_at with
          | Some t -> Unix.gettimeofday () >= t
          | None -> false))
     && begin
       oracle.exhausted <- true;
       true
     end

let note_eval oracle = oracle.evals <- oracle.evals + 1

let current_cost oracle =
  note_eval oracle;
  O.cost oracle.state

let finish oracle =
  { Heuristics.allocation = O.allocation oracle.state;
    evaluations = oracle.evals;
    exhausted = oracle.exhausted }

let move st j1 j2 delta =
  let d = min delta (O.rho_at st j1) in
  O.apply st ~j:j1 ~drho:(-d);
  O.apply st ~j:j2 ~drho:d;
  d

let revert_move st =
  O.undo st;
  O.undo st

let random_composition rng j_count target =
  let cuts = Array.init (j_count - 1) (fun _ -> P.int_in_range rng ~lo:0 ~hi:target) in
  Array.sort compare cuts;
  let rho = Array.make j_count 0 in
  let prev = ref 0 in
  Array.iteri
    (fun i c ->
      rho.(i) <- c - !prev;
      prev := c)
    cuts;
  rho.(j_count - 1) <- target - !prev;
  rho

let h0_on budget ~rng inst ~target =
  let oracle = make_oracle inst budget in
  let j_count = Instance.num_recipes inst in
  let rho =
    if j_count = 1 then [| target |] else random_composition rng j_count target
  in
  O.reset oracle.state ~rho;
  finish oracle

let h1_start oracle target =
  let j_count = Instance.num_recipes oracle.inst in
  let best_j = ref 0 and best_cost = ref max_int in
  for j = 0 to j_count - 1 do
    note_eval oracle;
    let c = Instance.single_cost oracle.inst ~j ~target in
    if c < !best_cost then begin
      best_cost := c;
      best_j := j
    end
  done;
  let rho = Array.make j_count 0 in
  rho.(!best_j) <- target;
  O.reset oracle.state ~rho;
  !best_cost

let start_point oracle ~warm_start target =
  let c1 = h1_start oracle target in
  match warm_start with
  | None -> c1
  | Some rho ->
    let h1_rho = O.rho oracle.state in
    O.reset oracle.state ~rho;
    let cw = current_cost oracle in
    if cw <= c1 then cw
    else begin
      O.reset oracle.state ~rho:h1_rho;
      c1
    end

let random_pair rng j_count =
  let j1 = P.int rng j_count in
  let j2 = (j1 + 1 + P.int rng (j_count - 1)) mod j_count in
  (j1, j2)

let h2_on ~(params : Heuristics.params) budget ~rng ~warm_start inst ~target =
  let oracle = make_oracle inst budget in
  let j_count = Instance.num_recipes inst in
  let c0 = start_point oracle ~warm_start target in
  if j_count > 1 then begin
    let st = oracle.state in
    let best = ref (O.rho st) and best_cost = ref c0 in
    let i = ref 0 in
    while !i < params.iterations && not (stopped oracle) do
      incr i;
      let j1, j2 = random_pair rng j_count in
      ignore (move st j1 j2 params.step);
      let c = current_cost oracle in
      if c < !best_cost then begin
        best_cost := c;
        best := O.rho st
      end;
      O.commit st
    done;
    O.reset st ~rho:!best
  end;
  finish oracle

let h31_on ~(params : Heuristics.params) budget ~rng ~warm_start inst ~target =
  let oracle = make_oracle inst budget in
  let j_count = Instance.num_recipes inst in
  let c0 = start_point oracle ~warm_start target in
  if j_count > 1 then begin
    let st = oracle.state in
    let current_cost_r = ref c0 in
    let stale = ref 0 and i = ref 0 in
    while !i < params.iterations && !stale < params.patience && not (stopped oracle)
    do
      incr i;
      let j1, j2 = random_pair rng j_count in
      ignore (move st j1 j2 params.step);
      let c = current_cost oracle in
      if c < !current_cost_r then begin
        current_cost_r := c;
        stale := 0;
        O.commit st
      end
      else begin
        revert_move st;
        incr stale
      end
    done
  end;
  finish oracle

let steepest_step oracle (params : Heuristics.params) current_cost =
  let st = oracle.state in
  let j_count = Instance.num_recipes oracle.inst in
  let best_gain = ref 0 and best_move = ref None in
  let try_move j1 j2 delta =
    let moved = move st j1 j2 delta in
    let c = (note_eval oracle; O.cost st) in
    revert_move st;
    let gain = !current_cost - c in
    if gain > !best_gain then begin
      best_gain := gain;
      best_move := Some (j1, j2, moved)
    end
  in
  for j1 = 0 to j_count - 1 do
    if O.rho_at st j1 > 0 && not (stopped oracle) then
      for j2 = 0 to j_count - 1 do
        if j1 <> j2 then
          if params.exhaustive_deltas then begin
            let delta = ref params.step in
            while !delta < O.rho_at st j1 && not (stopped oracle) do
              try_move j1 j2 !delta;
              delta := !delta + params.step
            done;
            try_move j1 j2 (O.rho_at st j1)
          end
          else try_move j1 j2 params.step
      done
  done;
  match !best_move with
  | None -> false
  | Some (j1, j2, delta) ->
    ignore (move st j1 j2 delta);
    O.commit st;
    current_cost := !current_cost - !best_gain;
    true

let descend oracle params cost0 =
  let current_cost = ref cost0 in
  while (not (stopped oracle)) && steepest_step oracle params current_cost do
    ()
  done;
  !current_cost

let h32_on ~params budget ~warm_start inst ~target =
  let oracle = make_oracle inst budget in
  let c0 = start_point oracle ~warm_start target in
  ignore (descend oracle params c0);
  finish oracle

let h32_jump_on ~(params : Heuristics.params) budget ~rng ~warm_start inst
    ~target =
  let oracle = make_oracle inst budget in
  let st = oracle.state in
  let j_count = Instance.num_recipes inst in
  let c0 = start_point oracle ~warm_start target in
  let current_cost_r = ref (descend oracle params c0) in
  let best = ref (O.rho st) and best_cost = ref !current_cost_r in
  if j_count > 1 then begin
    let jump = ref 0 in
    while !jump < params.jumps && not (stopped oracle) do
      incr jump;
      for _ = 1 to params.jump_size do
        let j1, j2 = random_pair rng j_count in
        ignore (move st j1 j2 params.step)
      done;
      O.commit st;
      current_cost_r := descend oracle params (current_cost oracle);
      if !current_cost_r < !best_cost then begin
        best_cost := !current_cost_r;
        best := O.rho st
      end
    done
  end;
  O.reset st ~rho:!best;
  finish oracle

let search ?(params = Heuristics.default_params) ?(budget = Budget.unlimited)
    ~rng ?warm_start name inst ~target =
  match (name : Heuristics.name) with
  | H0 -> h0_on budget ~rng inst ~target
  | H1 ->
    let oracle = make_oracle inst budget in
    ignore (h1_start oracle target);
    finish oracle
  | H2 -> h2_on ~params budget ~rng ~warm_start inst ~target
  | H31 -> h31_on ~params budget ~rng ~warm_start inst ~target
  | H32 -> h32_on ~params budget ~warm_start inst ~target
  | H32_jump -> h32_jump_on ~params budget ~rng ~warm_start inst ~target
