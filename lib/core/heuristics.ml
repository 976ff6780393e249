module P = Numeric.Prng

type name = H0 | H1 | H2 | H31 | H32 | H32_jump

let all = [ H0; H1; H2; H31; H32; H32_jump ]

let name_to_string = function
  | H0 -> "H0"
  | H1 -> "H1"
  | H2 -> "H2"
  | H31 -> "H31"
  | H32 -> "H32"
  | H32_jump -> "H32Jump"

type params = {
  step : int;
  iterations : int;
  patience : int;
  jumps : int;
  jump_size : int;
  exhaustive_deltas : bool;
}

(* Jump defaults calibrated on the paper's illustrating example:
   50 perturbation rounds of 4 exchanges match or beat every H32Jump
   row of Table III while keeping H32Jump the slowest heuristic, as in
   the paper's Figure 5. *)
let default_params =
  { step = 1; iterations = 500; patience = 100; jumps = 50; jump_size = 4;
    exhaustive_deltas = false }

type result = { allocation : Allocation.t; evaluations : int; exhausted : bool }

let check_params p =
  if p.step <= 0 then invalid_arg "Heuristics: step must be positive";
  if p.iterations < 0 || p.patience < 0 || p.jumps < 0 || p.jump_size < 0 then
    invalid_arg "Heuristics: negative iteration parameter"

let run_evals_hist =
  Telemetry.histogram Telemetry.heuristic_run_evals
    ~bounds:[| 10.; 100.; 1_000.; 10_000.; 100_000. |]

(* A counting cost oracle shared by one heuristic run — an
   [Instance.Oracle] (incremental re-pricing over recipe supports)
   plus evaluation accounting, and the enforcement point for
   evaluation/deadline budgets ([stopped] is checked at move
   boundaries, so a run always ends on a complete, feasible
   incumbent). *)
type oracle = {
  inst : Instance.t;
  state : Instance.Oracle.t;
  src : string;  (* convergence-event source, e.g. "h32jump" *)
  mutable evals : int;
  eval_cap : int option;
  deadline_at : float option;  (* absolute Unix time *)
  mutable exhausted : bool;
  mutable best_seen : int;
      (* cheapest cost priced so far, across phases (H1 start, walk,
         descents) — the monotone filter for convergence events *)
}

let make_oracle ?(src = "heuristic") inst (budget : Budget.t) =
  { inst; state = Instance.Oracle.create inst; src; evals = 0;
    eval_cap = budget.Budget.eval_cap;
    deadline_at =
      Option.map (fun d -> Unix.gettimeofday () +. d) budget.Budget.deadline;
    exhausted = false;
    best_seen = max_int }

(* Feed a priced feasible cost to the convergence timeline. One int
   compare per call; the emit (and its allocation) only happens on
   strict improvement, which is rare on any search trajectory. *)
let observe_best oracle c =
  if c < oracle.best_seen then begin
    oracle.best_seen <- c;
    Telemetry.Progress.emit ~incumbent:(float_of_int c) ~source:oracle.src ()
  end

(* Sticky out-of-budget test: once tripped, stays tripped. *)
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

(* Price the oracle's current point: one evaluation, O(1) — the
   incremental state was already re-priced by the applies. *)
let current_cost oracle =
  note_eval oracle;
  Instance.Oracle.cost oracle.state

(* The run's evaluations reach telemetry once, here: per-evaluation
   bumps would cost an atomic and a domain-local lookup on the hottest
   loop. *)
let finish oracle =
  Telemetry.Effort.evaluations oracle.evals;
  { allocation = Instance.Oracle.allocation oracle.state;
    evaluations = oracle.evals;
    exhausted = oracle.exhausted }

let check_target target = if target < 0 then invalid_arg "Heuristics: negative target"

(* Sampled iteration spans: the search loops are far too hot for a
   span per move (a move is one oracle evaluation), so every
   [1 lsl block_bits] iterations one span covering the whole block is
   recorded, timed by the loop itself. Off, this is one ref read per
   block boundary check; on, two clock reads per 64 iterations. *)
let block_bits = 6

let block_mask = (1 lsl block_bits) - 1

let sample_block ~name oracle ~iter ~block_start =
  if Telemetry.enabled () && iter land block_mask = 0 then begin
    let t = Telemetry.now () in
    Telemetry.Span.record
      ~attrs:
        [ ("iterations", string_of_int iter);
          ("evaluations", string_of_int oracle.evals) ]
      ~name ~start:!block_start
      ~duration:(t -. !block_start)
      ();
    block_start := t
  end

(* The amount an exchange of δ out of [j1] moves: everything when the
   source holds less than δ (the H2 rule of the paper). *)
let quantum st j1 delta = min delta (Instance.Oracle.rho_at st j1)

(* Move δ units from j1 to j2. *)
let move st j1 j2 delta =
  let d = quantum st j1 delta in
  Instance.Oracle.apply st ~j:j1 ~drho:(-d);
  Instance.Oracle.apply st ~j:j2 ~drho:d

(* ----- H0: uniformly random composition ----- *)

let random_composition rng j_count target =
  (* Classic stars-and-bars sampling: J-1 uniform cut points in
     [0, target], sorted; consecutive differences are the parts. *)
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

let h0_on ?params:_ budget ~rng inst ~target =
  let oracle = make_oracle ~src:"h0" inst budget in
  let j_count = Instance.num_recipes inst in
  let rho =
    if j_count = 1 then [| target |] else random_composition rng j_count target
  in
  Instance.Oracle.reset oracle.state ~rho;
  finish oracle

(* ----- H1: best single graph ----- *)

(* H1 always runs to completion regardless of budget: its J
   evaluations are the feasibility floor every budgeted run can
   afford, and every other heuristic starts from its vector. Each
   probe is the § IV-A closed form over the recipe's support —
   O(|supp(j)|), no full load vector. The winning split is installed
   in the oracle state. *)
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
  Instance.Oracle.reset oracle.state ~rho;
  observe_best oracle !best_cost;
  !best_cost

let h1_on ?params:_ budget inst ~target =
  let oracle = make_oracle ~src:"h1" inst budget in
  ignore (h1_start oracle target);
  finish oracle

(* Start point of the search heuristics: the H1 split, or a caller
   supplied warm start when it prices no worse. The warm split must be
   compact, non-negative and sum to at least the target (the Solver
   layer validates before handing it down); pricing it costs one
   evaluation, so unseeded runs keep their historical trajectories and
   evaluation counts exactly. *)
let start_point oracle ~warm_start target =
  let c1 = h1_start oracle target in
  match warm_start with
  | None -> c1
  | Some rho ->
    let h1_rho = Instance.Oracle.rho oracle.state in
    Instance.Oracle.reset oracle.state ~rho;
    let cw = current_cost oracle in
    observe_best oracle cw;
    if cw <= c1 then cw
    else begin
      Instance.Oracle.reset oracle.state ~rho:h1_rho;
      c1
    end

(* ----- H2: random walk ----- *)

(* Draw a random ordered pair of distinct recipes. *)
let random_pair rng j_count =
  let j1 = P.int rng j_count in
  let j2 = (j1 + 1 + P.int rng (j_count - 1)) mod j_count in
  (j1, j2)

let h2_on ~params budget ~rng ~warm_start inst ~target =
  let oracle = make_oracle ~src:"h2" inst budget in
  let j_count = Instance.num_recipes inst in
  let c0 = start_point oracle ~warm_start target in
  if j_count > 1 then begin
    let st = oracle.state in
    let best = ref (Instance.Oracle.rho st) and best_cost = ref c0 in
    let i = ref 0 in
    let block_start = ref (Telemetry.now ()) in
    while !i < params.iterations && not (stopped oracle) do
      incr i;
      let j1, j2 = random_pair rng j_count in
      move st j1 j2 params.step;
      let c = current_cost oracle in
      if c < !best_cost then begin
        best_cost := c;
        best := Instance.Oracle.rho st;
        observe_best oracle c
      end;
      (* The walk continues from the new point whether or not it
         improved (contrast with H31). *)
      sample_block ~name:"heuristics.h2.block" oracle ~iter:!i ~block_start
    done;
    Instance.Oracle.reset st ~rho:!best
  end;
  finish oracle

(* ----- H31: stochastic descent ----- *)

let h31_on ~params budget ~rng ~warm_start inst ~target =
  let oracle = make_oracle ~src:"h31" inst budget in
  let j_count = Instance.num_recipes inst in
  let c0 = start_point oracle ~warm_start target in
  if j_count > 1 then begin
    let st = oracle.state in
    let current_cost_r = ref c0 in
    let stale = ref 0 and i = ref 0 in
    let block_start = ref (Telemetry.now ()) in
    while !i < params.iterations && !stale < params.patience && not (stopped oracle)
    do
      incr i;
      let j1, j2 = random_pair rng j_count in
      (* Take δ out of j1, price it into j2, then complete the move or
         put δ back: descent only keeps improving moves. *)
      let d = quantum st j1 params.step in
      Instance.Oracle.apply st ~j:j1 ~drho:(-d);
      note_eval oracle;
      let c = Instance.Oracle.price st ~j:j2 ~drho:d in
      if c < !current_cost_r then begin
        Instance.Oracle.apply st ~j:j2 ~drho:d;
        current_cost_r := c;
        stale := 0;
        observe_best oracle c
      end
      else begin
        Instance.Oracle.apply st ~j:j1 ~drho:d;
        incr stale
      end;
      sample_block ~name:"heuristics.h31.block" oracle ~iter:!i ~block_start
    done
  end;
  finish oracle

(* ----- H32: steepest gradient ----- *)

(* One steepest-descent pass: returns true when a strictly improving
   exchange was applied. By default a single quantum [step] is tried
   per ordered pair: δ is taken out of [j1] once and every [j2] is
   priced with it in one read-only pass over its support. With
   [exhaustive_deltas] every multiple of [step] up to the source's
   whole throughput is tested — the literal reading of the paper's
   "all possible throughput fraction exchanges", at a quadratically
   higher cost per pass. That path tests in (j1, j2, δ) order, so the
   first of equal gains wins and a budget stop cuts the same
   evaluations as probing each move and reverting it would: per pair,
   [j1] is drained one [step] at a time and [j2] priced after each. *)
let steepest_step oracle params current_cost =
  let st = oracle.state in
  let j_count = Instance.num_recipes oracle.inst in
  let best_gain = ref 0 and best_move = ref None in
  let consider j1 j2 delta =
    note_eval oracle;
    let gain = !current_cost - Instance.Oracle.price st ~j:j2 ~drho:delta in
    if gain > !best_gain then begin
      best_gain := gain;
      best_move := Some (j1, j2, delta)
    end
  in
  for j1 = 0 to j_count - 1 do
    let whole = Instance.Oracle.rho_at st j1 in
    if whole > 0 && not (stopped oracle) then
      if params.exhaustive_deltas then
        for j2 = 0 to j_count - 1 do
          if j1 <> j2 then begin
            let taken = ref 0 and delta = ref params.step in
            while !delta < whole && not (stopped oracle) do
              Instance.Oracle.apply st ~j:j1 ~drho:(!taken - !delta);
              taken := !delta;
              consider j1 j2 !delta;
              delta := !delta + params.step
            done;
            Instance.Oracle.apply st ~j:j1 ~drho:(!taken - whole);
            consider j1 j2 whole;
            Instance.Oracle.apply st ~j:j1 ~drho:whole
          end
        done
      else begin
        let d = quantum st j1 params.step in
        Instance.Oracle.apply st ~j:j1 ~drho:(-d);
        for j2 = 0 to j_count - 1 do
          if j1 <> j2 then consider j1 j2 d
        done;
        Instance.Oracle.apply st ~j:j1 ~drho:d
      end
  done;
  match !best_move with
  | None -> false
  | Some (j1, j2, delta) ->
    move st j1 j2 delta;
    current_cost := !current_cost - !best_gain;
    true

let descend oracle params cost0 =
  let current_cost = ref cost0 in
  let steps = ref 0 in
  let block_start = ref (Telemetry.now ()) in
  while (not (stopped oracle)) && steepest_step oracle params current_cost do
    incr steps;
    observe_best oracle !current_cost;
    sample_block ~name:"heuristics.h32.block" oracle ~iter:!steps ~block_start
  done;
  !current_cost

let h32_on ~params budget ~warm_start inst ~target =
  let oracle = make_oracle ~src:"h32" inst budget in
  let c0 = start_point oracle ~warm_start target in
  ignore (descend oracle params c0);
  finish oracle

(* ----- H32Jump: steepest gradient with random restarts nearby ----- *)

let h32_jump_on ~params budget ~rng ~warm_start inst ~target =
  let oracle = make_oracle ~src:"h32jump" inst budget in
  let st = oracle.state in
  let j_count = Instance.num_recipes inst in
  let c0 = start_point oracle ~warm_start target in
  let current_cost_r = ref (descend oracle params c0) in
  let best = ref (Instance.Oracle.rho st) and best_cost = ref !current_cost_r in
  if j_count > 1 then begin
    let jump = ref 0 in
    while !jump < params.jumps && not (stopped oracle) do
      incr jump;
      (* Perturb: accept a burst of random exchanges unconditionally,
         then descend to the nearby local minimum. *)
      for _ = 1 to params.jump_size do
        let j1, j2 = random_pair rng j_count in
        move st j1 j2 params.step
      done;
      current_cost_r := descend oracle params (current_cost oracle);
      if !current_cost_r < !best_cost then begin
        best_cost := !current_cost_r;
        best := Instance.Oracle.rho st
      end
    done
  end;
  Instance.Oracle.reset st ~rho:!best;
  finish oracle

(* A fixed fallback seed so the entry points stay usable — and
   reproducible — when the caller has no PRNG at hand (deterministic
   heuristics never touch it). *)
let default_seed = 0x5EED

let search ?(params = default_params) ?(budget = Budget.unlimited) ?rng
    ?warm_start name inst ~target =
  check_params params;
  check_target target;
  let rng = match rng with Some r -> r | None -> P.create default_seed in
  let go () =
    match name with
    | H0 -> h0_on ~params budget ~rng inst ~target
    | H1 -> h1_on ~params budget inst ~target
    | H2 -> h2_on ~params budget ~rng ~warm_start inst ~target
    | H31 -> h31_on ~params budget ~rng ~warm_start inst ~target
    | H32 -> h32_on ~params budget ~warm_start inst ~target
    | H32_jump -> h32_jump_on ~params budget ~rng ~warm_start inst ~target
  in
  if not (Telemetry.enabled ()) then go ()
  else
    Telemetry.Span.with_span
      ~attrs:
        [ ("algo", name_to_string name); ("target", string_of_int target) ]
      "heuristics.run"
      (fun () ->
        let r = go () in
        Telemetry.observe run_evals_hist (float_of_int r.evaluations);
        r)
