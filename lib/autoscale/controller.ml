open Rentcost

type config = {
  ticks_per_hour : int;
  deadband : float;
  headroom : float;
  spec : Solver.spec;
  budget : Budget.t;
}

let default_config =
  {
    ticks_per_hour = 60;
    deadband = 0.1;
    headroom = 0.;
    spec = Solver.Auto;
    budget = Budget.unlimited;
  }

type action = Hold | Reconfigure

let action_to_string = function Hold -> "hold" | Reconfigure -> "reconfigure"

let action_of_string = function
  | "hold" -> Some Hold
  | "reconfigure" -> Some Reconfigure
  | _ -> None

type plan = {
  tick : int;
  demand : int;
  target : int;
  action : action;
  rent : int array;
  renew : int array;
  release : int array;
  machines : int array;
  rho : int array;
  charged : int;
  violation : bool;
}

type t = {
  config : config;
  instance : Instance.t;
  costs : int array;  (** effective per-type rates of the instance *)
  billing : Billing.t;
  mutable next_tick : int;
  mutable alloc : Allocation.t option;
  mutable target : int;  (** target [alloc] was solved for *)
  mutable replans : int;
  mutable holds : int;
  mutable violations : int;
}

let c_ticks = Telemetry.counter Telemetry.autoscale_ticks
let c_replans = Telemetry.counter Telemetry.autoscale_replans
let c_holds = Telemetry.counter Telemetry.autoscale_holds
let c_violations = Telemetry.counter Telemetry.autoscale_violations

let h_resolve =
  Telemetry.histogram Telemetry.autoscale_resolve_seconds
    ~bounds:[| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. |]

let check_config c =
  if c.ticks_per_hour <= 0 then
    invalid_arg "Controller: ticks_per_hour must be > 0";
  if not (Float.is_finite c.deadband) || c.deadband < 0. || c.deadband >= 1.
  then invalid_arg "Controller: deadband must lie in [0, 1)";
  if not (Float.is_finite c.headroom) || c.headroom < 0. then
    invalid_arg "Controller: headroom must be >= 0"

let create_on ?(config = default_config) instance =
  check_config config;
  (match Instance.objective_kind instance with
  | `Min_cost -> ()
  | `Max_throughput ->
    invalid_arg "Controller.create_on: instance compiled for max-throughput");
  let problem = Instance.problem instance in
  let platform = Problem.platform problem in
  let num_types = Platform.num_types platform in
  {
    config;
    instance;
    costs = Array.init num_types (Platform.cost platform);
    billing = Billing.create ~num_types ~ticks_per_hour:config.ticks_per_hour;
    next_tick = 0;
    alloc = None;
    target = 0;
    replans = 0;
    holds = 0;
    violations = 0;
  }

let provisioned t =
  match t.alloc with Some a -> Allocation.total_rho a | None -> 0

let resolve t ~demand =
  let target =
    int_of_float (Float.ceil (float_of_int demand *. (1. +. t.config.headroom)))
  in
  let started = Telemetry.now () in
  let outcome =
    Solver.run ~budget:t.config.budget ?warm_start:t.alloc ~spec:t.config.spec
      t.instance ~objective:(Objective.min_cost ~target)
  in
  Telemetry.observe h_resolve (Telemetry.now () -. started);
  match outcome.Solver.allocation with
  | Some a ->
    t.alloc <- Some a;
    t.target <- target
  | None ->
    (* Unreachable for target >= 0: renting enough machines is always
       feasible and the solver degrades to the H1 closed form. *)
    assert false

let tick t ~demand =
  if demand < 0 then invalid_arg "Controller.tick: negative demand";
  let tick = t.next_tick in
  t.next_tick <- tick + 1;
  Telemetry.bump c_ticks;
  let violation = demand > provisioned t in
  if violation then begin
    t.violations <- t.violations + 1;
    Telemetry.bump c_violations
  end;
  let drifted_down =
    t.alloc <> None
    && float_of_int demand < (1. -. t.config.deadband) *. float_of_int t.target
  in
  let action =
    if violation || drifted_down then begin
      resolve t ~demand;
      t.replans <- t.replans + 1;
      Telemetry.bump c_replans;
      Reconfigure
    end
    else begin
      t.holds <- t.holds + 1;
      Telemetry.bump c_holds;
      Hold
    end
  in
  let machines, rho =
    match t.alloc with
    | Some a -> (Array.copy a.Allocation.machines, Array.copy a.Allocation.rho)
    | None -> (Array.make (Array.length t.costs) 0, [||])
  in
  let event = Billing.step t.billing ~tick ~desired:machines ~costs:t.costs in
  {
    tick;
    demand;
    target = t.target;
    action;
    rent = event.Billing.rented;
    renew = event.Billing.renewed;
    release = event.Billing.released;
    machines;
    rho;
    charged = event.Billing.charged;
    violation;
  }

let ticks t = t.next_tick
let replans t = t.replans
let holds t = t.holds
let violations t = t.violations
let total_charged t = Billing.total_charged t.billing

module For_testing = struct
  let allocation t = t.alloc
end
