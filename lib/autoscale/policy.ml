open Rentcost

type outcome = {
  policy : string;
  total_cost : int;
  violations : int;
  replans : int;
}

let hours ~ticks_per_hour ~ticks =
  if ticks_per_hour <= 0 then invalid_arg "Policy: ticks_per_hour must be > 0";
  (ticks + ticks_per_hour - 1) / ticks_per_hour

let elastic ?config instance trace =
  let controller = Controller.create_on ?config instance in
  let plans =
    List.init (Trace.length trace) (fun k ->
        Controller.tick controller ~demand:(Trace.demand trace k))
  in
  ( {
      policy = "elastic";
      total_cost = Controller.total_charged controller;
      violations = Controller.violations controller;
      replans = Controller.replans controller;
    },
    plans )

let static_peak ?budget ?spec ~ticks_per_hour instance trace =
  let hours = hours ~ticks_per_hour ~ticks:(Trace.length trace) in
  if hours = 0 then
    { policy = "static-peak"; total_cost = 0; violations = 0; replans = 0 }
  else begin
    let outcome =
      Solver.run ?budget ?spec instance
        ~objective:(Objective.min_cost ~target:(Trace.peak trace))
    in
    let fleet = Option.get outcome.Solver.allocation in
    {
      policy = "static-peak";
      total_cost = hours * fleet.Allocation.cost;
      violations = 0;
      replans = 1;
    }
  end

let oracle ?budget ?spec ~ticks_per_hour instance trace =
  let blocks = hours ~ticks_per_hour ~ticks:(Trace.length trace) in
  let block_peak b =
    let lo = b * ticks_per_hour in
    let hi = min (Trace.length trace) (lo + ticks_per_hour) in
    let peak = ref 0 in
    for k = lo to hi - 1 do
      peak := max !peak (Trace.demand trace k)
    done;
    !peak
  in
  let demand = Array.init blocks block_peak in
  let plan = Elastic.provision_on ?budget ?spec instance ~demand in
  {
    policy = "oracle";
    total_cost = Elastic.total_cost plan;
    violations = 0;
    replans = blocks;
  }

type comparison = {
  elastic : outcome;
  static_peak : outcome;
  oracle : outcome;
}

let compare_policies ?(config = Controller.default_config) instance trace =
  let ticks_per_hour = config.Controller.ticks_per_hour in
  let budget = config.Controller.budget and spec = config.Controller.spec in
  let elastic_outcome, _plans = elastic ~config instance trace in
  {
    elastic = elastic_outcome;
    static_peak = static_peak ~budget ~spec ~ticks_per_hour instance trace;
    oracle = oracle ~budget ~spec ~ticks_per_hour instance trace;
  }

let savings ~of_ ~over =
  if over.total_cost = 0 then 0.
  else
    float_of_int (over.total_cost - of_.total_cost)
    /. float_of_int over.total_cost
