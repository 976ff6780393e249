type t = {
  objective : Objective.t;
  pricebook : Pricebook.t option;
}

let make ~objective ?pricebook () = { objective; pricebook }

let min_cost ?pricebook ~target () =
  { objective = Objective.min_cost ~target; pricebook }

let max_throughput ?pricebook ~budget () =
  { objective = Objective.max_throughput ~budget; pricebook }

let objective t = t.objective
let pricebook t = t.pricebook
