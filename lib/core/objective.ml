type t =
  | Min_cost of { target : int }
  | Max_throughput of { budget : int }

type kind = [ `Min_cost | `Max_throughput ]

let min_cost ~target =
  if target < 0 then invalid_arg "Objective.min_cost: negative target";
  Min_cost { target }

let max_throughput ~budget =
  if budget < 0 then invalid_arg "Objective.max_throughput: negative budget";
  Max_throughput { budget }

let kind = function
  | Min_cost _ -> `Min_cost
  | Max_throughput _ -> `Max_throughput

let scalar = function
  | Min_cost { target } -> target
  | Max_throughput { budget } -> budget

let kind_to_string = function
  | `Min_cost -> "min-cost"
  | `Max_throughput -> "max-throughput"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "min-cost" | "mincost" | "cost" -> Some `Min_cost
  | "max-throughput" | "maxthroughput" | "throughput" -> Some `Max_throughput
  | _ -> None
