type t = {
  deadline : float option;
  node_cap : int option;
  eval_cap : int option;
}

let unlimited = { deadline = None; node_cap = None; eval_cap = None }

let remaining t ~elapsed =
  { t with deadline = Option.map (fun d -> Float.max 0.0 (d -. elapsed)) t.deadline }
