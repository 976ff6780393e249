type t = {
  deadline : float option;
  node_cap : int option;
  eval_cap : int option;
}

let unlimited = { deadline = None; node_cap = None; eval_cap = None }

let deadline s =
  if s < 0.0 then invalid_arg "Budget.deadline: negative";
  { unlimited with deadline = Some s }

let nodes n =
  if n < 0 then invalid_arg "Budget.nodes: negative";
  { unlimited with node_cap = Some n }

let evals n =
  if n < 0 then invalid_arg "Budget.evals: negative";
  { unlimited with eval_cap = Some n }

let remaining t ~elapsed =
  { t with deadline = Option.map (fun d -> Float.max 0.0 (d -. elapsed)) t.deadline }

let pp fmt t =
  let parts =
    List.filter_map Fun.id
      [ Option.map (Printf.sprintf "deadline %gs") t.deadline;
        Option.map (Printf.sprintf "nodes %d") t.node_cap;
        Option.map (Printf.sprintf "evals %d") t.eval_cap ]
  in
  Format.pp_print_string fmt
    (match parts with [] -> "unlimited" | ps -> String.concat ", " ps)
