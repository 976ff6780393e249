type t = {
  ntypes : int;
  types : int array;
  edges : (int * int) list;
  succs : int array array;
  preds : int array array;
  topo : int array;
  type_counts : int array;
}

let num_tasks t = Array.length t.types
let num_types t = t.ntypes
let type_of t i = t.types.(i)
let edges t = t.edges
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)
let type_counts t = t.type_counts

(* Kahn's algorithm; detects cycles by counting emitted tasks. *)
let toposort n succs preds =
  let indeg = Array.map Array.length preds in
  let order = Array.make n (-1) in
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order.(!k) <- i;
    incr k;
    Array.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j queue)
      succs.(i)
  done;
  if !k <> n then invalid_arg "Task_graph.create: precedence graph has a cycle";
  order

let create ~ntypes ~types ~edges =
  if ntypes <= 0 then invalid_arg "Task_graph.create: ntypes must be positive";
  let n = Array.length types in
  if n = 0 then invalid_arg "Task_graph.create: a recipe needs at least one task";
  Array.iter
    (fun q ->
      if q < 0 || q >= ntypes then invalid_arg "Task_graph.create: task type out of range")
    types;
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n || a = b then
        invalid_arg "Task_graph.create: bad precedence edge")
    edges;
  let succ_lists = Array.make n [] and pred_lists = Array.make n [] in
  List.iter
    (fun (a, b) ->
      succ_lists.(a) <- b :: succ_lists.(a);
      pred_lists.(b) <- a :: pred_lists.(b))
    edges;
  let succs = Array.map (fun l -> Array.of_list (List.rev l)) succ_lists in
  let preds = Array.map (fun l -> Array.of_list (List.rev l)) pred_lists in
  let topo = toposort n succs preds in
  let type_counts = Array.make ntypes 0 in
  Array.iter (fun q -> type_counts.(q) <- type_counts.(q) + 1) types;
  { ntypes; types = Array.copy types; edges; succs; preds; topo; type_counts }

let chain ~ntypes ~types =
  let n = Array.length types in
  let edges = List.init (max 0 (n - 1)) (fun i -> (i, i + 1)) in
  create ~ntypes ~types ~edges

let types_used t =
  let used = ref [] in
  Array.iteri (fun q c -> if c > 0 then used := q :: !used) t.type_counts;
  List.rev !used

let sources t =
  let acc = ref [] in
  for i = num_tasks t - 1 downto 0 do
    if Array.length t.preds.(i) = 0 then acc := i :: !acc
  done;
  !acc

(* Longest path in tasks, for latency-style statistics. *)
let critical_path_length t =
  let n = num_tasks t in
  let depth = Array.make n 1 in
  Array.iter
    (fun i ->
      Array.iter
        (fun j -> if depth.(i) + 1 > depth.(j) then depth.(j) <- depth.(i) + 1)
        t.succs.(i))
    t.topo;
  Array.fold_left max 0 depth

let pp fmt t =
  Format.fprintf fmt "@[<v>recipe with %d tasks over %d types@," (num_tasks t) t.ntypes;
  Array.iteri (fun i q -> Format.fprintf fmt "  task %d : type %d@," i q) t.types;
  List.iter (fun (a, b) -> Format.fprintf fmt "  %d -> %d@," a b) t.edges;
  Format.fprintf fmt "@]"

module For_testing = struct
  let topo_order t = t.topo
end
