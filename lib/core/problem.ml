type t = {
  platform : Platform.t;
  recipes : Task_graph.t array;
  counts : int array array;  (* counts.(j).(q) = n^j_q *)
}

let create platform recipes =
  if Array.length recipes = 0 then invalid_arg "Problem.create: no recipes";
  let q = Platform.num_types platform in
  Array.iter
    (fun r ->
      if Task_graph.num_types r <> q then
        invalid_arg "Problem.create: recipe type count differs from platform")
    recipes;
  { platform;
    recipes = Array.copy recipes;
    counts = Array.map Task_graph.type_counts recipes }

let platform t = t.platform
let recipes t = Array.copy t.recipes
let recipe t j = t.recipes.(j)
let num_recipes t = Array.length t.recipes
let num_types t = Platform.num_types t.platform
let type_count t j q = t.counts.(j).(q)
let type_counts t j = Array.copy t.counts.(j)

let is_disjoint t =
  let users k =
    Array.fold_left (fun n c -> if c.(k) > 0 then n + 1 else n) 0 t.counts
  in
  List.for_all (fun k -> users k <= 1) (List.init (num_types t) Fun.id)

let illustrating =
  (* Paper types t1..t4 are 0..3 here. Recipes are two-task chains:
     ϕ¹ = t2→t4, ϕ² = t3→t4, ϕ³ = t1→t2. *)
  let chain types = Task_graph.chain ~ntypes:4 ~types in
  create Platform.table2
    [| chain [| 1; 3 |]; chain [| 2; 3 |]; chain [| 0; 1 |] |]

let pp fmt t =
  Format.fprintf fmt "@[<v>platform:@,%a@,%d recipes:@," Platform.pp t.platform
    (num_recipes t);
  Array.iteri (fun j r -> Format.fprintf fmt "recipe %d: %a@," j Task_graph.pp r) t.recipes;
  Format.fprintf fmt "@]"

module For_testing = struct
  let is_blackbox t =
    is_disjoint t && Array.for_all (fun r -> Task_graph.num_tasks r = 1) t.recipes
end
