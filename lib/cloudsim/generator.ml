module P = Numeric.Prng
module TG = Rentcost.Task_graph
module PF = Rentcost.Platform
module PB = Rentcost.Problem

type graph_params = {
  num_graphs : int;
  min_tasks : int;
  max_tasks : int;
  mutation_pct : float;
}

type cloud_params = {
  num_types : int;
  min_cost : int;
  max_cost : int;
  min_throughput : int;
  max_throughput : int;
}

let check_cloud cp =
  if cp.num_types <= 0 then invalid_arg "Generator: num_types must be positive";
  if cp.min_cost <= 0 || cp.max_cost < cp.min_cost then
    invalid_arg "Generator: bad cost range";
  if cp.min_throughput <= 0 || cp.max_throughput < cp.min_throughput then
    invalid_arg "Generator: bad throughput range"

let check_graphs gp =
  if gp.num_graphs <= 0 then invalid_arg "Generator: num_graphs must be positive";
  if gp.min_tasks <= 0 || gp.max_tasks < gp.min_tasks then
    invalid_arg "Generator: bad task count range";
  if gp.mutation_pct < 0.0 || gp.mutation_pct > 1.0 then
    invalid_arg "Generator: mutation_pct must be in [0, 1]"

let platform ~rng cp =
  check_cloud cp;
  PF.create
    (Array.init cp.num_types (fun _ ->
         { PF.cost = P.int_in_range rng ~lo:cp.min_cost ~hi:cp.max_cost;
           throughput = P.int_in_range rng ~lo:cp.min_throughput ~hi:cp.max_throughput }))

let random_dag ~rng ~ntypes ~types =
  let n = Array.length types in
  (* Every task after the first picks 1-3 predecessors among earlier
     tasks, giving a connected, roughly layered DAG. *)
  let edges = ref [] in
  for i = 1 to n - 1 do
    let npreds = min i (1 + P.int rng 3) in
    let seen = Hashtbl.create 4 in
    let added = ref 0 in
    while !added < npreds do
      let p = P.int rng i in
      if not (Hashtbl.mem seen p) then begin
        Hashtbl.add seen p ();
        edges := (p, i) :: !edges;
        incr added
      end
    done
  done;
  TG.create ~ntypes ~types ~edges:!edges

let mutate_types ~rng ~ntypes ~pct types =
  let n = Array.length types in
  let out = Array.copy types in
  let k = int_of_float (ceil (pct *. float_of_int n)) in
  (* Choose k distinct positions to re-type. *)
  let order = Array.init n Fun.id in
  P.shuffle rng order;
  for i = 0 to min k n - 1 do
    out.(order.(i)) <- P.int rng ntypes
  done;
  out

let resize ~rng base n =
  let b = Array.length base in
  if n <= b then Array.sub base 0 n
  else
    Array.init n (fun i -> if i < b then base.(i) else base.(P.int rng b))

let problem ~rng gp cp =
  check_graphs gp;
  check_cloud cp;
  let pf = platform ~rng cp in
  let initial_n = P.int_in_range rng ~lo:gp.min_tasks ~hi:gp.max_tasks in
  let initial_types = Array.init initial_n (fun _ -> P.int rng cp.num_types) in
  let recipes =
    Array.init gp.num_graphs (fun j ->
        let types =
          if j = 0 then initial_types
          else begin
            let n = P.int_in_range rng ~lo:gp.min_tasks ~hi:gp.max_tasks in
            mutate_types ~rng ~ntypes:cp.num_types ~pct:gp.mutation_pct
              (resize ~rng initial_types n)
          end
        in
        random_dag ~rng ~ntypes:cp.num_types ~types)
  in
  PB.create pf recipes

module For_testing = struct
  let platform = platform
  let random_dag = random_dag
end
