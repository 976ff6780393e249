type series = {
  ylabel : string;
  algorithms : string list;
  rows : (int * float array) list;
}

(* Preserve first-seen order of algorithms and targets. *)
let algorithms_of ms =
  List.fold_left
    (fun acc m -> if List.mem m.Runner.algorithm acc then acc else acc @ [ m.Runner.algorithm ])
    [] ms

let targets_of ms =
  List.sort_uniq compare (List.map (fun m -> m.Runner.target) ms)

let configs_of ms =
  List.sort_uniq compare (List.map (fun m -> m.Runner.config) ms)

(* Index measurements by (config, target, algorithm). *)
let index ms =
  let tbl = Hashtbl.create (List.length ms) in
  List.iter
    (fun m -> Hashtbl.replace tbl (m.Runner.config, m.Runner.target, m.Runner.algorithm) m)
    ms;
  tbl

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Generic per-(target, algorithm) aggregation over configs. *)
let aggregate ~ylabel ms f =
  let algorithms = algorithms_of ms in
  let targets = targets_of ms in
  let configs = configs_of ms in
  let tbl = index ms in
  let rows =
    List.map
      (fun target ->
        let values =
          Array.of_list
            (List.map
               (fun alg ->
                 f ~tbl ~configs ~algorithms ~target ~alg)
               algorithms)
        in
        (target, values))
      targets
  in
  { ylabel; algorithms; rows }

let lookup tbl config target alg = Hashtbl.find_opt tbl (config, target, alg)

let normalized_cost ms =
  let algorithms = algorithms_of ms in
  let reference = if List.mem "ILP" algorithms then Some "ILP" else None in
  aggregate ~ylabel:"normalized cost (best / alg)" ms
    (fun ~tbl ~configs ~algorithms ~target ~alg ->
      let ratios =
        List.filter_map
          (fun config ->
            let best =
              match reference with
              | Some ref_alg ->
                Option.map (fun m -> m.Runner.cost) (lookup tbl config target ref_alg)
              | None ->
                let costs =
                  List.filter_map
                    (fun a -> Option.map (fun m -> m.Runner.cost) (lookup tbl config target a))
                    algorithms
                in
                (match costs with [] -> None | l -> Some (List.fold_left min max_int l))
            in
            match (best, lookup tbl config target alg) with
            | Some best, Some m when m.Runner.cost > 0 ->
              Some (float_of_int best /. float_of_int m.Runner.cost)
            | Some _, Some _ -> Some 1.0 (* both costs zero at target 0 *)
            | _ -> None)
          configs
      in
      mean ratios)

let best_counts ms =
  aggregate ~ylabel:"times found best" ms
    (fun ~tbl ~configs ~algorithms ~target ~alg ->
      let count =
        List.length
          (List.filter
             (fun config ->
               let costs =
                 List.filter_map
                   (fun a -> Option.map (fun m -> m.Runner.cost) (lookup tbl config target a))
                   algorithms
               in
               match (costs, lookup tbl config target alg) with
               | [], _ | _, None -> false
               | l, Some m -> m.Runner.cost = List.fold_left min max_int l)
             configs)
      in
      float_of_int count)

let mean_times ?(microseconds = false) ms =
  let scale, ylabel =
    if microseconds then (1e6, "mean time (us)") else (1., "mean time (s)")
  in
  aggregate ~ylabel ms
    (fun ~tbl ~configs ~algorithms:_ ~target ~alg ->
      scale
      *. mean
        (List.filter_map
           (fun config ->
             Option.map
               (fun m -> m.Runner.telemetry.Rentcost.Solver.wall_time)
               (lookup tbl config target alg))
           configs))

let mean_nodes ms =
  aggregate ~ylabel:"mean B&B nodes" ms
    (fun ~tbl ~configs ~algorithms:_ ~target ~alg ->
      mean
        (List.filter_map
           (fun config ->
             Option.map
               (fun m -> float_of_int m.Runner.telemetry.Rentcost.Solver.nodes)
               (lookup tbl config target alg))
           configs))

let mean_evaluations ms =
  aggregate ~ylabel:"mean cost-oracle evaluations" ms
    (fun ~tbl ~configs ~algorithms:_ ~target ~alg ->
      mean
        (List.filter_map
           (fun config ->
             Option.map
               (fun m -> float_of_int m.Runner.telemetry.Rentcost.Solver.evaluations)
               (lookup tbl config target alg))
           configs))

let mean_gap_vs_reference ms ~reference =
  aggregate ~ylabel:(Printf.sprintf "mean cost overhead vs %s" reference) ms
    (fun ~tbl ~configs ~algorithms:_ ~target ~alg ->
      mean
        (List.filter_map
           (fun config ->
             match (lookup tbl config target reference, lookup tbl config target alg) with
             | Some r, Some m when r.Runner.cost > 0 ->
               Some ((float_of_int m.Runner.cost /. float_of_int r.Runner.cost) -. 1.0)
             | Some _, Some _ -> Some 0.0
             | _ -> None)
           configs))

let optimality_rate ms =
  aggregate ~ylabel:"fraction proved optimal" ms
    (fun ~tbl ~configs ~algorithms:_ ~target ~alg ->
      mean
        (List.filter_map
           (fun config ->
             Option.map
               (fun m ->
                 if m.Runner.algorithm = "ILP" then
                   if m.Runner.proved_optimal then 1.0 else 0.0
                 else 1.0)
               (lookup tbl config target alg))
           configs))
