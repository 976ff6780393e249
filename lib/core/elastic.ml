type plan = Allocation.t array

let check_demand demand =
  Array.iter
    (fun d -> if d < 0 then invalid_arg "Elastic: negative demand")
    demand

let solve_one ?budget ?rng ?params ?warm_start ~spec instance ~target =
  match
    (Solver.run ?budget ?rng ?params ?warm_start ~spec instance
       ~objective:(Objective.min_cost ~target))
      .Solver.allocation
  with
  | Some a -> a
  | None ->
    (* Unreachable for demand >= 0: renting enough machines is always
       feasible. *)
    assert false

(* One compile serves the whole trace; each period's solve is seeded
   with the previous period's fleet (trimmed/validated inside the
   solver, dropped when demand rose past it). *)
let provision_on ?budget ?rng ?params ?(spec = Solver.Auto) instance ~demand =
  check_demand demand;
  let previous = ref None in
  Array.map
    (fun target ->
      let a =
        solve_one ?budget ?rng ?params ?warm_start:!previous ~spec instance
          ~target
      in
      previous := Some a;
      a)
    demand

let static_peak ?budget ?rng ?params ?(spec = Solver.Auto) instance ~demand =
  check_demand demand;
  if Array.length demand = 0 then [||]
  else begin
    let peak = Array.fold_left max 0 demand in
    let fleet = solve_one ?budget ?rng ?params ~spec instance ~target:peak in
    Array.map (fun _ -> fleet) demand
  end

let total_cost plan =
  Array.fold_left (fun acc a -> acc + a.Allocation.cost) 0 plan

let peak_cost plan =
  Array.fold_left (fun acc a -> max acc a.Allocation.cost) 0 plan

let machine_hours plan =
  match Array.length plan with
  | 0 -> [||]
  | _ ->
    let q = Array.length plan.(0).Allocation.machines in
    let hours = Array.make q 0 in
    Array.iter
      (fun a -> Array.iteri (fun i x -> hours.(i) <- hours.(i) + x) a.Allocation.machines)
      plan;
    hours

let churn plan =
  match Array.length plan with
  | 0 -> 0
  | _ ->
    let q = Array.length plan.(0).Allocation.machines in
    let prev = Array.make q 0 in
    Array.fold_left
      (fun acc a ->
        let step = ref 0 in
        Array.iteri
          (fun i x ->
            step := !step + abs (x - prev.(i));
            prev.(i) <- x)
          a.Allocation.machines;
        acc + !step)
      0 plan

let savings ~elastic ~static =
  let s = total_cost static in
  if s = 0 then 0.0 else float_of_int (s - total_cost elastic) /. float_of_int s
