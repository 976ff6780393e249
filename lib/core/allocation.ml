type t = { rho : int array; machines : int array; cost : int }

let ceil_div a b = (a + b - 1) / b

let check_rho problem rho =
  if Array.length rho <> Problem.num_recipes problem then
    invalid_arg "Allocation: rho has wrong length";
  Array.iter (fun r -> if r < 0 then invalid_arg "Allocation: negative throughput") rho

let loads problem ~rho =
  check_rho problem rho;
  let q = Problem.num_types problem in
  let loads = Array.make q 0 in
  Array.iteri
    (fun j rj ->
      if rj > 0 then
        for k = 0 to q - 1 do
          loads.(k) <- loads.(k) + (Problem.type_count problem j k * rj)
        done)
    rho;
  loads

let cost_of_machines problem machines =
  let platform = Problem.platform problem in
  let total = ref 0 in
  Array.iteri (fun q x -> total := !total + (x * Platform.cost platform q)) machines;
  !total

let of_rho problem ~rho =
  let platform = Problem.platform problem in
  let loads = loads problem ~rho in
  let machines =
    Array.mapi (fun q load -> ceil_div load (Platform.throughput platform q)) loads
  in
  { rho = Array.copy rho; machines; cost = cost_of_machines problem machines }

let make problem ~rho ~machines =
  let platform = Problem.platform problem in
  if Array.length machines <> Problem.num_types problem then
    invalid_arg "Allocation.make: machines has wrong length";
  Array.iter (fun x -> if x < 0 then invalid_arg "Allocation.make: negative machine count") machines;
  let loads = loads problem ~rho in
  Array.iteri
    (fun q load ->
      if machines.(q) * Platform.throughput platform q < load then
        invalid_arg "Allocation.make: under-provisioned type")
    loads;
  { rho = Array.copy rho; machines = Array.copy machines;
    cost = cost_of_machines problem machines }

let total_rho t = Array.fold_left ( + ) 0 t.rho

let feasible problem ~target t =
  let platform = Problem.platform problem in
  Array.length t.rho = Problem.num_recipes problem
  && Array.length t.machines = Problem.num_types problem
  && Array.for_all (fun r -> r >= 0) t.rho
  && total_rho t >= target
  && begin
    let loads = loads problem ~rho:t.rho in
    let ok = ref true in
    Array.iteri
      (fun q load ->
        if t.machines.(q) * Platform.throughput platform q < load then ok := false)
      loads;
    !ok
  end

let pp fmt t =
  Format.fprintf fmt "@[<v>cost %d@,rho = [%s]@,machines = [%s]@]" t.cost
    (String.concat "; " (Array.to_list (Array.map string_of_int t.rho)))
    (String.concat "; " (Array.to_list (Array.map string_of_int t.machines)))

module For_testing = struct
  let loads = loads
end
