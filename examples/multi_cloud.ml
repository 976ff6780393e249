(* Multi-cloud provisioning — the paper's § V-B case: when each recipe
   runs in a different cloud, recipes cannot share machines, so type
   sets are disjoint and the pseudo-polynomial dynamic program finds
   the optimal throughput split exactly (no MILP needed).

   We model the same application ported to two providers: types 0-2
   are "cloud A" instances, types 3-5 are "cloud B" instances. The DP
   decides how much of the stream each cloud should carry.

   Run with: dune exec examples/multi_cloud.exe *)

let platform =
  Rentcost.Platform.of_list
    [ (* cloud A: cheap but slow *)
      (6, 12); (11, 25); (16, 35);
      (* cloud B: pricier, faster *)
      (14, 45); (22, 70); (25, 80) ]

let problem =
  let chain types = Rentcost.Task_graph.chain ~ntypes:6 ~types in
  Rentcost.Problem.create platform
    [| chain [| 0; 1; 2; 1 |];  (* the recipe as deployed on cloud A *)
       chain [| 3; 4; 5; 4 |]   (* the same pipeline on cloud B *) |]

let () =
  assert (Rentcost.Problem.is_disjoint problem);
  let instance = Rentcost.Instance.compile problem in
  Format.printf "Optimal split across two clouds (dynamic program, § V-B):@.";
  Format.printf "%8s %9s %9s %8s %22s@." "target" "cloud A" "cloud B" "cost"
    "machines per type";
  List.iter
    (fun target ->
      let a = Rentcost.Dp_disjoint.run instance ~target in
      Format.printf "%8d %9d %9d %8d [%s]@." target a.Rentcost.Allocation.rho.(0)
        a.Rentcost.Allocation.rho.(1) a.Rentcost.Allocation.cost
        (String.concat ";"
           (Array.to_list (Array.map string_of_int a.Rentcost.Allocation.machines))))
    [ 10; 25; 50; 75; 100; 150; 200 ];
  (* The DP is provably optimal here; cross-check one point against
     the general MILP. *)
  let target = 100 in
  let dp = Rentcost.Dp_disjoint.run instance ~target in
  let ilp =
    Option.get (Rentcost.Ilp.optimize instance ~target).Rentcost.Ilp.allocation
  in
  Format.printf "@.Cross-check at target %d: DP cost %d = ILP cost %d@." target
    dp.Rentcost.Allocation.cost ilp.Rentcost.Allocation.cost;
  assert (dp.Rentcost.Allocation.cost = ilp.Rentcost.Allocation.cost)
