(* Capacity planning with the Analysis module: how does the optimal
   bill grow with the throughput target, where are the "buckets" in
   which extra throughput is free (§ VII of the paper observes them for
   H1), and which machine prices actually matter?

   Run with: dune exec examples/capacity_planning.exe *)

module A = Rentcost.Analysis

let problem = Rentcost.Problem.illustrating

let () =
  (* 1. Optimal cost curve: marginal cost of throughput. *)
  let targets = List.init 11 (fun i -> 20 * i) in
  let curve = A.cost_curve A.ilp_solver problem ~targets in
  Format.printf "Optimal cost curve:@.%8s %8s %14s@." "target" "cost" "cost/target";
  List.iter
    (fun (t, a) ->
      Format.printf "%8d %8d %14s@." t a.Rentcost.Allocation.cost
        (if t = 0 then "-"
         else Printf.sprintf "%.2f" (float_of_int a.Rentcost.Allocation.cost /. float_of_int t)))
    curve;

  (* 2. H1 buckets: ranges of targets with identical best-single-recipe
     cost. Inside a bucket, extra throughput costs nothing — the rented
     fleet has idle capacity. *)
  Format.printf "@.H1 buckets up to 100 (idle-capacity plateaus):@.";
  List.iter
    (fun (lo, hi, cost) -> Format.printf "  [%3d, %3d] -> cost %d@." lo hi cost)
    (A.h1_buckets problem ~max_target:100);

  (* 3. Price sensitivity: raise each machine type's price 25% and see
     which types the optimal plan actually depends on. *)
  let baseline, per_type = A.price_sensitivity problem ~target:70 ~percent:25 in
  Format.printf "@.Price sensitivity at target 70 (baseline %d, +25%% per type):@."
    baseline;
  List.iter
    (fun (q, c) ->
      Format.printf "  type %d dearer -> optimum %d (%s)@." q c
        (if c = baseline then "insensitive: rerouted around it"
         else Printf.sprintf "+%d" (c - baseline)))
    per_type
