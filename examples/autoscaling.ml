(* Elastic re-provisioning over a day of varying demand, using the
   Rentcost.Elastic planner.

   The paper optimizes the hourly rental cost for one fixed target
   throughput; clouds let us re-run that optimization every hour as
   demand moves. This example compares three policies on a diurnal
   demand curve:

   - static:     rent once for the daily peak (no elasticity);
   - elastic:    re-solve the exact MILP each hour;
   - elastic-H1: re-solve each hour with the cheap single-recipe
     heuristic (what a latency-constrained autoscaler might do);

   and reports the churn (machine starts/stops) each elastic policy
   would impose on the autoscaler. The example compiles the problem
   once for the whole day and hands each hour's solve the previous
   hour's fleet as a warm start, which only the search heuristics
   read (the exact MILP and H1 do not).

   Run with: dune exec examples/autoscaling.exe *)

module E = Rentcost.Elastic
module S = Rentcost.Solver

let instance = Rentcost.Instance.compile Rentcost.Problem.illustrating

(* A diurnal curve: low at night, two daytime bumps. *)
let demand =
  Array.init 24 (fun hour ->
      let base = 40.0 in
      let morning = 90.0 *. exp (-.((float_of_int hour -. 10.0) ** 2.0) /. 8.0) in
      let evening = 120.0 *. exp (-.((float_of_int hour -. 20.0) ** 2.0) /. 6.0) in
      int_of_float (base +. morning +. evening))

let () =
  let elastic = E.provision_on ~spec:S.Exact_ilp instance ~demand in
  let h1_elastic =
    E.provision_on ~spec:(S.Heuristic Rentcost.Heuristics.H1) instance ~demand
  in
  let static = E.static_peak ~spec:S.Exact_ilp instance ~demand in
  Format.printf "Peak demand %d -> static fleet costs %d per hour@.@."
    (Array.fold_left max 0 demand)
    (E.peak_cost static);
  Format.printf "%6s %8s %10s %12s %12s@." "hour" "demand" "elastic" "H1-elastic"
    "static";
  Array.iteri
    (fun hour target ->
      Format.printf "%6d %8d %10d %12d %12d@." hour target
        elastic.(hour).Rentcost.Allocation.cost
        h1_elastic.(hour).Rentcost.Allocation.cost
        static.(hour).Rentcost.Allocation.cost)
    demand;
  Format.printf "@.Daily totals: elastic %d, H1-elastic %d, static %d@."
    (E.total_cost elastic) (E.total_cost h1_elastic) (E.total_cost static);
  Format.printf "Elasticity saves %.1f%% over static; the exact solver saves \
                 %.1f%% over hourly H1.@."
    (100.0 *. E.savings ~elastic ~static)
    (100.0
    *. float_of_int (E.total_cost h1_elastic - E.total_cost elastic)
    /. float_of_int (max 1 (E.total_cost h1_elastic)));
  Format.printf
    "Churn (machine starts/stops over the day): elastic %d, H1-elastic %d, \
     static %d.@.Machine-hours per type (elastic): [%s]@."
    (E.churn elastic) (E.churn h1_elastic) (E.churn static)
    (String.concat "; "
       (Array.to_list (Array.map string_of_int (E.machine_hours elastic))))
