(* Video transcoding pipeline — the paper's motivating scenario (§ I):
   a stream of frames must be decoded, filtered, and encoded at a fixed
   frame rate; the filter stage has both a CPU and a GPU
   implementation, giving alternative recipes over heterogeneous cloud
   instances.

   The example sweeps output frame rates, compares provisioning plans
   (best single recipe vs optimal recipe mix), and sizes the reorder
   buffer needed to deliver frames in order when both recipes run
   concurrently.

   Run with: dune exec examples/video_pipeline.exe *)

(* Machine types:
   0: small CPU   (decode)            cost  8, throughput 40
   1: big CPU     (CPU filter)        cost 28, throughput 25
   2: GPU         (GPU filter)        cost 80, throughput 100
   3: encoder CPU (encode)            cost 12, throughput 30

   The GPU is cheaper per filtered frame (0.80 vs 1.12) but comes in
   coarse 100-fps units: below ~100 fps the CPU recipe wins, above it
   the GPU recipe wins, and just past each GPU multiple the optimal
   plan mixes both recipes to soak up the remainder. *)
let platform =
  Rentcost.Platform.of_list [ (8, 40); (28, 25); (80, 100); (12, 30) ]

(* Recipe 0: decode -> CPU filter -> encode
   Recipe 1: decode -> GPU filter -> encode
   Recipe 2: decode -> (CPU filter AND GPU filter halves in parallel) -> encode
             (a split-frame variant that touches both filter types) *)
let problem =
  let chain types = Rentcost.Task_graph.chain ~ntypes:4 ~types in
  let split =
    Rentcost.Task_graph.create ~ntypes:4 ~types:[| 0; 1; 2; 3 |]
      ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
  in
  Rentcost.Problem.create platform [| chain [| 0; 1; 3 |]; chain [| 0; 2; 3 |]; split |]

let instance = Rentcost.Instance.compile problem

let optimal fps =
  Option.get (Rentcost.Ilp.optimize instance ~target:fps).Rentcost.Ilp.allocation

let () =
  Format.printf "Frame-rate sweep (costs per hour):@.";
  Format.printf "%8s %12s %12s %12s %10s@." "fps" "best-single" "optimal-mix"
    "saving" "mix (rho)";
  List.iter
    (fun fps ->
      let h1 =
        Rentcost.Heuristics.search Rentcost.Heuristics.H1 instance ~target:fps
      in
      let single = h1.Rentcost.Heuristics.allocation.Rentcost.Allocation.cost in
      let best = optimal fps in
      let saving =
        100.0 *. float_of_int (single - best.Rentcost.Allocation.cost)
        /. float_of_int (max 1 single)
      in
      Format.printf "%8d %12d %12d %11.1f%% [%s]@." fps single
        best.Rentcost.Allocation.cost saving
        (String.concat ";"
           (Array.to_list (Array.map string_of_int best.Rentcost.Allocation.rho))))
    [ 30; 60; 100; 130; 240; 330 ];

  (* Frames must come out in order: size the reorder buffer when the
     optimal mix routes frames through recipes of different speeds. *)
  let fps = 240 in
  let best = optimal fps in
  let report =
    Streamsim.Sim.run problem best
      { Streamsim.Sim.default_config with
        Streamsim.Sim.items = 4800;
        arrival = Streamsim.Sim.Rate (float_of_int fps) }
  in
  Format.printf
    "@.At %d fps with the optimal mix: measured %.1f fps, mean frame latency \
     %.4f t.u., reorder buffer needs %d frames@."
    fps report.Streamsim.Sim.throughput report.Streamsim.Sim.mean_latency
    report.Streamsim.Sim.max_reorder
