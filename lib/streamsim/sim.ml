module PB = Rentcost.Problem
module TG = Rentcost.Task_graph
module PF = Rentcost.Platform
module AL = Rentcost.Allocation

type arrival = Saturated | Rate of float

type failure_model = { mtbf : float; repair_time : float; seed : int }

type config = {
  items : int;
  warmup_fraction : float;
  arrival : arrival;
  failures : failure_model option;
}

let default_config =
  { items = 1000; warmup_fraction = 0.2; arrival = Saturated; failures = None }

type report = {
  completed : int;
  makespan : float;
  throughput : float;
  utilization : float array;
  max_reorder : int;
  mean_latency : float;
  recipe_counts : int array;
  failures : int;
  reexecutions : int;
}

type event =
  | Item_arrival of int
  | Task_done of int * int * int  (* item, task, dispatch id *)
  | Machine_failure of int  (* machine type *)
  | Machine_repair of int  (* machine type *)

module Event_queue = Pqueue.Make (struct
  type t = float * int * event

  (* Order by time, then insertion sequence: deterministic replay. *)
  let compare (ta, sa, _) (tb, sb, _) =
    match Float.compare ta tb with 0 -> compare sa sb | c -> c
end)

(* Per-item run-time state. *)
type item = {
  recipe : int;
  arrival_time : float;
  pending : int array;  (* unfinished predecessor count per task *)
  mutable remaining : int;  (* unfinished tasks *)
  mutable completion_time : float;
}

let run problem allocation config =
  if config.items <= 0 then invalid_arg "Sim.run: items must be positive";
  if config.warmup_fraction < 0.0 || config.warmup_fraction >= 1.0 then
    invalid_arg "Sim.run: warmup_fraction must be in [0, 1)";
  (match config.arrival with
   | Rate r when r <= 0.0 -> invalid_arg "Sim.run: arrival rate must be positive"
   | Rate _ | Saturated -> ());
  (match config.failures with
   | Some { mtbf; repair_time; _ } ->
     if mtbf <= 0.0 then invalid_arg "Sim.run: mtbf must be positive";
     if repair_time < 0.0 then invalid_arg "Sim.run: repair_time must be non-negative"
   | None -> ());
  let platform = PB.platform problem in
  let q_count = PB.num_types problem in
  let rho = allocation.AL.rho and machines = allocation.AL.machines in
  if Array.for_all (( = ) 0) rho then
    invalid_arg "Sim.run: allocation routes no throughput";
  (* Deadlock guard: every type used by an active recipe needs at
     least one machine. *)
  Array.iteri
    (fun j w ->
      if w > 0 then
        List.iter
          (fun q ->
            if machines.(q) = 0 then
              invalid_arg "Sim.run: active recipe needs a machine type with no \
                           rented machine")
          (TG.types_used (PB.recipe problem j)))
    rho;
  let assigner = Assign.create ~weights:rho in
  let items =
    Array.init config.items (fun k ->
        let recipe = Assign.next assigner in
        let g = PB.recipe problem recipe in
        let n = TG.num_tasks g in
        let arrival_time =
          match config.arrival with Saturated -> 0.0 | Rate r -> float_of_int k /. r
        in
        { recipe;
          arrival_time;
          pending = Array.init n (fun t -> Array.length (TG.preds g t));
          remaining = n;
          completion_time = nan })
  in
  let queue = Event_queue.create () in
  let seq = ref 0 in
  let push time ev =
    incr seq;
    Event_queue.push queue (time, !seq, ev)
  in
  let ready : (int * int) Queue.t array = Array.init q_count (fun _ -> Queue.create ()) in
  let free = Array.copy machines in
  let busy_time = Array.make q_count 0.0 in
  let service q = 1.0 /. float_of_int (PF.throughput platform q) in
  (* Failure machinery: in-flight tasks are tracked so a dying machine
     can abort the one it runs; aborted completions are invalidated
     lazily by dispatch id. *)
  let dispatch_id = ref 0 in
  let inflight : (int, int * int) Hashtbl.t array =
    Array.init q_count (fun _ -> Hashtbl.create 8)
  in
  let cancelled = Hashtbl.create 8 in
  let capacity = Array.copy machines in
  let failure_count = ref 0 and reexecution_count = ref 0 in
  let dispatch now q =
    while free.(q) > 0 && not (Queue.is_empty ready.(q)) do
      let i, task = Queue.pop ready.(q) in
      free.(q) <- free.(q) - 1;
      busy_time.(q) <- busy_time.(q) +. service q;
      incr dispatch_id;
      Hashtbl.replace inflight.(q) !dispatch_id (i, task);
      push (now +. service q) (Task_done (i, task, !dispatch_id))
    done
  in
  let enqueue_task now i task =
    let g = PB.recipe problem items.(i).recipe in
    let q = TG.type_of g task in
    Queue.add (i, task) ready.(q);
    dispatch now q
  in
  (* Reorder buffer: emit items strictly in arrival index order. *)
  let emitted = ref 0 in
  let done_flags = Array.make config.items false in
  let held = ref 0 and max_reorder = ref 0 in
  let completed = ref 0 in
  let item_completed i =
    incr completed;
    done_flags.(i) <- true;
    incr held;
    while !emitted < config.items && done_flags.(!emitted) do
      incr emitted;
      decr held
    done;
    if !held > !max_reorder then max_reorder := !held
  in
  Array.iteri (fun i it -> push it.arrival_time (Item_arrival i)) items;
  (* Exponential failure inter-arrival per type, rate proportional to
     the live machine count. Failures stop being scheduled once the
     stream has drained, so the event loop terminates. *)
  let failure_rng =
    Option.map (fun f -> Numeric.Prng.create f.seed) config.failures
  in
  let exponential rng mean =
    mean *. -.log (1.0 -. Numeric.Prng.float rng)
  in
  let schedule_failure now q =
    match (config.failures, failure_rng) with
    | Some f, Some rng when capacity.(q) > 0 && !completed < config.items ->
      let mean = f.mtbf /. float_of_int capacity.(q) in
      push (now +. exponential rng mean) (Machine_failure q)
    | _ -> ()
  in
  (match config.failures with
   | Some _ ->
     for q = 0 to q_count - 1 do
       schedule_failure 0.0 q
     done
   | None -> ());
  let makespan = ref 0.0 in
  let rec drain () =
    match Event_queue.pop queue with
    | None -> ()
    | Some (now, _, ev) ->
      if now > !makespan then makespan := now;
      (match ev with
       | Item_arrival i ->
         let g = PB.recipe problem items.(i).recipe in
         List.iter (fun task -> enqueue_task now i task) (TG.sources g)
       | Task_done (i, task, id) ->
         let it = items.(i) in
         let g = PB.recipe problem it.recipe in
         let q = TG.type_of g task in
         if Hashtbl.mem cancelled id then Hashtbl.remove cancelled id
         else begin
           Hashtbl.remove inflight.(q) id;
           free.(q) <- free.(q) + 1;
           it.remaining <- it.remaining - 1;
           Array.iter
             (fun succ ->
               it.pending.(succ) <- it.pending.(succ) - 1;
               if it.pending.(succ) = 0 then enqueue_task now i succ)
             (TG.succs g task);
           if it.remaining = 0 then begin
             it.completion_time <- now;
             item_completed i
           end;
           dispatch now q
         end
       | Machine_failure q ->
         (match config.failures with
          | None -> ()
          | Some f ->
            if capacity.(q) > 0 && !completed < config.items then begin
              incr failure_count;
              capacity.(q) <- capacity.(q) - 1;
              if free.(q) > 0 then
                (* an idle machine died *)
                free.(q) <- free.(q) - 1
              else begin
                (* abort one in-flight task: re-queue it from scratch *)
                match Hashtbl.fold (fun id v _ -> Some (id, v)) inflight.(q) None with
                | None -> ()
                | Some (id, (i, task)) ->
                  Hashtbl.remove inflight.(q) id;
                  Hashtbl.replace cancelled id ();
                  incr reexecution_count;
                  Queue.add (i, task) ready.(q)
              end;
              push (now +. f.repair_time) (Machine_repair q);
              schedule_failure now q
            end)
       | Machine_repair q ->
         (* One failure timer is kept pending per type with live
            machines; when the last machine of a type died, the timer
            lapsed and must be re-armed by its first repair. *)
         let was_dead = capacity.(q) = 0 in
         capacity.(q) <- capacity.(q) + 1;
         free.(q) <- free.(q) + 1;
         if was_dead then schedule_failure now q;
         dispatch now q);
      drain ()
  in
  drain ();
  assert (!completed = config.items);
  (* Steady-state throughput over the post-warmup completion window. *)
  let completions = Array.map (fun it -> it.completion_time) items in
  Array.sort Float.compare completions;
  let skip = int_of_float (config.warmup_fraction *. float_of_int config.items) in
  let throughput =
    let n = config.items - skip in
    if n < 2 then 0.0
    else begin
      let t0 = completions.(skip) and t1 = completions.(config.items - 1) in
      if t1 > t0 then float_of_int (n - 1) /. (t1 -. t0) else infinity
    end
  in
  let utilization =
    Array.init q_count (fun q ->
        if machines.(q) = 0 || !makespan <= 0.0 then 0.0
        else busy_time.(q) /. (float_of_int machines.(q) *. !makespan))
  in
  let mean_latency =
    let sum =
      Array.fold_left
        (fun acc it -> acc +. (it.completion_time -. it.arrival_time))
        0.0 items
    in
    sum /. float_of_int config.items
  in
  { completed = !completed;
    makespan = !makespan;
    throughput;
    utilization;
    max_reorder = !max_reorder;
    mean_latency;
    recipe_counts = Assign.counts assigner;
    failures = !failure_count;
    reexecutions = !reexecution_count }
