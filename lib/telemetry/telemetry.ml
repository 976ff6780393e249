(* The observability substrate: counters, histograms, gauges and spans
   shared by every layer of the solver stack. See telemetry.mli for
   the contract; the implementation notes below cover what the
   interface does not promise.

   Thread-safety: every instrument is safe under parallel writers
   since the multicore PR. Counters are [Atomic.t]s (bump/add are
   wait-free and exact). Histograms carry one mutex each protecting
   the bucket array, sum and count together, so a snapshot always
   satisfies sum-of-buckets = count. The span ring indexes slots with
   a fetch-and-add so two domains never write the same slot, the
   open-span context (parent id, depth) is domain-local state, and the
   sink is called under its own mutex so a JSONL trace writer never
   interleaves lines. The registries (name -> instrument) keep their
   original single mutex; labelled families find-or-create their cells
   under the same mutex, and a cell, once returned, is the same
   wait-free instrument as its unlabelled sibling. *)

let enabled_flag = ref true

let enabled () = !enabled_flag

let set_enabled b = enabled_flag := b

(* The clock used for spans. Wall clock by default; swappable so tests
   can drive deterministic timings. *)
let clock = ref Unix.gettimeofday

let set_clock f = clock := f

let now () = !clock ()

let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* --- exposition spelling helpers (used throughout) --- *)

(* Metric names sanitize "." (and any other non-identifier byte) to
   "_": "service.cache_hits" -> "service_cache_hits". *)
let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let float_text f = Printf.sprintf "%.9g" f

(* Prometheus text-format escaping: label values escape backslash,
   double quote and newline; HELP text escapes backslash and
   newline. *)
let escape_label_value v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let escape_help v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* [render_labels [(k, v); ...]] is [{k="v",...}] with sanitized label
   names and escaped values; [""] for the empty list. *)
let render_labels = function
  | [] -> ""
  | pairs ->
    let b = Buffer.create 32 in
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (sanitize k);
        Buffer.add_string b "=\"";
        Buffer.add_string b (escape_label_value v);
        Buffer.add_char b '"')
      pairs;
    Buffer.add_char b '}';
    Buffer.contents b

(* --- help strings --- *)

(* One help string per metric family name, shared by the labelled and
   unlabelled series. Written under the registry mutex; exposition
   snapshots it in one locked section. *)
let help_registry : (string, string) Hashtbl.t = Hashtbl.create 16

let record_help name = function
  | None -> ()
  | Some h -> Hashtbl.replace help_registry name h

(* --- counters --- *)

type counter = int Atomic.t

let registry : (string, counter) Hashtbl.t = Hashtbl.create 16

let counter ?help name =
  locked (fun () ->
      record_help name help;
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.add registry name c;
        c)

let bump c = if !enabled_flag then Atomic.incr c

let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c n)

let read c = Atomic.get c

let value name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> Atomic.get c
      | None -> 0)

let all () =
  List.sort compare
    (locked (fun () ->
         Hashtbl.fold
           (fun name c acc -> (name, Atomic.get c) :: acc)
           registry []))

(* --- labelled counter families --- *)

type counter_vec = {
  cv_name : string;
  cv_labels : string list;
  cv_cells : (string list, counter) Hashtbl.t;
      (* key: label values, same arity as cv_labels *)
}

let counter_vec_registry : (string, counter_vec) Hashtbl.t = Hashtbl.create 8

let counter_vec ?help name ~labels =
  if labels = [] then invalid_arg "Telemetry.counter_vec: empty label list";
  locked (fun () ->
      record_help name help;
      match Hashtbl.find_opt counter_vec_registry name with
      | Some v ->
        if v.cv_labels <> labels then
          invalid_arg
            (Printf.sprintf
               "Telemetry.counter_vec: %S already registered with different \
                labels"
               name);
        v
      | None ->
        let v =
          { cv_name = name; cv_labels = labels; cv_cells = Hashtbl.create 8 }
        in
        Hashtbl.add counter_vec_registry name v;
        v)

let counter_with v values =
  if List.length values <> List.length v.cv_labels then
    invalid_arg
      (Printf.sprintf "Telemetry.counter_with: %S expects %d label values"
         v.cv_name
         (List.length v.cv_labels));
  locked (fun () ->
      match Hashtbl.find_opt v.cv_cells values with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.add v.cv_cells values c;
        c)

let counter_vecs () =
  List.sort compare
    (locked (fun () ->
         Hashtbl.fold
           (fun name v acc ->
             let cells =
               Hashtbl.fold
                 (fun values c acc -> (values, Atomic.get c) :: acc)
                 v.cv_cells []
             in
             (name, v.cv_labels, List.sort compare cells) :: acc)
           counter_vec_registry []))

(* --- histograms --- *)

type histogram = {
  hist_name : string;
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* length = |bounds| + 1; last is overflow *)
  mutable sum : float;
  mutable observations : int;
  hist_lock : Mutex.t;
      (* protects counts/sum/observations as one unit, so a snapshot
         never tears (sum of counts always equals observations) *)
}

type histogram_snapshot = {
  h_name : string;
  h_bounds : float array;
  h_counts : int array;
  h_sum : float;
  h_count : int;
}

let histogram_registry : (string, histogram) Hashtbl.t = Hashtbl.create 16

let check_bounds bounds =
  if Array.length bounds = 0 then
    invalid_arg "Telemetry.histogram: empty bounds";
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Telemetry.histogram: bounds must be strictly increasing"
  done

let make_histogram name bounds =
  { hist_name = name;
    bounds = Array.copy bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    sum = 0.0;
    observations = 0;
    hist_lock = Mutex.create () }

let histogram ?help name ~bounds =
  check_bounds bounds;
  locked (fun () ->
      record_help name help;
      match Hashtbl.find_opt histogram_registry name with
      | Some h ->
        if h.bounds <> bounds then
          invalid_arg
            (Printf.sprintf
               "Telemetry.histogram: %S already registered with different \
                bounds"
               name);
        h
      | None ->
        let h = make_histogram name bounds in
        Hashtbl.add histogram_registry name h;
        h)

(* Bucket of [v]: the first bound with v <= bound (Prometheus "le"
   semantics), else the overflow bucket. Bucket arrays are tiny (a
   handful of bounds), so a linear scan beats binary search. *)
let bucket_index h v =
  let n = Array.length h.bounds in
  let rec go i = if i >= n || v <= h.bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  if !enabled_flag then begin
    let b = bucket_index h v in
    Mutex.lock h.hist_lock;
    h.counts.(b) <- h.counts.(b) + 1;
    h.sum <- h.sum +. v;
    h.observations <- h.observations + 1;
    Mutex.unlock h.hist_lock
  end

let snapshot h =
  Mutex.lock h.hist_lock;
  let s =
    { h_name = h.hist_name;
      h_bounds = Array.copy h.bounds;
      h_counts = Array.copy h.counts;
      h_sum = h.sum;
      h_count = h.observations }
  in
  Mutex.unlock h.hist_lock;
  s

let histograms () =
  List.sort compare
    (locked (fun () ->
         Hashtbl.fold
           (fun _name h acc -> snapshot h :: acc)
           histogram_registry []))

(* --- gauges --- *)

(* Gauges are read-at-scrape callbacks, not recorded state, so the
   kill switch does not apply: a scrape always sees live values. *)
type gauge_cell = { g_name : string; g_read : unit -> float }

let gauge_registry : (string, gauge_cell) Hashtbl.t = Hashtbl.create 8

let gauge ?help name read =
  locked (fun () ->
      record_help name help;
      Hashtbl.replace gauge_registry name { g_name = name; g_read = read })

let gauges () =
  (* Snapshot the callback list under the mutex, evaluate outside it,
     so a callback may itself use the registry without deadlocking. *)
  let cells =
    locked (fun () ->
        Hashtbl.fold (fun _ g acc -> g :: acc) gauge_registry [])
  in
  List.sort compare (List.map (fun g -> (g.g_name, g.g_read ())) cells)

let process_start_time = Unix.gettimeofday ()

let () =
  gauge ~help:"Seconds since process start." "process.uptime_seconds"
    (fun () -> Unix.gettimeofday () -. process_start_time);
  gauge ~help:"Major-heap words currently allocated (Gc.quick_stat)."
    "process.heap_words" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.heap_words);
  gauge ~help:"Completed major collections (Gc.quick_stat)."
    "process.major_collections" (fun () ->
      float_of_int (Gc.quick_stat ()).Gc.major_collections)

(* --- spans --- *)

module Span = struct
  type t = {
    id : int;
    parent : int;  (* 0 = no parent *)
    depth : int;
    name : string;
    attrs : (string * string) list;
    start : float;
    duration : float;
  }

  let dummy =
    { id = 0; parent = 0; depth = 0; name = ""; attrs = []; start = 0.0;
      duration = 0.0 }

  (* Bounded ring of completed spans. [total] only grows; each push
     claims slot [fetch_and_add total 1 mod capacity], so parallel
     pushes land in distinct slots. *)
  let ring = ref (Array.make 256 dummy)

  let total = Atomic.make 0

  let next_id = Atomic.make 0

  (* Innermost open span of the *current domain* (its id and depth):
     with_span brackets maintain this to parent-link completed spans.
     Domain-local, so traces from parallel workers nest correctly
     instead of parenting under whichever span another domain happens
     to have open. *)
  let context : (int * int) Domain.DLS.key =
    Domain.DLS.new_key (fun () -> (0, 0))

  (* Ambient request identity of the current domain. When set, every
     completed span is stamped with a ["trace_id"] attribute, so the
     spans of one daemon request can be filtered out of a shared ring
     or trace file. Domain-local: parallel workers each carry their
     own request's id. *)
  let trace_context : string option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let trace_id () = Domain.DLS.get trace_context

  let with_trace_id id f =
    let prev = Domain.DLS.get trace_context in
    Domain.DLS.set trace_context (Some id);
    Fun.protect ~finally:(fun () -> Domain.DLS.set trace_context prev) f

  let stamp attrs =
    match Domain.DLS.get trace_context with
    | None -> attrs
    | Some t -> ("trace_id", t) :: attrs

  let sink : (t -> unit) option ref = ref None

  let sink_mutex = Mutex.create ()

  let set_sink s = sink := s

  let capacity () = Array.length !ring

  let set_capacity n =
    if n <= 0 then invalid_arg "Telemetry.Span.set_capacity";
    ring := Array.make n dummy;
    Atomic.set total 0

  let clear () =
    Array.fill !ring 0 (Array.length !ring) dummy;
    Atomic.set total 0;
    Domain.DLS.set context (0, 0)

  let recorded () = Atomic.get total

  let push s =
    let slot = Atomic.fetch_and_add total 1 in
    let r = !ring in
    r.(slot mod Array.length r) <- s;
    match !sink with
    | None -> ()
    | Some f ->
      Mutex.lock sink_mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock sink_mutex) (fun () -> f s)

  let fresh_id () = 1 + Atomic.fetch_and_add next_id 1

  (* Record an externally timed span (sampled loops time their own
     blocks). It is parented under the innermost open span of this
     domain. *)
  let record ?(attrs = []) ~name ~start ~duration () =
    if !enabled_flag then begin
      let parent, depth = Domain.DLS.get context in
      push
        { id = fresh_id (); parent; depth; name; attrs = stamp attrs;
          start; duration }
    end

  let with_span ?(attrs = []) name f =
    if not !enabled_flag then f ()
    else begin
      let id = fresh_id () in
      let parent, depth = Domain.DLS.get context in
      Domain.DLS.set context (id, depth + 1);
      let t0 = !clock () in
      let finish () =
        let duration = !clock () -. t0 in
        Domain.DLS.set context (parent, depth);
        push
          { id; parent; depth; name; attrs = stamp attrs; start = t0;
            duration }
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  (* Retained spans, oldest first. Parents complete after their
     children, so a parent appears later in this list than the spans
     it contains. *)
  let recent () =
    let r = !ring in
    let cap = Array.length r in
    let n = min (Atomic.get total) cap in
    let first = Atomic.get total - n in
    List.init n (fun i -> r.((first + i) mod cap))
end

(* --- convergence progress events --- *)

module Progress = struct
  type event = {
    elapsed : float;  (* seconds since the enclosing collect started *)
    incumbent : float option;
    bound : float option;
    source : string;
  }

  (* Stack of active collectors of the current domain: (start time,
     reversed accumulator). Nested collects each see every event
     emitted inside their window, stamped with their own elapsed
     origin. Domain-local, like the span context: one daemon worker's
     solve does not feed another's collector. *)
  let collectors : (float * event list ref) list Domain.DLS.key =
    Domain.DLS.new_key (fun () -> [])

  let collecting () = Domain.DLS.get collectors <> []

  let emit ?incumbent ?bound ~source () =
    if !enabled_flag then begin
      match Domain.DLS.get collectors with
      | [] -> ()
      | frames ->
        let t = now () in
        List.iter
          (fun (t0, acc) ->
            acc := { elapsed = t -. t0; incumbent; bound; source } :: !acc)
          frames;
        (* The sampled hook into the span sink: each event doubles as a
           zero-duration span, so --trace files and the ring carry the
           timeline alongside the structural spans. *)
        let attrs = [ ("source", source) ] in
        let attrs =
          match bound with
          | Some v -> ("bound", float_text v) :: attrs
          | None -> attrs
        in
        let attrs =
          match incumbent with
          | Some v -> ("incumbent", float_text v) :: attrs
          | None -> attrs
        in
        Span.record ~attrs ~name:"solver.progress" ~start:t ~duration:0.0 ()
    end

  let collect f =
    let acc = ref [] in
    let prev = Domain.DLS.get collectors in
    Domain.DLS.set collectors ((now (), acc) :: prev);
    let restore () = Domain.DLS.set collectors prev in
    match f () with
    | v ->
      restore ();
      (v, List.rev !acc)
    | exception e ->
      restore ();
      raise e
end

(* --- Prometheus text exposition --- *)

(* Families are rendered grouped by name: one optional # HELP line,
   one # TYPE line, then the unlabelled sample (when a plain
   instrument of that name exists) followed by the labelled samples
   sorted by label values. *)

let text_exposition () =
  let b = Buffer.create 1024 in
  let helps =
    locked (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) help_registry [])
  in
  let help_line exposition_name family_name =
    match List.assoc_opt family_name helps with
    | Some h ->
      Buffer.add_string b
        (Printf.sprintf "# HELP %s %s\n" exposition_name (escape_help h))
    | None -> ()
  in
  (* counters: merge the plain and labelled registries by name *)
  let plain = all () in
  let vecs = counter_vecs () in
  let family_names =
    List.sort_uniq compare
      (List.map fst plain @ List.map (fun (n, _, _) -> n) vecs)
  in
  List.iter
    (fun name ->
      let n = sanitize name ^ "_total" in
      help_line n name;
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
      (match List.assoc_opt name plain with
      | Some v -> Buffer.add_string b (Printf.sprintf "%s %d\n" n v)
      | None -> ());
      List.iter
        (fun (vec_name, labels, cells) ->
          if vec_name = name then
            List.iter
              (fun (values, v) ->
                let pairs = List.combine labels values in
                Buffer.add_string b
                  (Printf.sprintf "%s%s %d\n" n (render_labels pairs) v))
              cells)
        vecs)
    family_names;
  (* gauges *)
  List.iter
    (fun (name, v) ->
      let n = sanitize name in
      help_line n name;
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
      Buffer.add_string b (Printf.sprintf "%s %s\n" n (float_text v)))
    (gauges ());
  (* histograms *)
  List.iter
    (fun s ->
      let n = sanitize s.h_name in
      help_line n s.h_name;
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let cumulative = ref 0 in
      Array.iteri
        (fun i c ->
          cumulative := !cumulative + c;
          let le =
            if i < Array.length s.h_bounds then float_text s.h_bounds.(i)
            else "+Inf"
          in
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" n
               (render_labels [ ("le", le) ])
               !cumulative))
        s.h_counts;
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" n (float_text s.h_sum));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n s.h_count))
    (histograms ());
  Buffer.contents b

(* --- well-known counter names --- *)

let lp_pivots = "lp.pivots"
let lp_exact_objectives = "lp.exact_objectives"
let numeric_fast_solves = "numeric.fast_solves"
let numeric_fallbacks = "numeric.fallbacks"
let milp_nodes = "milp.nodes"
let milp_incumbents = "milp.incumbents"
let milp_warm_nodes = "milp.warm_nodes"
let heuristic_evals = "heuristics.evaluations"
let service_requests = "service.requests"
let service_cache_hits = "service.cache_hits"
let service_cache_misses = "service.cache_misses"
let service_monotone_hits = "service.monotone_hits"
let service_warm_starts = "service.warm_starts"
let service_compile_reuse = "service.compile_reuse"
let service_shed = "service.shed"
let service_coalesced = "service.coalesced"

let service_op op = "service.op." ^ op
let autoscale_ticks = "autoscale.ticks"
let autoscale_replans = "autoscale.replans"
let autoscale_holds = "autoscale.holds"
let autoscale_violations = "autoscale.violations"

(* --- solver effort: global counters plus a per-domain tally --- *)

module Effort = struct
  type t = { evaluations : int; pivots : int; nodes : int }

  (* The tally is only ever touched by its own domain, so plain
     mutable fields suffice. *)
  type tally = {
    mutable t_evaluations : int;
    mutable t_pivots : int;
    mutable t_nodes : int;
  }

  let tally_key =
    Domain.DLS.new_key (fun () ->
        { t_evaluations = 0; t_pivots = 0; t_nodes = 0 })

  let evals_counter = counter heuristic_evals
  let pivots_counter = counter lp_pivots
  let nodes_counter = counter milp_nodes

  let evaluations n =
    if !enabled_flag && n <> 0 then begin
      ignore (Atomic.fetch_and_add evals_counter n);
      let t = Domain.DLS.get tally_key in
      t.t_evaluations <- t.t_evaluations + n
    end

  let pivot () =
    if !enabled_flag then begin
      Atomic.incr pivots_counter;
      let t = Domain.DLS.get tally_key in
      t.t_pivots <- t.t_pivots + 1
    end

  let node () =
    if !enabled_flag then begin
      Atomic.incr nodes_counter;
      let t = Domain.DLS.get tally_key in
      t.t_nodes <- t.t_nodes + 1
    end

  let here () =
    let t = Domain.DLS.get tally_key in
    { evaluations = t.t_evaluations; pivots = t.t_pivots; nodes = t.t_nodes }

  let since e0 =
    let e = here () in
    { evaluations = e.evaluations - e0.evaluations;
      pivots = e.pivots - e0.pivots;
      nodes = e.nodes - e0.nodes }
end

(* --- well-known histogram names --- *)

let service_latency_seconds = "service.latency_seconds"
let service_queue_wait_seconds = "service.queue_wait_seconds"
let solver_wall_seconds = "solver.wall_seconds"
let heuristic_run_evals = "heuristics.run_evals"
let milp_solve_nodes = "milp.solve_nodes"
let autoscale_resolve_seconds = "autoscale.resolve_seconds"

(* --- default help strings for the well-known families --- *)

let () =
  List.iter
    (fun (name, help) ->
      locked (fun () ->
          if not (Hashtbl.mem help_registry name) then
            Hashtbl.replace help_registry name help))
    [ (lp_pivots, "Simplex pivots across both LP engines.");
      ( lp_exact_objectives,
        "Relaxation objectives made exact from their native terms." );
      (milp_nodes, "Branch-and-bound nodes evaluated.");
      (milp_incumbents, "Incumbent improvements (rounded points and integral relaxations).");
      ( milp_warm_nodes,
        "Branch-and-bound nodes re-solved from the parent's or the root's tableau." );
      (heuristic_evals, "Cost-oracle evaluations by the heuristics.");
      (service_requests, "Solve requests admitted (sheds excluded).");
      (service_cache_hits, "Requests answered from the solution cache.");
      (service_cache_misses, "Solve requests that went to an engine.");
      (service_shed, "Requests shed by admission control.");
      ( service_coalesced,
        "Duplicate in-flight solve requests served from another \
         request's outcome (single-flight followers)." );
      (autoscale_ticks, "Demand ticks fed to elastic controllers.");
      ( service_latency_seconds,
        "Request handling latency in the service engine, seconds." );
      ( service_queue_wait_seconds,
        "Queue wait of drained solve jobs, seconds." );
      (solver_wall_seconds, "End-to-end solver wall time, seconds.");
      ( autoscale_resolve_seconds,
        "Wall time of each elastic-controller re-solve, seconds." ) ]
