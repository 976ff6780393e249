module Instance = Rentcost.Instance
module Allocation = Rentcost.Allocation
module Solver = Rentcost.Solver
module Budget = Rentcost.Budget
module Objective = Rentcost.Objective
module Pricebook = Rentcost.Pricebook
module Scenario = Rentcost.Scenario
module Controller = Rentcost_autoscale.Controller

let c_requests = Telemetry.counter Telemetry.service_requests
let c_hits = Telemetry.counter Telemetry.service_cache_hits
let c_misses = Telemetry.counter Telemetry.service_cache_misses
let c_monotone = Telemetry.counter Telemetry.service_monotone_hits
let c_warm = Telemetry.counter Telemetry.service_warm_starts
let c_reuse = Telemetry.counter Telemetry.service_compile_reuse
let c_shed = Telemetry.counter Telemetry.service_shed
let c_coalesced = Telemetry.counter Telemetry.service_coalesced

(* The labelled view of the request counter: same family name as
   [c_requests], broken out by tenant and reuse rung. Bumps are guarded
   by [Telemetry.enabled] at the call sites — the per-request cell
   lookup is not free, so the kill switch skips it entirely. *)
let requests_vec =
  Telemetry.counter_vec Telemetry.service_requests
    ~labels:[ "tenant"; "rung" ]

let ticks_vec =
  Telemetry.counter_vec ~help:"Autoscale ticks by session and plan action."
    "autoscale.session_ticks" ~labels:[ "session"; "action" ]

(* Per-op request counters, pre-registered so [submit] never touches
   the registry mutex. *)
let op_names =
  [ "register"; "solve"; "track"; "tick"; "untrack"; "stats"; "metrics";
    "audit"; "shutdown" ]

let op_counters =
  List.map (fun op -> (op, Telemetry.counter (Telemetry.service_op op))) op_names

let op_name = function
  | Protocol.Register _ -> "register"
  | Protocol.Solve _ -> "solve"
  | Protocol.Track _ -> "track"
  | Protocol.Tick _ -> "tick"
  | Protocol.Untrack _ -> "untrack"
  | Protocol.Stats -> "stats"
  | Protocol.Metrics -> "metrics"
  | Protocol.Audit _ -> "audit"
  | Protocol.Shutdown -> "shutdown"

type config = {
  cache_capacity : int;
  queue_capacity : int;
  queue_policy : Admission.policy;
  default_budget : Budget.t;
}

let default_config =
  {
    cache_capacity = 128;
    queue_capacity = 64;
    queue_policy = Admission.Reject_new;
    default_budget = Budget.unlimited;
  }

type job = {
  id : int option;
  trace_id : string;  (* client-supplied or assigned at admission *)
  tenant : string;
  source : Protocol.source;
  objective : Objective.t;
  pricebook : Pricebook.t option;
  spec : Solver.spec;
  budget : Budget.t;
  reuse : Protocol.reuse;
  arrived : float;
}

(* Handling latency and queue wait live in shared Telemetry histograms
   (the [metrics] request and Prometheus text exposition read them
   uniformly), which also means the kill switch freezes them along
   with every other instrument. Latency bounds run 1-2.5-5 per decade
   from 10 us to 10 s: a cache hit takes tens of microseconds, a
   capped ILP solve milliseconds to seconds. *)
let latency_hist =
  Telemetry.histogram Telemetry.service_latency_seconds
    ~bounds:
      [| 1e-5; 2.5e-5; 5e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2;
         2.5e-2; 5e-2; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0 |]

let queue_wait_hist =
  Telemetry.histogram Telemetry.service_queue_wait_seconds
    ~bounds:[| 0.001; 0.01; 0.1; 1.0; 10.0 |]

(* --- single-flight coalescing ---

   One open [flight] per distinct solve key: the worker that takes a
   key off the queue becomes its leader and adopts every queued
   duplicate; a duplicate arriving while the flight is open attaches
   at the door. Either way it rides the leader's outcome instead of
   solving again. The key is structural equality on the solve inputs;
   all four record components are pure data (no closures), so
   polymorphic equality is exact. *)

(* What a leader's request came to — everything a follower copies.
   Followers share the leader's objective (that is part of the key),
   so their audit records take objective and scalar from their own
   job. *)
type flight_result =
  | Flight_solved of {
      served : Protocol.served;  (* the leader's rung *)
      status : Solver.status;
      cost : int;
      rho : int array;
          (* the leader's client numbering — identical sources imply
             identical numbering, so followers reuse it verbatim *)
      machines : int array;
      engine : string;
      fingerprint : string;
    }
  | Flight_error of { fingerprint : string; message : string }

type flight = {
  f_leader : job;
  mutable f_followers : job list;  (* newest first; guarded by [qm] *)
}

let same_solve a b =
  a.source = b.source && a.objective = b.objective
  && a.pricebook = b.pricebook && a.spec = b.spec

(* Whether [job] may ride [leader]'s flight. [No_reuse] jobs never
   follow (the client asked for a cold solve) but still lead —
   duplicates are welcome to ride the cold result. *)
let follows leader job = job.reuse <> Protocol.No_reuse && same_solve leader job

(* The compiled-instance tables are keyed by text or digest, compared
   with [String.equal]. *)
module Lru = Lru.Make (String)

(* A source resolved for a solve: the instance engines run on, the
   instance in the submitted numbering, and their fingerprint (see
   [resolve]). *)
type resolved = Instance.t * Instance.t * Fingerprint.t

(* An inline text's entry. A text first seen under another scenario
   keeps only its parse; it is compiled under the default scenario the
   first time a default-scenario request (or a track) needs it. *)
type text_entry = Parsed of Rentcost.Problem.t | Compiled of resolved

type t = {
  config : config;
  solutions : Cache.t;  (* locks itself *)
  queue : job Admission.t;
  qm : Mutex.t;  (* guards every [queue] and [flights] access *)
  qc : Condition.t;  (* signalled on admission; workers sleep here *)
  flights : flight list ref;
      (* open single-flight leaders, at most one per worker. While a
         flight is open, no job that [follows] its leader is queued. *)
  registry : (Instance.t * Fingerprint.t) Lru.t;
      (* by name, at most [cache_capacity]; guarded by [im] *)
  texts : text_entry Lru.t;
      (* inline problems by their exact text, at most
         [cache_capacity]; guarded by [im] *)
  instances : (Instance.t * Fingerprint.t) Lru.t;
      (* by digest, Fingerprint.equal checked on reuse, at most
         [cache_capacity]; guarded by [im] *)
  im : Mutex.t;
  trackers : (string, Controller.t) Hashtbl.t;
      (* autoscale sessions by name; guarded by [sm] *)
  sm : Mutex.t;
      (* held across a tick, so ticks are serialized; separate from
         [im], so a re-solving tick never blocks a solve's lookups *)
  audit : Audit.t;
  trace_seq : int Atomic.t;
      (* with [trace_nonce], makes assigned trace ids unique per engine
         and stable within it *)
  trace_nonce : int;
  started_at : float;
}

let create ?(config = default_config) () =
  let started_at = Unix.gettimeofday () in
  {
    config;
    solutions = Cache.create ~capacity:config.cache_capacity;
    queue =
      Admission.create ~policy:config.queue_policy
        ~capacity:config.queue_capacity ();
    qm = Mutex.create ();
    qc = Condition.create ();
    flights = ref [];
    registry = Lru.create ~capacity:config.cache_capacity;
    texts = Lru.create ~capacity:config.cache_capacity;
    instances = Lru.create ~capacity:config.cache_capacity;
    im = Mutex.create ();
    trackers = Hashtbl.create 16;
    sm = Mutex.create ();
    audit = Audit.create ();
    trace_seq = Atomic.make 0;
    trace_nonce = int_of_float (Float.rem (started_at *. 1e3) 16777216.0);
    started_at;
  }

let audit t = t.audit

(* Assigned trace ids: unique within the engine (the atomic sequence),
   distinguishable across engine restarts (the start-time nonce). *)
let fresh_trace_id t =
  Printf.sprintf "req-%06x-%d" t.trace_nonce
    (Atomic.fetch_and_add t.trace_seq 1)

let locked_queue t f = Mutex.protect t.qm (fun () -> f t.queue)

let queue_length t = locked_queue t Admission.length

let inflight t = Mutex.protect t.qm (fun () -> List.length !(t.flights))

(* Back-pressure hint for [Overloaded]: queue depth times observed mean
   service latency — roughly how long the present backlog takes to
   clear. Before any latency sample exists, assume 20ms per job. *)
let retry_after_ms t =
  let snap = Telemetry.snapshot latency_hist in
  let mean =
    if snap.Telemetry.h_count > 0 then
      snap.Telemetry.h_sum /. float_of_int snap.Telemetry.h_count
    else 0.02
  in
  let depth = max 1 (queue_length t) in
  max 1 (int_of_float (Float.ceil (mean *. float_of_int depth *. 1000.)))

let overloaded t job =
  Telemetry.bump c_shed;
  Protocol.Overloaded
    {
      id = job.id;
      trace_id = Some job.trace_id;
      retry_after_ms = Some (retry_after_ms t);
    }

(* --- canonical split translation ---

   The cache stores splits in canonical recipe order; these two maps
   move an allocation between an instance's own numbering and that
   shared order, which is what lets fingerprint-equal instances serve
   each other's solutions. *)

let canonical_rho_of inst (alloc : Allocation.t) =
  let order = Instance.canonical_recipe_order inst in
  let jc = Instance.num_recipes inst in
  let compact =
    Array.init jc (fun j ->
        alloc.Allocation.rho.(Instance.original_index inst j))
  in
  Array.init jc (fun slot -> compact.(order.(slot)))

let alloc_of_canonical inst canonical_rho =
  let order = Instance.canonical_recipe_order inst in
  let compact = Array.make (Instance.num_recipes inst) 0 in
  Array.iteri (fun slot j -> compact.(j) <- canonical_rho.(slot)) order;
  Allocation.of_rho (Instance.problem inst) ~rho:(Instance.expand_rho inst compact)

(* --- registration and instance resolution --- *)

let register t ~name problem =
  let inst = Instance.compile problem in
  let fp = Fingerprint.of_instance inst in
  Mutex.protect t.im (fun () ->
      Lru.replace t.registry name (inst, fp);
      Lru.replace t.instances (Fingerprint.digest fp) (inst, fp));
  fp

(* Compile [problem] (under [scenario], default min-cost without a
   price book) and dedup in the instance table. Lookup and (on miss)
   insert happen under one lock, so two workers resolving the same
   problem agree on which compiled instance is the shared one. The
   scenario is baked into the canonical encoding, so objective kinds
   and price books land on distinct digests and never share a
   compiled instance. *)
let shared_compile t ?scenario problem =
  let inst = Instance.compile ?scenario problem in
  let fp = Fingerprint.of_instance inst in
  let digest = Fingerprint.digest fp in
  let shared =
    Mutex.protect t.im (fun () ->
        match Lru.find t.instances digest with
        | Some (inst0, fp0) when Fingerprint.equal fp fp0 -> `Reuse inst0
        | _ ->
          Lru.replace t.instances digest (inst, fp);
          `Fresh)
  in
  match shared with
  | `Reuse inst0 ->
    Telemetry.bump c_reuse;
    (inst0, inst, fp)
  | `Fresh -> (inst, inst, fp)

let registered t ~what name =
  match Mutex.protect t.im (fun () -> Lru.find t.registry name) with
  | None -> Result.Error (Printf.sprintf "%s: unknown ref %S" what name)
  | Some entry -> Result.Ok entry

(* Inline text is an anonymous registration keyed by the exact text.
   Its first sight parses it and files the parse; every later sight
   skips the parse. A parse failure is not memoized and is reported
   as ["<what>: <message>"]. *)
let text_entry t ~what text =
  match Mutex.protect t.im (fun () -> Lru.find t.texts text) with
  | Some entry -> Result.Ok entry
  | None ->
    Result.map
      (fun problem ->
        Mutex.protect t.im (fun () -> Lru.replace t.texts text (Parsed problem));
        Parsed problem)
      (Protocol.parse_problem ~what text)

(* What [source] names under the default scenario, and whether it was
   compiled before this request. A [Ref] is its registered instance;
   inline text is compiled and fingerprinted (deduped by digest) the
   first time it is needed here, and filed for every later sight. *)
let lookup t ~what source =
  match source with
  | Protocol.Ref name ->
    Result.map (fun (inst, fp) -> ((inst, inst, fp), true)) (registered t ~what name)
  | Protocol.Inline text -> (
    match text_entry t ~what text with
    | Result.Error _ as e -> e
    | Result.Ok (Compiled resolved) -> Result.Ok (resolved, true)
    | Result.Ok (Parsed problem) ->
      let resolved = shared_compile t problem in
      Mutex.protect t.im (fun () -> Lru.replace t.texts text (Compiled resolved));
      Result.Ok (resolved, false))

(* The problem [source] names, as submitted, without compiling it. *)
let source_problem t ~what source =
  match source with
  | Protocol.Ref name ->
    Result.map (fun (inst, _) -> Instance.source_problem inst) (registered t ~what name)
  | Protocol.Inline text ->
    Result.map
      (function
        | Compiled (_, client_inst, _) -> Instance.source_problem client_inst
        | Parsed problem -> problem)
      (text_entry t ~what text)

(* Resolve a solve source to [(solve_inst, client_inst, fp)]:
   [solve_inst] is the (possibly shared) instance engines run on,
   [client_inst] carries the submitted problem's numbering for the
   response. They differ only for an inline problem that
   fingerprint-matched an already-compiled one. Under the default
   scenario (min-cost, no price book) a source seen before resolves
   to what [lookup] kept, verbatim; any other scenario compiles the
   submitted problem under it alone, deduped by digest. *)
let resolve t source ~objective ~pricebook =
  if Objective.kind objective = `Min_cost && Option.is_none pricebook then
    match lookup t ~what:"solve" source with
    | Result.Error _ as e -> e
    | Result.Ok (resolved, seen) ->
      if seen then Telemetry.bump c_reuse;
      Result.Ok resolved
  else
    let scenario = Scenario.make ~objective ?pricebook () in
    Result.map (shared_compile t ~scenario) (source_problem t ~what:"solve" source)

(* --- autoscale sessions ---

   Track/Tick/Untrack are immediate ops (like Register): a tick is a
   cheap deadband check unless the controller actually re-solves, and
   queuing ticks behind solves would let demand observations go stale.
   A session's controller lives in [t.trackers]; running the tick
   under [sm] serializes the controllers. *)

(* The controller always runs on the instance in the submitted
   problem's own numbering (the registered instance for a [Ref], never
   a fingerprint-equal stand-in), so plan arrays are in that
   numbering. *)
let resolve_track t source =
  Result.map
    (fun ((_, client_inst, fp), seen) ->
      if seen then Telemetry.bump c_reuse;
      (client_inst, fp))
    (lookup t ~what:"track" source)

let track t ~session ~source ~ticks_per_hour ~deadband ~headroom ~spec =
  match resolve_track t source with
  | Result.Error message -> Protocol.Error { id = None; trace_id = None; message }
  | Result.Ok (inst, fp) ->
    let config =
      {
        Controller.ticks_per_hour;
        deadband;
        headroom;
        spec;
        budget = t.config.default_budget;
      }
    in
    let controller = Controller.create_on ~config inst in
    Mutex.protect t.sm (fun () -> Hashtbl.replace t.trackers session controller);
    Protocol.Tracking { session; fingerprint = Fingerprint.short fp }

let track_tick t ~id ~session ~demand =
  let result =
    Mutex.protect t.sm (fun () ->
        match Hashtbl.find_opt t.trackers session with
        | None -> None
        | Some controller ->
          let plan =
            Telemetry.Span.with_span
              ~attrs:[ ("session", session); ("demand", string_of_int demand) ]
              "service.tick"
              (fun () -> Controller.tick controller ~demand)
          in
          Some (plan, Controller.total_charged controller))
  in
  match result with
  | None ->
    Protocol.Error
      {
        id;
        trace_id = None;
        message = Printf.sprintf "tick: no tracked session %S" session;
      }
  | Some (plan, total_charged) ->
    if Telemetry.enabled () then
      Telemetry.bump
        (Telemetry.counter_with ticks_vec
           [ session; Controller.action_to_string plan.Controller.action ]);
    Protocol.Plan { id; session; plan; total_charged }

let untrack t ~session =
  let removed =
    Mutex.protect t.sm (fun () ->
        match Hashtbl.find_opt t.trackers session with
        | None -> None
        | Some controller ->
          Hashtbl.remove t.trackers session;
          Some controller)
  in
  match removed with
  | None ->
    Protocol.Error
      {
        id = None;
        trace_id = None;
        message = Printf.sprintf "untrack: no tracked session %S" session;
      }
  | Some c ->
    Protocol.Untracked
      {
        session;
        ticks = Controller.ticks c;
        replans = Controller.replans c;
        holds = Controller.holds c;
        violations = Controller.violations c;
        total_charged = Controller.total_charged c;
      }

(* --- answering a request ---

   Every completed solve request — a leader answered from any rung, a
   leader that failed, a follower — is answered here: one audit record
   and one reply. Solved answers also observe the latency histogram
   and bump the labelled [(tenant, rung)] request cell; failures do
   neither. A follower ([~coalesced:true]) copies its leader's result
   under its own identity. [outcome] supplies the effort counts and
   convergence timeline of an engine solve. *)
let answer t job ~coalesced ~queue_wait ~wall ?outcome result =
  let record ~fingerprint ~served ~engine ~status ~cost ~throughput =
    let effort f =
      match outcome with None -> 0 | Some o -> f o.Solver.telemetry
    in
    Audit.record t.audit
      {
        Audit.seq = 0;
        at = Unix.gettimeofday ();
        trace_id = job.trace_id;
        id = job.id;
        tenant = job.tenant;
        fingerprint;
        objective = Objective.kind_to_string (Objective.kind job.objective);
        scalar = Objective.scalar job.objective;
        served;
        engine;
        status;
        cost;
        throughput;
        queue_wait;
        wall;
        evaluations = effort (fun e -> e.Solver.evaluations);
        pivots = effort (fun e -> e.Solver.pivots);
        nodes = effort (fun e -> e.Solver.nodes);
        convergence =
          Audit.summarize
            (match outcome with None -> [] | Some o -> o.Solver.convergence);
      }
  in
  match result with
  | Flight_error { fingerprint; message } ->
    record ~fingerprint
      ~served:(if coalesced then "coalesced" else "none")
      ~engine:"" ~status:"error" ~cost:0 ~throughput:0;
    Protocol.Error { id = job.id; trace_id = Some job.trace_id; message }
  | Flight_solved r ->
    let served = if coalesced then Protocol.Coalesced else r.served in
    let rung = Protocol.served_to_string served in
    Telemetry.observe latency_hist wall;
    if Telemetry.enabled () then
      Telemetry.bump (Telemetry.counter_with requests_vec [ job.tenant; rung ]);
    record ~fingerprint:r.fingerprint ~served:rung ~engine:r.engine
      ~status:(Solver.status_to_string r.status)
      ~cost:r.cost
      ~throughput:(Array.fold_left ( + ) 0 r.rho);
    Protocol.Solved
      {
        id = job.id;
        trace_id = Some job.trace_id;
        status = r.status;
        cost = r.cost;
        rho = Array.copy r.rho;
        machines = Array.copy r.machines;
        served;
        engine = r.engine;
        wall_time = wall;
      }

(* Run [f] as the [service.request] span of [job]. The ambient trace
   id stamps every span the request records — the request span, the
   rung and solve spans below it, and whatever the engines emit — as
   a [trace_id] attribute, tying the trace to the response and the
   audit record. *)
let traced job ~attrs f =
  if not (Telemetry.enabled ()) then f ()
  else
    Telemetry.Span.with_trace_id job.trace_id (fun () ->
        Telemetry.Span.with_span ~attrs "service.request" f)

(* --- the reuse ladder ---

   The ladder rungs each get a span, so a request's trace reads as
   service.request → service.resolve / rung lookups / service.solve →
   solver.solve → engine internals. [climb] returns the flight result
   and, when an engine ran, its outcome. A raising solve is a failed
   flight, not a dead worker: the exception becomes a [Flight_error],
   so the leader is answered and audited like any other failure and
   no follower is stranded. An [Invalid_argument] is the request's
   own fault (a budget past what an int allocation can carry, say),
   and its message is the error as it stands. *)
let climb t ~now job =
  let failed ~fingerprint e =
    let message =
      match e with
      | Invalid_argument msg -> "solve: " ^ msg
      | e -> "solve: " ^ Printexc.to_string e
    in
    (Flight_error { fingerprint; message }, None)
  in
  match
    Telemetry.Span.with_span "service.resolve" (fun () ->
        resolve t job.source ~objective:job.objective
          ~pricebook:job.pricebook)
  with
  | exception e -> failed ~fingerprint:"" e
  | Result.Error message -> (Flight_error { fingerprint = ""; message }, None)
  | Result.Ok (solve_inst, client_inst, fp) -> (
    let fingerprint = Fingerprint.short fp in
    try
      let digest = Fingerprint.digest fp
      and encoding = Fingerprint.encoding fp in
      (* The cache scalar: the throughput target of a min-cost job, the
         monetary budget of a max-throughput one. The two never collide —
         the objective kind is baked into [encoding] (and [digest]). *)
      let scalar = Objective.scalar job.objective in
      let kind = Objective.kind job.objective in
      let spec =
        match job.spec with
        | Solver.Auto -> Solver.auto_of_instance solve_inst
        | s -> s
      in
      let spec_s = Solver.spec_to_string spec in
      let reuse_at_least r =
        match (job.reuse, r) with
        | Protocol.No_reuse, _ -> false
        | _, Protocol.No_reuse -> true
        | Protocol.Exact_only, _ -> r = Protocol.Exact_only
        | Protocol.Warm, _ -> r <> Protocol.Monotone
        | Protocol.Monotone, _ -> true
      in
      let found ?outcome ~served ~status ~engine (alloc : Allocation.t) =
        ( Flight_solved
            {
              served;
              status;
              cost = alloc.Allocation.cost;
              rho = alloc.Allocation.rho;
              machines = alloc.Allocation.machines;
              engine;
              fingerprint;
            },
          outcome )
      in
      let exact =
        if reuse_at_least Protocol.Exact_only then
          Telemetry.Span.with_span "service.rung.exact" (fun () ->
              Cache.find_exact t.solutions ~digest ~encoding ~target:scalar
                ~spec:spec_s)
        else None
      in
      match exact with
      | Some entry ->
        Telemetry.bump c_hits;
        let status =
          if entry.Cache.optimal then Solver.Optimal else Solver.Feasible
        in
        found ~served:Protocol.Exact_hit ~status ~engine:entry.Cache.spec
          (alloc_of_canonical client_inst entry.Cache.canonical_rho)
      | None -> (
        let monotone =
          if reuse_at_least Protocol.Monotone then
            Telemetry.Span.with_span "service.rung.monotone" (fun () ->
                (* Min-cost: an optimal split for a larger target covers
                   this one. Max-throughput: an optimal split under a
                   smaller budget still fits this one — the same rung
                   read in the scalar's feasibility direction. *)
                match kind with
                | `Min_cost ->
                  Cache.find_monotone t.solutions ~digest ~encoding
                    ~target:scalar
                | `Max_throughput ->
                  Cache.find_monotone_le t.solutions ~digest ~encoding
                    ~target:scalar)
          else None
        in
        match monotone with
        | Some entry ->
          (* A feasible incumbent with zero solve work. *)
          Telemetry.bump c_hits;
          Telemetry.bump c_monotone;
          found ~served:Protocol.Monotone_hit ~status:Solver.Feasible
            ~engine:entry.Cache.spec
            (alloc_of_canonical client_inst entry.Cache.canonical_rho)
        | None -> (
          Telemetry.bump c_misses;
          let warm_start =
            (* Warm starts are a min-cost notion: a cached split at or
               above the target seeds the engine. A max-throughput solve
               re-brackets its own binary search, so it goes cold. *)
            if kind = `Min_cost && reuse_at_least Protocol.Warm then
              Telemetry.Span.with_span "service.rung.warm" (fun () ->
                  match
                    Cache.find_nearest t.solutions ~digest ~encoding
                      ~target:scalar
                  with
                  | Some entry ->
                    Some
                      (alloc_of_canonical solve_inst entry.Cache.canonical_rho)
                  | None -> None)
            else None
          in
          (* Charge queue wait against the request's deadline. *)
          let budget =
            Budget.remaining job.budget ~elapsed:(now -. job.arrived)
          in
          let outcome =
            Telemetry.Span.with_span "service.solve" (fun () ->
                Solver.run ~budget ?warm_start ~spec solve_inst
                  ~objective:job.objective)
          in
          match outcome.Solver.allocation with
          | None ->
            ( Flight_error { fingerprint; message = "solve: no allocation found" },
              None )
          | Some alloc ->
            let warm = outcome.Solver.telemetry.Solver.warm_started in
            if warm then Telemetry.bump c_warm;
            let canonical = canonical_rho_of solve_inst alloc in
            Cache.insert t.solutions ~digest ~encoding
              {
                Cache.target = scalar;
                spec = spec_s;
                canonical_rho = canonical;
                cost = alloc.Allocation.cost;
                optimal = outcome.Solver.status = Solver.Optimal;
              };
            let client_alloc =
              if solve_inst == client_inst then alloc
              else alloc_of_canonical client_inst canonical
            in
            found ~outcome
              ~served:(if warm then Protocol.Warm_started else Protocol.Cold)
              ~status:outcome.Solver.status
              ~engine:
                (Solver.spec_to_string
                   outcome.Solver.telemetry.Solver.engine)
              client_alloc))
    with e -> failed ~fingerprint e)

(* A leader's request, end to end: account its queue wait (recorded
   as a sibling span timed externally, since no code runs while the
   job sits in the queue), climb the ladder, answer. Returns the
   result its followers copy and its own reply. *)
let lead t ~now job =
  let started = Unix.gettimeofday () in
  let queue_wait = now -. job.arrived in
  Telemetry.bump c_requests;
  Telemetry.observe queue_wait_hist queue_wait;
  Telemetry.Span.record ~name:"service.queue_wait" ~start:job.arrived
    ~duration:queue_wait ();
  let result, outcome = climb t ~now job in
  let wall = Unix.gettimeofday () -. started in
  (result, answer t job ~coalesced:false ~queue_wait ~wall ?outcome result)

(* Answer a follower from its leader's outcome: the follower keeps its
   own trace id, request span, audit record and latency observation,
   but touches neither the cache nor an engine. The invariant clients
   rely on: a follower never observes a different answer than its
   leader — payloads are copied from the flight result verbatim. *)
let serve_coalesced t ~now job result =
  traced job ~attrs:[ ("served", "coalesced") ] (fun () ->
      Telemetry.bump c_requests;
      Telemetry.bump c_coalesced;
      (* A door-attached follower may arrive after the leader's drain
         clock; clamp so injected test clocks never observe negatives. *)
      let waited = Float.max 0. (now -. job.arrived) in
      Telemetry.observe queue_wait_hist waited;
      answer t job ~coalesced:true ~queue_wait:waited ~wall:waited result)

(* Close a finished flight and return its followers in arrival
   order. The leader's cache insert happened inside [climb], strictly
   before this — so once the flight is gone, late duplicates hit the
   cache instead. *)
let complete_flight t f =
  Mutex.protect t.qm (fun () ->
      t.flights := List.filter (fun g -> g != f) !(t.flights);
      List.rev f.f_followers)

(* Lead one job's flight. Returns every response this now owes: the
   job's own answer first, then those of its followers. *)
let run t ~now job f =
  let attrs =
    [
      ("objective", Objective.kind_to_string (Objective.kind job.objective));
      ("target", string_of_int (Objective.scalar job.objective));
      ("reuse", Protocol.reuse_to_string job.reuse);
    ]
  in
  let result, reply = traced job ~attrs (fun () -> lead t ~now job) in
  reply
  :: List.map (fun j -> serve_coalesced t ~now j result) (complete_flight t f)

(* --- stats --- *)

let stats t =
  let counters =
    List.map (fun (name, v) -> (name, Json.Int v)) (Telemetry.all ())
  in
  let ops =
    List.map (fun (op, c) -> (op, Json.Int (Telemetry.read c))) op_counters
  in
  [
    ("uptime", Json.Float (Unix.gettimeofday () -. t.started_at));
    ("counters", Json.Obj counters);
    ("ops", Json.Obj ops);
    ( "cache",
      Json.Obj
        [
          ("size", Json.Int (Cache.length t.solutions));
          ("capacity", Json.Int (Cache.capacity t.solutions));
          ("evictions", Json.Int (Cache.evictions t.solutions));
        ] );
    ( "queue",
      Json.Obj
        [
          ("depth", Json.Int (queue_length t));
          ("capacity", Json.Int (Admission.capacity t.queue));
          ( "policy",
            Json.String (Admission.policy_to_string (Admission.policy t.queue))
          );
          ("shed", Json.Int (locked_queue t Admission.shed_count));
          ("inflight", Json.Int (inflight t));
        ] );
    ("latency", Metrics.histogram_to_json (Telemetry.snapshot latency_hist));
    ( "audit",
      Json.Obj
        [
          ("recorded", Json.Int (Audit.recorded t.audit));
          ("capacity", Json.Int (Audit.capacity t.audit));
        ] );
    ( "registered",
      Json.Int (Mutex.protect t.im (fun () -> Lru.length t.registry)) );
    ("instances", Json.Int (Mutex.protect t.im (fun () -> Lru.length t.instances)));
    ("inline_texts", Json.Int (Mutex.protect t.im (fun () -> Lru.length t.texts)));
    ( "tracked",
      Json.Int (Mutex.protect t.sm (fun () -> Hashtbl.length t.trackers)) );
  ]

(* --- request dispatch --- *)

let clock = function Some now -> now | None -> Unix.gettimeofday ()

let submit ?now t (request : Protocol.request) =
  let now = clock now in
  Telemetry.bump (List.assoc (op_name request) op_counters);
  match request with
  | Protocol.Register { name; problem } ->
    let fp = register t ~name problem in
    [ Protocol.Registered { name; fingerprint = Fingerprint.short fp } ]
  | Protocol.Stats -> [ Protocol.Stats_reply (stats t) ]
  | Protocol.Metrics ->
    [
      Protocol.Metrics_reply
        { metrics = Metrics.json ~stats:(stats t) (); text = Metrics.text () };
    ]
  | Protocol.Shutdown -> [ Protocol.Bye ]
  | Protocol.Track { session; source; ticks_per_hour; deadband; headroom; spec }
    ->
    [ track t ~session ~source ~ticks_per_hour ~deadband ~headroom ~spec ]
  | Protocol.Tick { id; session; demand } ->
    [ track_tick t ~id ~session ~demand ]
  | Protocol.Untrack { session } -> [ untrack t ~session ]
  | Protocol.Audit { last } ->
    [ Protocol.Audit_reply (Audit.recent ?last t.audit) ]
  | Protocol.Solve
      { id; trace_id; tenant; source; objective; pricebook; spec; budget; reuse }
    ->
    let budget =
      match budget with Some b -> b | None -> t.config.default_budget
    in
    let trace_id =
      match trace_id with Some s -> s | None -> fresh_trace_id t
    in
    let tenant = Option.value ~default:"default" tenant in
    let job =
      {
        id;
        trace_id;
        tenant;
        source;
        objective;
        pricebook;
        spec;
        budget;
        reuse;
        arrived = now;
      }
    in
    let expires_at =
      Option.map (fun d -> now +. d) budget.Budget.deadline
    in
    (* Single-flight at the door: a duplicate of a solve already in
       flight attaches to that flight and skips admission entirely —
       it holds no queue slot and cannot be shed. The check and the
       offer share one [qm] section, so no duplicate is queued behind
       an open flight. *)
    let outcome =
      locked_queue t (fun q ->
          match List.find_opt (fun f -> follows f.f_leader job) !(t.flights) with
          | Some f ->
            f.f_followers <- job :: f.f_followers;
            None
          | None ->
            let o = Admission.offer q ?expires_at ~tenant ~now job in
            if o.Admission.admitted then Condition.signal t.qc;
            Some o)
    in
    match outcome with
    | None -> []
    | Some o ->
      let evicted = List.map (overloaded t) o.Admission.evicted in
      if o.Admission.admitted then evicted else evicted @ [ overloaded t job ]

(* Take the oldest live job, shedding the expired entries met on the
   way, and open its flight in the same queue-lock section, adopting
   every queued duplicate as a follower; run the job outside (solves
   are the long part — holding qm across them would serialize the
   workers). Since the door check also runs under [qm], a taken job
   never has an open flight to follow: it always leads. *)
let take t ~now =
  locked_queue t (fun q ->
      let rec go shed =
        match Admission.take q ~now with
        | `Empty -> (List.rev shed, None)
        | `Shed job -> go (job :: shed)
        | `Job job ->
          let swept = Admission.remove_matching q ~f:(follows job) in
          let f = { f_leader = job; f_followers = List.rev swept } in
          t.flights := f :: !(t.flights);
          (List.rev shed, Some (job, f))
      in
      go [])

(* One worker wakeup: one job. Returns every response now owed:
   dispatch-time sheds, the job's answer, then any followers its
   flight adopted. Empty means the queue held nothing. *)
let drain_next ?now t =
  let now = clock now in
  let shed, next = take t ~now in
  let shed_rs = List.map (overloaded t) shed in
  match next with
  | None -> shed_rs
  | Some (job, f) -> shed_rs @ run t ~now job f

let drain ?now t =
  let now = clock now in
  let rec go acc =
    match drain_next ~now t with
    | [] -> List.rev acc
    | rs -> go (List.rev_append rs acc)
  in
  go []

(* Block until the queue is non-empty or [stop ()] turns true (the
   caller flips its stop flag and calls [wake_all]). Returns whether
   the queue held work at wake-up — true even when stopping, so
   workers drain a non-empty queue before exiting. *)
let wait_for_work t ~stop =
  Mutex.lock t.qm;
  let rec wait () =
    if Admission.length t.queue > 0 then true
    else if stop () then false
    else begin
      Condition.wait t.qc t.qm;
      wait ()
    end
  in
  let has_work = wait () in
  Mutex.unlock t.qm;
  has_work

let wake_all t =
  Mutex.lock t.qm;
  Condition.broadcast t.qc;
  Mutex.unlock t.qm

let handle ?now t request =
  match request with
  | Protocol.Solve _ -> (
    match submit ?now t request with
    | [] -> drain ?now t
    | rs -> drain ?now t @ rs)
  | _ ->
    let backlog = drain ?now t in
    backlog @ submit ?now t request

module For_testing = struct
  let cache t = t.solutions
  let default_config = default_config
  let drain = drain
  let queue_length = queue_length
  let inflight = inflight
end
