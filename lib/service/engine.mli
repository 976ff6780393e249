(** The provisioning engine: solves behind a fingerprint-keyed cache
    with admission control.

    One engine owns the long-lived state a solve daemon amortizes
    across requests — a name registry and the compiled-instance
    tables (compile once, solve many), the LRU solution {!Cache}, the
    {!Admission} queue, and latency/telemetry accounting. It speaks
    {!Protocol} values directly, so the in-process embedding and the
    line-delimited daemon share every code path.

    {2 The reuse ladder}

    A solve request walks down until something answers, stopping at
    the rung its [reuse] policy allows:

    + {b exact hit} — a cached answer for the same structure,
      objective scalar and engine (or any optimality-proved answer for
      that scalar): replayed verbatim.
    + {b monotone hit} — a cached {e optimal} answer whose scalar
      covers this one: for min-cost, the smallest target [>= target];
      for max-throughput, the largest budget [<= budget] (its cost
      fits this budget too). Served immediately as a feasible
      incumbent, without running an engine.
    + {b warm start} (min-cost only) — the nearest cached split at or
      above the target (optimal or not) is handed to
      {!Rentcost.Solver.run} ([?warm_start]), which trims surplus
      throughput and starts the search heuristics from it. The reply
      says [warm-started] only when a heuristic read the seed; an
      exact engine (which does not) answers [cold]. A max-throughput
      solve re-brackets its own binary search and goes straight to
    + {b cold solve}.

    Cached splits are stored in canonical recipe order, so all three
    rungs serve fingerprint-equal requests whatever recipe numbering
    they were submitted in; responses are always translated back into
    the {e submitted} problem's numbering.

    {2 Scenarios}

    A request's {!Rentcost.Objective.t} and optional
    {!Rentcost.Pricebook.t} are compiled into the instance the ladder
    and engines see. The objective kind and the book's prices are part
    of the canonical encoding, so cache keys — and the compiled
    instances themselves — never cross objectives or price books: a
    max-throughput entry cannot satisfy a min-cost probe and vice
    versa. A [Ref] solve under the default scenario (min-cost, no
    book) reuses the registered instance verbatim; any other scenario
    recompiles the registered problem under it, deduped in the
    instance table so each scenario keeps one compiled instance.

    {2 Compiled instances}

    An inline problem is an anonymous registration keyed by its exact
    text (compared with [String.equal]): the first request carrying a
    text parses it, and the first default-scenario request (or track)
    compiles and fingerprints it; every later one resolves from the
    table exactly as a [Ref] does. Any other scenario compiles the
    kept parse under that scenario only. A text that fails
    to parse is answered [Error "solve: Problem_format: ..."] under
    the request's id and trace id, and is not kept. Compiled
    instances are deduped by fingerprint digest. The name registry,
    the text table and the digest table each hold at most
    [config.cache_capacity] entries, least recently used out first; a
    solve on an evicted name answers [Error "solve: unknown ref ..."]
    as if it had never been registered.

    {2 Autoscale sessions}

    [Track] opens a named {!Rentcost_autoscale.Controller} session
    over a registered or inline problem (default min-cost scenario);
    [Tick] feeds it one demand observation and answers with the
    tick's reconfiguration plan; [Untrack] closes it with a summary.
    All three are immediate ops — a tick is a deadband check unless
    the controller re-solves, and queueing it behind solves would let
    the observation go stale. Controller re-solves run under the
    engine's [default_budget]; so a daemon started with a deadline
    budget bounds every autoscale re-solve the same way it bounds
    cold solves. Sessions sit behind their own mutex, held across a
    tick: ticks are serialized, and a tick that re-solves never blocks
    a solve's registry or cache lookup.

    {2 Accounting}

    Every outcome bumps the [service.*] counters in {!Telemetry}
    (requests, cache_hits / cache_misses, monotone_hits, warm_starts,
    compile_reuse — a registered or already-seen inline problem, or a
    compile deduped by digest — shed, per-op request counts) and observes the
    [service.latency_seconds] and [service.queue_wait_seconds]
    histograms; each drained request runs under a [service.request]
    span whose children trace the ladder rungs and the engine solve.
    Completed requests additionally bump the labelled
    [service.requests] family — one series per [(tenant, rung)] pair —
    and autoscale ticks the [autoscale.session_ticks] family by
    [(session, action)]; both bumps are skipped entirely while the
    telemetry kill switch is off. {!stats} snapshots all of it for the
    [stats] request and the shutdown dump; the [metrics] request
    serves the full {!Metrics.json} exposition.

    {2 Tracing and auditing}

    Every admitted solve carries a trace id — the request's
    ["trace_id"] when supplied, an engine-assigned [req-...] id
    otherwise. It is set as the ambient {!Telemetry.Span} trace
    context for the whole request (so every span the request records
    carries a [trace_id] attribute), echoed in the [Solved] /
    [Overloaded] / [Error] response, and written to the request's
    {!Audit} record together with the reuse rung, timings, solver
    effort and a summary of the solve's convergence timeline
    ({!Rentcost.Solver.outcome}[.convergence]). The journal ring
    answers the [Audit] request; {!audit} exposes it so the daemon can
    attach a JSONL file ({!Audit.open_file}).

    {2 Concurrency}

    The engine is safe to share across domains: the admission queue
    and the open flights sit behind one mutex + condition variable
    ({!submit} signals, {!wait_for_work} sleeps), the solution
    {!Cache} locks itself, and the name registry and instance table
    share one mutex, so {!register} updates both in one critical
    section. Those two locks are held only for a lookup or insert,
    and solves run outside all engine locks, so [N] workers really
    solve [N] jobs at once. The engine spawns nothing — {!Daemon} owns
    the worker domains, and each worker wakeup ({!drain_next}) takes
    one job.

    {2 Single-flight coalescing}

    Identical solves — same source, objective, price book and spec —
    never run twice concurrently. The worker that takes one off the
    queue becomes the {e leader} of an open flight, and a follower
    attaches to it at one of two points, both under the queue lock:
    when the leader starts, it adopts every identical request still
    queued (their slots free at once); while it solves, a duplicate
    arriving at {!submit} attaches at the door, holding no queue slot.
    So while a flight is open no request with its key sits in the
    queue, no worker ever waits on another's solve, and a herd of [n]
    identical queued requests costs exactly one cold solve and
    [n - 1] coalesced answers under {e any} worker interleaving.
    Followers are answered [served = "coalesced"], each under its own
    trace id and audit record, and {e never observe a different answer
    than their leader} — payloads are copied from the leader's outcome
    verbatim, including errors. The leader inserts into the cache
    strictly before closing its flight, so late duplicates hit the
    cache instead of re-solving. [reuse = "none"] requests never
    follow (the client asked for a cold solve) but do lead. Coalesced
    requests bump [service.coalesced] and the [(tenant, "coalesced")]
    labelled series.

    {2 Back-pressure}

    When the queue is full, [config.queue_policy] picks who loses
    (see {!Admission.policy}); entries whose deadline lapsed in queue
    are shed eagerly at every offer so corpses never hold slots.
    Every shed answers [Overloaded] carrying a [retry_after_ms] hint
    (queue depth times observed mean service latency). Shed never
    silently loses an accepted request: evictions hand the job back
    and {!submit} returns their [Overloaded] responses alongside the
    arrival's own outcome. *)

type config = {
  cache_capacity : int;
      (** LRU entries (default 128), of the solution cache and of
          each compiled-instance table *)
  queue_capacity : int;  (** admission backlog bound (default 64) *)
  queue_policy : Admission.policy;
      (** who loses when the queue is full (default
          {!Admission.Reject_new}, the historical behaviour) *)
  default_budget : Rentcost.Budget.t;
      (** budget for solve requests that carry none (default
          {!Rentcost.Budget.unlimited}) *)
}

type t

(** [config] defaults to the field defaults listed above.
    @raise Invalid_argument when [config.cache_capacity <= 0] or
    [config.queue_capacity <= 0]. *)
val create : ?config:config -> unit -> t

(** The engine's audit journal — one record per completed solve. The
    daemon calls {!Audit.open_file} on it to mirror records to a JSONL
    file; tests read it back via {!Audit.recent}. *)
val audit : t -> Audit.t

(** [register t ~name problem] compiles [problem], stores it under
    [name] (replacing any previous binding; the least recently used
    name makes room when the registry is full) and in the digest-keyed
    instance table, and returns its fingerprint. *)
val register : t -> name:string -> Rentcost.Problem.t -> Fingerprint.t

(** [submit t request] runs [Register]/[Track]/[Tick]/[Untrack]/
    [Stats]/[Metrics]/[Audit]/[Shutdown] immediately (their single
    response) and enqueues [Solve] requests — [[]] when admitted or
    attached to an open flight (answers come from {!drain_next}),
    otherwise the [Overloaded] responses now owed: one
    per expired-or-evicted previously admitted job, plus the
    arrival's own when it was the one shed. [~now] is the admission
    clock (defaults to the wall clock); deadlines of queued requests
    are measured against it. *)
val submit : ?now:float -> t -> Protocol.request -> Protocol.response list

(** [drain_next t] takes and runs {e one job}: the oldest live queued
    solve, as the leader of its flight (see the module doc). Returns
    every response that work now owes — dispatch-time sheds, the job's
    answer, then its followers' in arrival order — and [[]] only when
    the queue held nothing. The building block of the parallel
    daemon's worker loop. *)
val drain_next : ?now:float -> t -> Protocol.response list

(** [wait_for_work t ~stop] blocks the calling domain until the queue
    is non-empty or [stop ()] is true, and returns whether the queue
    held work — [true] even when stopping, so a worker loop drains a
    non-empty queue before exiting. Whoever flips the stop flag must
    call {!wake_all} afterwards. *)
val wait_for_work : t -> stop:(unit -> bool) -> bool

(** Wake every domain blocked in {!wait_for_work} (for stop-flag
    changes; admissions signal by themselves). *)
val wake_all : t -> unit

(** [handle t request] = backlog first, then this request: every
    queued solve run ({!drain_next} until the queue is empty), then
    {!submit}, so callers with one request in flight —
    the daemon, the tests — get exactly its responses, in order. *)
val handle : ?now:float -> t -> Protocol.request -> Protocol.response list

(** Snapshot for [Stats_reply] and the shutdown dump: uptime, every
    registered {!Telemetry} counter, per-op request counts, cache
    occupancy/evictions, queue depth/policy/shed/in-flight counts,
    the [service.latency_seconds] histogram (bounds, counts, sum and
    count, as in the [metrics] reply), the registered-name count, the
    live compiled instances ([instances], the digest-keyed table) and
    inline texts ([inline_texts]), and the tracked-session count. *)
val stats : t -> (string * Json.t) list

module For_testing : sig
  (** The engine's solution cache, to observe occupancy and eviction
      counts. *)
  val cache : t -> Cache.t

  (** The configuration {!create} defaults to. *)
  val default_config : config

  (** [drain t] runs every queued solve whose deadline has not expired
      in queue (expired ones answer [Overloaded]) and returns the
      responses in arrival order. *)
  val drain : ?now:float -> t -> Protocol.response list

  (** Queued solve requests not yet drained. *)
  val queue_length : t -> int

  (** Open single-flight leaders: solves running now. *)
  val inflight : t -> int
end
