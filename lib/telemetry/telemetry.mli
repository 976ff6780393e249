(** The observability substrate shared by every layer of the solver
    stack: monotone counters, fixed-bucket histograms and hierarchical
    spans, with a Prometheus-style text exposition.

    The solver stack spans several libraries (the simplex engines in
    [lp], branch and bound in [milp], the heuristics in [rentcost],
    the provisioning service in [rentcost_service]), and a single
    user-facing solve may drive any combination of them. Rather than
    thread effort statistics through every return type, each layer
    records against a named global instrument at its unit of work, and
    observers — [Rentcost.Solver], the daemon's [stats] and [metrics]
    requests, the bench harness — read the shared state.

    {b Counters} are monotone: never reset, only read, so nested or
    interleaved observers cannot corrupt each other — each computes
    its own before/after difference. {b Histograms} bucket latency or
    size observations under fixed upper bounds (Prometheus ["le"]
    semantics: an observation lands in the first bucket whose bound is
    [>=] the value). {b Spans} time a bracketed computation on the
    shared clock and land in a bounded in-memory ring (and an optional
    sink), carrying parent links so a trace reconstructs the call
    tree.

    Everything honours one kill switch: {!set_enabled}[ false] freezes
    counters and histograms and makes {!Span.with_span} a tail call of
    its body — no clock reads, no allocation — so instrumented code
    paths are effectively zero-cost when observability is off.

    Thread-safety: every instrument is safe and {e exact} under
    parallel writers. Counters are atomics (wait-free bump/add, no
    lost increments); each histogram guards its buckets, sum and count
    with one mutex, so snapshots never tear; span ring slots are
    claimed with a fetch-and-add, the open-span context is
    domain-local (a worker's spans nest under {e its own} enclosing
    span, not another domain's), and the sink runs under its own mutex
    so a trace writer's lines never interleave. Registration and
    snapshots ({!counter}, {!histogram}, {!all}, {!histograms}) keep
    their original registry mutex. *)

val enabled : unit -> bool

(** Globally enable or disable all recording. Disabling does not clear
    accumulated values. *)
val set_enabled : bool -> unit

(** The clock spans are timed on, in seconds. Defaults to
    [Unix.gettimeofday]; {!set_clock} swaps it (tests use a
    deterministic counter). *)
val now : unit -> float

val set_clock : (unit -> float) -> unit

(** {1 Counters} *)

type counter

(** [counter name] finds or creates the counter registered under
    [name]. Calls with equal names return the same counter, which is
    how independent libraries share one counter without depending on
    each other. [help] records the family's exposition help string. *)
val counter : ?help:string -> string -> counter

(** [bump c] adds 1 to [c] (no-op when recording is disabled). *)
val bump : counter -> unit

(** [add c n] adds [n] to [c] (no-op when recording is disabled). *)
val add : counter -> int -> unit

(** Current value of a counter (monotone since program start). *)
val read : counter -> int

(** [value name] is [read (counter name)] — 0 for never-bumped
    names. *)
val value : string -> int

(** All registered counters with their current values, sorted by
    name. The list is a snapshot: iterating it while new counters are
    registered is safe. *)
val all : unit -> (string * int) list

(** {1 Labelled counter families}

    A counter family is one metric name carrying many series, one per
    label-value vector — [service.requests{tenant="a",rung="cold"}].
    Cells are found-or-created under the registry mutex and are
    ordinary {!counter}s afterwards: {!bump}/{!add} stay wait-free and
    honour the kill switch. Hot paths should resolve the cell once and
    cache it (or guard the lookup with {!enabled}) — {!counter_with}
    itself takes the registry mutex. *)

type counter_vec

(** [counter_vec name ~labels] finds or creates the counter family
    registered under [name] with the given label {e names}.
    Re-registering with different label names raises
    [Invalid_argument]. A family may share its name with a plain
    {!counter}; the exposition renders both under one [# TYPE]. *)
val counter_vec : ?help:string -> string -> labels:string list -> counter_vec

(** [counter_with vec values] is the cell of [vec] for the label
    {e values} (arity must match the family's labels, else
    [Invalid_argument]). Equal values return the same cell. *)
val counter_with : counter_vec -> string list -> counter

(** All registered counter families, sorted by name:
    [(name, label names, cells)] with cells sorted by label values. *)
val counter_vecs : unit -> (string * string list * (string list * int) list) list

(** {1 Histograms} *)

type histogram

(** [histogram name ~bounds] finds or creates the histogram registered
    under [name]. [bounds] are strictly increasing bucket upper
    bounds; an implicit overflow bucket catches everything above the
    last. Re-registering with different bounds raises
    [Invalid_argument]. *)
val histogram : ?help:string -> string -> bounds:float array -> histogram

(** [observe h v] adds one observation (no-op when recording is
    disabled). [v] lands in the first bucket whose bound is [>= v]
    (["le"] semantics), or the overflow bucket. *)
val observe : histogram -> float -> unit

type histogram_snapshot = {
  h_name : string;
  h_bounds : float array;
  h_counts : int array;
      (** per-bucket (not cumulative); length [|h_bounds| + 1], last
          entry is the overflow bucket *)
  h_sum : float;
  h_count : int;
}

val snapshot : histogram -> histogram_snapshot

(** All registered histograms, snapshotted, sorted by name. *)
val histograms : unit -> histogram_snapshot list

(** {1 Gauges}

    Gauges are read-at-scrape callbacks, not recorded state: the
    registered function is evaluated whenever {!gauges} or
    {!text_exposition} runs, so the kill switch does not apply.
    Callbacks must be cheap and must not register instruments. *)

(** [gauge name f] registers (or replaces) the gauge [name]. The
    process gauges [process.uptime_seconds], [process.heap_words] and
    [process.major_collections] (from [Gc.quick_stat]) are registered
    at module initialisation. *)
val gauge : ?help:string -> string -> (unit -> float) -> unit

(** Current value of every registered gauge, sorted by name. *)
val gauges : unit -> (string * float) list

(** {1 Spans} *)

module Span : sig
  (** A completed timed region. [parent] is the id of the span that
      was open when this one started (0 = none); [depth] its nesting
      depth. Ids are unique and increasing within a process. *)
  type t = {
    id : int;
    parent : int;
    depth : int;
    name : string;
    attrs : (string * string) list;
    start : float;  (** clock value at entry *)
    duration : float;  (** seconds *)
  }

  (** [with_span name f] times [f ()] and records the completed span
      in the ring buffer (and the sink, when set). Spans nest: a span
      opened inside [f] is parented under this one, including across
      library boundaries. When recording is disabled this is exactly
      [f ()] — no clock read, no allocation. Exceptions propagate; the
      span is still recorded. *)
  val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

  (** [record ~name ~start ~duration ()] pushes an externally timed
      span — used by sampled loops that time blocks of iterations
      themselves. Parented under the innermost open [with_span]. *)
  val record :
    ?attrs:(string * string) list ->
    name:string ->
    start:float ->
    duration:float ->
    unit ->
    unit

  (** Retained spans, oldest first, at most {!capacity} of them.
      Parents complete after their children, so a parent appears after
      the spans it contains. *)
  val recent : unit -> t list

  (** Total spans recorded since start (or the last {!set_capacity} /
      {!clear}) — exceeds [capacity ()] once the ring has wrapped. *)
  val recorded : unit -> int

  val capacity : unit -> int

  (** Resize the ring (discards retained spans). Default 256. *)
  val set_capacity : int -> unit

  (** Drop all retained spans (ids keep increasing). *)
  val clear : unit -> unit

  (** A sink sees every completed span as it is recorded — the JSONL
      trace writer in [Rentcost_service.Metrics] installs itself
      here. [None] (the default) disables forwarding. *)
  val set_sink : (t -> unit) option -> unit

  (** {2 Trace ids}

      The ambient request identity of the current domain. While set,
      every completed span (from {!with_span} and {!record}) carries a
      [("trace_id", id)] attribute, so one request's spans can be
      filtered out of the shared ring or a trace file. Domain-local:
      parallel daemon workers each stamp their own request's id. *)

  (** [with_trace_id id f] runs [f] with the trace id set, restoring
      the previous value on exit (exceptions included). *)
  val with_trace_id : string -> (unit -> 'a) -> 'a

  val trace_id : unit -> string option
end

(** {1 Convergence progress}

    Incremental solvers ({!Milp.Solver}, the heuristics) emit
    [(elapsed, incumbent, bound, source)] events as their search
    advances; an enclosing {!Progress.collect} — installed by
    [Rentcost.Solver.run] — gathers them into a convergence timeline.
    Each event is also recorded as a zero-duration ["solver.progress"]
    span, so trace files carry the timeline alongside the structural
    spans. Emission is a no-op when recording is disabled or no
    collector is active, and emitters only fire on strict improvement,
    so timelines stay sparse and monotone (incumbents non-increasing,
    bounds non-decreasing for a minimisation). *)
module Progress : sig
  type event = {
    elapsed : float;  (** seconds since the enclosing collect started *)
    incumbent : float option;  (** best feasible objective so far *)
    bound : float option;  (** proved lower bound (minimisation) *)
    source : string;  (** emitting engine, e.g. ["milp"], ["h32jump"] *)
  }

  (** Whether a collector is active on this domain. *)
  val collecting : unit -> bool

  (** [emit ~incumbent ~bound ~source ()] appends one event to every
      active collector of this domain (each stamps its own [elapsed])
      and records the progress span. No-op when disabled or when no
      collector is active. *)
  val emit : ?incumbent:float -> ?bound:float -> source:string -> unit -> unit

  (** [collect f] runs [f] with a fresh collector installed and
      returns its result alongside the events emitted during the run,
      in emission order. Collectors nest; like the span context, the
      collector is domain-local, so events from worker domains spawned
      inside [f] are not captured. *)
  val collect : (unit -> 'a) -> 'a * event list
end

(** {1 Text exposition}

    A Prometheus text-format rendering of every counter, gauge and
    histogram. Each family gets an optional [# HELP] line (when a help
    string is registered), a [# TYPE] line, then its samples: the
    unlabelled series first, then labelled series sorted by label
    values. Counters render as [name_total]; histograms as
    [name_bucket{le="..."}] (cumulative counts), [name_sum] and
    [name_count]; gauges as bare [name]. Metric and label names have
    non-identifier characters replaced by ["_"]; label values and help
    strings are escaped per the Prometheus exposition format. *)
val text_exposition : unit -> string

(** [sanitize name] is the exposition spelling of a metric name. *)
val sanitize : string -> string

(** Prometheus label-value escaping: backslash, double quote and
    newline. *)
val escape_label_value : string -> string

(** Prometheus HELP-text escaping: backslash and newline. *)
val escape_help : string -> string

(** {1 Well-known counter names}

    The names used by this project's instrumented layers, collected
    here so observers do not scatter string literals. *)

(** Simplex pivots, across both engines of {!Lp.Simplex}. *)
val lp_pivots : string

(** Relaxation objectives of the native-int engine of {!Lp.Simplex}
    made exact from their terms: a fraction-free relaxation reports
    its objective as a float interval, and the exact value is computed
    only when a caller needs it (see {!Lp.Simplex.exact_objective}). *)
val lp_exact_objectives : string

(** LP relaxations {!Lp.Simplex.solve} completed on its native-int
    fast path. *)
val numeric_fast_solves : string

(** LP relaxations {!Lp.Simplex.solve} reran on exact {!Numeric.Rat}
    after the fast path raised [Numeric.Kernel.Overflow]. Zero on the
    paper's figure presets; a growing value means instances exceed the
    fast path's range. *)
val numeric_fallbacks : string

(** Branch-and-bound nodes evaluated by {!Milp.Solver}. *)
val milp_nodes : string

(** Incumbent improvements in {!Milp.Solver}: rounded points and
    integral relaxations. *)
val milp_incumbents : string

(** Branch-and-bound children {!Lp.Simplex.reoptimize} and
    {!Lp.Simplex.replay} answered warm, by dual simplex from the
    parent's final tableau or, past the snapshot budget, from the
    root's; the rest of [milp.nodes] (the root, and the children that
    overflowed or whose root the exact engine answered) solved
    cold. *)
val milp_warm_nodes : string

(** Cost-oracle evaluations by {!Rentcost.Heuristics}. *)
val heuristic_evals : string

(** {2 Solver effort}

    The three effort counts a solve reports — [heuristics.evaluations],
    [lp.pivots] and [milp.nodes]. Each bump goes to the process-wide
    counter and to a tally private to the bumping domain, so a solve
    measures its own effort as a delta of its domain's tally, whatever
    other domains run meanwhile. Like every counter, both are frozen
    while recording is disabled. *)
module Effort : sig
  type t = { evaluations : int; pivots : int; nodes : int }

  (** [evaluations n]: [n] cost-oracle evaluations
      ({!heuristic_evals}). A heuristic run counts its own and hands
      the total over once, when it finishes. *)
  val evaluations : int -> unit

  (** One simplex pivot ({!lp_pivots}). *)
  val pivot : unit -> unit

  (** One branch-and-bound node ({!milp_nodes}). *)
  val node : unit -> unit

  (** The calling domain's running tally. *)
  val here : unit -> t

  (** [since e0] is [here ()] minus [e0]: the calling domain's effort
      since [e0] was read on it. *)
  val since : t -> t
end

(** {2 Serving-layer counters ([Rentcost_service])}

    Bumped by the provisioning service engine; the daemon's [stats]
    and [metrics] requests and shutdown dump read them alongside the
    solver counters. *)

(** Solve requests admitted (sheds excluded). *)
val service_requests : string

(** Requests answered from the solution cache (exact and monotone hits
    both count; see also {!service_monotone_hits}). *)
val service_cache_hits : string

(** Solve requests that went to an engine (cold or warm-started). *)
val service_cache_misses : string

(** Cache hits served through monotone reuse: a cached optimal
    allocation for a higher target answering a lower one. *)
val service_monotone_hits : string

(** Engine solves seeded with a nearby cached allocation. *)
val service_warm_starts : string

(** Requests that reused an already-compiled instance (problem refs
    and fingerprint-equal inline problems). *)
val service_compile_reuse : string

(** Requests shed by admission control ([Overloaded] responses). *)
val service_shed : string

(** Duplicate in-flight solve requests served from another request's
    outcome: single-flight followers, whatever path attached them (the
    in-flight table, a worker's dequeue, or the completing leader's
    queue sweep). *)
val service_coalesced : string

(** [service_op "solve"] etc. — per-op request counters bumped by the
    service engine for every protocol operation it is handed. *)
val service_op : string -> string

(** {2 Autoscale counters ([Rentcost_autoscale])} *)

(** Demand ticks fed to an elastic controller. *)
val autoscale_ticks : string

(** Controller ticks that triggered a re-solve. *)
val autoscale_replans : string

(** Controller ticks held inside the deadband (no re-solve). *)
val autoscale_holds : string

(** Ticks whose demand exceeded the provisioned throughput before the
    controller could react (SLO violations). *)
val autoscale_violations : string

(** {1 Well-known histogram names} *)

(** Request handling latency in the service engine, seconds. *)
val service_latency_seconds : string

(** Queue wait of drained solve jobs, seconds. *)
val service_queue_wait_seconds : string

(** End-to-end [Rentcost.Solver.run] wall time, seconds. *)
val solver_wall_seconds : string

(** Cost-oracle evaluations per heuristic run (a size histogram). *)
val heuristic_run_evals : string

(** Branch-and-bound nodes per MILP solve (a size histogram). *)
val milp_solve_nodes : string

(** Wall time of each elastic-controller re-solve, seconds. *)
val autoscale_resolve_seconds : string
