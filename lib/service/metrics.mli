(** The one encoding of {!Telemetry} state shared by every exposition
    surface: the daemon's [metrics] request, the shutdown stderr dump,
    and the [rentcost stats] CLI all render through this module, so
    they cannot drift apart.

    This module reads the global telemetry registries only; it does
    not depend on {!Engine}. Callers that want engine-local state
    (cache occupancy, queue depth, uptime) pass an {!Engine.stats}
    snapshot through [?stats]. *)

(** [json ?stats ()] is the metrics object served by the [metrics]
    request: [{"counters": {...}, "histograms": [...], "spans": [...],
    "numeric": {...}}] plus a ["service"] member when [stats] is
    given. Spans are the ring-buffer contents, oldest first. The
    ["numeric"] member names the fast and exact LP engines and carries
    the [numeric.fast_solves] / [numeric.fallbacks] counter values (one
    per LP relaxation), so a scrape can read the fallback rate without
    knowing the counter names. *)
val json : ?stats:(string * Json.t) list -> unit -> Json.t

(** Prometheus-style text rendering of counters and histograms
    ({!Telemetry.text_exposition}). *)
val text : unit -> string

(** One histogram as a member of the ["histograms"] list of {!json}. *)
val histogram_to_json : Telemetry.histogram_snapshot -> Json.t

(** {1 Trace files}

    [install_trace ~path] opens [path] for append and registers a
    {!Telemetry.Span.set_sink} that writes every completed span as one
    JSON line, flushed per line: an object with the span's [id],
    [parent], [depth], [name], [start] and [duration], and its
    [attrs] as an object of strings when it has any, as in the
    ["spans"] list of {!json}. Replaces any previously installed
    trace. [close_trace] uninstalls the sink and closes the file; both
    are idempotent. *)

val install_trace : path:string -> unit

val close_trace : unit -> unit
