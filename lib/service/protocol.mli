(** The daemon's wire protocol: one JSON object per line, both ways.

    {2 Requests}

    {v
    {"op":"register","name":"app","path":"app.rentcost"}
    {"op":"register","name":"app","problem":"types 2\n..."}
    {"op":"solve","id":1,"ref":"app","target":120}
    {"op":"solve","id":2,"problem":"types 2\n...","target":90,
     "spec":"ilp","reuse":"warm","deadline":1.5,"nodes":10000,
     "evals":50000}
    {"op":"solve","id":3,"ref":"app",
     "objective":"max-throughput","budget":120}
    {"op":"solve","id":4,"ref":"app","target":70,
     "pricebook":"book us-east\n  price 0 10\n..."}
    {"op":"track","session":"app-fleet","ref":"app",
     "ticks_per_hour":12,"deadband":0.1,"headroom":0.05}
    {"op":"tick","session":"app-fleet","id":7,"demand":55}
    {"op":"untrack","session":"app-fleet"}
    {"op":"solve","id":5,"ref":"app","target":120,
     "trace_id":"req-042","tenant":"acme"}
    {"op":"audit","last":20}
    {"op":"stats"}
    {"op":"shutdown"}
    v}

    Every request may carry ["version"] (an integer; absent means 1).
    Unknown versions are rejected with a structured [Error] naming the
    supported versions, before the op is even dispatched.

    Solve defaults: [objective] "min-cost" (with its required integer
    ["target"]), [spec] "auto", [reuse] "monotone", no budget caps
    beyond the engine's configured default. ["objective":
    "max-throughput"] instead requires the monetary ["budget"] (not to
    be confused with the compute-budget keys ["deadline"] / ["nodes"]
    / ["evals"], which cap the solver's effort under either
    objective). A price book rides along as inline ["pricebook"] text
    ({!Rentcost.Pricebook.of_string} format) or a server-side
    ["pricebook_path"]. [reuse] picks a rung of the reuse ladder:
    ["none"] always solves cold, ["exact"] replays identical requests
    only, ["warm"] additionally seeds cold heuristic solves from the
    nearest cached split, ["monotone"] additionally answers from a cached
    optimal at a higher target (feasible incumbent, served without
    solving) — or, under max-throughput, from a cached optimal at a
    lower monetary budget. The ladder never crosses objectives or
    price books: both are baked into the instance fingerprint.

    ["track"] opens (or replaces) an autoscale session: a
    {!Rentcost_autoscale.Controller} over the referenced or inline
    problem (default min-cost scenario only). Each subsequent ["tick"]
    streams one demand observation and answers with that tick's
    reconfiguration plan; ["untrack"] closes the session and returns
    its summary. [session] defaults to ["default"] on all three ops.
    Defaults mirror {!Rentcost_autoscale.Controller.default_config}:
    [ticks_per_hour] 60, [deadband] 0.1, [headroom] 0, [spec] "auto";
    re-solves run under the engine's default compute budget. Track
    sessions are handled inline (never queued), so ticks stay cheap
    unless the controller actually re-solves.

    {2 Responses}

    {v
    {"id":1,"trace_id":"req-000001","ok":true,"status":"optimal",
     "cost":44,"rho":[110,0,10],"machines":[4,8],"throughput":120,
     "served":"cold","engine":"ilp","wall_time":0.0123}
    {"ok":true,"audit":[{"seq":0,"trace_id":"req-000001",...},...]}
    {"ok":true,"registered":"app","fingerprint":"d41d8cd98f00"}
    {"ok":true,"stats":{...}}
    {"ok":true,"tracking":"app-fleet","fingerprint":"d41d8cd98f00"}
    {"id":7,"ok":true,"session":"app-fleet","tick":3,"demand":55,
     "target":55,"action":"reconfigure","rent":[1,0],"renew":[0,0],
     "release":[0,0],"machines":[4,2],"rho":[40,15],"charged":34,
     "total_charged":120,"violation":true}
    {"ok":true,"untracked":"app-fleet","ticks":10,"replans":3,
     "holds":7,"violations":2,"total_charged":123}
    {"id":7,"ok":false,"status":"overloaded","retry_after_ms":40}
    {"ok":false,"error":"solve: unknown ref \"nope\""}
    {"ok":true,"status":"bye"}
    v}

    [served] is one of ["cold"], ["exact-hit"], ["monotone-hit"],
    ["warm-started"], ["coalesced"]. [rho] and [machines] are in the
    {e submitted}
    problem's numbering, whatever instance actually served the
    request. Both codecs run in both directions so in-process clients
    and the test suite can speak the protocol without the daemon. *)

type reuse =
  | No_reuse
  | Exact_only
  | Warm
  | Monotone

val reuse_to_string : reuse -> string

val reuse_of_string : string -> reuse option

(** What a solve or track runs on: a name registered earlier, or a
    problem shipped inline as its {!Rentcost.Problem_format} text.
    Inline text is carried as sent and is not parsed at decode: the
    engine looks it up by the exact text and parses and compiles it
    only the first time it sees it, so a malformed problem is reported
    when the request is served (with the request's [id] and
    [trace_id]), not when it is decoded. *)
type source =
  | Ref of string
  | Inline of string

type request =
  | Register of { name : string; problem : Rentcost.Problem.t }
  | Solve of {
      id : int option;  (** echoed back, client-chosen *)
      trace_id : string option;
          (** client-supplied request trace id (["trace_id"] key); the
              engine assigns one when absent, stamps it on every span
              the request records (see {!Telemetry.Span.with_trace_id})
              and echoes it in the response and the audit record *)
      tenant : string option;
          (** labels the per-tenant request counters; defaults to
              ["default"] *)
      source : source;
      objective : Rentcost.Objective.t;
          (** what to optimize — a min-cost target or a max-throughput
              monetary budget *)
      pricebook : Rentcost.Pricebook.t option;
          (** [None] = the problem's own platform prices *)
      spec : Rentcost.Solver.spec;
      budget : Rentcost.Budget.t option;  (** [None] = engine default *)
      reuse : reuse;
    }
  | Track of {
      session : string;  (** replaces any session with the same name *)
      source : source;
      ticks_per_hour : int;  (** billing granularity of the session *)
      deadband : float;
      headroom : float;
      spec : Rentcost.Solver.spec;  (** engine for re-solves *)
    }  (** open an autoscale session (see the module doc) *)
  | Tick of { id : int option; session : string; demand : int }
      (** one demand observation; answered with a [Plan] *)
  | Untrack of { session : string }
  | Stats
  | Metrics  (** full telemetry exposition: counters, histograms, spans *)
  | Audit of { last : int option }
      (** the last [last] audit records (default: the whole ring),
          oldest first; see {!Audit} *)
  | Shutdown

(** How a solve response was produced. [Coalesced] is the
    single-flight rung: the request was a duplicate of one already in
    flight and received the leader's outcome without touching the
    cache or an engine. *)
type served =
  | Cold
  | Exact_hit
  | Monotone_hit
  | Warm_started
  | Coalesced

val served_to_string : served -> string

val served_of_string : string -> served option

type response =
  | Solved of {
      id : int option;
      trace_id : string option;  (** the request's trace id, always set *)
      status : Rentcost.Solver.status;
      cost : int;
      rho : int array;  (** submitted problem's recipe numbering *)
      machines : int array;
      served : served;
      engine : string;  (** spec string of the engine (or cached entry) *)
      wall_time : float;  (** seconds spent handling this request *)
    }
  | Registered of { name : string; fingerprint : string }
  | Tracking of { session : string; fingerprint : string }
  | Plan of {
      id : int option;
      session : string;
      plan : Rentcost_autoscale.Controller.plan;
          (** the tick's reconfiguration plan, in the tracked
              problem's own numbering *)
      total_charged : int;  (** session bill so far, this tick included *)
    }
  | Untracked of {
      session : string;
      ticks : int;
      replans : int;
      holds : int;
      violations : int;
      total_charged : int;
    }  (** closing summary of an autoscale session *)
  | Stats_reply of (string * Json.t) list
  | Metrics_reply of {
      metrics : Json.t;  (** {!Metrics.json}: counters, histograms, spans *)
      text : string;  (** Prometheus-style exposition *)
    }
  | Audit_reply of Audit.record list
      (** answers [Audit], oldest first, encoded as an ["audit"] list
          of {!Audit.record_to_json} objects *)
  | Overloaded of {
      id : int option;
      trace_id : string option;
      retry_after_ms : int option;
          (** back-pressure hint: how long the shedding engine thinks
              the client should wait before retrying, from queue depth
              and observed service latency (["retry_after_ms"] key) *)
    }
  | Error of { id : int option; trace_id : string option; message : string }
  | Bye

(** [request_of_json j] decodes a request, first rejecting any
    ["version"] other than 1 (absent means 1). ["path"] registers and
    ["pricebook_path"] books are read from disk here, and register
    problems and price books are parsed here; file and parse errors
    come back as [Error _] results, never exceptions. The inline
    ["problem"] of a solve or track is not parsed here (see
    {!source}): its errors come from the engine, as
    [solve: Problem_format: line N: ...]. An absent
    optional field takes its default; a field present with the wrong
    JSON type is an error naming it, e.g.
    [solve: bad "nodes": expected an integer]. *)
val request_of_json : Json.t -> (request, string) result

(** [request_to_json r] encodes a request (client side). An inline
    problem goes out as its text, verbatim; a registered problem as
    its {!Rentcost.Problem_format} text. *)
val request_to_json : request -> Json.t

(** [parse_problem ~what text] parses problem text, turning a parse
    failure into ["<what>: <message>"]. *)
val parse_problem : what:string -> string -> (Rentcost.Problem.t, string) result

val response_to_json : response -> Json.t

(** [response_of_json j] decodes a response (client side). *)
val response_of_json : Json.t -> (response, string) result
