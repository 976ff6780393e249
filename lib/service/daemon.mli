(** The serving loop: line-delimited {!Protocol} JSON over channels or
    a Unix-domain socket.

    One reader loop parses every line; only what happens to a parsed
    request depends on [?workers]. With [workers = 1] (the default)
    the reader answers each request inline, in arrival order. With
    [workers > 1] the reader routes requests while [workers] worker
    domains drain the admission queue concurrently, one job per
    wakeup: solve responses come back in
    {e completion} order (clients correlate by request id), each JSON
    line is written atomically under an output lock, and
    register/stats/metrics requests are answered immediately by the
    reader. On shutdown (a [shutdown] request, or EOF on the input)
    the workers first finish every queued job — a shutdown racing a
    non-empty queue loses no answers and [Bye] is the final response —
    and then the engine's {!Engine.stats} snapshot is dumped as one
    JSON line to [dump] (default [stderr], keeping the response stream
    clean).

    [?workers] is the only place the worker count is set; the engine
    is the same whatever it is.

    @raise Invalid_argument when [workers < 1]. *)

(** [serve_channels ic oc] answers requests read from [ic] on [oc]
    until a [shutdown] request or EOF. Unparseable lines get an
    [Error] response; blank lines are ignored. Pass [?engine] to share
    or inspect the engine (e.g. across calls, or from tests);
    otherwise a fresh one is built from [?config]. [?audit] names a
    JSONL file the engine's {!Audit} journal is appended to for the
    lifetime of the serve (closed when it returns). *)
val serve_channels :
  ?engine:Engine.t ->
  ?config:Engine.config ->
  ?dump:out_channel ->
  ?workers:int ->
  ?audit:string ->
  in_channel ->
  out_channel ->
  unit

(** [serve_socket ~path ()] listens on a Unix-domain socket at [path]
    (replacing any stale socket file), serving one client at a time;
    client disconnects return to [accept], a [shutdown] request stops
    the server and removes the socket file. The engine — and so the
    cache — persists across client connections. With [workers > 1]
    each connection gets its own worker domains (spawned at accept,
    joined at disconnect); the engine state they drain persists. *)
val serve_socket :
  ?engine:Engine.t ->
  ?config:Engine.config ->
  ?dump:out_channel ->
  ?workers:int ->
  ?audit:string ->
  path:string ->
  unit ->
  unit
