"""Per-layer split of a traced run.

The daemon's `--trace FILE` writes one JSON line per completed span
(id, parent, name, start, duration, and the request's trace id).  A
span's self-time is its duration minus its children's.  A parent ends,
and is written, after its children, so one pass over the file finds
every self-time without keeping the spans.  The daemon times the queue
wait from arrival to drain, before the request's `service.request`
span opens, so that span is not counted against its parent.  Around the
daemon's spans the client's latency splits into `inbound` (from the
client's write to the request's first span: the client, the pipe, line
decode and admission) and `outbound` (the rest: the wait inside a
drained batch outside the request's own span, reply encode, the pipe
and the client).  Resolving the problem and the cache rungs form one
layer, `lookup`: the sweeps turn reuse off, so on them the rungs never
run.  Self-times are summed per layer over the measured requests;
divided by the request count, the layers add up to the traced client
mean.
"""

import json

# Span name -> layer, in request order.  Names not listed fall into
# "dispatch" (service and solver glue around the engines).
LAYER_OF = {
    "service.queue_wait": "queue_wait",
    "service.resolve": "lookup",
    "instance.compile": "lookup",
    "service.rung.exact": "lookup",
    "service.rung.monotone": "lookup",
    "service.rung.warm": "lookup",
    "heuristics.run": "heuristics",
    "ilp.warmup": "heuristics",
    "ilp.build": "ilp_build",
    "milp.search": "bnb",
    "milp.node": "bnb",
    "milp.cuts": "bnb",
    "lp.bounded": "simplex",
    "lp.simplex": "simplex",
}
LAYERS = ["inbound", "queue_wait", "lookup", "dispatch",
          "heuristics", "ilp_build", "bnb", "simplex", "outbound"]

REQUEST = "service.request"
QUEUE_WAIT = "service.queue_wait"

# Solver effort counters (daemon `stats`), reported per request.
COUNTS = {
    "pivots_per_request": "lp.pivots",
    "nodes_per_request": "milp.nodes",
    "evals_per_request": "heuristics.evaluations",
    "fallbacks_per_request": "numeric.fallbacks",
}

HITS = ("exact-hit", "monotone-hit", "coalesced")


def _layer(name):
    if name.startswith("heuristics."):
        return "heuristics"
    return LAYER_OF.get(name, "dispatch")


def hit_share(done):
    """Share of the requests answered from the solution cache."""
    return sum(1 for d in done if d.served in HITS) / len(done)


def per_layer(trace_file, done, before, after):
    """`done` holds the run's requests (see run.Done); `before` and
    `after` are the daemon's counters around the run."""
    sent_at = {d.trace_id: d.sent_at for d in done}
    self_time = dict.fromkeys(LAYERS, 0.0)
    child_time = {}
    arrived = {}
    in_daemon = 0.0
    with open(trace_file) as f:
        for line in f:
            s = json.loads(line)
            tid = s.get("attrs", {}).get("trace_id")
            if tid not in sent_at:
                continue
            name, duration = s["name"], s["duration"]
            arrived[tid] = min(s["start"], arrived.get(tid, s["start"]))
            self_time[_layer(name)] += max(0.0, duration - child_time.pop(s["id"], 0.0))
            if name != QUEUE_WAIT:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration
            if name in (REQUEST, QUEUE_WAIT):
                in_daemon += duration
    self_time["inbound"] = sum(t - sent_at[tid] for tid, t in arrived.items())
    total = sum(d.latency for d in done)
    self_time["outbound"] = total - self_time["inbound"] - in_daemon

    n = len(done)
    out = {"client_mean_ms": {"value": total / n * 1e3, "unit": "ms"}}
    for layer in LAYERS:
        out[layer + "_us"] = {"value": self_time[layer] / n * 1e6, "unit": "us"}
    for key, counter in COUNTS.items():
        out[key] = {"value": (after[counter] - before[counter]) / n, "unit": "count"}
    out["cache_hit_ratio"] = {"value": hit_share(done), "unit": "ratio"}
    return out
