#!/usr/bin/env python3
"""End-to-end benchmark of the rentcost provisioning daemon.

Builds `bin/rentcost.exe` from the checkout, starts `rentcost serve`
over pipes, drives one workload against it for a fixed time and times
every request at the client, from the write of its JSON line to the
read of its reply.  Every reply is checked against the instance it
answers (see instances.py).

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 15 --trace 0

With `--trace 0` the last stdout line reports the end-to-end metrics
(latency p50/p90, throughput, set-up time).  With `--trace 1` the
daemon writes every span to a file and the run reports per-layer
self-times that add up to the traced client mean, plus the solver's
effort counts.  Run it from the repository root.
"""

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import instances  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

BUILD_DIR = ".bench_build"
WORK_DIR = os.path.join(BUILD_DIR, "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "bin", "rentcost.exe")

# Set-up is short and its start-up cost jitters with the host, so one
# run repeats it, half before and half after the measurement, and
# reports the median.
SETUP_REPEATS = 15

# One measured request: the latency the client saw, whether its reply
# was ok, the rung that served it, and the wall-clock time it was sent,
# which the traced split matches against the daemon's span clock.
# Replies are not kept, so a long serving run stays small.
Done = collections.namedtuple("Done", "trace_id latency ok served sent_at")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("bin")):
        fail("run from the repository root (no dune-project or bin/ here)")
    env = dict(os.environ)
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(BUILD_DIR, "xdg-cache"))
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./bin/rentcost.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


class Daemon:
    """`rentcost serve` on a pipe; requests are JSON objects, one per line."""

    def __init__(self, workers, trace_file=None):
        cmd = [EXE, "serve", "--workers", str(workers)]
        if trace_file:
            cmd += ["--trace", trace_file]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )

    def send(self, req):
        self.proc.stdin.write(json.dumps(req, separators=(",", ":")).encode() + b"\n")
        self.proc.stdin.flush()

    def recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("daemon closed its output")
        return json.loads(line)

    def call(self, req):
        self.send(req)
        return self.recv()

    def counters(self):
        return self.call({"op": "stats"})["stats"]["counters"]

    def close(self):
        try:
            if self.proc.poll() is None:
                self.call({"op": "shutdown"})
            self.proc.stdin.close()
        except (OSError, RuntimeError, ValueError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def set_up(load, trace_file=None):
    """Start a daemon and bring it to the workload's steady state;
    return it with the seconds that took."""
    t0 = time.perf_counter()
    daemon = Daemon(load.workers, trace_file)
    for req in load.setup_requests():
        reply = daemon.call(req)
        if not reply.get("ok"):
            daemon.close()
            fail("set-up request failed: %s" % reply)
    return daemon, time.perf_counter() - t0


def time_set_ups(load, repeats):
    """Seconds each of `repeats` fresh set-ups takes."""
    times = []
    for _ in range(repeats):
        spare, took = set_up(load)
        spare.close()
        times.append(took)
    return times


def drive(daemon, load, seconds, checker):
    """Closed loop: each of `load.clients` clients keeps one request in
    flight and sends its next only after the reply, until the deadline
    and at least one whole pass of a sweep.  Returns one Done per
    request, and the wall time."""
    pending = {}
    done = []
    seq = 0

    def issue(client):
        nonlocal seq
        req, inst, target = load.next_request(client)
        trace_id = "pb-%d" % seq
        req = dict(req, id=seq, trace_id=trace_id)
        seq += 1
        pending[req["id"]] = (client, trace_id, inst, target, time.perf_counter(), time.time())
        daemon.send(req)

    start = time.perf_counter()
    deadline = start + seconds
    for client in range(load.clients):
        issue(client)
    while pending:
        reply = daemon.recv()
        now = time.perf_counter()
        entry = pending.pop(reply.get("id"), None)
        if entry is None:
            checker.errors.append("reply with unknown id: %s" % reply)
            break
        client, trace_id, inst, target, sent, sent_at = entry
        done.append(Done(trace_id, now - sent, bool(reply.get("ok")), reply.get("served"),
                         sent_at))
        checker.check(inst, target, reply)
        if now < deadline or seq < load.pass_length:
            issue(client)
    return done, time.perf_counter() - start


def latency(d):
    """A request that failed misses every latency limit."""
    return d.latency if d.ok else math.inf


def sweep_figures(done, pass_length):
    """A sweep weighs each item once, at its median over the passes
    that reached it; its throughput is items per second of one whole
    pass.  Returns p50, p90, throughput and the sample count."""
    by_item = {}
    for k, d in enumerate(done):
        by_item.setdefault(k % pass_length, []).append(latency(d))
    samples = [statistics.median(v) for v in by_item.values()]
    return (statistics.median(samples), percentile(samples, 90),
            len(samples) / sum(samples), len(samples))


def traffic_figures(done, wall):
    """Service traffic pools every request of the measured interval;
    throughput counts only the requests that succeeded."""
    samples = [latency(d) for d in done]
    ok = sum(1 for d in done if d.ok)
    return statistics.median(samples), percentile(samples, 90), ok / wall, len(samples)


class Checker:
    """Every workload is built so that no request fails: a reply that
    is not ok counts as failed and makes the run incorrect."""

    def __init__(self):
        self.errors = []
        self.failed = 0
        self.ledger = instances.Ledger()

    def check(self, inst, target, reply):
        if not reply.get("ok"):
            self.failed += 1
            self.errors.append("request failed: %s" % reply)
            return
        err = instances.check_reply(inst, target, reply) or self.ledger.record(inst, target, reply)
        if err:
            self.errors.append(err)


def percentile(values, q):
    """Nearest-rank percentile of raw samples."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ALL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    load = workloads.ALL[args.workload](args.seed)
    checker = Checker()

    if args.trace:
        trace_file = os.path.join(WORK_DIR, "trace-%s-%d.jsonl" % (args.workload, os.getpid()))
        daemon, _ = set_up(load, trace_file)
    else:
        trace_file = None
        setup_times = time_set_ups(load, SETUP_REPEATS // 2)
        daemon, took = set_up(load)
        setup_times.append(took)

    try:
        before = daemon.counters()
        done, wall = drive(daemon, load, args.seconds, checker)
        after = daemon.counters()
    finally:
        daemon.close()
    if not args.trace:
        setup_times += time_set_ups(load, SETUP_REPEATS // 2)

    err = checker.ledger.verify()
    if err:
        checker.errors.append(err)
    for e in checker.errors[:5]:
        print("perfbench: wrong answer: " + e, file=sys.stderr)

    if checker.failed == len(done):
        fail("no request succeeded")
    summary = "%s seed %d: %d requests in %.2f s, cache-hit share %.5f" % (
        args.workload, args.seed, len(done), wall, layers.hit_share(done))
    if args.trace:
        metrics = layers.per_layer(trace_file, done, before, after)
        os.remove(trace_file)
    else:
        if load.pass_length:
            p50, p90, throughput, samples = sweep_figures(done, load.pass_length)
        else:
            p50, p90, throughput, samples = traffic_figures(done, wall)
        summary += ", p50/p90 over %d samples" % samples
        metrics = {
            "p50_ms": metric(p50 * 1e3, "ms"),
            "p90_ms": metric(p90 * 1e3, "ms"),
            "throughput_rps": metric(throughput, "1/s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
        }
    print(summary, file=sys.stderr)
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": len(done),
        "failed": checker.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
