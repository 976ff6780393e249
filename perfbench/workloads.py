"""The benchmark's workloads.  Each is a seeded traffic source over the
fixed instance corpus: `setup_requests()` brings a fresh daemon to the
workload's steady state, `next_request(client)` yields the next request
a client sends together with the instance and target its reply is
checked against.  The sweeps cycle through a fixed list of
`pass_length` items in a seeded order; the run sends at least one whole
pass and weighs each item once (see run.py), so its figures do not
depend on which items the window happened to reach twice."""

import itertools

import instances as I

SPECS = ["ilp", "h1", "h2", "h31", "h32", "h32jump"]


def _solve(target, **fields):
    return dict({"op": "solve", "target": target}, **fields)


class PaperSweep:
    """The paper's § VIII sweep as one-shot solves: every algorithm of
    Figures 3-6 (ILP and the five heuristics) on the Table III example
    and on generated small (Fig. 3-5) and medium (Fig. 6) instances,
    at every other sweep target.  Problems travel inline, as from `rentcost
    solve`, so each request also pays decode and fingerprinting; reuse
    is off, so every request runs its engine.  One client."""

    workers = 1
    clients = 1
    node_cap = 500

    def __init__(self, seed):
        rng = I.rng_for(seed, "paper-sweep")
        # Six small instances to two medium ones puts the median item
        # inside the small-instance heuristic solves, not on the edge
        # between two sizes.
        self.instances = [I.ILLUSTRATING] + I.corpus(I.SMALL, 6) + I.corpus(I.MEDIUM, 2)
        self.texts = {inst.name: inst.text() for inst in self.instances}
        items = []
        for inst in self.instances:
            targets = sorted(I.TABLE3_OPTIMA) if inst is I.ILLUSTRATING else I.SWEEP_TARGETS[::2]
            items += [(inst, t, spec) for t in targets for spec in SPECS]
        rng.shuffle(items)
        self.pass_length = len(items)
        self.items = itertools.cycle(items)

    def setup_requests(self):
        # Compile every instance once, so the timed loop measures solves.
        return [_solve(20, problem=self.texts[inst.name], spec="h1", reuse="none")
                for inst in self.instances]

    def next_request(self, client):
        inst, target, spec = next(self.items)
        req = _solve(target, problem=self.texts[inst.name], spec=spec, reuse="none")
        if spec == "ilp":
            req["nodes"] = self.node_cap
        return req, inst, target


class IlpStress:
    """Exact ILP solves only, on generated medium (Fig. 6) and large
    (Fig. 7) instances registered up front: branch and bound and the
    simplex dominate, and a node cap bounds each solve.  One client."""

    workers = 1
    clients = 1
    node_cap = 150

    def __init__(self, seed):
        rng = I.rng_for(seed, "ilp-stress")
        self.instances = I.corpus(I.MEDIUM, 4) + I.corpus(I.LARGE, 3)
        self.texts = {inst.name: inst.text() for inst in self.instances}
        items = [(inst, t) for inst in self.instances for t in I.SWEEP_TARGETS]
        rng.shuffle(items)
        self.pass_length = len(items)
        self.items = itertools.cycle(items)

    def setup_requests(self):
        return [{"op": "register", "name": inst.name, "problem": self.texts[inst.name]}
                for inst in self.instances]

    def next_request(self, client):
        inst, target = next(self.items)
        req = _solve(target, ref=inst.name, spec="ilp", reuse="none", nodes=self.node_cap)
        return req, inst, target


class ServeLoad:
    """The traffic of the repository's own load bench (`run_load` in
    bench/main.ml, reported in EXPERIMENTS.md as `BENCH_load.json`):
    four clients in a closed loop on one connection to a two-worker
    daemon, one tenant per client, the illustrating instance registered
    once, and each request repeating one of the hot targets 60, 70, 80
    with probability 0.9 or else drawing a fresh target from 10..409,
    with the default spec (auto) and reuse (monotone).  Set-up gives
    the hot targets their first touch, so the timed run starts from a
    warm cache.  A fresh target solves cold until a higher one is
    cached and hits the monotone rung from then on, so almost every
    request is a cache hit and the run measures the serving path."""

    workers = 2
    clients = 4
    pass_length = 0
    hit_ratio = 0.9
    # Ascending, so set-up solves each cold and caches it as exact.
    hot = [60, 70, 80]

    def __init__(self, seed):
        self.rng = I.rng_for(seed, "serve-load")
        self.text = I.ILLUSTRATING.text()

    def setup_requests(self):
        return ([{"op": "register", "name": "app", "problem": self.text}]
                + [_solve(t, ref="app") for t in self.hot])

    def next_request(self, client):
        rng = self.rng
        if rng.random() < self.hit_ratio:
            target = rng.choice(self.hot)
        else:
            target = rng.randint(10, 409)
        return _solve(target, ref="app", tenant="c%d" % client), I.ILLUSTRATING, target


ALL = {"paper-sweep": PaperSweep, "ilp-stress": IlpStress, "serve-load": ServeLoad}
