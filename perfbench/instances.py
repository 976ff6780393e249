"""Seeded problem instances and an independent checker for solve replies.

Instances follow the paper's § VIII-A generator: a random platform, an
initial recipe, and alternatives derived by re-typing a share of its
tasks.  They are drawn with Python's own PRNG, so the program under
test only ever sees the generated text.  The instance corpus is fixed:
exact-solve times differ by orders of magnitude between instances of
one size, so a corpus redrawn per seed would measure the draw rather
than the program.  The benchmark seed drives the traffic instead.

The checker re-derives every claim of a reply from the instance alone:
the split reaches the target, the machine counts cover the loads the
split puts on each type, the cost is what those machines cost, and the
cost lies between a fractional lower bound and the best single-recipe
fleet when it is claimed optimal.
"""

import math
import random


class Preset:
    def __init__(self, name, recipes, tasks, mutation, types, throughput):
        self.name = name
        self.recipes = recipes
        self.tasks = tasks
        self.mutation = mutation
        self.types = types
        self.throughput = throughput


# The paper's recipe sizes (§ VIII-A, Figures 3-7; the Figure 8 stress
# size takes seconds per exact solve and is left out).  Costs are drawn
# from [1, 100] for every preset.
SMALL = Preset("small", 20, (5, 8), 0.5, 5, (10, 100))
MEDIUM = Preset("medium", 20, (10, 20), 0.3, 8, (10, 100))
LARGE = Preset("large", 20, (50, 100), 0.5, 8, (10, 50))

SWEEP_TARGETS = list(range(20, 201, 10))


class Instance:
    """A problem: per-type (cost, throughput) and per-recipe task types."""

    def __init__(self, name, platform, recipes, edges):
        self.name = name
        self.platform = platform
        self.recipes = recipes
        self.edges = edges
        q = len(platform)
        self.counts = []
        for types in recipes:
            row = [0] * q
            for t in types:
                row[t] += 1
            self.counts.append(row)
        self.per_unit = min(
            sum(c * n / r for (c, r), n in zip(platform, row)) for row in self.counts
        )
        self.single_recipe = {}

    def text(self):
        lines = ["version 1", "types %d" % len(self.platform)]
        for q, (c, r) in enumerate(self.platform):
            lines.append("type %d cost %d throughput %d" % (q, c, r))
        for types, edges in zip(self.recipes, self.edges):
            lines.append("recipe")
            for i, t in enumerate(types):
                lines.append("  task %d type %d" % (i, t))
            for a, b in edges:
                lines.append("  edge %d %d" % (a, b))
        return "\n".join(lines) + "\n"

    def fleet_cost(self, rho):
        """Cost of the cheapest fleet carrying split [rho]."""
        total = 0
        for q, (c, r) in enumerate(self.platform):
            load = sum(rj * row[q] for rj, row in zip(rho, self.counts))
            total += c * -(-load // r)
        return total

    def lower_bound(self, target):
        """Fractional machines: target x the cheapest per-unit recipe."""
        return target * self.per_unit

    def single_recipe_bound(self, target):
        """Cost of the best fleet that runs one recipe only."""
        if target not in self.single_recipe:
            j_count = len(self.recipes)
            self.single_recipe[target] = min(
                self.fleet_cost([target if k == j else 0 for k in range(j_count)])
                for j in range(j_count)
            )
        return self.single_recipe[target]


def _random_dag(rng, n):
    edges = []
    for i in range(1, n):
        for p in rng.sample(range(i), min(i, 1 + rng.randrange(3))):
            edges.append((p, i))
    return edges


def generate(rng, preset, name):
    platform = [
        (rng.randint(1, 100), rng.randint(*preset.throughput))
        for _ in range(preset.types)
    ]
    initial = [rng.randrange(preset.types) for _ in range(rng.randint(*preset.tasks))]
    recipes = [initial]
    for _ in range(preset.recipes - 1):
        n = rng.randint(*preset.tasks)
        types = [initial[i] if i < len(initial) else rng.choice(initial) for i in range(n)]
        for i in rng.sample(range(n), math.ceil(preset.mutation * n)):
            types[i] = rng.randrange(preset.types)
        recipes.append(types)
    edges = [_random_dag(rng, len(types)) for types in recipes]
    return Instance(name, platform, recipes, edges)


# The paper's illustrating example (Table II platform, Figure 2
# recipes) and its Table III optimal costs for targets 10, 20, ..., 200.
ILLUSTRATING = Instance(
    "illustrating",
    [(10, 10), (18, 20), (25, 30), (33, 40)],
    [[1, 3], [2, 3], [0, 1]],
    [[(0, 1)], [(0, 1)], [(0, 1)]],
)
TABLE3_OPTIMA = dict(zip(range(10, 201, 10), [
    28, 38, 58, 69, 86, 107, 124, 134, 155, 172,
    192, 199, 220, 237, 257, 268, 285, 306, 323, 333,
]))


def check_reply(inst, target, reply):
    """Return None when [reply] is a valid answer for [target] on
    [inst], else a one-line reason."""
    if not reply.get("ok"):
        return "not ok: %s" % (reply.get("error") or reply.get("status"))
    status = reply.get("status")
    if status not in ("optimal", "feasible", "budget-exhausted"):
        return "unexpected status %r" % status
    rho, machines, cost = reply["rho"], reply["machines"], reply["cost"]
    if len(rho) != len(inst.recipes) or len(machines) != len(inst.platform):
        return "allocation has the wrong shape"
    if min(rho) < 0 or min(machines) < 0:
        return "negative allocation"
    if sum(rho) < target or reply.get("throughput") != sum(rho):
        return "split %r misses target %d" % (rho, target)
    for q, (c, r) in enumerate(inst.platform):
        load = sum(rj * row[q] for rj, row in zip(rho, inst.counts))
        if machines[q] * r < load:
            return "type %d carries %d on %d machines of rate %d" % (q, load, machines[q], r)
    if cost != sum(c * m for (c, _), m in zip(inst.platform, machines)):
        return "cost %d is not the price of the fleet" % cost
    if cost + 1e-6 < inst.lower_bound(target):
        return "cost %d below the fractional bound" % cost
    if status == "optimal" and cost > inst.single_recipe_bound(target):
        return "optimal cost %d above a single-recipe fleet" % cost
    if inst is ILLUSTRATING and status == "optimal" and target in TABLE3_OPTIMA:
        if cost != TABLE3_OPTIMA[target]:
            return "Table III target %d: cost %d, paper %d" % (target, cost, TABLE3_OPTIMA[target])
    return None


class Ledger:
    """Cross-request consistency: every optimal answer for one
    (instance, target) is the same cost, no answer is cheaper, and
    optimal costs never fall as the target rises (a split that reaches
    a target reaches every lower one)."""

    def __init__(self):
        self.optimal = {}
        self.cheapest = {}

    def record(self, inst, target, reply):
        key = (inst.name, target)
        cost = reply["cost"]
        self.cheapest[key] = min(cost, self.cheapest.get(key, cost))
        if reply["status"] == "optimal":
            seen = self.optimal.setdefault(key, cost)
            if seen != cost:
                return "%s@%d: optimal %d and %d" % (inst.name, target, seen, cost)
        return None

    def verify(self):
        for key, opt in self.optimal.items():
            if self.cheapest[key] < opt:
                return "%s@%d: %d undercuts optimal %d" % (key[0], key[1], self.cheapest[key], opt)
        last = (None, 0, 0)
        for (name, target), opt in sorted(self.optimal.items()):
            if name == last[0] and opt < last[2]:
                return "%s: optimal %d@%d below %d@%d" % (name, opt, target, last[2], last[1])
            last = (name, target, opt)
        return None


def corpus(preset, count):
    """The benchmark's fixed instances of one preset."""
    rng = random.Random("corpus/" + preset.name)
    return [generate(rng, preset, "%s%d" % (preset.name, k)) for k in range(count)]


def rng_for(seed, label):
    return random.Random("%d/%s" % (seed, label))
