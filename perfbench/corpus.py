"""Seeded corpora for the two workloads.

A corpus is a set of quiver files plus a list of CLI calls on them, each
call carrying the check that decides whether its output is right.  The
expected outputs come from ``closedform``, never from qcox.

The seed picks vertex and arrow names, the order of the calls, which of two
equally expensive commands runs on the single-call instances, the Euler
form vectors, the seeds handed to ``verify`` and the shape of the random
acyclic quivers.  Instance sizes are fixed per workload, so one pass costs
about the same on every seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import closedform as cf

WORKLOADS = ("dims_cyclic", "verify_coxeter")

# Rational points for the Coxeter checks; q0 = 1 compares against plain
# path counts.
Q_POINTS = (Fraction(1), Fraction(2), Fraction(-1, 2))

Check = Callable[[int, str, dict], bool]


@dataclass(frozen=True)
class Call:
    label: str
    command: str
    file: str
    options: tuple[str, ...]
    check: Check

    def argv(self, directory) -> list[str]:
        return [self.command, f"{directory}/{self.file}", *self.options]


@dataclass
class Corpus:
    files: dict[str, str]
    calls: list[Call]
    warmup: Call
    stretch: list[Call]

    def manifest(self) -> bytes:
        """Every input byte the program receives, for determinism tests."""
        return json.dumps({"files": self.files,
                           "calls": [[c.command, c.file, *c.options] for c in self.calls],
                           "warmup": [self.warmup.command, self.warmup.file,
                                      *self.warmup.options],
                           "stretch": [[c.command, c.file, *c.options]
                                       for c in self.stretch]},
                          sort_keys=True).encode()


@dataclass
class Instance:
    """A bound quiver spelled with seeded names; arrows index vertices."""

    name: str
    vertices: list[str]
    arrows: list[tuple[str, int, int]]
    relations: list[list[tuple[int, list[int]]]]   # terms (coeff, arrow indices)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(s, t) for _, s, t in self.arrows]

    def text(self) -> str:
        lines = [f"quiver {self.name} {{", "  vertices: " + ", ".join(self.vertices) + ";",
                 "  arrows:"]
        lines += [f"    {a}: {self.vertices[s]} -> {self.vertices[t]};"
                  for a, s, t in self.arrows]
        if self.relations:
            lines.append("  relations:")
            for terms in self.relations:
                parts = []
                for coeff, path in terms:
                    body = "*".join(self.arrows[i][0] for i in path)
                    sign = "-" if coeff < 0 else "+"
                    parts.append(f"{sign} {body}" if parts else
                                 ("-" if coeff < 0 else "") + body)
                lines.append("    " + " ".join(parts) + ";")
        lines.append("}")
        return "\n".join(lines) + "\n"


class _Names:
    """Seeded vertex and arrow spellings, distinct within one instance."""

    def __init__(self, rng: random.Random):
        self.vertex = rng.choice(["v", "u", "w", "x", "p", "s"]) + rng.choice(["", "_", "t"])
        self.arrow = rng.choice(["a", "b", "c", "e", "f", "g"]) + rng.choice(["", "r", "_"])

    def vertices(self, n: int) -> list[str]:
        return [f"{self.vertex}{i}" for i in range(n)]

    def arrow_name(self, k: int) -> str:
        return f"{self.arrow}{k}"


# --- instance families ----------------------------------------------------------

def preprojective(names: _Names, n: int) -> Instance:
    """Pi(A_n): arrows i -> i+1 and back, and at each vertex the sum of the
    two-cycles through it, with a minus sign, vanishes."""
    arrows = []
    for i in range(n - 1):
        arrows.append((names.arrow_name(2 * i), i, i + 1))
        arrows.append((names.arrow_name(2 * i + 1), i + 1, i))
    up = [2 * i for i in range(n - 1)]          # i -> i+1
    down = [2 * i + 1 for i in range(n - 1)]    # i+1 -> i
    rels = [[(1, [up[0], down[0]])], [(1, [down[n - 2], up[n - 2]])]]
    for i in range(1, n - 1):
        rels.append([(1, [down[i - 1], up[i - 1]]), (-1, [up[i], down[i]])])
    return Instance(f"pi{n}", names.vertices(n), arrows, rels)


def exterior(names: _Names, k: int) -> Instance:
    arrows = [(names.arrow_name(i), 0, 0) for i in range(k)]
    rels = [[(1, [i, i])] for i in range(k)]
    rels += [[(1, [i, j]), (1, [j, i])] for i in range(k) for j in range(i + 1, k)]
    return Instance(f"ext{k}", names.vertices(1), arrows, rels)


def truncated_cycle(names: _Names, m: int, parallel: int, length: int) -> Instance:
    """kQ/J^L: every path of length L on the m-cycle is a relation."""
    arrows = [(names.arrow_name(i * parallel + c), i, (i + 1) % m)
              for i in range(m) for c in range(parallel)]
    rels = []
    for start in range(m):
        for choice in itertools.product(range(parallel), repeat=length):
            path = [((start + step) % m) * parallel + c for step, c in enumerate(choice)]
            rels.append([(1, path)])
    return Instance(f"cyc{m}x{parallel}L{length}", names.vertices(m), arrows, rels)


def chain(names: _Names, n: int, parallel: int = 1) -> Instance:
    arrows = [(names.arrow_name(i * parallel + c), i, i + 1)
              for i in range(n - 1) for c in range(parallel)]
    return Instance(f"chain{n}x{parallel}", names.vertices(n), arrows, [])


def random_dag(names: _Names, rng: random.Random, n: int, extra: int) -> Instance:
    """Connected acyclic quiver: a random tree plus ``extra`` arrows, all
    pointing forward along a hidden random order of the vertices."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[rng.randrange(k)], order[k]) for k in range(1, n)]
    while len(pairs) < n - 1 + extra:
        a, b = sorted(rng.sample(range(n), 2))
        pairs.append((order[a], order[b]))
    pairs.sort()
    arrows = [(names.arrow_name(k), s, t) for k, (s, t) in enumerate(pairs)]
    return Instance(f"dag{n}", names.vertices(n), arrows, [])


# --- checks ---------------------------------------------------------------------

def check_dims(inst: Instance, expected: dict) -> Check:
    index = {v: i for i, v in enumerate(inst.vertices)}
    top = max(d for _, _, d in expected)

    def check(rc, out, memo):
        obj = json.loads(out)
        got = {(index[e["source"]], index[e["target"]], e["degree"]): e["dim"]
               for e in obj["dims"]}
        return rc == 0 and got == expected and obj["max_degree"] == top + 1
    return check


def check_cartan(inst: Instance, expected: dict) -> Check:
    entries = [[cf.coeff_strings(cs) for cs in row]
               for row in cf.cartan_from_dims(inst.n, expected)]

    def check(rc, out, memo):
        obj = json.loads(out)
        return rc == 0 and obj == {"n": inst.n, "entries": entries}
    return check


def check_coxeter(inst: Instance) -> Check:
    """The output at each point of Q_POINTS solves Phi(q0) C(q0) = -C(q0)^T,
    with C(q0) from path sums, and the output of one method equals the
    other's exactly."""
    def check(rc, out, memo):
        obj = json.loads(out)
        if rc != 0 or obj["n"] != inst.n:
            return False
        first = memo.setdefault(("coxeter", inst.name), obj["entries"])
        if first != obj["entries"]:
            return False
        terms = [[cf.sparse_poly(e) for e in row] for row in obj["entries"]]
        top = max((t[-1][0] for row in terms for t in row if t), default=0)
        for q0 in Q_POINTS:
            expected = memo.get(("phi", inst.name, q0))
            if expected is None:
                expected = memo[("phi", inst.name, q0)] = cf.coxeter_at(inst.n, inst.edges, q0)
            powers = [q0 ** k for k in range(top + 1)]
            for row, want in zip(terms, expected):
                if [cf.evaluate(t, powers) for t in row] != want:
                    return False
        return True
    return check


def check_form(expected: list[str], name: str) -> Check:
    def check(rc, out, memo):
        return rc == 0 and json.loads(out) == {"form": name, "value": expected}
    return check


def check_verify(inst: Instance, n_random: int) -> Check:
    """Every report lists every identity, in order, and none fails; the
    input's statuses are the ones known in advance for a relation-free
    acyclic quiver."""
    labels = ["input"] + [f"random[{k}]" for k in range(n_random)]
    expected = cf.relation_free_statuses(inst.n, inst.edges)

    def check(rc, out, memo):
        obj = json.loads(out)
        reports = obj["reports"]
        if rc != 0 or obj["passed"] is not True or \
                [r["instance"] for r in reports] != labels:
            return False
        for report in reports:
            checks = report["checks"]
            if tuple(c["identity"] for c in checks) != cf.IDENTITIES or \
                    any(c["status"] == "fail" for c in checks):
                return False
        return [c["status"] for c in reports[0]["checks"]] == expected
    return check


# --- workloads ------------------------------------------------------------------

class _Builder:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")
        self.files: dict[str, str] = {}
        self.calls: list[Call] = []

    def names(self) -> _Names:
        return _Names(self.rng)

    def add_file(self, inst: Instance) -> None:
        self.files[f"{inst.name}.qv"] = inst.text()

    def call(self, inst: Instance, command: str, options: tuple, check: Check) -> Call:
        return Call(f"{inst.name} {command} {' '.join(options)}".strip(),
                    command, f"{inst.name}.qv", options, check)

    def corpus(self, warmup: Call, stretch: list[Call]) -> Corpus:
        self.rng.shuffle(self.calls)
        return Corpus(self.files, self.calls, warmup, stretch)


def _graded_calls(b: _Builder, inst: Instance, dims: dict, both: bool) -> list[Call]:
    b.add_file(inst)
    dims_call = b.call(inst, "dims", ("--format=json",), check_dims(inst, dims))
    cartan_call = b.call(inst, "cartan", ("--format=json",), check_cartan(inst, dims))
    if both:
        return [dims_call, cartan_call]
    return [b.rng.choice([dims_call, cartan_call])]


# Graded dimensions on cyclic quivers (ROADMAP item 2).  The large
# instances run one of dims/cartan (same graded-dims cost) so that a pass
# stays near five seconds today.  The many small one-arrow cycles, where
# parsing and argument handling dominate, make the median call one of a
# plateau of similar calls instead of the edge between small and large.
PREPROJECTIVE_N = (3, 4, 5, 6, 7)
EXTERIOR_K = ((2, True), (3, False))
TRUNCATED = (((2, 1, 3), True), ((3, 1, 4), True), ((4, 1, 4), True), ((5, 1, 5), True),
             ((2, 1, 6), True), ((3, 1, 6), True), ((4, 1, 6), True), ((6, 1, 7), True),
             ((3, 1, 8), True), ((5, 1, 10), True), ((2, 2, 4), True), ((3, 2, 5), True),
             ((2, 2, 6), False), ((3, 2, 6), False))
# Out of reach for path enumeration today; attempted under STRETCH_BUDGET_S
# in the traced run only.
STRETCH_EXTERIOR_K = 4
STRETCH_PREPROJECTIVE_N = 9


def dims_cyclic(seed: int) -> Corpus:
    b = _Builder("dims_cyclic", seed)
    for n in PREPROJECTIVE_N:
        b.calls += _graded_calls(b, preprojective(b.names(), n), cf.preprojective_dims(n), True)
    for k, both in EXTERIOR_K:
        b.calls += _graded_calls(b, exterior(b.names(), k), cf.exterior_dims(k), both)
    for (m, p, length), both in TRUNCATED:
        b.calls += _graded_calls(b, truncated_cycle(b.names(), m, p, length),
                                 cf.truncated_cycle_dims(m, p, length), both)
    warm = preprojective(b.names(), 4)
    warm.name = "warmup_pi4"
    warmup = _graded_calls(b, warm, cf.preprojective_dims(4), True)[0]
    ext = exterior(b.names(), STRETCH_EXTERIOR_K)
    pre = preprojective(b.names(), STRETCH_PREPROJECTIVE_N)
    stretch = [_graded_calls(b, ext, cf.exterior_dims(STRETCH_EXTERIOR_K), True)[0],
               _graded_calls(b, pre, cf.preprojective_dims(STRETCH_PREPROJECTIVE_N), True)[0]]
    return b.corpus(warmup, stretch)


# Relation-free acyclic quivers, where the matrix layers do the work
# (ROADMAP item 3): the verifier's products of near-identity reflections,
# and dense det, inverse and products for the Coxeter matrix and forms.
VERIFY_CHAINS = ((10, 1), (15, 1), (20, 1), (25, 1), (8, 2), (11, 2), (15, 2))
VERIFY_RANDOM_CALLS = 16
VERIFY_RANDOM_K = 3
COXETER_CHAINS = (30, 40, 50, 60)
COXETER_DAGS = (16, 18, 20, 22, 24)


def verify_coxeter(seed: int) -> Corpus:
    b = _Builder("verify_coxeter", seed)

    def verify_call(inst, k):
        b.add_file(inst)
        options = ("--format=json", f"--seed={b.rng.randrange(10**6)}")
        if k:
            options += (f"--random={k}",)
        return b.call(inst, "verify", options, check_verify(inst, k))

    def coxeter_calls(inst):
        b.add_file(inst)
        x = [b.rng.randint(-3, 3) for _ in range(inst.n)]
        y = [b.rng.randint(-3, 3) for _ in range(inst.n)]
        form = b.rng.choice(["euler", "symmetric"])
        value = (cf.euler_form_coeffs if form == "euler" else cf.symmetric_form_coeffs)(
            x, y, inst.edges)
        vec = lambda v: ",".join(map(str, v))   # noqa: E731
        return [b.call(inst, "coxeter", ("--format=json", f"--method={m}"),
                       check_coxeter(inst))
                for m in ("cartan", "reflections")] + \
            [b.call(inst, "forms", ("--format=json", f"--{form}", f"--x={vec(x)}",
                                    f"--y={vec(y)}"),
                    check_form(cf.coeff_strings(value), form))]

    for n, parallel in VERIFY_CHAINS:
        b.calls.append(verify_call(chain(b.names(), n, parallel), 0))
    for r in range(VERIFY_RANDOM_CALLS):
        inst = chain(b.names(), 3)
        inst.name = f"ci{r}_chain3"
        b.calls.append(verify_call(inst, VERIFY_RANDOM_K))
    for n in COXETER_CHAINS:
        b.calls += coxeter_calls(chain(b.names(), n))
    for n in COXETER_DAGS:
        b.calls += coxeter_calls(random_dag(b.names(), b.rng, n, n // 4))
    warm = chain(b.names(), 6)
    warm.name = "warmup_chain6"
    return b.corpus(verify_call(warm, 0), [])


BUILDERS = {"dims_cyclic": dims_cyclic, "verify_coxeter": verify_coxeter}


def build(workload: str, seed: int) -> Corpus:
    return BUILDERS[workload](seed)
