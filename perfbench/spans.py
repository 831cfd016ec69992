"""Span tracing around qcox's public entry points, from the benchmark's side.

``Tracer.install`` replaces module attributes and ``PolyMatrix`` methods
with wrappers that record a span (name, start, end, parent) per call and,
for some layers, counts taken from the call's arguments and result.  The
library source is untouched; ``uninstall`` puts every original back.

Count hooks run after their span has closed, inside a ``trace.bookkeeping``
span of their own, so their cost is charged to tracing and not to the
caller's self time.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                book = self._open(BOOKKEEPING)
                try:
                    count(self.counts, args, result)
                finally:
                    self._close(book)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, modules: dict) -> None:
        """Wrap the layers' public functions, including the names that
        ``cli`` and ``coxeter`` imported from other modules."""
        algebra, cli, coxeter = modules["algebra"], modules["cli"], modules["coxeter"]
        matrix = modules["polyring"].PolyMatrix
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "load_file", "quiverdsl.parse")
        for attr in ("render_matrix", "render_vector", "render_poly", "_dumps"):
            self.wrap(cli, attr, "cli.render")
        self.wrap(algebra, "graded_dims", "algebra.graded_dims", _count_graded)
        self.wrap(algebra, "rank_rational", "polyring.rank", _count_rank)
        self.wrap(matrix, "__mul__", "polyring.matmul", _count_matmul)
        self.wrap(matrix, "det", "polyring.det")
        self.wrap(matrix, "inverse_unimodular", "polyring.inverse")
        self.wrap(matrix, "adjugate", "polyring.adjugate")
        self.wrap(coxeter, "verify_identities", "coxeter.verify", _count_checks)
        self.wrap(coxeter, "coxeter_matrix_bound", "coxeter.product")
        self.wrap(coxeter, "coxeter_matrix_graph", "coxeter.product")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children
        cover."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def span_counts(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def paths_up_to(quiver, max_length: int) -> int:
    """Number of paths of length <= max_length: the sum of the entries of
    the adjacency matrix powers, accumulated one arrow step at a time."""
    ends = [1] * quiver.n      # paths of the current length ending at each vertex
    total = quiver.n
    for _ in range(max_length):
        nxt = [0] * quiver.n
        for a in quiver.arrows:
            nxt[a.target] += ends[a.source]
        ends = nxt
        total += sum(ends)
    return total


def _count_graded(counts, args, table) -> None:
    counts["algebra.degrees"] += table.max_degree
    counts["algebra.quotient_dim"] += sum(table.dims.values())
    counts["algebra.paths_enumerated"] += paths_up_to(args[0].quiver, table.max_degree + 1)


def _count_rank(counts, args, rank) -> None:
    rows = args[0]
    counts["polyring.rank_rows"] += len(rows)
    counts["polyring.rank_cols"] += len(rows[0]) if rows else 0


def _count_matmul(counts, args, product) -> None:
    left, right = args
    nonzero = sum(1 for m in (left, right) for row in m.rows for e in row if e.coeffs)
    counts["polyring.matmul_nonzero"] += nonzero
    counts["polyring.matmul_entries"] += 2 * left.n * left.n


def _count_checks(counts, args, report) -> None:
    for check in report.checks:
        if check.status == "pass":
            counts["coxeter.checks_pass"] += 1
        elif check.status == "skipped":
            counts["coxeter.checks_skipped"] += 1
