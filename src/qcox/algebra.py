"""Graded structure of the quotient of a path algebra by homogeneous
relations: dimension tables per degree, the q-weighted Cartan matrix, and
graded dimension vectors of simples, projectives and injectives.

The quotient A = kQ/I is built degree by degree as a basis of normal
words together with a reduction map that rewrites every other word in
that basis.  Since I_d = I_{d-1}*kQ_1 + kQ_{d-L}*R_L summed over the
relation lengths L, degree d needs only:

- the candidates: the normal words of degree d-1, each followed by one
  arrow.  Modulo I_{d-1}*kQ_1 they form a basis of kQ_d;
- the new ideal rows NF(p*r): p a normal word of degree d-L, r a relation
  of length L.  A product p*r*s with a non-empty tail s already lies in
  I_{d-1}*kQ_1.

Relations are homogeneous with fixed endpoints, so the rows split into
independent (source, target) blocks, each reduced exactly by
``polyring.echelon``.  The pivot candidates are rewritten by their rows;
the others are the normal words of degree d.  Work per degree is bounded
by dim A_{d-1} times the number of arrows, not by the number of paths.

Without relations every path is a normal word, so dim e_i A_d e_j is the
number of paths of length d from i to j, counted one arrow at a time on
the nonzero (source, target) cells: a degree costs those cells times their
out-degree, not its number of paths.  Then C = sum_d (qB)^d for the arrow
counts B, and graded dimensions that terminate make B nilpotent, so
C^-1 = E - qB exactly, with no elimination.  Whether they terminate is
decided by the path totals 1^T B^d 1 alone (``_path_totals``): the path
count engine runs that check first, and ``check_path_limits`` runs
nothing else.  On an acyclic quiver one pass in sink order counts all
paths and the longest one; when they fit both limits, no limit can fire
and the totals are skipped.  No dimension is counted by listing paths.

When every relation is a single path, the ideal is spanned by the paths
containing a relation, so the relations are already a Groebner basis and
the normal words are the paths containing none: no elimination is
needed.  A normal word of degree d-1 followed by an arrow is normal
unless a relation equals a suffix of it, and with L the longest relation
only its last L-1 arrows decide that.  So the words are counted per
state (source, target, last <= L-1 arrows), one arrow at a time, which
is Ufnarovski's graph; finite and infinite quotients take the same
steps.  The errors come at the normal-word engine's degree: it turns a
row NF(p*r) into a nonzero row exactly when p*r[:-1] is normal, that is
once per candidate and relation equal to the candidate's suffix, so
counting those pairs, duplicates included, gives the row count of its
``max_dim`` pre-check.

All three engines append each degree's nonzero counts to one coefficient
list per nonzero (source, target) cell, padding a cell that skipped
degrees with zeros.  Those lists are the coefficients of the Cartan
entries: ``GradedDimTable.cartan`` (and ``cartan_matrix``) wraps them into
rows as they are (``cell_matrix``), the verifier packs them without a
Polynomial, and ``GradedDimTable.dims`` lists their nonzero entries by
(i, j, degree).  ``inverse_cells`` gives C^-1 as the same kind of cells,
and every reader of C^-1 takes it in that form.

Degrees are processed in ascending order and stop at the first degree
d >= 1 without normal words: the next degree has no candidates, so every
later degree vanishes too.  If no such degree exists below the cap,
DegreeCapExceeded is raised; a degree whose basis would grow past
``max_dim`` raises DimensionBudgetExceeded.  All engines raise at the
same degree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, repeat
from typing import Mapping

from .errors import DegreeCapExceeded, DimensionBudgetExceeded
from .polyring import ZERO, Polynomial, PolyMatrix, echelon
# the benchmark's span tracer wraps rank_rational as an attribute of this module
from .polyring import rank_rational  # noqa: F401
from .quiverdsl import BoundQuiver, Quiver

DEFAULT_DEGREE_CAP = 64
DEFAULT_MAX_DIM = 1_000_000


@dataclass(frozen=True)
class GradedDimTable:
    """dim of the (i, j) graded component per degree.  ``cells`` holds, per
    nonzero (source, target) cell, the dims by degree, which is the
    coefficient list of Cartan entry (i, j); ``dims`` lists their nonzero
    entries by (i, j, degree)."""

    n: int
    max_degree: int
    cells: Mapping[tuple[int, int], list[int]]

    @cached_property
    def dims(self) -> dict[tuple[int, int, int], int]:
        return {(i, j, d): value for (i, j), cs in self.cells.items()
                for d, value in enumerate(cs) if value}

    def cartan(self) -> PolyMatrix:
        """The Cartan matrix whose entry (i, j) has the coefficients of cell
        (i, j)."""
        return cell_matrix(self.n, self.cells)


def cell_matrix(n: int, cells: Mapping[tuple[int, int], list]) -> PolyMatrix:
    """The n x n matrix whose entry (i, j) has the coefficients of cell
    (i, j), without trailing zeros, and is 0 outside the cells."""
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), cs in cells.items():
        rows[i][j] = Polynomial._make(cs)
    return PolyMatrix._make(rows)


def _out_arrows(quiver: Quiver) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(quiver.n)]
    for idx, a in enumerate(quiver.arrows):
        out[a.source].append(idx)
    return out


class _Degree:
    """One degree of the quotient.  Candidates are numbered in
    lexicographic order of their words; normal words keep their candidate
    number, and ``reduce`` maps every other candidate to its normal form."""

    __slots__ = ("src", "tgt", "base", "reduce", "words")

    def __init__(self, src: list[int], tgt: list[int], base: list[int],
                 words: list[int]):
        self.src = src              # per candidate: source and target vertex
        self.tgt = tgt
        self.base = base            # per previous candidate: number of its first extension
        self.reduce: dict[int, dict] = {}
        self.words = words          # normal words: candidates not in reduce

    def append(self, combo: Mapping[int, object], step: int) -> dict:
        """Normal form of combo*arrow, for a combination of words of the
        previous degree ending where the arrow starts; ``step`` is the
        arrow's position among the arrows out of that vertex."""
        out: dict = {}
        reduced = False
        for w, c in combo.items():
            k = self.base[w] + step
            image = self.reduce.get(k)
            if image is None:
                out[k] = out.get(k, 0) + c
            else:
                reduced = True
                for v, e in image.items():
                    out[v] = out.get(v, 0) + c * e
        # distinct words extend to distinct candidates: only images cancel
        return {k: c for k, c in out.items() if c} if reduced else out


def _check_limits(degree_cap: int, max_dim: int) -> None:
    if degree_cap < 2:
        raise ValueError("degree_cap must be at least 2")
    if max_dim < 1:
        raise ValueError("max_dim must be positive")


def graded_dims(bq: BoundQuiver, degree_cap: int = DEFAULT_DEGREE_CAP,
                max_dim: int = DEFAULT_MAX_DIM) -> GradedDimTable:
    """Graded dimension table of the quotient algebra, by path counts without
    relations, by counting normal words on states when every relation is one
    path, and from normal words with them otherwise (see the module
    docstring)."""
    _check_limits(degree_cap, max_dim)
    if not bq.relations:
        return _path_count_dims(bq.quiver, degree_cap, max_dim)
    if all(len(rel.terms) == 1 for rel in bq.relations):
        forbidden = Counter(path.arrows for rel in bq.relations for c, path in rel.terms if c)
        return _monomial_dims(bq.quiver, forbidden, degree_cap, max_dim)
    return _normal_word_dims(bq, degree_cap, max_dim)


def _append_degree(cells: dict[tuple[int, int], list[int]], degree: int,
                   counts: Mapping[tuple[int, int], int]) -> None:
    # cells[i, j] gains counts[i, j] as its coefficient of q^degree, after
    # zeros for the degrees since the cell's last nonzero count
    for key, c in counts.items():
        cs = cells.get(key)
        if cs is None:
            cs = cells[key] = [0] * degree
        elif len(cs) < degree:
            cs += repeat(0, degree - len(cs))
        cs.append(c)


def _path_steps(arrow_counts: list[list[int]]) -> list[list[tuple[int, int]]]:
    return [[(u, m) for u, m in enumerate(row) if m] for row in arrow_counts]


def _path_totals(steps: list[list[tuple[int, int]]], degree_cap: int, max_dim: int) -> int:
    """The first degree d >= 1 without paths for the arrow counts B, given
    as the (target, count) steps out of each vertex, from the path totals
    1^T B^d 1, which are the path algebra's dimensions.  Raises as the
    module docstring says."""
    ends = [1] * len(steps)     # paths of the current degree ending at each vertex
    for degree in range(1, degree_cap + 1):
        last, ends = ends, [0] * len(steps)
        for t in compress(count(), last):
            for u, m in steps[t]:
                ends[u] += last[t] * m
        total = sum(ends)
        if total > max_dim:
            raise DimensionBudgetExceeded(max_dim, degree)
        if not total:
            return degree
    raise DegreeCapExceeded(degree_cap)


def _vanishing_degree(quiver: Quiver, steps: list[list[tuple[int, int]]],
                      degree_cap: int, max_dim: int) -> int:
    """What ``_path_totals`` returns.  On acyclic input one pass in sink
    order counts the paths P(v) = 1 + sum m * P(u) over the arrows v -> u
    and the longest path l; no degree holds more than sum P(v) - n paths
    and l + 1 is the answer, so when neither limit can fire the per-degree
    totals are skipped.  Otherwise they run, for the exact error."""
    order = quiver.sink_order()
    if order is not None:
        paths = [1] * len(steps)
        longest = [0] * len(steps)
        for v in order:
            for u, m in steps[v]:
                paths[v] += m * paths[u]
                longest[v] = max(longest[v], longest[u] + 1)
        top = max(longest) + 1
        if sum(paths) - len(steps) <= max_dim and top <= degree_cap:
            return top
    return _path_totals(steps, degree_cap, max_dim)


def _path_count_dims(quiver: Quiver, degree_cap: int, max_dim: int) -> GradedDimTable:
    """Graded dims of the path algebra below the degree ``_vanishing_degree``
    finds: counts[i, j] is the number of paths of the current degree from
    i to j, for the nonzero counts only."""
    n = quiver.n
    steps = _path_steps(quiver.arrow_counts())
    top = _vanishing_degree(quiver, steps, degree_cap, max_dim)
    counts = {(v, v): 1 for v in range(n)}
    cells = {(v, v): [1] for v in range(n)}
    for degree in range(1, top):
        last, counts = counts, {}
        for (i, t), c in last.items():
            for u, m in steps[t]:
                counts[i, u] = counts.get((i, u), 0) + c * m
        _append_degree(cells, degree, counts)
    return GradedDimTable(n, top, cells)


def _monomial_dims(quiver: Quiver, forbidden: Mapping[tuple[int, ...], int],
                   degree_cap: int, max_dim: int) -> GradedDimTable:
    """Graded dims of the quotient by the paths ``forbidden`` (arrow words,
    with their multiplicity as relations), from counts of normal words per
    state (source, (target, last <= L-1 arrows)); see the module docstring."""
    n = quiver.n
    out = _out_arrows(quiver)
    tgt = [a.target for a in quiver.arrows]
    lengths = {len(word) for word in forbidden}
    keep = max(lengths, default=1) - 1
    # per automaton state (target, suffix): candidates, relation hits, next states
    moves: dict[tuple, tuple[int, int, list]] = {}
    states = {(v, (v, ())): 1 for v in range(n)}
    cells = {(v, v): [1] for v in range(n)}
    for degree in range(1, degree_cap + 1):
        last, states, counts = states, {}, {}
        n_cand = rows = 0
        for (s, state), c in last.items():
            move = moves.get(state)
            if move is None:
                t, suffix = state
                hits, nexts = 0, []
                for a in out[t]:
                    word = suffix + (a,)
                    h = sum(forbidden.get(word[-k:], 0) for k in lengths if k <= len(word))
                    hits += h
                    if not h:
                        nexts.append((tgt[a], word[1:] if len(word) > keep else word))
                move = moves[state] = (len(out[t]), hits, nexts)
            k, hits, nexts = move
            n_cand += c * k
            rows += c * hits
            for nxt in nexts:
                states[s, nxt] = states.get((s, nxt), 0) + c
                counts[s, nxt[0]] = counts.get((s, nxt[0]), 0) + c
        # the normal-word engine's pre-check, on its row count
        if n_cand - rows > max_dim:
            raise DimensionBudgetExceeded(max_dim, degree)
        words = sum(counts.values())
        if words > max_dim:
            raise DimensionBudgetExceeded(max_dim, degree)
        if not words:
            return GradedDimTable(n, degree, cells)
        _append_degree(cells, degree, counts)
    raise DegreeCapExceeded(degree_cap)


def _normal_word_dims(bq: BoundQuiver, degree_cap: int, max_dim: int) -> GradedDimTable:
    """Graded dims of the quotient from normal words and reduction maps."""
    quiver = bq.quiver
    n = quiver.n
    out = _out_arrows(quiver)
    step = [0] * len(quiver.arrows)
    for arrows in out:
        for i, a in enumerate(arrows):
            step[a] = i
    out_tgt = [[quiver.arrows[a].target for a in arrows] for arrows in out]
    # relations by length, then by source vertex: (target, [(coeff, arrows)])
    starts: dict[int, list[list]] = {}
    for rel in bq.relations:
        terms = [(c.numerator if c.denominator == 1 else c, m.arrows) for c, m in rel.terms]
        starts.setdefault(rel.length, [[] for _ in range(n)])[rel.source].append(
            (rel.target, terms))
    keep = max(starts, default=1)   # degrees still needed below the current one

    trivial = list(range(n))
    degrees: list[_Degree | None] = [_Degree(trivial, trivial, [], trivial)]
    cells = {(v, v): [1] for v in range(n)}
    for degree in range(1, degree_cap + 1):
        prev = degrees[-1]
        base = [0] * len(prev.src)
        n_cand = 0
        for w in prev.words:
            base[w] = n_cand
            n_cand += len(out[prev.tgt[w]])
        cur = _Degree([], [], base, [])
        degrees.append(cur)
        blocks = _relation_rows(starts, degrees, degree, step)
        # the rank is at most the number of rows: fail before building candidates
        if n_cand - sum(map(len, blocks.values())) > max_dim:
            raise DimensionBudgetExceeded(max_dim, degree)
        for w in prev.words:
            cur.src.extend([prev.src[w]] * len(out[prev.tgt[w]]))
            cur.tgt.extend(out_tgt[prev.tgt[w]])
        for rows in blocks.values():
            for lead, row in echelon(rows).items():
                cur.reduce[lead] = {c: -v for c, v in row.items() if c != lead}
        cur.words = [k for k in range(n_cand) if k not in cur.reduce]
        if len(cur.words) > max_dim:
            raise DimensionBudgetExceeded(max_dim, degree)
        if not cur.words:
            return GradedDimTable(n, degree, cells)
        _append_degree(cells, degree, Counter((cur.src[k], cur.tgt[k]) for k in cur.words))
        if degree >= keep:
            degrees[degree - keep] = None
    raise DegreeCapExceeded(degree_cap)


def _relation_rows(starts: dict[int, list[list]], degrees: list, degree: int,
                   step: list[int]) -> dict[tuple[int, int], list]:
    """The new ideal rows NF(p*r) of one degree over its candidates,
    grouped by (source, target) block."""
    base = degrees[degree].base
    memo: dict[tuple, dict] = {}

    def normal_form(length: int, p: int, prefix: tuple[int, ...]) -> dict:
        # NF of the word p*prefix, where p is a normal word of degree - length
        key = (length, p, prefix)
        if key not in memo:
            if prefix:
                lower = normal_form(length, p, prefix[:-1])
                memo[key] = degrees[degree - length + len(prefix)].append(
                    lower, step[prefix[-1]])
            else:
                memo[key] = {p: 1}
        return memo[key]

    blocks: dict[tuple[int, int], list] = {}
    for length, by_source in starts.items():
        if length > degree:
            continue
        low = degrees[degree - length]
        for p in low.words:
            for target, terms in by_source[low.tgt[p]]:
                row: dict = {}
                for coeff, path in terms:
                    # this degree has no reduction map yet: the last arrow only renumbers
                    last = step[path[-1]]
                    for w, c in normal_form(length, p, path[:-1]).items():
                        k = base[w] + last
                        row[k] = row.get(k, 0) + coeff * c
                row = {k: c for k, c in row.items() if c}
                if row:
                    blocks.setdefault((low.src[p], target), []).append(row)
    return blocks


def cartan_matrix(bq: BoundQuiver, degree_cap: int = DEFAULT_DEGREE_CAP,
                  max_dim: int = DEFAULT_MAX_DIM) -> PolyMatrix:
    """q-weighted Cartan matrix: entry (i, j) counts the graded dimensions
    of the component from i to j, one power of q per degree; it is the
    table's coefficient list of cell (i, j)."""
    return graded_dims(bq, degree_cap, max_dim).cartan()


def check_path_limits(quiver: Quiver, degree_cap: int = DEFAULT_DEGREE_CAP,
                      max_dim: int = DEFAULT_MAX_DIM) -> None:
    """Raise what ``cartan_matrix`` raises under the limits for the quiver
    without relations, from ``_vanishing_degree`` alone: no dimension is
    counted."""
    _check_limits(degree_cap, max_dim)
    _vanishing_degree(quiver, _path_steps(quiver.arrow_counts()), degree_cap, max_dim)


def inverse_cells(bq: BoundQuiver, cartan: PolyMatrix | GradedDimTable | None = None,
                  degree_cap: int = DEFAULT_DEGREE_CAP, max_dim: int = DEFAULT_MAX_DIM
                  ) -> dict[tuple[int, int], list]:
    """C^-1 for bq's own Cartan matrix C as its nonzero cells (i, j) ->
    coefficients, as ``GradedDimTable.cells`` gives C (``cell_matrix`` makes
    either a matrix): E - qB for the arrow counts B without relations (see
    the module docstring), else the nonzero entries of
    ``cartan.inverse_unimodular()``, which raises NotUnimodular.  Only then
    is ``cartan``, C as a matrix or as its table, read.  When it is not
    given, what ``cartan_matrix`` raises under the limits is raised too, by
    ``check_path_limits`` alone without relations."""
    if bq.relations:
        if cartan is None:
            cartan = cartan_matrix(bq, degree_cap, max_dim)
        elif isinstance(cartan, GradedDimTable):
            cartan = cartan.cartan()
        return {(i, j): list(e.coeffs) for i, row in enumerate(cartan.inverse_unimodular().rows)
                for j, e in enumerate(row) if e}
    if cartan is None:
        check_path_limits(bq.quiver, degree_cap, max_dim)
    cells = {}
    for i, row in enumerate(bq.quiver.arrow_counts()):
        for j in compress(count(), row):
            cells[i, j] = [0, -row[j]]
        cells[i, i] = [1, -row[i]] if row[i] else [1]
    return cells


KINDS = ("simple", "projective", "injective")


def dim_vector(bq: BoundQuiver, kind: str, vertex: int,
               degree_cap: int = DEFAULT_DEGREE_CAP,
               cartan: PolyMatrix | None = None) -> tuple[Polynomial, ...]:
    """Graded dimension vector of the simple, projective or injective module
    at a vertex: the standard basis vector, a Cartan row, or a Cartan column.
    """
    n = bq.quiver.n
    if not 0 <= vertex < n:
        raise ValueError(f"vertex index {vertex} out of range")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "simple":
        return tuple(Polynomial([int(i == vertex)]) for i in range(n))
    if cartan is None:
        cartan = cartan_matrix(bq, degree_cap)
    return tuple(cartan.rows[vertex]) if kind == "projective" else cartan.column(vertex)
