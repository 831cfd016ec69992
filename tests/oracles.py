"""Independent reference implementations used only to cross-check the
library.  Everything here is deliberately naive: permutation sums, plain
Gaussian elimination over Fraction, full enumeration.  Nothing imports the
code paths it is checking.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress, count, islice, permutations, zip_longest
from math import ceil, comb

from qcox.errors import QuiverSyntaxError, ValidationError
from qcox.polyring import (Polynomial, PolyMatrix, pack, parse_rational, poly_vector,
                           row_combination)
from qcox.quiverdsl import Arrow, BoundQuiver, Path, Quiver, Relation, validate


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_permutation_sum(m: PolyMatrix) -> Polynomial:
    """Determinant straight from the Leibniz formula."""
    n = m.n
    total = Polynomial()
    for perm in permutations(range(n)):
        term = Polynomial([perm_sign(perm)])
        for i in range(n):
            term = term * m.entry(i, perm[i])
        total = total + term
    return total


def naive_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Product by the textbook triple loop over every entry, zeros included."""
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            total = Polynomial()
            for k in range(n):
                total = total + a.entry(i, k) * b.entry(k, j)
            row.append(total)
        rows.append(row)
    return PolyMatrix(rows)


def naive_sink_order(quiver, prefer_largest=False):
    """Sink-first order by rescanning every arrow at every step; None when
    some step finds no sink."""
    remaining = set(range(quiver.n))
    order = []
    while remaining:
        with_out = {a.source for a in quiver.arrows
                    if a.source in remaining and a.target in remaining}
        sinks = sorted(v for v in remaining if v not in with_out)
        if not sinks:
            return None
        v = sinks[-1] if prefer_largest else sinks[0]
        order.append(v)
        remaining.discard(v)
    return tuple(order)


def gauss_rank(rows) -> int:
    """Rank by textbook Gaussian elimination over Fraction."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    n_rows, n_cols = len(work), len(work[0])
    rank = 0
    for col in range(n_cols):
        piv = None
        for r in range(rank, n_rows):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pr = work[rank]
        inv = 1 / pr[col]
        work[rank] = pr = [x * inv for x in pr]
        for r in range(n_rows):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], pr)]
        rank += 1
        if rank == n_rows:
            break
    return rank


def gauss_pivot_columns(rows) -> list[int]:
    """Pivot columns of the row-reduced form, over Fraction."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    if not work:
        return pivots
    n_rows, n_cols = len(work), len(work[0])
    rank = 0
    for col in range(n_cols):
        piv = None
        for r in range(rank, n_rows):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pr = work[rank]
        inv = 1 / pr[col]
        work[rank] = pr = [x * inv for x in pr]
        for r in range(n_rows):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], pr)]
        pivots.append(col)
        rank += 1
        if rank == n_rows:
            break
    return pivots


# --- exact Fraction matrices, for q=1 cross-checks ------------------------

def frac_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def frac_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def frac_transpose(a):
    return [list(col) for col in zip(*a)]


def frac_neg(a):
    return [[-x for x in row] for row in a]


def frac_inverse(a):
    """Gauss-Jordan inverse over Fraction; raises on singular input."""
    n = len(a)
    work = [list(map(Fraction, row)) + frac_identity(n)[i] for i, row in enumerate(a)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


# --- naive graded dimensions ------------------------------------------------

def _all_paths(quiver, length):
    """Every path of one length as (arrows, source, target), by plain DFS."""
    paths = [((), v, v) for v in range(quiver.n)]
    for _ in range(length):
        nxt = []
        for arrows, src, tgt in paths:
            for idx, a in enumerate(quiver.arrows):
                if a.source == tgt:
                    nxt.append((arrows + (idx,), src, a.target))
        paths = nxt
    return paths


def naive_degree_dims(bq, degree):
    """Nonzero dims of every (source, target) block of one degree.

    Enumerates every path of the degree, materializes every ideal element
    p*r*s as a row over that whole path basis, and row-reduces the span at
    once.  Dimensions drop out per (source, target) pair from the pivot
    columns.  No blockwise shortcuts, no incremental reuse.
    """
    quiver = bq.quiver
    basis = _all_paths(quiver, degree)
    index = {p[0]: c for c, p in enumerate(basis)}
    rows = []
    for rel in bq.relations:
        rel_len = rel.length
        if rel_len > degree:
            continue
        for head_len in range(degree - rel_len + 1):
            tail_len = degree - rel_len - head_len
            for head in _all_paths(quiver, head_len):
                if head[2] != rel.source:
                    continue
                for tail in _all_paths(quiver, tail_len):
                    if tail[1] != rel.target:
                        continue
                    row = [0] * len(basis)
                    for coeff, mid in rel.terms:
                        row[index[head[0] + mid.arrows + tail[0]]] += coeff
                    rows.append(row)
    pivot_cols = set(gauss_pivot_columns(rows))
    per_pair = {}
    for col, (_, src, tgt) in enumerate(basis):
        if col not in pivot_cols:
            per_pair[(src, tgt)] = per_pair.get((src, tgt), 0) + 1
    return per_pair


def naive_graded_dims(bq, degree_cap=64):
    """Full-enumeration reference for the graded dimension table: every
    degree by ``naive_degree_dims``, up to the first one that vanishes."""
    dims = {(v, v, 0): 1 for v in range(bq.quiver.n)}
    for degree in range(1, degree_cap + 2):
        per_pair = naive_degree_dims(bq, degree)
        if not per_pair:
            return dims, degree
        for (src, tgt), value in per_pair.items():
            dims[(src, tgt, degree)] = value
    raise RuntimeError("naive oracle hit its cap")


# --- cyclic families with closed-form graded dimensions ----------------------

def _bound_quiver(n, arrow_pairs, relations, name):
    """Bound quiver on vertices 0..n-1; relations are lists of
    (coeff, [arrow indices])."""
    quiver = Quiver(tuple(str(v) for v in range(n)),
                    tuple(Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(arrow_pairs)))
    rels = tuple(Relation(tuple((Fraction(c), path_from_arrows(quiver, m)) for c, m in rel))
                 for rel in relations)
    return BoundQuiver(quiver, rels, name=name)


def preprojective(n):
    """Pi(A_n): arrows i -> i+1 (even index) and back (odd index); at each
    vertex the signed sum of the two-cycles through it vanishes."""
    pairs = []
    for i in range(n - 1):
        pairs += [(i, i + 1), (i + 1, i)]
    up = [2 * i for i in range(n - 1)]
    down = [2 * i + 1 for i in range(n - 1)]
    rels = [[(1, [up[0], down[0]])], [(1, [down[-1], up[-1]])]]
    rels += [[(1, [down[i - 1], up[i - 1]]), (-1, [up[i], down[i]])] for i in range(1, n - 1)]
    return _bound_quiver(n, pairs, rels, f"pi{n}")


def preprojective_dims(n):
    """Graded dims of Pi(A_n) from its Hilbert series
    H(t) = (1 + P t^h)(1 - C t + t^2)^{-1}: C is the adjacency matrix of
    the A_n graph, P the Nakayama permutation i -> n-1-i and h = n+1.
    The inverse expands as sum S_d t^d with S_0 = E, S_1 = C and
    S_d = C S_{d-1} - S_{d-2}.  Returns {(i, j, d): dim} over d <= 2h; the
    series is a polynomial, so every term past degree h-2 must vanish."""
    h = n + 1
    adj = [[int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    series = [ident, adj]
    while len(series) <= 2 * h:
        prod = [[sum(adj[i][k] * series[-1][k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        series.append([[prod[i][j] - series[-2][i][j] for j in range(n)] for i in range(n)])
    dims = {}
    for d in range(2 * h + 1):
        for i in range(n):
            for j in range(n):
                value = series[d][i][j] + (series[d - h][n - 1 - i][j] if d >= h else 0)
                if value:
                    dims[(i, j, d)] = value
    return dims


def exterior(k):
    """Exterior algebra on k generators: k loops, x_i x_i = 0 and
    x_i x_j + x_j x_i = 0."""
    rels = [[(1, [i, i])] for i in range(k)]
    rels += [[(1, [i, j]), (1, [j, i])] for i in range(k) for j in range(i + 1, k)]
    return _bound_quiver(1, [(0, 0)] * k, rels, f"ext{k}")


def exterior_dims(k):
    return {(0, 0, d): comb(k, d) for d in range(k + 1)}


def truncated(n, arrow_pairs, length):
    """kQ/J^L: every path of length L is a relation."""
    bq = _bound_quiver(n, arrow_pairs, [], f"trunc{length}")
    rels = [[(1, list(p[0]))] for p in _all_paths(bq.quiver, length)]
    return _bound_quiver(n, arrow_pairs, rels, f"trunc{length}")


def truncated_dims(n, arrow_pairs, length):
    """Paths of each length below L, counted by adjacency matrix powers."""
    adj = [[0] * n for _ in range(n)]
    for s, t in arrow_pairs:
        adj[s][t] += 1
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    dims = {}
    for d in range(length):
        for i in range(n):
            for j in range(n):
                if power[i][j]:
                    dims[(i, j, d)] = power[i][j]
        power = [[sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return dims


def random_cyclic_bound_quiver(rng):
    """Seeded cyclic bound quiver of finite dimension: 1-3 vertices on a
    directed cycle (a loop for one vertex) plus up to two random arrows,
    cut down by every path of some length L, plus random homogeneous
    relations of degree 2 and 3.  L is kept small enough that the naive
    oracle stays fast."""
    n = rng.randint(1, 3)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2))]
    length = rng.randint(2, 4)
    while length > 2 and sum(truncated_dims(n, pairs, length + 1).values()) > 40:
        length -= 1
    bq = truncated(n, pairs, length)
    extra = []
    for _ in range(rng.randint(0, 3)):
        paths = _all_paths(bq.quiver, rng.choice((2, 3)))
        ends = rng.choice(paths)[1:]
        block = [list(p[0]) for p in paths if p[1:] == ends]
        chosen = rng.sample(block, rng.randint(1, min(3, len(block))))
        extra.append([(rng.choice((-2, -1, 1, 2, Fraction(3, 2))), m) for m in chosen])
    return BoundQuiver(bq.quiver, bq.relations + _bound_quiver(n, pairs, extra, "").relations,
                       name="cyclic")


def random_quadratic_monomial_quiver(rng):
    """Seeded bound quiver on 1-3 vertices with 1-4 random arrows, loops
    and cycles allowed, bound by a random set of length-2 paths."""
    n = rng.randint(1, 3)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 4))]
    free = _bound_quiver(n, pairs, [], "")
    rels = [[(1, list(p[0]))] for p in _all_paths(free.quiver, 2) if rng.random() < 0.5]
    return _bound_quiver(n, pairs, rels, "monomial")


def koszul_dual(bq):
    """A! of an algebra whose relations are quadratic monomials: the
    opposite quiver, bound by the reversed length-2 paths (a*b becomes
    b* a*) that are not relations of A."""
    if any(rel.length != 2 or len(rel.terms) != 1 for rel in bq.relations):
        raise ValueError("relations must be quadratic monomials")
    quiver = bq.quiver
    bound = {rel.terms[0][1].arrows for rel in bq.relations}
    rels = [[(1, [p[0][1], p[0][0]])] for p in _all_paths(quiver, 2) if p[0] not in bound]
    return _bound_quiver(quiver.n, [(a.target, a.source) for a in quiver.arrows], rels,
                         "dual")


def koszul_inverse(bq) -> PolyMatrix:
    """C^-1 of a quadratic monomial algebra A, which is Koszul:
    C_A^-1(q) = C_{A!}(-q)^T, with the graded dims of A! by full
    enumeration.  Runs no elimination; A! must be finite-dimensional,
    which it is when C_A is unimodular."""
    dims, _ = naive_graded_dims(koszul_dual(bq))
    n = bq.quiver.n
    top = max(d for _, _, d in dims)
    coeffs = [[[0] * (top + 1) for _ in range(n)] for _ in range(n)]
    for (i, j, d), value in dims.items():
        coeffs[j][i][d] = -value if d % 2 else value
    return PolyMatrix([[Polynomial(cs) for cs in row] for row in coeffs])


def classical_cartan_by_path_counts(quiver):
    """Ungraded Cartan matrix of a relation-free acyclic quiver: total path
    counts per vertex pair, found by DFS without any degree bookkeeping."""
    n = quiver.n
    out = [[] for _ in range(n)]
    for a in quiver.arrows:
        out[a.source].append(a.target)

    counts = [[0] * n for _ in range(n)]

    def walk(origin, here):
        counts[origin][here] += 1
        for nxt in out[here]:
            walk(origin, nxt)

    for v in range(n):
        walk(v, v)
    return [[Fraction(c) for c in row] for row in counts]


def unpack(v: int, w: int) -> Polynomial:
    """The polynomial with coefficients in [-2^(w-1), 2^(w-1)) whose value at
    q = 2^w is v: the balanced base-2^w digits of v, by divmod.  Width 1
    leaves the digits -1 and 0 only, which cannot write a positive v."""
    if w < 2:
        raise ValueError(f"slot width {w} is below 2")
    base = 1 << w
    cs = []
    while v:
        d = v % base
        if d >= base // 2:
            d -= base
        cs.append(d)
        v = (v - d) // base
    return Polynomial(cs)


def pack_rows(rows, w: int) -> list[list[int]]:
    """p(2^w) for every entry p of the Polynomial rows (``polyring.pack``);
    only the nonzero entries are packed, the others stay 0."""
    packed = []
    for row in rows:
        out = [0] * len(row)
        for j in compress(count(), (e.coeffs for e in row)):
            out[j] = pack(row[j].coeffs, w)
        packed.append(out)
    return packed


def gamma_norms(rows) -> list[int]:
    """The norm of each Cartan reflection row, -A_ij and 1 - A_ii for
    A = X + X^T and X with these Polynomial rows, summed exactly from the
    coefficient lists of X_ij + X_ji."""
    norms = []
    for i, (row, column) in enumerate(zip(rows, zip(*rows))):
        total = 0 if row[i].coeffs else 1     # 1 - A_ii is 1 when X_ii is 0
        for j in range(len(row)):
            if not (row[j].coeffs or column[j].coeffs):
                continue
            cs = [a + b for a, b in zip_longest(row[j].coeffs, column[j].coeffs, fillvalue=0)]
            if j == i:
                cs[0] -= 1
            total += sum(map(abs, cs))
        norms.append(ceil(total))
    return norms


def verifier_slot_bound(bq: BoundQuiver, degree_cap: int = 64, max_dim: int = 1_000_000) -> int:
    """The bound whose slot width ``verify_identities`` uses, with every
    norm taken on Polynomial rows, as the verifier once did: the graph rows
    and 2G (``coxeter._graph_row``, ``coxeter._gram2``), ``norm`` and
    ``gamma_norms`` on the PolyMatrix C and C^-1, and ``norm`` on
    the C of each quiver with the arrows at a sink reversed.  It raises
    what the verifier raises."""
    from math import prod

    from qcox.algebra import cartan_inverse, cartan_matrix
    from qcox.coxeter import _graph_row, _gram2, sigma_reflect
    from qcox.errors import DegreeCapExceeded, NotUnimodular
    from qcox.polyring import norm
    quiver = bq.quiver
    counts = quiver.edge_counts()
    acyclic = quiver.is_acyclic()
    try:
        cartan = cartan_matrix(bq, degree_cap, max_dim)
        inverse = cartan_inverse(bq, cartan)
    except (DegreeCapExceeded, NotUnimodular):
        cartan = None
    flipped = []
    if acyclic and not bq.relations and cartan is not None:
        try:
            for sink in quiver.sinks():
                flipped.append(cartan_matrix(BoundQuiver(sigma_reflect(quiver, sink)),
                                             degree_cap, max_dim))
        except DegreeCapExceeded:
            pass    # the reversed quivers computed before still count
    terms = [1]
    if acyclic:
        norms = [norm([_graph_row(quiver, counts, v)]) for v in range(quiver.n)]
        m = max(norms)
        c_max = max(map(max, counts))
        terms += [m * m * prod(norms), m * (m + 1) + c_max * c_max + 1,
                  norm(_gram2(counts)) * (m + 3)]
    if cartan is not None:
        row_norms = gamma_norms(inverse.rows)
        norm_c = norm(cartan.rows)
        nu_c = max(norm_c, norm(zip(*cartan.rows)))
        nu_inverse = max(norm(inverse.rows), norm(zip(*inverse.rows)))
        phi = nu_c * nu_inverse
        terms += [prod(row_norms), max(row_norms) + 1, nu_c * phi, nu_inverse * phi * phi]
    for c in flipped:
        terms += [m * (m + 1) * norm_c, norm(c.rows)]
    return max(terms)


# --- per-character tokenizer --------------------------------------------------

_TOKEN_AT = re.compile(r"->|[{}:;,*+\-]|[A-Za-z0-9_]+(?:/[0-9]+)?")


def tokenize_per_character(text: str) -> list[tuple[str, int, int]]:
    """(text, line, column) of every token of the quiver language: each
    line up to its ``#`` is walked one character at a time, skipping
    ``str.isspace`` characters and matching one token at each other one."""
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        pos = 0
        while pos < len(body):
            ch = body[pos]
            if ch.isspace():
                pos += 1
                continue
            m = _TOKEN_AT.match(body, pos)
            if not m:
                raise QuiverSyntaxError(f"unexpected character {ch!r}", lineno, pos + 1)
            tokens.append((m.group(), lineno, m.start() + 1))
            pos = m.end()
    return tokens


# --- token-tuple parser -------------------------------------------------------

_REF_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_REF_RATIONAL_RE = re.compile(r"[0-9]+(?:/[0-9]+)?\Z")


class _ReferenceParser:
    """Recursive descent over ``(text, line, column)`` tokens, one method
    call per token; reads positions from the token it fails at."""

    def __init__(self, tokens: list[tuple[str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    def _error(self, message: str):
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
            raise QuiverSyntaxError(message, line, col)
        _, line, col = self.tokens[-1]
        raise QuiverSyntaxError(message + " (at end of input)", line, col)

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            self._error("unexpected end of input")
        self.pos += 1
        return self.tokens[self.pos - 1][0]

    def expect(self, text: str) -> None:
        if self.peek() != text:
            self._error(f"expected {text!r}")
        self.pos += 1

    def name(self, what: str) -> str:
        t = self.peek()
        if t is None or not _REF_NAME_RE.match(t):
            self._error(f"expected {what}")
        self.pos += 1
        return t

    def parse(self) -> BoundQuiver:
        self.expect("quiver")
        qname = self.name("quiver name")
        self.expect("{")
        self.expect("vertices")
        self.expect(":")
        vertices = [self.name("vertex name")]
        while self.peek() == ",":
            self.take()
            vertices.append(self.name("vertex name"))
        self.expect(";")
        self.expect("arrows")
        self.expect(":")
        arrows = []
        while True:
            # zero or more declarations; a first token of None is an error
            # only once it is read as an arrow name
            nxt = self.peek()
            if nxt == "}":
                break
            if nxt == "relations" and (self.pos + 3 >= len(self.tokens)
                                       or self.tokens[self.pos + 3][0] != "->"):
                break
            aname = self.name("arrow name")
            self.expect(":")
            src = self.name("source vertex")
            self.expect("->")
            dst = self.name("target vertex")
            self.expect(";")
            arrows.append((aname, src, dst))
            if self.peek() is None:
                break
        relations = []
        if self.peek() == "relations":
            self.take()
            self.expect(":")
            while self.peek() not in ("}", None):
                relations.append(self._reldecl())
        self.expect("}")
        if self.pos != len(self.tokens):
            self._error("trailing input after closing '}'")
        return _reference_build(qname, vertices, arrows, relations)

    def _reldecl(self) -> list[tuple[Fraction, list[str]]]:
        terms = [self._term(leading_sign=True)]
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            coeff, path = self._term(leading_sign=False)
            terms.append((sign * coeff, path))
        self.expect(";")
        return terms

    def _term(self, leading_sign: bool) -> tuple[Fraction, list[str]]:
        sign = 1
        if leading_sign and self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        coeff = Fraction(1)
        t = self.peek()
        if t is not None and _REF_RATIONAL_RE.match(t) and self._next_is_star() and \
                (("/" in t) or self._looks_like_coefficient()):
            coeff = parse_rational(self.take())
            self.expect("*")
        path = [self.name("arrow name")]
        while self.peek() == "*":
            self.take()
            path.append(self.name("arrow name"))
        return sign * coeff, path

    def _next_is_star(self) -> bool:
        return self.pos + 1 < len(self.tokens) and self.tokens[self.pos + 1][0] == "*"

    def _looks_like_coefficient(self) -> bool:
        # "2*a" is coefficient 2 on path a; "1*2*a" forces an arrow named 2
        return self.pos + 2 < len(self.tokens) and \
            _REF_NAME_RE.match(self.tokens[self.pos + 2][0]) is not None


def _reference_build(qname, vertex_names, arrow_decls, relation_decls) -> BoundQuiver:
    vidx = {}
    for v in vertex_names:
        if v in vidx:
            raise ValidationError("DuplicateVertex", f"vertex {v!r} declared twice")
        vidx[v] = len(vidx)
    arrows = []
    for aname, src, dst in arrow_decls:
        if src not in vidx:
            raise ValidationError("UnknownVertex", f"arrow {aname!r} uses unknown vertex {src!r}")
        if dst not in vidx:
            raise ValidationError("UnknownVertex", f"arrow {aname!r} uses unknown vertex {dst!r}")
        arrows.append(Arrow(aname, vidx[src], vidx[dst]))
    quiver = Quiver(tuple(vertex_names), tuple(arrows))
    relations = []
    for decl in relation_decls:
        terms = []
        for coeff, arrow_names in decl:
            # composition problems are reported by validate(), not raised here
            indices = [quiver.arrow_index(nm) for nm in arrow_names]
            path = Path(tuple(indices), quiver.arrows[indices[0]].source,
                        quiver.arrows[indices[-1]].target)
            terms.append((coeff, path))
        relations.append(Relation(tuple(terms)))
    bq = BoundQuiver(quiver, tuple(relations), name=qname)
    report = validate(bq)
    if not report.passed:
        code = report.failure_codes()[0]
        raise ValidationError(code, "; ".join(report.failure_codes()), report)
    return bq


def parse_quiver_reference(text: str) -> BoundQuiver:
    """``quiverdsl.parse_quiver`` as a parser over positioned tokens: the
    whole text is tokenized with positions first, and every token is read
    through ``peek``/``take``."""
    tokens = tokenize_per_character(text)
    if not tokens:
        raise QuiverSyntaxError("empty input", 1, 1)
    return _ReferenceParser(tokens).parse()


# --- test-only views of library objects -------------------------------------

def degree(p: Polynomial) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p.coeffs) - 1


def scaled(m: PolyMatrix, factor) -> PolyMatrix:
    """factor * M, entry by entry."""
    f = Polynomial.coerce(factor)
    return PolyMatrix([[f * a for a in row] for row in m.rows])


def path_from_arrows(quiver, arrow_indices) -> Path:
    """The path along the given arrows; ValidationError if two consecutive
    arrows do not compose."""
    if not arrow_indices:
        raise ValueError("positive-length path needs at least one arrow")
    arrows = [quiver.arrows[i] for i in arrow_indices]
    for a, b in zip(arrows, arrows[1:]):
        if a.target != b.source:
            raise ValidationError(
                "NonComposable",
                f"arrow {a.name!r} ends at {quiver.vertices[a.target]!r} but "
                f"{b.name!r} starts at {quiver.vertices[b.source]!r}")
    return Path(tuple(arrow_indices), arrows[0].source, arrows[-1].target)


def iter_paths_by_degree(quiver):
    """Yield all paths of length 0, 1, 2, ... in lexicographic arrow order."""
    frontier = [Path.trivial(v) for v in range(quiver.n)]
    while True:
        yield frontier
        frontier = [Path(p.arrows + (idx,), p.source, a.target)
                    for p in frontier for idx, a in enumerate(quiver.arrows)
                    if a.source == p.target]


def enumerate_paths(quiver, source: int, target: int, length: int) -> list[Path]:
    """All length-d paths source -> target, in the order of
    ``iter_paths_by_degree`` (lexicographic in arrow indices)."""
    if length < 0:
        raise ValueError("path length must be non-negative")
    paths = next(islice(iter_paths_by_degree(quiver), length, None))
    return [p for p in paths if p.source == source and p.target == target]


def dims_json_obj(table, vertex_names) -> dict:
    """The object whose ``json.dumps(obj, indent=2)`` ``qcox dims
    --format=json`` writes: entries sorted by (i, j, degree)."""
    entries = [{"source": vertex_names[i], "target": vertex_names[j], "degree": d, "dim": value}
               for (i, j), cs in sorted(table.cells.items())
               for d, value in enumerate(cs) if value]
    return {"dims": entries, "max_degree": table.max_degree}


def checks_json_obj(report) -> list[dict]:
    """The checks of a ``CheckReport`` as ``qcox verify --format=json``
    writes them."""
    return [{"identity": c.identity, "status": c.status, "reason": c.reason}
            for c in report.checks]


def verify_json_obj(reports) -> dict:
    """The object whose ``json.dumps(obj, indent=2)`` ``qcox verify
    --format=json`` writes, for (label, CheckReport) pairs."""
    return {"passed": all(report.passed for _, report in reports),
            "reports": [{"instance": label, "checks": checks_json_obj(report)}
                        for label, report in reports]}


def matrix_json_obj(m: PolyMatrix) -> dict:
    """The object whose ``json.dumps(obj, indent=2)`` ``cli.render_matrix``
    writes for a matrix without ``--at-q``."""
    return {"n": m.n, "entries": [[e.to_coeff_strings() for e in row] for row in m.rows]}


def poly_from_coeff_strings(items) -> Polynomial:
    """Inverse of ``Polynomial.to_coeff_strings``."""
    return Polynomial(parse_rational(s) for s in items)


def matrix_from_json_obj(obj: dict) -> PolyMatrix:
    """The matrix that ``matrix_json_obj`` (and ``cli`` JSON output) describes."""
    m = PolyMatrix([[poly_from_coeff_strings(e) for e in row] for row in obj["entries"]])
    if m.n != obj.get("n", m.n):
        raise ValueError("matrix order does not match entry grid")
    return m


def is_constant(p: Polynomial) -> bool:
    return len(p.coeffs) <= 1


def constant_value(p: Polynomial):
    """The constant p equals, or None if its degree is positive."""
    return (p.coeffs or (0,))[0] if is_constant(p) else None


def is_identity(m: PolyMatrix) -> bool:
    return all(e == int(i == j) for i, row in enumerate(m.rows) for j, e in enumerate(row))


def mul_vector(m: PolyMatrix, vec) -> tuple[Polynomial, ...]:
    """M v, as the combination of M's columns that v names."""
    v = poly_vector(vec)
    if len(v) != m.n:
        raise ValueError(f"vector length {len(v)} != matrix order {m.n}")
    return row_combination(v, tuple(zip(*m.rows)))


def permuted(m: PolyMatrix, order) -> PolyMatrix:
    """Reindex rows and columns: entry'(a, b) = entry(order[a], order[b])."""
    if sorted(order) != list(range(m.n)):
        raise ValueError("order must be a permutation of the indices")
    return PolyMatrix([[m.rows[i][j] for j in order] for i in order])


def is_symmetric(m: PolyMatrix) -> bool:
    return all(m.rows[i][j] == m.rows[j][i] for i in range(m.n) for j in range(i))


def is_lower_unitriangular(m: PolyMatrix) -> bool:
    return all(m.rows[i][i] == 1 for i in range(m.n)) and \
        all(m.rows[i][j].is_zero() for i in range(m.n) for j in range(i + 1, m.n))


def dim(table, i: int, j: int, degree: int) -> int:
    """dim of the (i, j) component of one degree of a graded dimension table."""
    return table.dims.get((i, j, degree), 0)


def total_at(table, degree: int) -> int:
    """Total dimension of one degree of a graded dimension table."""
    return sum(v for (_, _, d), v in table.dims.items() if d == degree)


def neighbours(quiver, i: int) -> list[int]:
    """Vertices other than i joined to i by an arrow in either direction."""
    a = quiver.edge_counts()
    return [j for j in range(quiver.n) if j != i and a[i][j]]
