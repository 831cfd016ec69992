"""Reflection machinery over the polynomial ring.

Two flavors of reflection act on the vertex lattice:

* graph reflections, built from edge counts of the underlying graph: the
  reflection at vertex i sends e_i to -e_i and adds q * (edge count) * e_i
  to every neighbour's image;
* Cartan reflections, built from the symmetrized inverse Cartan matrix
  A = C^-1 + (C^-1)^T: the reflection at i subtracts A[i][j] * e_i from
  the image of e_j.

Multiplying the reflection matrices along an admissible vertex ordering
(every vertex a sink once its predecessors are deleted) gives the Coxeter
matrix; on relation-free quivers both flavors agree, and on any quiver
with unimodular Cartan matrix the product equals -C^T C^-1, which is also
how the Coxeter matrix is defined when no admissible ordering exists.
A reflection differs from the identity only in its own row, so such a
product is built one row update per reflection, never as a matrix product.

``verify_identities`` runs every identity the library promises on a given
bound quiver and reports pass/fail/skipped per identity, skipping the ones
whose hypotheses the input does not meet.  Identities between reflections
are built on the shared rows of the identity matrix, so only the rows the
reflections change are computed and compared.  Form invariance is checked
on the integer form 2G, and the Euler-form and duality checks take the
columns of Phi once per call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import DEFAULT_DEGREE_CAP, DEFAULT_MAX_DIM, cartan_matrix, dim_vector
from .errors import (DegreeCapExceeded, LoopAtVertex, NotAcyclic,
                     NotUnimodular)
from .polyring import (MINUS_ONE, ONE, ZERO, Polynomial, PolyMatrix, poly_vector,
                       row_combination)
from .quiverdsl import Arrow, BoundQuiver, Quiver

_HALF_Q = Polynomial([0, Fraction(1, 2)])
_Q = Polynomial([0, 1])


# --- admissible numberings ---------------------------------------------------

def admissible_numbering(quiver: Quiver, prefer_largest: bool = False) -> tuple[int, ...]:
    """Sink-first vertex ordering, as ``Quiver.sink_order`` gives it: each
    entry is a sink of the subquiver on the not-yet-listed vertices, the
    smallest-index one at every step (largest with ``prefer_largest``).

    Raises NotAcyclic when some step has no sink.
    """
    order = quiver.sink_order(prefer_largest)
    if order is None:
        raise NotAcyclic("quiver has a directed cycle, no admissible numbering exists")
    return order


# --- graph reflections ---------------------------------------------------------

@dataclass(frozen=True)
class ReflectionMatrix:
    """A reflection with its acting vertex and flavor ("graph" or "cartan")."""

    matrix: PolyMatrix
    vertex: int
    flavor: str


def _reflection(row: tuple[Polynomial, ...], i: int, flavor: str) -> ReflectionMatrix:
    rows = list(PolyMatrix.identity(len(row)).rows)
    rows[i] = row
    return ReflectionMatrix(PolyMatrix._make(rows), i, flavor)


def _reflection_product(numbering, row_of, rows) -> tuple[tuple[Polynomial, ...], ...]:
    """Rows of the product of the reflections at the vertices of the
    numbering, first vertex leftmost, times the matrix with the given rows;
    row_of(v) is row v of the reflection at v.

    A reflection s differs from E only in row v, so s * M is M with row v
    replaced by the combination of M's rows that row v of s names.  The
    product is built from the right end that way, one row update of
    O(n * nnz) ring operations per reflection.  Rows at vertices outside
    the numbering are the given row objects themselves.
    """
    rows = list(rows)
    for v in reversed(numbering):
        rows[v] = row_combination(row_of(v), rows)
    return tuple(rows)


def _graph_row(quiver: Quiver, counts: list[list[int]], i: int) -> tuple[Polynomial, ...]:
    # row i of the graph reflection at i, from counts = quiver.edge_counts(),
    # whose diagonal counts each loop twice
    if counts[i][i]:
        raise LoopAtVertex(quiver.vertices[i])
    return tuple(MINUS_ONE if j == i else Polynomial._make([0, c]) if c else ZERO
                 for j, c in enumerate(counts[i]))


def graph_reflection(quiver: Quiver, i: int) -> ReflectionMatrix:
    """Reflection at vertex i from edge counts; differs from the identity
    only in row i.  Raises LoopAtVertex if i carries a loop."""
    if not 0 <= i < quiver.n:
        raise ValueError(f"vertex index {i} out of range")
    return _reflection(_graph_row(quiver, quiver.edge_counts(), i), i, "graph")


def coxeter_matrix_graph(quiver: Quiver, numbering: tuple[int, ...] | None = None) -> PolyMatrix:
    """Product of graph reflections along an admissible numbering, first
    sink leftmost.  Independent of which admissible numbering is chosen."""
    if numbering is None:
        numbering = admissible_numbering(quiver)
    counts = quiver.edge_counts()
    return PolyMatrix._make(_reflection_product(
        numbering, lambda v: _graph_row(quiver, counts, v), PolyMatrix.identity(quiver.n).rows))


def gram_matrix(quiver: Quiver) -> PolyMatrix:
    """Matrix G of the graph bilinear form, so that (x, y) = x^T G y.
    Half-integer coefficients are exact rationals."""
    n = quiver.n
    counts = quiver.arrow_counts()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            both = counts[i][j] + counts[j][i]
            diag = ONE if i == j else Polynomial()
            row.append(diag - _HALF_Q * both if both else diag)
        rows.append(row)
    return PolyMatrix(rows)


def bilinear_form_graph(quiver: Quiver, x, y) -> Polynomial:
    """Symmetric bilinear form: the coordinate dot product minus q/2 times
    the sum over arrows of the two cross terms at the arrow's endpoints."""
    xv, yv = poly_vector(x), poly_vector(y)
    n = quiver.n
    if len(xv) != n or len(yv) != n:
        raise ValueError(f"vectors must have length {n}")
    dot = Polynomial()
    for a, b in zip(xv, yv):
        dot = dot + a * b
    cross = Polynomial()
    for arrow in quiver.arrows:
        cross = cross + xv[arrow.source] * yv[arrow.target] + xv[arrow.target] * yv[arrow.source]
    return dot - _HALF_Q * cross


def quadratic_form_graph(quiver: Quiver, x) -> Polynomial:
    """Quadratic form: sum of squares minus q times the edge-count-weighted
    products over vertex pairs.  Equals the bilinear form on (x, x)."""
    xv = poly_vector(x)
    n = quiver.n
    if len(xv) != n:
        raise ValueError(f"vector must have length {n}")
    counts = quiver.arrow_counts()
    total = Polynomial()
    for i in range(n):
        total = total + xv[i] * xv[i]
        if counts[i][i]:
            total = total - _Q * counts[i][i] * xv[i] * xv[i]
        for j in range(i + 1, n):
            pair = counts[i][j] + counts[j][i]
            if pair:
                total = total - _Q * pair * xv[i] * xv[j]
    return total


def sigma_reflect(quiver: Quiver, vertex: int) -> Quiver:
    """Reverse every arrow incident to the vertex; names are kept."""
    if not 0 <= vertex < quiver.n:
        raise ValueError(f"vertex index {vertex} out of range")
    arrows = tuple(
        Arrow(a.name, a.target, a.source) if vertex in (a.source, a.target) else a
        for a in quiver.arrows)
    return Quiver(quiver.vertices, arrows)


# --- Cartan reflections ---------------------------------------------------------

def symmetric_form_matrix(cartan: PolyMatrix,
                          inverse: PolyMatrix | None = None) -> PolyMatrix:
    """Symmetrized inverse Cartan matrix A = C^-1 + (C^-1)^T.

    Raises NotUnimodular unless det(C) is +1 or -1.
    """
    if inverse is None:
        inverse = cartan.inverse_unimodular()
    return inverse + inverse.transpose()


def _gamma_row(form_matrix: PolyMatrix, i: int) -> tuple[Polynomial, ...]:
    return tuple(ONE - a if j == i else -a for j, a in enumerate(form_matrix.rows[i]))


def gamma_reflection(cartan: PolyMatrix, i: int,
                     form_matrix: PolyMatrix | None = None) -> ReflectionMatrix:
    """Cartan reflection at vertex i: e_j maps to e_j - A[i][j] e_i, so the
    matrix differs from the identity only in row i."""
    if form_matrix is None:
        form_matrix = symmetric_form_matrix(cartan)
    if not 0 <= i < form_matrix.n:
        raise ValueError(f"vertex index {i} out of range")
    return _reflection(_gamma_row(form_matrix, i), i, "cartan")


def coxeter_matrix_bound(bq: BoundQuiver, method: str = "cartan",
                         degree_cap: int = DEFAULT_DEGREE_CAP,
                         cartan: PolyMatrix | None = None,
                         max_dim: int = DEFAULT_MAX_DIM) -> PolyMatrix:
    """Coxeter matrix of a bound quiver.

    method="cartan" computes -C^T C^-1 and works for any quiver whose
    graded dimensions terminate with unimodular Cartan matrix.
    method="reflections" multiplies Cartan reflections along an admissible
    numbering and additionally needs the quiver to be acyclic.  The two
    agree on acyclic input.
    """
    if cartan is None:
        cartan = cartan_matrix(bq, degree_cap, max_dim)
    if method == "cartan":
        return cartan.transpose() * -cartan.inverse_unimodular()
    if method == "reflections":
        numbering = admissible_numbering(bq.quiver)
        form = symmetric_form_matrix(cartan)
        return PolyMatrix._make(_reflection_product(
            numbering, lambda v: _gamma_row(form, v), PolyMatrix.identity(form.n).rows))
    raise ValueError(f"method must be 'reflections' or 'cartan', got {method!r}")


def euler_form(cartan: PolyMatrix, x, y,
               inverse: PolyMatrix | None = None) -> Polynomial:
    """Bilinear Euler form x^T C^-1 y; vector entries may be polynomials."""
    if inverse is None:
        inverse = cartan.inverse_unimodular()
    xv, yv = poly_vector(x), poly_vector(y)
    if len(xv) != inverse.n or len(yv) != inverse.n:
        raise ValueError(f"vectors must have length {inverse.n}")
    return _bilinear(xv, inverse.rows, yv)


def _bilinear(x, rows, y) -> Polynomial:
    # x^T M y for the matrix M with the given rows: x^T M is one combination
    # of M's rows, and its dot product with y is another
    xm = row_combination(x, rows)
    return row_combination(y, [(e,) for e in xm])[0]


def symmetric_euler_form(cartan: PolyMatrix, x, y,
                         inverse: PolyMatrix | None = None) -> Polynomial:
    """Symmetrized Euler form (x, y) = x^T A y / 2 with A = C^-1 + C^-T."""
    if inverse is None:
        inverse = cartan.inverse_unimodular()
    half = euler_form(cartan, x, y, inverse) + euler_form(cartan, y, x, inverse)
    return Polynomial([Fraction(1, 2)]) * half


# --- identity verification ------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    identity: str
    status: str            # "pass" | "fail" | "skipped"
    reason: str = ""


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "fail"]

    def to_json_obj(self) -> list[dict]:
        return [{"identity": c.identity, "status": c.status, "reason": c.reason}
                for c in self.checks]


# Each identity between reflections is checked on rows of E: ``eye`` is
# PolyMatrix.identity(n).rows and refl_rows[v] is row v of the reflection
# s_v at v.  A word in reflections at the vertices V equals E outside the
# rows in V, and those rows are the same objects of eye on both sides of an
# identity, so comparing the whole matrices costs what the changed rows cost.

def _word(eye, refl_rows, *vertices) -> tuple[tuple[Polynomial, ...], ...]:
    # the rightmost reflection times E is that reflection: E with one row replaced
    *rest, last = vertices
    rows = list(eye)
    rows[last] = refl_rows[last]
    return _reflection_product(rest, refl_rows.__getitem__, rows)


def _involution_holds(eye, refl_rows, i: int) -> bool:
    """s_i s_i == E."""
    return _word(eye, refl_rows, i, i) == eye


def _commutation_holds(eye, refl_rows, i: int, j: int) -> bool:
    """s_i s_j == s_j s_i."""
    return _word(eye, refl_rows, i, j) == _word(eye, refl_rows, j, i)


def _braid_holds(eye, refl_rows, i: int, j: int, factor: Polynomial) -> bool:
    """s_i s_j s_i - s_j s_i s_j == factor * (s_i - s_j)."""
    zero = (ZERO,) * len(eye)

    def minus(a, b):
        # a row that a and b share is the zero row of the difference
        return tuple(zero if x is y else tuple(p - r if r.coeffs else p for p, r in zip(x, y))
                     for x, y in zip(a, b))

    left = minus(_word(eye, refl_rows, i, j, i), _word(eye, refl_rows, j, i, j))
    right = tuple(row if row is zero else tuple(factor * e for e in row)
                  for row in minus(_word(eye, refl_rows, i), _word(eye, refl_rows, j)))
    return left == right


def _double_gram_rows(quiver: Quiver) -> tuple[tuple[Polynomial, ...], ...]:
    """Rows of 2G = 2E - q * (edge counts), the graph form with int
    coefficients; s^T (2G) s == 2G exactly when s^T G s == G."""
    counts = quiver.edge_counts()
    return tuple(tuple(Polynomial._make([2 if i == j else 0, -c]) for j, c in enumerate(row))
                 for i, row in enumerate(counts))


def _form_invariant(eye, gram_rows, v: int, row) -> bool:
    """s^T G s == G for the reflection s at v whose row v is row.

    With s = E + e_v u^T, G s differs from G only in the rows m with
    G[m][v] != 0, and s^T M from M only in the rows k with u_k != 0; the
    other rows are G's own row objects on both sides.
    """
    s = list(eye)
    s[v] = row
    gs = [row_combination(g, s) if g[v] else g for g in gram_rows]
    # row k of s^T is column k of s
    sgs = tuple(row_combination([r[k] for r in s], gs) if row[k] != eye[v][k] else gs[k]
                for k in range(len(row)))
    return sgs == gram_rows


def verify_identities(bq: BoundQuiver, samples: int = 10, seed: int = 0,
                      degree_cap: int = DEFAULT_DEGREE_CAP,
                      max_dim: int = DEFAULT_MAX_DIM) -> CheckReport:
    """Verify every applicable identity as an exact polynomial-matrix
    equation; inapplicable ones are reported as skipped with the reason."""
    quiver = bq.quiver
    n = quiver.n
    results: list[CheckResult] = []
    add = results.append

    acyclic = quiver.is_acyclic()
    loop_free = not quiver.loops()
    relation_free = not bq.relations
    counts = quiver.edge_counts()
    eye = PolyMatrix.identity(n).rows

    def verdict(name: str, ok: bool, why_fail: str = "") -> None:
        add(CheckResult(name, "pass" if ok else "fail", "" if ok else why_fail))

    # graph-level identities need an acyclic orientation without loops
    graph_ok = acyclic and loop_free
    graph_skip = "requires an acyclic quiver" if not acyclic else "requires a loop-free quiver"
    if graph_ok:
        graph_rows = [_graph_row(quiver, counts, i) for i in range(n)]
        verdict("reflection_involution",
                all(_involution_holds(eye, graph_rows, i) for i in range(n)))
        verdict("reflection_commutation",
                all(_commutation_holds(eye, graph_rows, i, j)
                    for i in range(n) for j in range(i + 1, n) if counts[i][j] == 0))
        # factor m_ij(q) - 1, with m_ij(q) = c_ij c_ji q^2
        verdict("reflection_braid",
                all(_braid_holds(eye, graph_rows, i, j,
                                 Polynomial([-1, 0, counts[i][j] * counts[j][i]]))
                    for i in range(n) for j in range(i + 1, n) if counts[i][j]))
        gram2 = _double_gram_rows(quiver)
        verdict("form_invariance",
                all(_form_invariant(eye, gram2, i, graph_rows[i]) for i in range(n)))
        first = admissible_numbering(quiver)
        second = admissible_numbering(quiver, prefer_largest=True)
        phi_graph = _word(eye, graph_rows, *first)
        if first == second:
            add(CheckResult("coxeter_numbering_independence", "skipped",
                            "only one admissible numbering available"))
        else:
            verdict("coxeter_numbering_independence",
                    _word(eye, graph_rows, *second) == phi_graph)
    else:
        for name in ("reflection_involution", "reflection_commutation",
                     "reflection_braid", "form_invariance",
                     "coxeter_numbering_independence"):
            add(CheckResult(name, "skipped", graph_skip))

    # Cartan matrix of the bound quiver, shared by everything below
    try:
        cartan = cartan_matrix(bq, degree_cap, max_dim)
        cartan_reason = ""
    except DegreeCapExceeded as exc:
        cartan = None
        cartan_reason = f"graded dimensions did not terminate ({exc})"
    inverse = phi_cartan = None
    if cartan is not None:
        try:
            inverse = cartan.inverse_unimodular()
        except NotUnimodular as exc:
            cartan_reason = f"Cartan matrix is not unimodular ({exc})"
        else:
            phi_cartan = cartan.transpose() * -inverse

    # relation-free theorems compare graph products against the Cartan matrix
    if graph_ok and relation_free and inverse is not None:
        verdict("coxeter_vs_cartan", phi_graph == phi_cartan.rows)
        phi = PolyMatrix._make(phi_graph)
        sink_c_ok = True
        sink_phi_ok = True
        for i in quiver.sinks():
            s = _reflection(graph_rows[i], i, "graph").matrix
            flipped = sigma_reflect(quiver, i)
            flipped_c = cartan_matrix(BoundQuiver(flipped), degree_cap, max_dim)
            flipped_phi = coxeter_matrix_graph(flipped)
            sink_c_ok = sink_c_ok and flipped_c == s * cartan * s.transpose()
            sink_phi_ok = sink_phi_ok and flipped_phi == s * phi * s
        verdict("sink_reflection_cartan", sink_c_ok)
        verdict("sink_reflection_coxeter", sink_phi_ok)
    else:
        if not graph_ok:
            reason = graph_skip
        elif not relation_free:
            reason = "requires a relation-free quiver"
        else:
            reason = cartan_reason
        for name in ("coxeter_vs_cartan", "sink_reflection_cartan",
                     "sink_reflection_coxeter"):
            add(CheckResult(name, "skipped", reason))

    if inverse is None:
        for name in ("gamma_involution", "gamma_commutation",
                     "gamma_coxeter_vs_cartan", "gamma_numbering_independence",
                     "projective_injective_duality", "euler_form_coxeter"):
            add(CheckResult(name, "skipped", cartan_reason))
        return CheckReport(tuple(results))

    form = symmetric_form_matrix(cartan, inverse)
    gamma_rows = [_gamma_row(form, i) for i in range(n)]

    involutive = [i for i in range(n) if form.entry(i, i) == 2]
    if involutive:
        verdict("gamma_involution",
                all(_involution_holds(eye, gamma_rows, i) for i in involutive))
    else:
        add(CheckResult("gamma_involution", "skipped",
                        "no vertex with diagonal form entry 2"))
    commuting_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                       if form.entry(i, j).is_zero()]
    if commuting_pairs:
        verdict("gamma_commutation",
                all(_commutation_holds(eye, gamma_rows, i, j) for i, j in commuting_pairs))
    else:
        add(CheckResult("gamma_commutation", "skipped",
                        "no vertex pair with vanishing form entry"))

    if acyclic:
        numbering = admissible_numbering(quiver)
        product = _word(eye, gamma_rows, *numbering)
        verdict("gamma_coxeter_vs_cartan", product == phi_cartan.rows)
        alt = admissible_numbering(quiver, prefer_largest=True)
        if alt == numbering:
            add(CheckResult("gamma_numbering_independence", "skipped",
                            "only one admissible numbering available"))
        else:
            alt_product = _word(eye, gamma_rows, *alt)
            verdict("gamma_numbering_independence", alt_product == product)
    else:
        for name in ("gamma_coxeter_vs_cartan", "gamma_numbering_independence"):
            add(CheckResult(name, "skipped", "requires an acyclic quiver"))

    # Phi v is the combination of Phi's columns that v names
    phi_columns = phi_cartan.transpose().rows
    duality_ok = True
    for i in range(n):
        projective = dim_vector(bq, "projective", i, cartan=cartan)
        injective = dim_vector(bq, "injective", i, cartan=cartan)
        image = row_combination(injective, phi_columns)
        duality_ok = duality_ok and all((a + b).is_zero()
                                        for a, b in zip(projective, image))
    verdict("projective_injective_duality", duality_ok,
            "projective vector differs from -Phi * injective vector")

    rng = random.Random(seed)
    euler_ok = True
    for _ in range(samples):
        x = poly_vector(rng.randint(-5, 5) for _ in range(n))
        y = poly_vector(rng.randint(-5, 5) for _ in range(n))
        phi_y = row_combination(y, phi_columns)
        direct = _bilinear(x, inverse.rows, y)
        swapped = _bilinear(phi_y, inverse.rows, x)
        rotated = _bilinear(row_combination(x, phi_columns), inverse.rows, phi_y)
        euler_ok = euler_ok and direct == -swapped and direct == rotated
    verdict("euler_form_coxeter", euler_ok)

    return CheckReport(tuple(results))
