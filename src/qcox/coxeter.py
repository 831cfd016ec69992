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
bound quiver and reports pass/fail/skipped per identity.  It computes the
shared data once (the graded dimensions, whose cells are C, and C^-1, the
slot width, the packed rows, Phi's columns, both admissible numberings,
the graded dimensions with the arrows at a sink reversed), then runs one
loop over a table of (identity, hypotheses, check) entries in report
order.  A hypothesis is acyclic, relation_free, inverse (graded dimensions
terminate and C is unimodular), reversed_sinks (they terminate with the
arrows at each sink reversed), two_numberings, involutive (some diagonal
entry of A is 2) or commuting (some off-diagonal entry of A vanishes).  A
check whose hypotheses fail is skipped with the reason of the first
failing one; otherwise it passes or fails.  C^-1 comes as its cells
from ``algebra.inverse_cells``, and projective_injective_duality
certifies it: for the X used, Phi = -C^T X, and -Phi C = C^T holds
exactly when X C = E, as C^T is invertible.  It is checked as
C^T (X C) == C^T, with X C formed first, so both products read only the
nonzero entries of X and of X C.

Identities between reflections at one or two vertices are decided from
their rows alone.  The reflection at v is s_v = E + e_v u_v^T, with u_v its
row v minus e_v, and x u_v^T = 0 exactly when x = 0 or u_v = 0, as Z[q] is
a domain.  With the braid factor f = c_ij c_ji q^2 - 1,
x_v = row_v[v] + u_ij u_ji - f, and k = G e_v + (G_vv / 2) u_v for G
symmetric:

* s_i s_i - E = (2 + u_ii) e_i u_i^T;
* s_i s_j - s_j s_i = u_ij e_i u_j^T - u_ji e_j u_i^T;
* s_i s_j s_i - s_j s_i s_j - f (s_i - s_j) = x_i e_i u_i^T - x_j e_j u_j^T;
* s_v^T G s_v - G = u_v k^T + k u_v^T, which is 0 exactly when u_v or k is.

The predicates read packed rows (below), built once per call straight from
counts and cells, never from a Polynomial matrix that holds the same
numbers: the graph rows, -1 at v and c_vj 2^w elsewhere for the edge
counts c (``_packed_graph_rows``), and 2G = 2E - q * c, 2 and -c_ij 2^w
(``_packed_gram2``; ``gram_matrix`` is G); C, each reversed sink's C and
X = C^-1, one ``pack`` per nonzero cell of ``algebra.graded_dims`` and
``algebra.inverse_cells`` (``_pack_cells``); and the Cartan rows, which
``_gamma_row`` reads off A = X + X^T formed on the packed X, as
``gamma_reflection`` reads them off the Polynomial A.  The numbering
words, and the sink checks s C s^T and s Phi s, are built on the shared
rows of the identity matrix, so only the rows the reflections change are
computed and compared.

Every matrix the verifier multiplies lies over Z[q] (C^-1 too, as det
C = 1), so it packs each entry p as the integer p(2^w) (``polyring.pack``)
and compares integers, which is exact when every compared coefficient is
at most B in absolute value and w = slot_width(B).  B comes once per call
from the input norms: ``norm`` (the max row sum) is submultiplicative, and
so is nu(X) = max(norm(X), norm(X^T)), which also bounds X^T.  With m and
p the largest and the product of the reflections' norms, a numbering word
has norm at most p (each letter once) and s Phi s at most m^2 p.
Phi = -C^T C^-1 has nu(Phi) <= phi = nu(C) nu(C^-1), X C is at most phi
and C^T (X C) at most nu(C) phi, s C s^T is at most m norm(C) (1 + m), as
the column sums of s are at most 1 + m, the C of a quiver with reversed
arrows at most its norm, and the Euler-form matrices -(C^-1)^T Phi and
Phi^T C^-1 Phi at most nu(C^-1) phi^2.  Of the row predicates, a braid sum
x_v is at most m + m^2 + 1 + c^2 for the largest edge count c, and the 2G
combination 2 (2G)_v + (2G)_vv u_v at most g (m + 3) for g = norm(2G), as
u_v is at most m + 1.  The product of the Cartan rows' norms bounds the
Cartan words, and their largest plus 1 bounds the entries of A.  Every
norm is read off counts and cells, as the Polynomial rows would give it:
graph row v has norm 1 + sum_j c_vj, so g = m + 1; the norms of C, X and
their transposes are the largest row and column sums of |coefficient|
over their cells (``_cell_norms``), and each Cartan row's norm is the row
sum over the cells of X + X^T - E (``_gamma_norms``).  The
Euler identities x^T C^-1 y = -(Phi y)^T C^-1 x = (Phi x)^T C^-1 (Phi y)
hold for all x, y exactly when C^-1 equals both, so they are checked
exactly, as two matrix identities.  The shared packed rows, and the norms
of the bound, read only the nonzero entries.

``coxeter_matrix_graph``, ``coxeter_matrix_bound`` and the forms stay on
Polynomial rows, where packing the inputs and unpacking the result would
cost more than the product.  ``coxeter_matrix_bound`` forms
Phi^T = -X^T C, X = C^-1, one row at a time: row j is the combination of
C's rows that column j of -X names, read off the cells of X, and Phi is
its transpose.  For X = E - qB without relations every coefficient is a
monomial, -1 or b q, so row j is row j of C negated plus one shifted add
of row k of C per vertex k with arrows k -> j.  Without relations
A = X + X^T = 2E - q(B + B^T), so the Cartan reflection row at v, -A_vj
and 1 - A_vv = -1, is the graph row at v: the reflection product
multiplies graph rows and forms no A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import ceil, prod
from operator import add, mul

from . import algebra
from .algebra import DEFAULT_DEGREE_CAP, DEFAULT_MAX_DIM
from .errors import (DegreeCapExceeded, LoopAtVertex, NotAcyclic,
                     NotUnimodular)
from .polyring import (MINUS_ONE, ZERO, Polynomial, PolyMatrix, pack,
                       packed_combination, poly_vector, row_combination, slot_width)
from .quiverdsl import Arrow, BoundQuiver, Quiver

_HALF_Q = Polynomial([0, Fraction(1, 2)])
_TWO = Polynomial([2])
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

def _reflection(row: tuple[Polynomial, ...], i: int) -> PolyMatrix:
    rows = list(PolyMatrix.identity(len(row)).rows)
    rows[i] = row
    return PolyMatrix._make(rows)


def _reflection_product(numbering, row_of, rows, combine=row_combination):
    """Rows of the product of the reflections at the vertices of the
    numbering, first vertex leftmost, times the matrix with the given rows;
    row_of(v) is row v of the reflection at v.  combine is the row kernel:
    row_combination for Polynomial rows, packed_combination for packed ones.

    A reflection s differs from E only in row v, so s * M is M with row v
    replaced by the combination of M's rows that row v of s names.  The
    product is built from the right end that way, one row update of
    O(n * nnz) ring operations per reflection.  Rows at vertices outside
    the numbering are the given row objects themselves.
    """
    rows = list(rows)
    for v in reversed(numbering):
        rows[v] = combine(row_of(v), rows)
    return rows


def _pack_cells(cells, n: int, w: int) -> list[list[int]]:
    # packed rows of the n x n matrix with these cells, one pack per cell
    rows = [[0] * n for _ in range(n)]
    for (i, j), cs in cells.items():
        rows[i][j] = pack(cs, w)
    return rows


def _cell_norms(cells, n: int) -> tuple[int, int]:
    """norm(M) and norm(M^T) for the n x n matrix M with these cells, as
    ``norm`` gives them: the largest row and column sums of |coefficient|
    (M is C or C^-1, so no row or column is 0)."""
    rows, columns = [0] * n, [0] * n
    for (i, j), cs in cells.items():
        total = sum(map(abs, cs))
        rows[i] += total
        columns[j] += total
    return ceil(max(rows)), ceil(max(columns))


def _packed_graph_rows(counts: list[list[int]], w: int) -> list[list[int]]:
    # packed row v of the graph reflection at v, from the edge counts of a
    # quiver without loops: -1 at v and c_vj q elsewhere
    rows = [[c << w for c in row] for row in counts]
    for v, row in enumerate(rows):
        row[v] = -1
    return rows


def _packed_gram2(counts: list[list[int]], w: int) -> list[list[int]]:
    # packed rows of 2G = 2E - q * counts, for a quiver without loops
    rows = [[-c << w for c in row] for row in counts]
    for v, row in enumerate(rows):
        row[v] = 2
    return rows


def _graph_row(quiver: Quiver, counts: list[list[int]], i: int) -> tuple[Polynomial, ...]:
    # row i of the graph reflection at i, from counts = quiver.edge_counts(),
    # whose diagonal counts each loop twice
    if counts[i][i]:
        raise LoopAtVertex(quiver.vertices[i])
    return tuple(MINUS_ONE if j == i else Polynomial._make([0, c]) if c else ZERO
                 for j, c in enumerate(counts[i]))


def graph_reflection(quiver: Quiver, i: int) -> PolyMatrix:
    """Reflection at vertex i from edge counts; differs from the identity
    only in row i.  Raises LoopAtVertex if i carries a loop."""
    if not 0 <= i < quiver.n:
        raise ValueError(f"vertex index {i} out of range")
    return _reflection(_graph_row(quiver, quiver.edge_counts(), i), i)


def coxeter_matrix_graph(quiver: Quiver, numbering: tuple[int, ...] | None = None) -> PolyMatrix:
    """Product of graph reflections along an admissible numbering, first
    sink leftmost.  Independent of which admissible numbering is chosen."""
    if numbering is None:
        numbering = admissible_numbering(quiver)
    counts = quiver.edge_counts()
    return PolyMatrix._make(_reflection_product(
        numbering, lambda v: _graph_row(quiver, counts, v), PolyMatrix.identity(quiver.n).rows))


def _gram2(counts: list[list[int]]) -> list[list[Polynomial]]:
    # rows of 2G = 2E - q * counts, for counts = quiver.edge_counts(): twice
    # the Gram matrix, with int coefficients
    return [[Polynomial._make([2 * (i == j), -c]) if c else _TWO if i == j else ZERO
             for j, c in enumerate(row)]
            for i, row in enumerate(counts)]


def gram_matrix(quiver: Quiver) -> PolyMatrix:
    """Matrix G of the graph bilinear form, so that (x, y) = x^T G y.
    Half-integer coefficients are exact rationals."""
    return PolyMatrix._make([[Polynomial._make([Fraction(c, 2) for c in e.coeffs]) for e in row]
                             for row in _gram2(quiver.edge_counts())])


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


def _gamma_row(form_row, i: int) -> list:
    # row i of the Cartan reflection at i, from row i of A: Polynomial
    # entries, or packed ones for the verifier
    row = [-a if a else a for a in form_row]
    row[i] = 1 - form_row[i]
    return row


def gamma_reflection(cartan: PolyMatrix, i: int,
                     form_matrix: PolyMatrix | None = None) -> PolyMatrix:
    """Cartan reflection at vertex i: e_j maps to e_j - A[i][j] e_i, so the
    matrix differs from the identity only in row i."""
    if form_matrix is None:
        form_matrix = symmetric_form_matrix(cartan)
    if not 0 <= i < form_matrix.n:
        raise ValueError(f"vertex index {i} out of range")
    return _reflection(_gamma_row(form_matrix.rows[i], i), i)


def coxeter_matrix_bound(bq: BoundQuiver, method: str = "cartan",
                         degree_cap: int = DEFAULT_DEGREE_CAP,
                         cartan: PolyMatrix | None = None,
                         max_dim: int = DEFAULT_MAX_DIM) -> PolyMatrix:
    """Coxeter matrix of a bound quiver.

    method="cartan" computes -C^T C^-1 and works for any quiver whose
    graded dimensions terminate with unimodular Cartan matrix.
    method="reflections" multiplies Cartan reflections along an admissible
    numbering and additionally needs the quiver to be acyclic.  The two
    agree on acyclic input.  ``cartan``, if given, is bq's own Cartan
    matrix; C^-1 comes from ``algebra.inverse_cells`` for "cartan" and
    from ``algebra.cartan_inverse`` for "reflections".  Without relations
    C^-1 = E - qB, so A = 2E - q(B + B^T) and the Cartan reflection rows
    are the graph rows: the reflection product multiplies those and needs
    no C.
    """
    if method not in ("reflections", "cartan"):
        raise ValueError(f"method must be 'reflections' or 'cartan', got {method!r}")
    if cartan is None and (method == "cartan" or bq.relations):
        cartan = algebra.cartan_matrix(bq, degree_cap, max_dim)
    if method == "cartan":
        # row j of Phi^T = -X^T C, X = C^-1, is the combination of C's rows
        # that column j of -X, row j of -X^T, names (see the module docstring)
        inverse = algebra.inverse_cells(bq, cartan)
        minus_xt = algebra.cell_matrix(cartan.n, {(j, i): [-c for c in cs]
                                                  for (i, j), cs in inverse.items()})
        return PolyMatrix._make([row_combination(row, cartan.rows)
                                 for row in minus_xt.rows]).transpose()
    if not bq.relations:
        # errors come as with C first: the limits raise what C would, and a
        # cyclic quiver never gets past them
        if cartan is None:
            algebra.check_path_limits(bq.quiver, degree_cap, max_dim)
        return coxeter_matrix_graph(bq.quiver)
    # with relations the numbering (NotAcyclic) comes before C^-1 (NotUnimodular)
    numbering = admissible_numbering(bq.quiver)
    form = symmetric_form_matrix(cartan, algebra.cartan_inverse(bq, cartan))
    return PolyMatrix._make(_reflection_product(
        numbering, lambda v: _gamma_row(form.rows[v], v), PolyMatrix.identity(form.n).rows))


def euler_form(cartan: PolyMatrix | None, x, y,
               inverse: PolyMatrix | None = None) -> Polynomial:
    """Bilinear Euler form x^T C^-1 y; vector entries may be polynomials."""
    if inverse is None:
        inverse = cartan.inverse_unimodular()
    xv, yv = poly_vector(x), poly_vector(y)
    if len(xv) != inverse.n or len(yv) != inverse.n:
        raise ValueError(f"vectors must have length {inverse.n}")
    # x^T C^-1 is one combination of C^-1's rows, and its dot product with
    # y is another
    xm = row_combination(xv, inverse.rows)
    return row_combination(yv, [(e,) for e in xm])[0]


def symmetric_euler_form(cartan: PolyMatrix | None, x, y,
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


# Reflection identities decided on packed rows, by the closed forms of the
# module docstring

def _unit(row, v: int) -> bool:
    """row == e_v, that is, u_v = 0."""
    return row[v] == 1 and not any(row[:v]) and not any(row[v + 1:])


def _involution_holds(rows, i: int) -> bool:
    """s_i s_i == E."""
    return rows[i][i] == -1 or _unit(rows[i], i)


def _commutation_holds(rows, i: int, j: int) -> bool:
    """s_i s_j == s_j s_i, for i != j."""
    return ((not rows[i][j] or _unit(rows[j], j))
            and (not rows[j][i] or _unit(rows[i], i)))


def _braid_holds(rows, i: int, j: int, factor: int) -> bool:
    """s_i s_j s_i - s_j s_i s_j == f * (s_i - s_j), for i != j and the
    packed factor f."""
    cross = rows[i][j] * rows[j][i] - factor
    return all(not (rows[v][v] + cross) or _unit(rows[v], v) for v in (i, j))


def _form_invariant(gram_row, v: int, row) -> bool:
    """s^T G s == G for the reflection s at v whose row v is row, G symmetric
    with row v of 2G gram_row: 2 gram_row + (2G)_vv u_v == 0, one row
    combination that reads the entries where gram_row or u_v is nonzero."""
    if _unit(row, v):
        return True
    u = list(row)
    u[v] -= 1
    return not any(packed_combination((2, gram_row[v]), (gram_row, u)))


# Packed words: ``eye`` is E's packed rows and refl_rows[v] is packed row v
# of the reflection at v.  A word at the vertices V shares eye's rows outside V.

def _word(eye, refl_rows, *vertices) -> list[list[int]]:
    # the rightmost reflection times E is that reflection: E with one row replaced
    *rest, last = vertices
    rows = list(eye)
    rows[last] = refl_rows[last]
    return _reflection_product(rest, refl_rows.__getitem__, rows, packed_combination)


def _congruent(rows, v: int, row) -> list[list[int]]:
    """s M s^T for the reflection s at v whose row v is row: s M changes
    row v only, and times s^T each row's entry v becomes its dot product
    with row."""
    sm = list(rows)
    sm[v] = packed_combination(row, rows)
    return [r[:v] + [sum(map(mul, r, row))] + r[v + 1:] for r in sm]


def _two_sided(eye, rows, v: int, row) -> list[list[int]]:
    """s M s for the reflection s at v whose row v is row: s M changes row
    v only, and times s only the rows with a nonzero entry v change."""
    s = list(eye)
    s[v] = row
    sm = list(rows)
    sm[v] = packed_combination(row, rows)
    return [packed_combination(r, s) if r[v] else r for r in sm]


def _gamma_norms(cells, n: int) -> list[int]:
    """The norm of each Cartan reflection row, -A_ij and 1 - A_ii for
    A = X + X^T and X with these cells: the sum of |coefficient| over row i
    of A - E, where A_ij is summed exactly from X_ij and X_ji when both are
    nonzero."""
    norms = [0 if (i, i) in cells else 1 for i in range(n)]   # 1 - A_ii = 1
    for (i, j), cs in cells.items():
        if i == j:
            cs = [2 * c for c in cs]
            cs[0] -= 1
        elif (j, i) in cells:
            if i > j:
                continue
            cs = [a + b for a, b in zip_longest(cs, cells[j, i], fillvalue=0)]
        total = sum(map(abs, cs))
        norms[i] += total
        if i != j:
            norms[j] += total
    return list(map(ceil, norms))


def _euler_form_invariant(inverse_p, phi_rows, phi_columns) -> bool:
    """X == -X^T Phi == Phi^T X Phi for X = C^-1, on packed rows.  Row i of
    X^T M is the combination of M's rows that column i of X names, and row
    i of Phi^T is column i of Phi."""
    return all(row == packed_combination([-e for e in column], phi_rows)
               and row == packed_combination(packed_combination(phi_column, inverse_p),
                                             phi_rows)
               for row, column, phi_column in zip(inverse_p, zip(*inverse_p), phi_columns))


def verify_identities(bq: BoundQuiver, degree_cap: int = DEFAULT_DEGREE_CAP,
                      max_dim: int = DEFAULT_MAX_DIM) -> CheckReport:
    """Verify every applicable identity as an exact polynomial-matrix
    equation; inapplicable ones are reported as skipped with the reason."""
    quiver = bq.quiver
    n = quiver.n
    counts = quiver.edge_counts()
    acyclic = quiver.is_acyclic()
    # why[h] is "" when hypothesis h holds and the skip reason when it does not
    why = {"acyclic": "" if acyclic else "requires an acyclic quiver",
           "relation_free": "requires a relation-free quiver" if bq.relations else ""}

    # the cells of C, from the graded dimensions, and of C^-1, shared by
    # everything below; C^-1 reads C only with relations
    try:
        dims = algebra.graded_dims(bq, degree_cap, max_dim)
        inverse = algebra.inverse_cells(bq, dims.cartan() if bq.relations else None)
        why["inverse"] = ""
    except DegreeCapExceeded as exc:
        why["inverse"] = f"graded dimensions did not terminate ({exc})"
    except NotUnimodular as exc:
        why["inverse"] = f"Cartan matrix is not unimodular ({exc})"
    # relation-free theorems compare graph products against the Cartan matrix
    sink_theorems = ("acyclic", "relation_free", "inverse")
    # per sink, with its arrows reversed (which can make paths longer):
    # graded dimensions and numbering.  Edge counts ignore arrow directions, so
    # the reversed quiver has the input's graph reflections.
    flipped = []
    why["reversed_sinks"] = ""
    try:
        for i in () if any(why[h] for h in sink_theorems) else quiver.sinks():
            f = sigma_reflect(quiver, i)
            flipped.append((i, algebra.graded_dims(BoundQuiver(f), degree_cap, max_dim),
                            admissible_numbering(f)))
    except DegreeCapExceeded as exc:
        why["reversed_sinks"] = (f"graded dimensions with the arrows at sink "
                                 f"{quiver.vertices[i]} reversed did not terminate ({exc})")
    first = second = ()
    if acyclic:
        first, second = admissible_numbering(quiver), admissible_numbering(quiver, True)
    why["two_numberings"] = "only one admissible numbering available" if first == second else ""

    # one slot width for the call, from the bounds of the module docstring,
    # with the norms read off counts and cells
    terms = [1]
    if acyclic:
        # graph row v has norm 1 + sum_j c_vj, and 2G has norm m + 1
        norms = [1 + sum(row) for row in counts]
        m, p = max(norms), prod(norms)
        c_max = max(map(max, counts))
        # s Phi s, the braid sums and the 2G combinations
        terms += [m * m * p, m * (m + 1) + c_max * c_max + 1, (m + 1) * (m + 3)]
    if not why["inverse"]:
        norm_c, norm_ct = _cell_norms(dims.cells, n)
        nu_c = max(norm_c, norm_ct)
        nu_inverse = max(_cell_norms(inverse, n))
        gamma_norms = _gamma_norms(inverse, n)
        phi = nu_c * nu_inverse
        # the Cartan words, the entries of A, and the products with Phi
        terms += [prod(gamma_norms), max(gamma_norms) + 1, nu_c * phi, nu_inverse * phi * phi]
    for _, flipped_dims, _ in flipped:
        terms += [m * (m + 1) * norm_c, _cell_norms(flipped_dims.cells, n)[0]]
    w = slot_width(max(terms))
    eye = [[0] * n for _ in range(n)]
    for i in range(n):
        eye[i][i] = 1

    if acyclic:
        graph_p = _packed_graph_rows(counts, w)
        gram2_p = _packed_gram2(counts, w)
        phi_graph = _word(eye, graph_p, *first)
    involutive = commuting = ()
    if not why["inverse"]:
        cartan_p = _pack_cells(dims.cells, n, w)
        inverse_p = _pack_cells(inverse, n, w)
        # column j of Phi = -C^T C^-1 is the combination of C's rows that
        # column j of -C^-1 names: the packed kernel reads only the nonzero
        # entries, and C^-1 is the sparser (E - q * arrow counts when there
        # are no relations)
        phi_columns = [packed_combination([-e for e in column], cartan_p)
                       for column in zip(*inverse_p)]
        phi_cartan = [list(row) for row in zip(*phi_columns)]
        xc = [packed_combination(row, cartan_p) for row in inverse_p]
        form_p = [list(map(add, row, column)) for row, column in zip(inverse_p, zip(*inverse_p))]
        gamma_p = [_gamma_row(row, i) for i, row in enumerate(form_p)]
        gamma_first = _word(eye, gamma_p, *first) if acyclic else None
        involutive = [i for i in range(n) if form_p[i][i] == 2]
        commuting = [(i, j) for i, row in enumerate(form_p) for j in range(i + 1, n)
                     if not row[j]]
    why["involutive"] = "" if involutive else "no vertex with diagonal form entry 2"
    why["commuting"] = "" if commuting else "no vertex pair with vanishing form entry"

    # (identity, hypotheses, check[, failure reason]) in report order; a
    # check runs only when every hypothesis holds
    table = (
        ("reflection_involution", ("acyclic",),
         lambda: all(_involution_holds(graph_p, i) for i in range(n))),
        ("reflection_commutation", ("acyclic",),
         lambda: all(_commutation_holds(graph_p, i, j)
                     for i in range(n) for j in range(i + 1, n) if counts[i][j] == 0)),
        # factor m_ij(q) - 1, with m_ij(q) = c_ij c_ji q^2, packed
        ("reflection_braid", ("acyclic",),
         lambda: all(_braid_holds(graph_p, i, j, (counts[i][j] * counts[j][i] << 2 * w) - 1)
                     for i in range(n) for j in range(i + 1, n) if counts[i][j])),
        ("form_invariance", ("acyclic",),
         lambda: all(_form_invariant(gram2_p[i], i, graph_p[i]) for i in range(n))),
        ("coxeter_numbering_independence", ("acyclic", "two_numberings"),
         lambda: _word(eye, graph_p, *second) == phi_graph),
        ("coxeter_vs_cartan", sink_theorems, lambda: phi_graph == phi_cartan),
        ("sink_reflection_cartan", sink_theorems + ("reversed_sinks",),
         lambda: all(_congruent(cartan_p, i, graph_p[i]) == _pack_cells(t.cells, n, w)
                     for i, t, _ in flipped)),
        ("sink_reflection_coxeter", sink_theorems + ("reversed_sinks",),
         lambda: all(_two_sided(eye, phi_graph, i, graph_p[i]) ==
                     _word(eye, graph_p, *numbering)
                     for i, _, numbering in flipped)),
        ("gamma_involution", ("inverse", "involutive"),
         lambda: all(_involution_holds(gamma_p, i) for i in involutive)),
        ("gamma_commutation", ("inverse", "commuting"),
         lambda: all(_commutation_holds(gamma_p, i, j) for i, j in commuting)),
        ("gamma_coxeter_vs_cartan", ("inverse", "acyclic"), lambda: gamma_first == phi_cartan),
        ("gamma_numbering_independence", ("inverse", "acyclic", "two_numberings"),
         lambda: _word(eye, gamma_p, *second) == gamma_first),
        # C's rows and columns are the projective and injective vectors
        # (dim_vector): Phi C == -C^T is C^T (X C) == C^T, whose row i is the
        # combination of X C's rows that column i of C names
        ("projective_injective_duality", ("inverse",),
         lambda: all(packed_combination(column, xc) == list(column)
                     for column in zip(*cartan_p)),
         "projective vector differs from -Phi * injective vector"),
        ("euler_form_coxeter", ("inverse",),
         lambda: _euler_form_invariant(inverse_p, phi_cartan, phi_columns)),
    )

    def outcome(hypotheses, check, why_fail="") -> tuple[str, str]:
        skip = next(filter(None, (why[h] for h in hypotheses)), "")
        if skip:
            return "skipped", skip
        return ("pass", "") if check() else ("fail", why_fail)

    return CheckReport(tuple(CheckResult(identity, *outcome(*entry))
                             for identity, *entry in table))
