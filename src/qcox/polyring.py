"""Exact arithmetic: rationals, univariate polynomials in q, square
polynomial matrices.

Coefficients are exact end to end.  A coefficient is a Python ``int`` or a
``fractions.Fraction``; the two mix freely and compare equal when they
represent the same rational, so no separate rational class is needed.
Polynomials are immutable coefficient tuples in ascending degree with no
trailing zeros (the zero polynomial is the empty tuple).  Matrices are
immutable row tuples of polynomials.

Products are row-oriented: row i of A*B is the sum of a_ik * row_k(B)
(``row_combination``).  The row kernels, this one and the packed
``packed_combination`` below, find the nonzero coefficients and the
nonzero entries of the rows they name with a C-level scan (``compress``)
and touch nothing else, so a sparse inverse and the near-identity
reflection rows cost what their nonzero entries cost.  A monomial
coefficient a*q^s (every nonzero entry of E - qB and of the reflection
rows is one) updates each entry it touches by that entry's coefficient
list shifted by s and scaled by a (added for a = 1, subtracted for
a = -1), with list slice and ``map`` operations that run in C; only a
coefficient with two or more terms multiplies term by term.  A dot product is one combination of
one-entry rows.
The determinant and the unimodular inverse come from one Gauss-Jordan
elimination over the Euclidean domain Q[q], which never forms a
rational-function field.  Each column's pivot is a live row of least
degree; while it is not constant, polynomial division by it lowers the
degree of the other live rows, so a non-constant pivot remains only when
it is alone in its column, and then det is no unit.  The determinant is
the sign of the row swaps times the pivots.  A pivot of 1 or -1 is
applied without a division, so when every pivot is one of them, int input
gives an inverse with int coefficients, which cost far less than
``Fraction`` ones.  Rational row reduction (``echelon``, and the rank
built on it) is exact sparse Gauss-Jordan elimination on dict rows.

A polynomial p over Z[q] packs to the integer p(2^w) (Kronecker
substitution), read from its coefficient list (``pack``), and
``packed_combination`` is the row kernel on packed entries.  Evaluation
at 2^w is a ring map, so packed sums and products need no bound, but
comparing them does.  If every coefficient of a and b is at most B in
absolute value and w = slot_width(B), then 2B < 2^(w-1), so a(2^w) ==
b(2^w) only when a == b (a nonzero polynomial packs to 0 only with a
coefficient of absolute value at least 2^w), and a's coefficients are the
balanced base-2^w digits of a(2^w).  A packed value that merely looks
small proves nothing: B must be proved from the inputs, as a product of
``norm`` values is.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, count, repeat
from math import ceil
from operator import add, attrgetter, mul, neg, sub
from typing import Iterable, Mapping, Sequence

from .errors import NotUnimodular

Rational = Fraction

_COEFF_TYPES = (int, Fraction)


def parse_rational(text: str) -> Fraction:
    """Parse ``"a"`` or ``"a/b"`` into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value) -> str:
    """Render a rational as ``"a"`` or ``"a/b"`` in lowest terms."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Polynomial:
    """Dense univariate polynomial in q with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, _COEFF_TYPES) or isinstance(c, bool):
                raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, cs: list) -> "Polynomial":
        # internal: cs already int/Fraction, may carry trailing zeros; compress
        # finds the last nonzero entry without a Python-level loop
        if cs and not cs[-1]:
            del cs[len(cs) - next(compress(count(), reversed(cs)), len(cs)):]
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    @classmethod
    def coerce(cls, value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, _COEFF_TYPES) and not isinstance(value, bool):
            return cls._make([value])
        raise TypeError(f"cannot interpret {type(value).__name__} as a polynomial")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, _COEFF_TYPES):
            if not other:
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        # a constant hashes like the int or Fraction it equals
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0]) if self.coeffs else hash(0)
        return hash(self.coeffs)

    def __add__(self, other):
        try:
            other = Polynomial.coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] = cs[i] + c
        return Polynomial._make(cs)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make([-c for c in self.coeffs])

    def __sub__(self, other):
        try:
            other = Polynomial.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        try:
            other = Polynomial.coerce(other)
        except TypeError:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        try:
            other = Polynomial.coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        cs = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    cs[i + j] += ca * cb
        return Polynomial._make(cs)

    __rmul__ = __mul__

    def evaluate(self, q0) -> Fraction:
        """Evaluate at an exact rational point (Horner)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def to_coeff_strings(self) -> list[str]:
        """Serialize as ascending coefficient strings, e.g. 1+2q^2 -> ["1","0","2"]."""
        # str writes an int or a Fraction as format_rational does
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for deg, c in enumerate(self.coeffs):
            if not c:
                continue
            neg = c < 0
            mag = -c if neg else c
            mag_s = str(mag) if isinstance(mag, int) else format_rational(mag)
            if deg == 0:
                body = mag_s
            else:
                var = "q" if deg == 1 else f"q^{deg}"
                if mag == 1:
                    body = var
                elif mag.denominator == 1:
                    body = f"{mag_s}{var}"
                else:
                    body = f"({mag_s}){var}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"-{body}" if neg else f"+{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_COEFFS = attrgetter("coeffs")
_ZERO = Polynomial._make([])
_ONE = Polynomial._make([1])

ZERO = _ZERO
ONE = _ONE
MINUS_ONE = Polynomial._make([-1])
Q = Polynomial._make([0, 1])


def poly_vector(values: Iterable) -> tuple[Polynomial, ...]:
    """Coerce a sequence of ints/Fractions/Polynomials to a polynomial vector."""
    return tuple(Polynomial.coerce(v) for v in values)


def row_combination(coeffs: Sequence[Polynomial],
                    rows: Sequence[Sequence[Polynomial]]) -> tuple[Polynomial, ...]:
    """The row sum of coeffs[k] * rows[k] over k; only the nonzero
    coefficients, and the nonzero entries of the rows they name, are read.
    A monomial coefficient a*q^s adds a shifted, scaled copy of each entry
    by list operations that run in C; a general one multiplies term by term."""
    acc: list = [None] * len(rows[0])
    for k in compress(count(), map(_COEFFS, coeffs)):
        ac = coeffs[k].coeffs
        nonzero = [(i, ac[i]) for i in compress(count(), ac)]
        row = rows[k]
        if len(nonzero) == 1:
            # a * q^s: entry j gains bc shifted by s, added (a == 1), subtracted
            # (a == -1) or scaled first
            (s, a), = nonzero
            op = sub if a == -1 else add
            for j in compress(count(), map(_COEFFS, row)):
                bc = row[j].coeffs
                if a != 1 and a != -1:
                    bc = list(map(mul, repeat(a), bc))
                cur = acc[j]
                if cur is None:
                    cur = acc[j] = [0] * s
                    cur += bc if op is add else map(neg, bc)
                    continue
                end = s + len(bc)
                if len(cur) < end:
                    cur += repeat(0, end - len(cur))
                cur[s:end] = map(op, cur[s:end], bc)
            continue
        for j in compress(count(), map(_COEFFS, row)):
            bc = row[j].coeffs
            need = len(ac) + len(bc) - 1
            cur = acc[j]
            if cur is None:
                cur = acc[j] = [0] * need
            elif len(cur) < need:
                cur.extend([0] * (need - len(cur)))
            for i, ca in nonzero:
                for m, cb in enumerate(bc, i):
                    if cb:
                        cur[m] += ca * cb
    return tuple(_ZERO if cs is None else Polynomial._make(cs) for cs in acc)


def norm(rows: Iterable[Iterable[Polynomial]]) -> int:
    """The largest sum of |coefficient| over one row's entries, at least 1.

    It bounds every coefficient, and norm(A*B) <= norm(A) * norm(B), as
    |a*b|_1 <= |a|_1 |b|_1 for the sums |.|_1 of |coefficient|."""
    return max(1, ceil(max(sum(map(abs, chain.from_iterable(map(_COEFFS, row))))
                           for row in rows)))


def slot_width(bound: int) -> int:
    """Slot width w for packed values whose coefficients are at most bound
    in absolute value: bound.bit_length() + 2, so that 2 * bound < 2^(w-1)."""
    return bound.bit_length() + 2


def pack(cs: Sequence, w: int) -> int:
    """p(2^w) for the polynomial p with the ascending coefficients cs,
    which are integers (ints or Fractions); a Polynomial's are its
    ``coeffs``, and a graded-dimension cell is one as it stands."""
    v = 0
    for i in compress(count(), cs):
        if cs[i].denominator != 1:
            raise ValueError(f"cannot pack {Polynomial(cs)}: a coefficient is not an integer")
        v += cs[i].numerator << (w * i)
    return v


def packed_combination(coeffs: Sequence[int], rows: Sequence[list[int]]) -> list[int]:
    """The row sum of coeffs[k] * rows[k] over k, on packed entries; only
    the nonzero coefficients, and the nonzero entries of the rows they name,
    are read."""
    acc = [0] * len(rows[0])
    for k in compress(count(), coeffs):
        a, row = coeffs[k], rows[k]
        for j in compress(count(), row):
            acc[j] += a * row[j]
    return acc


class PolyMatrix:
    """Immutable square matrix over the polynomial ring.

    Vectors are columns: the matrix of a linear map holds the image of the
    j-th basis vector in column j.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(Polynomial.coerce(e) for e in row) for row in rows)
        n = len(rs)
        if n == 0:
            raise ValueError("matrix order must be positive")
        for row in rs:
            if len(row) != n:
                raise ValueError("matrix must be square")
        self.n = n
        self.rows = rs

    @classmethod
    def _make(cls, rows: list[list[Polynomial]]) -> "PolyMatrix":
        m = object.__new__(cls)
        m.n = len(rows)
        m.rows = tuple(tuple(r) for r in rows)
        return m

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls._make([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Polynomial:
        return self.rows[i][j]

    def column(self, j: int) -> tuple[Polynomial, ...]:
        return tuple(row[j] for row in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_order(other)
        return PolyMatrix._make([[a + b if b.coeffs else a for a, b in zip(ra, rb)]
                                 for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_order(other)
        return PolyMatrix._make([[a - b if b.coeffs else a for a, b in zip(ra, rb)]
                                 for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix._make([[-a if a.coeffs else a for a in row] for row in self.rows])

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        self._check_order(other)
        return PolyMatrix._make([row_combination(row, other.rows) for row in self.rows])

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix._make([list(col) for col in zip(*self.rows)])

    def det(self) -> Polynomial:
        """Determinant, by the elimination that also inverts (``_eliminate``)."""
        return self._eliminate(False)[0]

    def adjugate(self) -> "PolyMatrix":
        """Transpose of the cofactor matrix; satisfies M*adj(M) = det(M)*E."""
        n = self.n
        if n == 1:
            return PolyMatrix.identity(1)
        out = [[_ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = PolyMatrix._make([[self.rows[r][c] for c in range(n) if c != i]
                                          for r in range(n) if r != j])
                cof = minor.det()
                out[i][j] = -cof if (i + j) % 2 else cof
        return PolyMatrix._make(out)

    def inverse_unimodular(self) -> "PolyMatrix":
        """Inverse of a matrix with determinant +1 or -1.

        The result is the adjugate scaled by the determinant, so entries stay
        in the polynomial ring.  One Gauss-Jordan elimination over Q[q]
        (``_eliminate``) gives the inverse and the determinant together.

        Raises NotUnimodular when det is not +1 or -1.
        """
        det, inv = self._eliminate(True)
        if inv is None or (det != 1 and det != -1):
            raise NotUnimodular(det)
        return inv

    def _eliminate(self, invert: bool) -> "tuple[Polynomial, PolyMatrix | None]":
        # Gauss-Jordan on [M | E], or on M alone for det, over the Euclidean
        # domain Q[q]; returns (det, inverse or None).  A column's pivot is
        # the live row (col..n-1, nonzero entry) of least degree, the first
        # on ties.  While it is not constant, subtracting its quotient
        # multiples from the other live rows leaves them of lower degree, so
        # the pivot degree falls every round.  Row additions keep det, a
        # swap negates it and scaling a row by 1/c divides it by c, so det is
        # the sign of the swaps times the pivots as chosen.  A non-constant
        # pivot alone in its column makes det a non-unit: inverting stops
        # and only the rows below are cleared from then on.
        n = self.n
        m = [list(row) + ([_ONE if j == i else _ZERO for j in range(n)] if invert else [])
             for i, row in enumerate(self.rows)]
        det = _ONE
        for col in range(n):
            while True:
                live = [r for r in range(col, n) if m[r][col].coeffs]
                if not live:
                    return _ZERO, None
                piv = min(live, key=lambda r: len(m[r][col].coeffs))
                pivot = m[piv][col]
                if len(pivot.coeffs) == 1 or len(live) == 1:
                    break
                prow = [(j, p) for j, p in enumerate(m[piv]) if p.coeffs]
                for r in live:
                    if r != piv:
                        _submul(m[r], _quotient(m[r][col], pivot), prow)
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = -det
            det = det * pivot
            if len(pivot.coeffs) > 1:
                invert = False
                continue
            c = pivot.coeffs[0]
            if c == -1:
                # an int pivot row keeps every later row update in ints
                m[col] = [-e for e in m[col]]
            elif c != 1:
                inv_c = Fraction(1, 1) / c
                m[col] = [inv_c * e for e in m[col]]
            prow = [(j, p) for j, p in enumerate(m[col]) if p.coeffs]
            for r in range(n) if invert else range(col + 1, n):
                if r != col and m[r][col].coeffs:
                    _submul(m[r], m[r][col], prow)
        return det, PolyMatrix._make([row[n:] for row in m]) if invert else None

    def specialize(self, q0) -> list[list[Fraction]]:
        """Entrywise exact evaluation at q = q0."""
        q0 = Fraction(q0)
        return [[e.evaluate(q0) for e in row] for row in self.rows]

    def __str__(self) -> str:
        cells = [[str(e) for e in row] for row in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.n)) for j in range(self.n)]
        return "\n".join(
            "[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(self.n)) + " ]"
            for i in range(self.n))

    def __repr__(self) -> str:
        return f"PolyMatrix({self.n}x{self.n})"

    def _check_order(self, other: "PolyMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"matrix orders differ: {self.n} vs {other.n}")


def _submul(row: list, f: Polynomial, prow: Sequence[tuple[int, Polynomial]]) -> None:
    # row -= f * (the row whose nonzero entries prow lists), fused: each
    # updated entry gets one new coefficient list
    fc = [(i, f.coeffs[i]) for i in compress(count(), f.coeffs)]
    for j, p in prow:
        pc = p.coeffs
        cs = list(row[j].coeffs)
        cs.extend([0] * (len(f.coeffs) + len(pc) - 1 - len(cs)))
        for i, a in fc:
            for m in compress(count(), pc):
                cs[i + m] -= a * pc[m]
        row[j] = Polynomial._make(cs)


def _quotient(a: Polynomial, b: Polynomial) -> Polynomial:
    """Quotient of the division of a by b with remainder; the remainder
    is dropped."""
    d = b.coeffs
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    dn = len(d)
    lead = d[-1]
    quot = [0] * max(len(rem) - dn + 1, 0)
    for k in range(len(rem) - dn, -1, -1):
        top = rem[k + dn - 1]
        if not top:
            continue
        # 1/lead is lead itself for a lead of 1 or -1, which keeps ints
        f = quot[k] = top * lead if lead in (1, -1) else Fraction(top) / lead
        for i, c in enumerate(d):
            rem[k + i] -= f * c
    return Polynomial._make(quot)


def echelon(rows: Iterable[Mapping[int, object]]) -> dict[int, dict[int, object]]:
    """Reduced row echelon form of sparse rational rows.

    Each row maps a column index to its int or Fraction coefficient.  The
    result maps each pivot column to its row: the pivot is the row's
    smallest column, its entry is 1, and no other pivot column occurs in
    the row.  The number of pivots is the rank.  Every step is exact.
    """
    pivots: dict[int, dict[int, object]] = {}
    for given in rows:
        row = {c: v for c, v in given.items() if v}
        for col in [c for c in row if c in pivots]:
            f = row.pop(col)
            for c, v in pivots[col].items():
                if c != col:
                    _axpy(row, c, -f * v)
        if not row:
            continue
        lead = min(row)
        scale = row[lead]
        if scale == -1:
            row = {c: -v for c, v in row.items()}
        elif scale != 1:
            inv = 1 / Fraction(scale)
            row = {c: v * inv for c, v in row.items()}
        for other in pivots.values():
            f = other.pop(lead, 0)
            if f:
                for c, v in row.items():
                    if c != lead:
                        _axpy(other, c, -f * v)
        pivots[lead] = row
    return pivots


def _axpy(row: dict, col: int, value) -> None:
    # row[col] += value, keeping the row free of zero entries
    total = row.get(col, 0) + value
    if total:
        row[col] = total
    else:
        row.pop(col, None)


def rank_rational(rows: Sequence[Sequence]) -> int:
    """Exact rank of a rectangular rational matrix given as dense rows."""
    return len(echelon({c: x for c, x in enumerate(row)} for row in rows))
