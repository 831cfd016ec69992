"""Exception types shared by all qcox modules.

Every library error derives from QcoxError so the CLI can map the whole
family to a single exit code.  The ``kind`` attribute is the stable,
machine-readable error name used in CLI diagnostics.
"""

from __future__ import annotations


class QcoxError(Exception):
    """Base class for all qcox errors."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class QuiverSyntaxError(QcoxError):
    """Malformed quiver description text, with 1-based position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class ValidationError(QcoxError):
    """A structurally well-formed quiver violates a model invariant.

    ``code`` is a short tag such as ``NonHomogeneous`` or ``Disconnected``;
    ``report`` carries the full validation report when one was produced.
    """

    def __init__(self, code: str, message: str, report=None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.report = report


class NotUnimodular(QcoxError):
    """Matrix determinant is not +1 or -1, so no inverse exists over the
    integer-coefficient polynomial ring."""

    def __init__(self, det):
        super().__init__(f"determinant is {det}, not ±1")
        self.det = det


class NotAcyclic(QcoxError):
    """Operation requires a quiver without directed cycles."""


class LoopAtVertex(QcoxError):
    """Operation requires the vertex to carry no loop arrow."""

    def __init__(self, vertex: str):
        super().__init__(f"loop arrow at vertex {vertex}")
        self.vertex = vertex


class DegreeCapExceeded(QcoxError):
    """No degree with vanishing total dimension was found below the cap;
    the quotient algebra is possibly infinite-dimensional."""

    def __init__(self, cap: int):
        super().__init__(f"no vanishing degree up to cap {cap}")
        self.cap = cap


class DimensionBudgetExceeded(QcoxError):
    """The basis of one degree of the quotient algebra grows past the
    budget; computing it would take too much time and memory."""

    def __init__(self, max_dim: int, degree: int):
        super().__init__(f"degree {degree} has more than {max_dim} basis elements")
        self.max_dim = max_dim
        self.degree = degree
