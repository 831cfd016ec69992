"""Exact oracles for the benchmark's outputs.

Nothing here imports qcox: every expected value comes from a closed form
or a direct count over the quiver's arrows, in plain ``int`` and
``fractions.Fraction`` arithmetic.

Graded dimension tables are dicts ``{(source, target, degree): dim}`` over
vertex indices, with zero entries left out.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n) if a[i][k]) for j in range(n)]
            for i in range(n)]


def preprojective_dims(n: int) -> dict:
    """Graded dims of the preprojective algebra of A_n from its Hilbert series
    H(t) = (1 + P t^h)(1 - C t + t^2)^{-1}: C is the adjacency matrix of the
    A_n graph, P the Nakayama permutation i -> n-1-i and h = n + 1.

    The inverse expands as sum_d U_d t^d with U_0 = E, U_1 = C and
    U_d = C U_{d-1} - U_{d-2}; so H_d = U_d + P U_{d-h}.
    """
    adj = [[int(abs(i - j) == 1) for j in range(n)] for i in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    h = n + 1
    cheb = [ident, adj]
    dims = {}
    for d in range(2 * h + 1):
        while len(cheb) <= d:
            nxt = _matmul(adj, cheb[-1])
            cheb.append([[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(nxt, cheb[-2])])
        for i in range(n):
            for j in range(n):
                value = cheb[d][i][j]
                if d >= h:
                    value += cheb[d - h][n - 1 - i][j]
                if value:
                    dims[(i, j, d)] = value
    return dims


def exterior_dims(k: int) -> dict:
    """Exterior algebra on k generators at one vertex: binomial coefficients."""
    return {(0, 0, d): comb(k, d) for d in range(k + 1)}


def truncated_cycle_dims(m: int, parallel: int, length: int) -> dict:
    """kQ/J^L on an m-cycle with ``parallel`` arrows per step: the surviving
    paths are those shorter than L, parallel**d of them from i to i+d."""
    return {(i, (i + d) % m, d): parallel ** d for i in range(m) for d in range(length)}


def cartan_from_dims(n: int, dims: dict) -> list[list[list[int]]]:
    """Cartan matrix as ascending coefficient lists without trailing zeros."""
    top = max(d for _, _, d in dims) if dims else 0
    out = [[[0] * (top + 1) for _ in range(n)] for _ in range(n)]
    for (i, j, d), value in dims.items():
        out[i][j][d] += value
    for row in out:
        for cs in row:
            while cs and not cs[-1]:
                cs.pop()
    return out


def cartan_at(n: int, arrows, q0) -> list[list]:
    """C(q0) of a relation-free acyclic quiver: the sum over paths i -> j of
    q0**length, by depth-first search from every vertex.  At q0 = 1 these
    are plain path counts, the classical Cartan matrix."""
    out = [[] for _ in range(n)]
    for s, t in arrows:
        out[s].append(t)
    memo: dict[int, list] = {}

    def reach(v):
        if v not in memo:
            row = [0] * n
            row[v] = 1
            for w in out[v]:
                for j, c in enumerate(reach(w)):
                    if c:
                        row[j] += q0 * c
            memo[v] = row
        return memo[v]

    return [reach(v) for v in range(n)]


def coxeter_at(n: int, arrows, q0) -> list[list]:
    """Phi(q0) for a relation-free acyclic quiver.

    C is the inverse of E - qM (M counts arrows i -> j), so the identity
    Phi C = -C^T is equivalent to Phi = -C^T (E - qM), which costs one
    pass over the arrows instead of a matrix product.
    """
    c = cartan_at(n, arrows, q0)
    phi = [[-c[j][i] for j in range(n)] for i in range(n)]
    for s, t in arrows:
        for i in range(n):
            if c[s][i]:
                phi[i][t] += q0 * c[s][i]
    return phi


def euler_form_coeffs(x, y, arrows) -> list[Fraction]:
    """x^T C^{-1} y with C^{-1} = E - qM, as ascending coefficients."""
    return _trim([Fraction(sum(a * b for a, b in zip(x, y))),
                  -Fraction(sum(x[s] * y[t] for s, t in arrows))])


def symmetric_form_coeffs(x, y, arrows) -> list[Fraction]:
    """(x^T C^{-1} y + y^T C^{-1} x) / 2, as ascending coefficients."""
    return _trim([Fraction(sum(a * b for a, b in zip(x, y))),
                  -Fraction(sum(x[s] * y[t] + y[s] * x[t] for s, t in arrows), 2)])


def _trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def coeff_strings(cs) -> list[str]:
    """Ascending coefficients rendered as ``"a"`` or ``"a/b"``."""
    return [str(Fraction(c)) for c in cs]


def sparse_poly(coeff_strs: list[str]) -> list[tuple[int, object]]:
    """(degree, coefficient) pairs of the nonzero terms of a polynomial
    serialized as ascending coefficient strings."""
    return [(k, Fraction(s) if "/" in s else int(s))
            for k, s in enumerate(coeff_strs) if s != "0"]


def evaluate(terms: list[tuple[int, object]], powers: list) -> object:
    """Value of a ``sparse_poly`` at the point whose powers are listed."""
    return sum(c * powers[k] for k, c in terms)


def unique_sink_order(n: int, arrows) -> bool:
    """True when peeling sinks never offers a choice, i.e. the quiver has a
    single admissible numbering."""
    remaining = set(range(n))
    while remaining:
        has_out = {s for s, t in arrows if s in remaining and t in remaining}
        sinks = [v for v in remaining if v not in has_out]
        if len(sinks) != 1:
            return False
        remaining.discard(sinks[0])
    return True


IDENTITIES = ("reflection_involution", "reflection_commutation", "reflection_braid",
              "form_invariance", "coxeter_numbering_independence", "coxeter_vs_cartan",
              "sink_reflection_cartan", "sink_reflection_coxeter", "gamma_involution",
              "gamma_commutation", "gamma_coxeter_vs_cartan",
              "gamma_numbering_independence", "projective_injective_duality",
              "euler_form_coxeter")


def relation_free_statuses(n: int, arrows) -> list[str]:
    """Verifier outcome on a connected, loop-free, acyclic, relation-free
    quiver: every identity holds there, so each check passes unless its
    hypothesis is missing.  The numbering checks need two distinct sink
    orders; gamma_commutation needs a vertex pair with no arrow between
    them, because the form matrix is 2E - q(M + M^T)."""
    status = dict.fromkeys(IDENTITIES, "pass")
    if unique_sink_order(n, arrows):
        status["coxeter_numbering_independence"] = "skipped"
        status["gamma_numbering_independence"] = "skipped"
    linked = {frozenset(p) for p in arrows}
    if all(frozenset((i, j)) in linked for i in range(n) for j in range(i + 1, n)):
        status["gamma_commutation"] = "skipped"
    return [status[name] for name in IDENTITIES]
