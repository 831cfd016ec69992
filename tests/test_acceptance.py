"""Acceptance suite: every criterion is checked with exact polynomial
equality (zero tolerance) and prints one PASS/FAIL line.

Criteria 2-9 run over two session-scoped randomized suites (see conftest):
suite2 has 200 relation-free acyclic quivers with 3-7 vertices and arrow
multiplicity at most 2; suite4 has 100 acyclic bound quivers with
homogeneous relations of degree 2-3 whose graded dimensions terminate.
Both use fixed seeds, so every run checks identical instances.
"""

import random
from fractions import Fraction

from qcox.algebra import cartan_matrix, dim_vector, graded_dims
from qcox.coxeter import (admissible_numbering, coxeter_matrix_bound,
                          coxeter_matrix_graph, euler_form, gamma_reflection,
                          graph_reflection, gram_matrix, sigma_reflect)
from qcox.polyring import ONE, Polynomial, PolyMatrix, rank_rational
from qcox.quiverdsl import BoundQuiver, parse_quiver

from oracles import (classical_cartan_by_path_counts, frac_inverse, frac_mul,
                     frac_neg, frac_transpose, gauss_rank, is_identity,
                     is_lower_unitriangular, mul_vector, naive_graded_dims, permuted,
                     scaled)


def P(*coeffs):
    return Polynomial(coeffs)


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


# --- worked examples used by criterion 1 ------------------------------------

THREE_CYCLE = parse_quiver("""
quiver c3 {
  vertices: 1, 2, 3;
  arrows: a: 1 -> 2; d: 2 -> 1; b: 2 -> 3; g: 3 -> 2;
  relations: a*b; g*d; d*a - b*g;
}
""")

A3 = parse_quiver("""
quiver a3 {
  vertices: 1, 2, 3;
  arrows: a: 2 -> 1; b: 2 -> 3;
}
""").quiver

DOUBLE_CHAIN = parse_quiver("""
quiver dc {
  vertices: 1, 2, 3;
  arrows: a: 1 -> 2; b: 1 -> 2; d: 2 -> 3;
  relations: a*d - b*d;
}
""")

TWO_VERTEX_CYCLIC = parse_quiver("""
quiver tv {
  vertices: 1, 2;
  arrows: a: 1 -> 2; b: 1 -> 2; d: 2 -> 1;
  relations: a*d; b*d;
}
""")

q = P(0, 1)
q2 = P(0, 0, 1)


def test_criterion_1_golden_examples():
    ok = True

    # (a) 3-vertex quiver with arrows both ways and three relations
    ok &= cartan_matrix(THREE_CYCLE) == PolyMatrix(
        [[P(1, 0, 1), q, 0], [q, P(1, 0, 1), q], [0, q, P(1, 0, 1)]])

    # (b) A3 orientation: the three reflections and their product
    s1 = graph_reflection(A3, 0)
    s2 = graph_reflection(A3, 1)
    s3 = graph_reflection(A3, 2)
    ok &= s1 == PolyMatrix([[-ONE, q, 0], [0, 1, 0], [0, 0, 1]])
    ok &= s2 == PolyMatrix([[1, 0, 0], [q, -ONE, q], [0, 0, 1]])
    ok &= s3 == PolyMatrix([[1, 0, 0], [0, 1, 0], [0, q, -ONE]])
    ok &= admissible_numbering(A3) == (0, 2, 1)
    phi_a3 = PolyMatrix([[P(-1, 0, 1), -q, q2], [q, -ONE, q], [q2, -q, P(-1, 0, 1)]])
    ok &= s1 * s3 * s2 == phi_a3
    ok &= coxeter_matrix_graph(A3) == phi_a3

    # (c) two parallel arrows into a chain, one relation
    c = cartan_matrix(DOUBLE_CHAIN)
    ok &= c == PolyMatrix([[1, P(0, 2), q2], [0, 1, q], [0, 0, 1]])
    inv = c.inverse_unimodular()
    ok &= inv == PolyMatrix([[1, P(0, -2), q2], [0, 1, -q], [0, 0, 1]])
    g1 = gamma_reflection(c, 0)
    g2 = gamma_reflection(c, 1)
    g3 = gamma_reflection(c, 2)
    ok &= g1 == PolyMatrix([[-ONE, P(0, 2), -q2], [0, 1, 0], [0, 0, 1]])
    ok &= g2 == PolyMatrix([[1, 0, 0], [P(0, 2), -ONE, q], [0, 0, 1]])
    ok &= g3 == PolyMatrix([[1, 0, 0], [0, 1, 0], [-q2, q, -ONE]])
    product = g3 * g2 * g1
    expected_phi = PolyMatrix([[-ONE, P(0, 2), -q2],
                               [P(0, -2), P(-1, 0, 4), P(0, 1, 0, -2)],
                               [-q2, P(0, -1, 0, 2), P(-1, 0, 1, 0, -1)]])
    ok &= product == expected_phi
    ok &= -(c.transpose() * inv) == expected_phi
    ok &= g1 * g3 != g3 * g1

    # (d) cyclic two-vertex quiver
    c2 = cartan_matrix(TWO_VERTEX_CYCLIC)
    ok &= c2 == PolyMatrix([[1, P(0, 2)], [q, P(1, 0, 2)]])
    ok &= c2.det() == 1
    ok &= c2.inverse_unimodular() == PolyMatrix([[P(1, 0, 2), P(0, -2)], [-q, 1]])
    ok &= coxeter_matrix_bound(TWO_VERTEX_CYCLIC) == PolyMatrix(
        [[P(-1, 0, -1), q], [P(0, -1, 0, -2), P(-1, 0, 2)]])

    report(1, "golden worked examples match exactly", bool(ok))


def test_criterion_2_reflection_product_vs_cartan(suite2):
    ok = all(case.phi == -(case.cartan.transpose() * case.inverse)
             for case in suite2)
    report(2, f"graph Coxeter equals -C^T C^-1 on {len(suite2)} acyclic quivers",
           ok)


def test_criterion_3_sink_reflections(suite2):
    ok = True
    sinks_checked = 0
    for case in suite2:
        quiver = case.bq.quiver
        for i in quiver.sinks():
            sinks_checked += 1
            s = graph_reflection(quiver, i)
            flipped = sigma_reflect(quiver, i)
            flipped_c = cartan_matrix(BoundQuiver(flipped))
            flipped_phi = coxeter_matrix_graph(flipped)
            ok = ok and flipped_c == s * case.cartan * s.transpose()
            ok = ok and flipped_phi == s * case.phi * s
    report(3, f"sink reflection identities on {sinks_checked} sinks", ok)


def test_criterion_4_bound_coxeter_theorem(suite4):
    ok = all(case.phi == -(case.cartan.transpose() * case.inverse)
             for case in suite4)
    report(4, f"Cartan-reflection Coxeter equals -C^T C^-1 on {len(suite4)} bound quivers",
           ok)


def test_criterion_5_reflection_relations(suite2):
    ok = True
    for case in suite2:
        quiver = case.bq.quiver
        n = quiver.n
        counts = quiver.edge_counts()
        refl = [graph_reflection(quiver, i) for i in range(n)]
        for s in refl:
            ok = ok and is_identity(s * s)
        for i in range(n):
            for j in range(i + 1, n):
                if counts[i][j] == 0:
                    ok = ok and refl[i] * refl[j] == refl[j] * refl[i]
                else:
                    m_q = Polynomial([0, 0, counts[i][j] * counts[j][i]])
                    left = refl[i] * refl[j] * refl[i] - refl[j] * refl[i] * refl[j]
                    ok = ok and left == scaled(refl[i] - refl[j], m_q - ONE)
        gram = gram_matrix(quiver)
        for s in refl:
            ok = ok and s.transpose() * gram * s == gram
    report(5, "involution, commutation, braid and form invariance", ok)


def _bilinear_value(matrix: PolyMatrix, x: list[int], y: list[int]) -> Polynomial:
    acc: list = []
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = matrix.rows[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            w = xi * yj
            cs = row[j].coeffs
            if len(acc) < len(cs):
                acc.extend([0] * (len(cs) - len(acc)))
            for k, ck in enumerate(cs):
                if ck:
                    acc[k] += w * ck
    return Polynomial(acc)


def test_criterion_6_duality_and_euler_identities(suite2, suite4):
    rng = random.Random(606)
    ok = True
    for case in suite2 + suite4:
        n = case.cartan.n
        phi = -(case.cartan.transpose() * case.inverse)
        for i in range(n):
            projective = dim_vector(case.bq, "projective", i, cartan=case.cartan)
            injective = dim_vector(case.bq, "injective", i, cartan=case.cartan)
            image = mul_vector(phi, injective)
            ok = ok and all((a + b).is_zero() for a, b in zip(projective, image))
        swapped = -(phi.transpose() * case.inverse)        # gives -<phi y, x>
        rotated = phi.transpose() * case.inverse * phi     # gives <phi x, phi y>
        for _ in range(50):
            x = [rng.randint(-5, 5) for _ in range(n)]
            y = [rng.randint(-5, 5) for _ in range(n)]
            direct = _bilinear_value(case.inverse, x, y)
            ok = ok and direct == _bilinear_value(swapped, y, x)
            ok = ok and direct == _bilinear_value(rotated, x, y)
    pairs = 50 * (len(suite2) + len(suite4))
    report(6, f"projective/injective duality and Euler identities on {pairs} vector pairs",
           ok)


def test_criterion_6_sampled_forms_match_euler_form(suite4):
    # spot-check that the fast bilinear evaluation above agrees with the
    # public euler_form on a slice of the suite
    rng = random.Random(607)
    for case in suite4[:10]:
        n = case.cartan.n
        x = [rng.randint(-5, 5) for _ in range(n)]
        y = [rng.randint(-5, 5) for _ in range(n)]
        assert _bilinear_value(case.inverse, x, y) == \
            euler_form(case.cartan, x, y, case.inverse)


def test_criterion_7_oracle_equivalence(suite4):
    ok = True
    small = [case for case in suite4
             if case.bq.quiver.n <= 5 and len(case.bq.quiver.arrows) <= 12]
    for case in small:
        table = graded_dims(case.bq)
        oracle_dims, oracle_stop = naive_graded_dims(case.bq)
        ok = ok and dict(table.dims) == oracle_dims and table.max_degree == oracle_stop
    rng = random.Random(707)
    rank_checked = 0
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
             for _ in range(rows)]
        ok = ok and rank_rational(m) == gauss_rank(m)
        rank_checked += 1
    report(7, f"graded dims vs naive oracle on {len(small)} quivers; "
              f"rank vs elimination oracle on {rank_checked} matrices", ok)


def test_criterion_8_specialization_at_one(suite2):
    ok = True
    for case in suite2:
        c1 = case.cartan.specialize(1)
        ok = ok and c1 == classical_cartan_by_path_counts(case.bq.quiver)
        classical_phi = frac_neg(frac_mul(frac_transpose(c1), frac_inverse(c1)))
        ok = ok and case.phi.specialize(1) == classical_phi
    report(8, "q=1 recovers classical Cartan and Coxeter matrices", ok)


def test_criterion_9_unitriangular_and_determinant(suite2, suite4):
    ok = True
    for case in suite2 + suite4:
        order = admissible_numbering(case.bq.quiver)
        ok = ok and is_lower_unitriangular(permuted(case.cartan, order))
        ok = ok and case.cartan.det() == 1
    ok = ok and cartan_matrix(TWO_VERTEX_CYCLIC).det() == 1
    report(9, "admissible-order unitriangularity and determinant 1", ok)
