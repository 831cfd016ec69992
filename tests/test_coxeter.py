import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcox.algebra import cartan_matrix, cell_matrix, inverse_cells
from qcox.coxeter import (CheckReport, _braid_holds, _commutation_holds, _congruent,
                          _euler_form_invariant, _form_invariant, _gram2, _involution_holds,
                          _two_sided,
                          admissible_numbering, bilinear_form_graph, coxeter_matrix_bound,
                          coxeter_matrix_graph, euler_form, gamma_reflection,
                          graph_reflection, gram_matrix, quadratic_form_graph,
                          sigma_reflect, symmetric_euler_form,
                          symmetric_form_matrix, verify_identities)
from qcox.errors import DegreeCapExceeded, LoopAtVertex, NotAcyclic, NotUnimodular
from qcox.polyring import ONE, Polynomial, PolyMatrix, pack, slot_width
from qcox.quiverdsl import Arrow, BoundQuiver, Quiver, parse_quiver
from qcox.randquiver import random_acyclic_quiver, random_bound_quiver

from oracles import (bilinear_form_reference, checks_json_obj, form_reference, frac_inverse,
                     frac_mul, frac_neg, frac_transpose, is_identity, is_symmetric, mul_vector,
                     naive_matmul, pack_rows, quadratic_form_reference,
                     random_cyclic_bound_quiver, scaled)


def P(*coeffs):
    return Polynomial(coeffs)


A3 = parse_quiver("""
quiver a3 {
  vertices: 1, 2, 3;
  arrows: a: 2 -> 1; b: 2 -> 3;
}
""").quiver

KRONECKER = Quiver(("1", "2"), (Arrow("u", 1, 0), Arrow("v", 1, 0)))

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

THREE_CYCLE = parse_quiver("""
quiver c3 {
  vertices: 1, 2, 3;
  arrows: a: 1 -> 2; d: 2 -> 1; b: 2 -> 3; g: 3 -> 2;
  relations: a*b; g*d; d*a - b*g;
}
""")


# --- admissible numberings ---------------------------------------------------

def test_admissible_numbering_goldens():
    assert admissible_numbering(A3) == (0, 2, 1)
    assert admissible_numbering(Quiver(("1",), ())) == (0,)
    assert admissible_numbering(DOUBLE_CHAIN.quiver) == (2, 1, 0)
    assert admissible_numbering(A3, prefer_largest=True) == (2, 0, 1)


def test_admissible_numbering_rejects_cycles():
    with pytest.raises(NotAcyclic):
        admissible_numbering(TWO_VERTEX_CYCLIC.quiver)
    loop = Quiver(("1",), (Arrow("l", 0, 0),))
    with pytest.raises(NotAcyclic):
        admissible_numbering(loop)


def test_numbering_prefix_is_always_a_sink_chain():
    rng = random.Random(3)
    for _ in range(20):
        q = random_acyclic_quiver(rng)
        order = admissible_numbering(q)
        removed = set()
        for v in order:
            outgoing = [a for a in q.arrows
                        if a.source == v and a.target not in removed]
            assert not outgoing
            removed.add(v)


# --- graph reflections ---------------------------------------------------------

def test_graph_reflection_goldens():
    s1 = graph_reflection(A3, 0)
    s2 = graph_reflection(A3, 1)
    s3 = graph_reflection(A3, 2)
    q = P(0, 1)
    assert s1 == PolyMatrix([[-ONE, q, 0], [0, 1, 0], [0, 0, 1]])
    assert s2 == PolyMatrix([[1, 0, 0], [q, -ONE, q], [0, 0, 1]])
    assert s3 == PolyMatrix([[1, 0, 0], [0, 1, 0], [0, q, -ONE]])

    kron = graph_reflection(KRONECKER, 0)
    assert kron == PolyMatrix([[-ONE, P(0, 2)], [0, 1]])

    single = graph_reflection(Quiver(("1",), ()), 0)
    assert single == PolyMatrix([[-ONE]])


def test_graph_reflection_rejects_loops():
    loop = Quiver(("1", "2"), (Arrow("l", 0, 0), Arrow("a", 0, 1)))
    with pytest.raises(LoopAtVertex):
        graph_reflection(loop, 0)
    graph_reflection(loop, 1)  # no loop at 1


def test_coxeter_matrix_graph_goldens():
    q = P(0, 1)
    q2 = P(0, 0, 1)
    phi = coxeter_matrix_graph(A3)
    assert phi == PolyMatrix([[P(-1, 0, 1), -q, q2],
                              [q, -ONE, q],
                              [q2, -q, P(-1, 0, 1)]])
    assert coxeter_matrix_graph(Quiver(("1",), ())) == PolyMatrix([[-ONE]])
    assert coxeter_matrix_graph(KRONECKER) == PolyMatrix([[P(-1, 0, 4), P(0, -2)],
                                                          [P(0, 2), -ONE]])


def test_coxeter_matrix_graph_numbering_independent():
    first = admissible_numbering(A3)
    second = admissible_numbering(A3, prefer_largest=True)
    assert first != second
    assert coxeter_matrix_graph(A3, first) == coxeter_matrix_graph(A3, second)


def test_reflection_relations_prop():
    for quiver in (A3, KRONECKER):
        n = quiver.n
        counts = quiver.edge_counts()
        refl = [graph_reflection(quiver, i) for i in range(n)]
        for s in refl:
            assert is_identity(s * s)
        for i in range(n):
            for j in range(i + 1, n):
                if counts[i][j] == 0:
                    assert refl[i] * refl[j] == refl[j] * refl[i]
                else:
                    m_q = Polynomial([0, 0, counts[i][j] * counts[j][i]])
                    left = refl[i] * refl[j] * refl[i] - refl[j] * refl[i] * refl[j]
                    assert left == scaled(refl[i] - refl[j], m_q - ONE)


# --- bilinear and quadratic forms -----------------------------------------------

def test_bilinear_form_goldens():
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert bilinear_form_graph(A3, e[0], e[0]) == 1
    assert bilinear_form_graph(A3, e[0], e[1]) == P(0, Fraction(-1, 2))
    assert bilinear_form_graph(A3, e[0], e[2]) == 0
    assert bilinear_form_graph(A3, e[0], [0, 0, 0]) == 0
    two = bilinear_form_graph(KRONECKER, [1, 0], [0, 1])
    assert two == P(0, -1)
    with pytest.raises(ValueError, match="vectors must have length 3"):
        bilinear_form_graph(A3, [1, 0], [0, 1, 0])


LOOPED = Quiver(("1", "2"), (Arrow("x", 0, 0), Arrow("u", 0, 1), Arrow("y", 0, 0)))


def test_quadratic_form_goldens():
    assert quadratic_form_graph(A3, [1, 0, 0]) == 1
    assert quadratic_form_graph(A3, [1, 1, 1]) == P(3, -2)
    assert quadratic_form_graph(LOOPED, [1, 1]) == P(2, -3)
    with pytest.raises(ValueError, match="vectors must have length 3"):
        quadratic_form_graph(A3, [1, 0])
    rng = random.Random(9)
    for _ in range(20):
        quiver = random_acyclic_quiver(rng)
        x = [rng.randint(-3, 3) for _ in range(quiver.n)]
        assert quadratic_form_graph(quiver, x) == quadratic_form_reference(quiver, x)


def test_gram_matrix_matches_bilinear_form():
    # G and the form x^T G y against the arrow-by-arrow formula, on random
    # vectors with polynomial entries too
    rng = random.Random(15)
    for quiver in [random_acyclic_quiver(rng) for _ in range(10)] + [KRONECKER, LOOPED]:
        gram = gram_matrix(quiver)
        assert is_symmetric(gram)
        n = quiver.n
        for i in range(n):
            for j in range(n):
                ei = [int(k == i) for k in range(n)]
                ej = [int(k == j) for k in range(n)]
                assert gram.entry(i, j) == bilinear_form_reference(quiver, ei, ej)
        for _ in range(5):
            x = [P(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(n)]
            y = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            assert bilinear_form_graph(quiver, x, y) == bilinear_form_reference(quiver, x, y)
            assert quadratic_form_graph(quiver, x) == quadratic_form_reference(quiver, x)


def test_form_invariance_under_reflections():
    for quiver in (A3, KRONECKER):
        gram = gram_matrix(quiver)
        for i in range(quiver.n):
            s = graph_reflection(quiver, i)
            assert s.transpose() * gram * s == gram


# --- sigma reflection ----------------------------------------------------------

def test_sigma_reflect_golden():
    flipped = sigma_reflect(A3, 0)
    assert flipped.arrows == (Arrow("a", 0, 1), Arrow("b", 1, 2))
    untouched = sigma_reflect(A3, 0)
    assert untouched.vertices == A3.vertices


def test_sigma_reflect_isolated_vertex_and_involution():
    star = Quiver(("1", "2", "3"), (Arrow("a", 0, 1),))
    assert sigma_reflect(star, 2) == star
    rng = random.Random(21)
    for _ in range(20):
        q = random_acyclic_quiver(rng)
        v = rng.randrange(q.n)
        assert sigma_reflect(sigma_reflect(q, v), v) == q


# --- Cartan reflections ---------------------------------------------------------

def test_symmetric_form_matrix_goldens():
    c = cartan_matrix(DOUBLE_CHAIN)
    form = symmetric_form_matrix(c)
    q, q2 = P(0, 1), P(0, 0, 1)
    assert form == PolyMatrix([[P(2), P(0, -2), q2],
                               [P(0, -2), P(2), -q],
                               [q2, -q, P(2)]])
    assert symmetric_form_matrix(PolyMatrix.identity(3)) == scaled(PolyMatrix.identity(3), 2)
    with pytest.raises(NotUnimodular):
        symmetric_form_matrix(PolyMatrix([[2]]))


def test_symmetric_form_matrix_relation_free():
    # with no relations the symmetrized inverse is 2E - q(B + B^T)
    rng = random.Random(25)
    for _ in range(10):
        quiver = random_acyclic_quiver(rng)
        c = cartan_matrix(BoundQuiver(quiver))
        b = quiver.arrow_counts()
        n = quiver.n
        expected = PolyMatrix([[P(2 * int(i == j), -(b[i][j] + b[j][i]))
                                for j in range(n)] for i in range(n)])
        assert symmetric_form_matrix(c) == expected


def test_gamma_reflection_goldens():
    c = cartan_matrix(DOUBLE_CHAIN)
    q, q2 = P(0, 1), P(0, 0, 1)
    g1 = gamma_reflection(c, 0)
    g3 = gamma_reflection(c, 2)
    assert g1 == PolyMatrix([[-ONE, P(0, 2), -q2], [0, 1, 0], [0, 0, 1]])
    assert g3 == PolyMatrix([[1, 0, 0], [0, 1, 0], [-q2, q, -ONE]])
    for i in range(3):
        g = gamma_reflection(PolyMatrix.identity(3), i)
        expected = [[P(-1 if r == c_ == i else int(r == c_)) for c_ in range(3)]
                    for r in range(3)]
        assert g == PolyMatrix(expected)


def test_gamma_matches_graph_reflection_without_relations():
    rng = random.Random(29)
    for _ in range(12):
        quiver = random_acyclic_quiver(rng)
        c = cartan_matrix(BoundQuiver(quiver))
        for i in range(quiver.n):
            assert gamma_reflection(c, i) == graph_reflection(quiver, i)


def test_coxeter_matrix_bound_goldens():
    q, q2 = P(0, 1), P(0, 0, 1)
    phi = coxeter_matrix_bound(DOUBLE_CHAIN, method="cartan")
    expected = PolyMatrix([[-ONE, P(0, 2), -q2],
                           [P(0, -2), P(-1, 0, 4), P(0, 1, 0, -2)],
                           [-q2, P(0, -1, 0, 2), P(-1, 0, 1, 0, -1)]])
    assert phi == expected
    assert coxeter_matrix_bound(DOUBLE_CHAIN, method="reflections") == expected

    phi2 = coxeter_matrix_bound(TWO_VERTEX_CYCLIC, method="cartan")
    assert phi2 == PolyMatrix([[P(-1, 0, -1), q],
                               [P(0, -1, 0, -2), P(-1, 0, 2)]])

    single = BoundQuiver(Quiver(("1",), ()))
    assert coxeter_matrix_bound(single) == PolyMatrix([[-ONE]])
    assert coxeter_matrix_bound(single, method="reflections") == PolyMatrix([[-ONE]])


def test_coxeter_matrix_bound_is_the_product_of_c_transpose_and_minus_the_inverse():
    # Phi^T = -X^T C row by row, against the triple loop Phi = C^T (-X), on
    # relation-bound acyclic, unimodular cyclic and parallel-arrow chains
    rng = random.Random(29)
    quivers = [random_bound_quiver(rng) for _ in range(40)]
    quivers += [random_cyclic_bound_quiver(rng) for _ in range(150)]
    quivers += [_parallel_chain(c) for c in ((1,), (3,), (2, 1), (1, 3, 2), (2, 2, 1, 3),
                                             (1,) * 12)]
    seen = Counter()
    for bq in quivers:
        c = cartan_matrix(bq)
        try:
            x = cell_matrix(c.n, inverse_cells(bq, c))
        except NotUnimodular:
            continue
        seen[bq.quiver.is_acyclic(), bool(bq.relations)] += 1
        assert coxeter_matrix_bound(bq, "cartan") == naive_matmul(c.transpose(), -x)
    assert min(seen[False, True], seen[True, True], seen[True, False]) >= 10


def test_coxeter_matrix_bound_errors():
    with pytest.raises(NotAcyclic):
        coxeter_matrix_bound(TWO_VERTEX_CYCLIC, method="reflections")
    with pytest.raises(ValueError):
        coxeter_matrix_bound(DOUBLE_CHAIN, method="magic")
    with pytest.raises(NotUnimodular):
        coxeter_matrix_bound(THREE_CYCLE, method="cartan")


def test_coxeter_matrix_bound_checks_the_method_before_the_cartan_matrix():
    # the graded dimensions of a 2-cycle never end
    loop2 = BoundQuiver(Quiver(("1", "2"), (Arrow("u", 0, 1), Arrow("v", 1, 0))))
    with pytest.raises(ValueError, match="method must be"):
        coxeter_matrix_bound(loop2, method="magic")
    with pytest.raises(DegreeCapExceeded):
        coxeter_matrix_bound(loop2, method="cartan", degree_cap=8)


def test_gamma_products_do_not_commute_in_general():
    c = cartan_matrix(DOUBLE_CHAIN)
    g1 = gamma_reflection(c, 0)
    g3 = gamma_reflection(c, 2)
    assert g1 * g3 != g3 * g1          # vertices 1 and 3 are not even neighbours


def test_reflection_product_order_golden():
    # product with the first sink leftmost reproduces the known 3x3 matrix
    c = cartan_matrix(DOUBLE_CHAIN)
    order = admissible_numbering(DOUBLE_CHAIN.quiver)
    assert order == (2, 1, 0)
    gammas = [gamma_reflection(c, i) for i in range(3)]
    product = gammas[2] * gammas[1] * gammas[0]
    assert product == coxeter_matrix_bound(DOUBLE_CHAIN, method="reflections")


# --- Euler forms -----------------------------------------------------------------

def test_euler_form_goldens():
    c = cartan_matrix(TWO_VERTEX_CYCLIC)
    inv = c.inverse_unimodular()
    assert euler_form(c, [1, 0], [1, 0]) == P(1, 0, 2)
    for i in range(2):
        for j in range(2):
            ei = [int(k == i) for k in range(2)]
            ej = [int(k == j) for k in range(2)]
            assert euler_form(c, ei, ej) == inv.entry(i, j)
    with pytest.raises(ValueError, match="vectors must have length 2"):
        euler_form(c, [1], [1, 0])


def test_euler_forms_match_the_sum_over_entries():
    # x^T C^-1 y and x^T A y / 2 against the entry-by-entry sums, on bound
    # quivers, with polynomial and rational vector entries
    rng = random.Random(35)
    for _ in range(10):
        bq = random_bound_quiver(rng)
        c = cartan_matrix(bq)
        inverse = c.inverse_unimodular()
        half_a = PolyMatrix([[P(Fraction(1, 2)) * e for e in row]
                             for row in symmetric_form_matrix(c, inverse).rows])
        for _ in range(4):
            x = [P(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(c.n)]
            y = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c.n)]
            assert euler_form(c, x, y) == euler_form(None, x, y, inverse) == \
                form_reference(inverse, x, y)
            assert symmetric_euler_form(c, x, y) == form_reference(half_a, x, y)


def test_euler_form_coxeter_identities_random():
    rng = random.Random(33)
    for _ in range(8):
        bq = random_bound_quiver(rng)
        c = cartan_matrix(bq)
        inv = c.inverse_unimodular()
        phi = coxeter_matrix_bound(bq, cartan=c)
        n = c.n
        for _ in range(6):
            x = [rng.randint(-4, 4) for _ in range(n)]
            y = [rng.randint(-4, 4) for _ in range(n)]
            direct = euler_form(c, x, y, inv)
            assert direct == -euler_form(c, mul_vector(phi, y), x, inv)
            assert direct == euler_form(c, mul_vector(phi, x), mul_vector(phi, y), inv)


def test_symmetric_euler_form_matches_form_matrix():
    c = cartan_matrix(DOUBLE_CHAIN)
    form = symmetric_form_matrix(c)
    n = c.n
    for i in range(n):
        for j in range(n):
            ei = [int(k == i) for k in range(n)]
            ej = [int(k == j) for k in range(n)]
            value = symmetric_euler_form(c, ei, ej)
            assert value == Polynomial([Fraction(1, 2)]) * form.entry(i, j)


# --- theorem suites on random instances -------------------------------------------

def test_coxeter_vs_cartan_relation_free_random():
    rng = random.Random(47)
    for _ in range(25):
        quiver = random_acyclic_quiver(rng)
        c = cartan_matrix(BoundQuiver(quiver))
        phi = coxeter_matrix_graph(quiver)
        assert phi == -(c.transpose() * c.inverse_unimodular())


def test_sink_reflection_theorems_random():
    rng = random.Random(53)
    for _ in range(15):
        quiver = random_acyclic_quiver(rng)
        c = cartan_matrix(BoundQuiver(quiver))
        phi = coxeter_matrix_graph(quiver)
        for i in quiver.sinks():
            s = graph_reflection(quiver, i)
            flipped = sigma_reflect(quiver, i)
            assert cartan_matrix(BoundQuiver(flipped)) == s * c * s.transpose()
            assert coxeter_matrix_graph(flipped) == s * phi * s


def test_gamma_coxeter_theorem_bound_random():
    rng = random.Random(59)
    for _ in range(20):
        bq = random_bound_quiver(rng)
        assert coxeter_matrix_bound(bq, method="reflections") == \
            coxeter_matrix_bound(bq, method="cartan")


def test_projective_injective_duality_random():
    from qcox.algebra import dim_vector
    rng = random.Random(61)
    for _ in range(10):
        bq = random_bound_quiver(rng)
        c = cartan_matrix(bq)
        phi = coxeter_matrix_bound(bq, cartan=c)
        for i in range(c.n):
            p = dim_vector(bq, "projective", i, cartan=c)
            image = mul_vector(phi, dim_vector(bq, "injective", i, cartan=c))
            assert all((a + b).is_zero() for a, b in zip(p, image))


def test_coxeter_specialization_at_one_random():
    rng = random.Random(67)
    for _ in range(10):
        quiver = random_acyclic_quiver(rng)
        bq = BoundQuiver(quiver)
        c = cartan_matrix(bq)
        phi = coxeter_matrix_bound(bq, cartan=c)
        c1 = c.specialize(1)
        expected = frac_neg(frac_mul(frac_transpose(c1), frac_inverse(c1)))
        assert phi.specialize(1) == expected


# --- verify_identities -------------------------------------------------------------

def idx(report: CheckReport) -> dict[str, tuple[str, str]]:
    return {c.identity: (c.status, c.reason) for c in report.checks}


# report order: five graph identities, three relation-free Cartan ones, six
# on the Cartan matrix of the bound quiver
_IDENTITIES = (
    "reflection_involution", "reflection_commutation", "reflection_braid",
    "form_invariance", "coxeter_numbering_independence",
    "coxeter_vs_cartan", "sink_reflection_cartan", "sink_reflection_coxeter",
    "gamma_involution", "gamma_commutation", "gamma_coxeter_vs_cartan",
    "gamma_numbering_independence", "projective_injective_duality",
    "euler_form_coxeter")

_PASS = ("pass", "")
_ACYCLIC = ("skipped", "requires an acyclic quiver")
_ONE_NUMBERING = ("skipped", "only one admissible numbering available")
_RELATION_FREE = ("skipped", "requires a relation-free quiver")


def _no_end(cap):
    return ("skipped",
            f"graded dimensions did not terminate (no vanishing degree up to cap {cap})")


CHAIN3 = parse_quiver("""
quiver ch3 {
  vertices: 1, 2, 3;
  arrows: a: 1 -> 2; b: 2 -> 3;
}
""")

_NOT_UNIMODULAR = ("skipped", "Cartan matrix is not unimodular "
                              "(determinant is 1+q^2+q^4+q^6, not ±1)")

_VERIFIER_OUTCOMES = [
    ("two-cycle", parse_quiver("quiver c2 { vertices: 1, 2; arrows: u: 1 -> 2; v: 2 -> 1; }"),
     {}, [_ACYCLIC] * 8 + [_no_end(64)] * 6),
    ("loop", parse_quiver("quiver lp { vertices: 1, 2; arrows: x: 1 -> 1; a: 1 -> 2; }"),
     {}, [_ACYCLIC] * 8 + [_no_end(64)] * 6),
    ("three-cycle", THREE_CYCLE, {}, [_ACYCLIC] * 8 + [_NOT_UNIMODULAR] * 6),
    ("double-chain", DOUBLE_CHAIN, {},
     [_PASS] * 4 + [_ONE_NUMBERING] + [_RELATION_FREE] * 3
     + [_PASS, ("skipped", "no vertex pair with vanishing form entry"), _PASS,
        _ONE_NUMBERING, _PASS, _PASS]),
    ("no-involution", parse_quiver(
        "quiver nd { vertices: 1, 2; arrows: a: 1 -> 2; b: 1 -> 2; d: 2 -> 1;"
        " relations: b*d; d*a; }"), {},
     [_ACYCLIC] * 8 + [("skipped", "no vertex with diagonal form entry 2"),
                       ("skipped", "no vertex pair with vanishing form entry"),
                       _ACYCLIC, _ACYCLIC, _PASS, _PASS]),
    ("a3", BoundQuiver(A3), {}, [_PASS] * 14),
    ("chain", CHAIN3, {},
     [_PASS] * 4 + [_ONE_NUMBERING] + [_PASS] * 6 + [_ONE_NUMBERING] + [_PASS] * 2),
    ("chain-capped", CHAIN3, {"degree_cap": 2},
     [_PASS] * 4 + [_ONE_NUMBERING] + [_no_end(2)] * 9),
    # A3's own graded dimensions end at degree 1, but reversing the arrows
    # at sink 1 gives the chain 1 -> 2 -> 3, whose degree 2 reaches the cap
    ("a3-reversed-sink-capped", BoundQuiver(A3), {"degree_cap": 2},
     [_PASS] * 6 + [("skipped", "graded dimensions with the arrows at sink 1 reversed "
                                "did not terminate (no vanishing degree up to cap 2)")] * 2
     + [_PASS] * 6),
]


@pytest.mark.parametrize("bq, limits, expected",
                         [case[1:] for case in _VERIFIER_OUTCOMES],
                         ids=[case[0] for case in _VERIFIER_OUTCOMES])
def test_verify_identities_reports_every_outcome_in_order(bq, limits, expected):
    report = verify_identities(bq, **limits)
    assert [(c.identity, c.status, c.reason) for c in report.checks] == [
        (name, *outcome) for name, outcome in zip(_IDENTITIES, expected, strict=True)]


def test_verify_identities_a3_all_pass():
    report = verify_identities(BoundQuiver(A3))
    statuses = idx(report)
    assert report.passed
    assert all(status == "pass" for status, _ in statuses.values()), statuses
    assert set(statuses) == {
        "reflection_involution", "reflection_commutation", "reflection_braid",
        "form_invariance", "coxeter_numbering_independence",
        "coxeter_vs_cartan", "sink_reflection_cartan", "sink_reflection_coxeter",
        "gamma_involution", "gamma_commutation", "gamma_coxeter_vs_cartan",
        "gamma_numbering_independence", "projective_injective_duality",
        "euler_form_coxeter"}


def test_verify_identities_cyclic_example():
    report = verify_identities(TWO_VERTEX_CYCLIC)
    statuses = idx(report)
    assert report.passed
    for name in ("reflection_involution", "form_invariance", "coxeter_vs_cartan",
                 "sink_reflection_cartan", "gamma_coxeter_vs_cartan"):
        assert statuses[name][0] == "skipped"
        assert "acyclic" in statuses[name][1]
    assert statuses["projective_injective_duality"][0] == "pass"
    assert statuses["euler_form_coxeter"][0] == "pass"
    assert statuses["gamma_involution"][0] == "pass"


def test_verify_identities_double_chain():
    report = verify_identities(DOUBLE_CHAIN)
    statuses = idx(report)
    assert report.passed
    assert statuses["reflection_involution"][0] == "pass"
    assert statuses["coxeter_vs_cartan"][0] == "skipped"
    assert "relation-free" in statuses["coxeter_vs_cartan"][1]
    assert statuses["gamma_coxeter_vs_cartan"][0] == "pass"
    assert statuses["gamma_commutation"][0] == "skipped"
    assert statuses["projective_injective_duality"][0] == "pass"


def test_verify_identities_non_unimodular():
    report = verify_identities(THREE_CYCLE)
    statuses = idx(report)
    assert report.passed  # skipped checks do not fail the report
    assert statuses["gamma_coxeter_vs_cartan"][0] == "skipped"
    assert "unimodular" in statuses["gamma_coxeter_vs_cartan"][1]


def test_verify_identities_random_all_pass():
    rng = random.Random(71)
    for _ in range(6):
        bq = random_bound_quiver(rng)
        report = verify_identities(bq)
        assert report.passed, checks_json_obj(report)
        assert not report.failures()


def test_check_report_json_shape():
    from qcox.cli import _verify_json
    report = verify_identities(BoundQuiver(A3))
    obj = json.loads(_verify_json(report.passed, [("input", report)]))["reports"][0]["checks"]
    assert obj == checks_json_obj(report)
    assert isinstance(obj, list)
    assert all(set(item) == {"identity", "status", "reason"} for item in obj)


def test_coxeter_specialization_golden_a3():
    phi1 = coxeter_matrix_graph(A3).specialize(1)
    assert phi1 == [[0, -1, 1], [1, -1, 1], [1, -1, 0]]


def test_graph_reflection_isolated_vertex():
    star = Quiver(("1", "2", "3"), (Arrow("a", 0, 1),))
    s = graph_reflection(star, 2)
    assert s == PolyMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -ONE]])


def test_gamma_lemma_conditions_random():
    rng = random.Random(73)
    for _ in range(10):
        bq = random_bound_quiver(rng)
        c = cartan_matrix(bq)
        form = symmetric_form_matrix(c)
        gammas = [gamma_reflection(c, i, form) for i in range(c.n)]
        for i in range(c.n):
            if form.entry(i, i) == 2:
                assert is_identity(gammas[i] * gammas[i])
            for j in range(i + 1, c.n):
                if form.entry(i, j).is_zero():
                    assert gammas[i] * gammas[j] == gammas[j] * gammas[i]


# --- row-local identity checks against the full matrices -----------------------------

_coeff = st.integers(-2, 2)
_poly = st.lists(_coeff, max_size=3).map(Polynomial)
# Each row below, and each row of the matrices M, has a |coefficient| sum of
# at most 40 (at most 5 entries, each at most 2q plus two perturbations of at
# most 3 coefficients in [-2, 2]).  So s M s^T and s M s, the braid sums
# (at most 40 + 40^2 + 5) and the 2G combinations (at most 2 * 10 + 2 * 41)
# have coefficients far below 2^29: packed values at width 32 compare as
# their polynomials do.
W = 32


@st.composite
def reflection_rows(draw):
    """(n, edge counts, rows): rows[v] is row v of the graph reflection at v
    for a random loop-free multigraph, some of them perturbed or replaced by
    an arbitrary row over Z[q], so that the identities both hold and fail."""
    n = draw(st.integers(2, 5))
    counts = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            counts[i][j] = counts[j][i] = draw(st.integers(0, 2))
    rows = [[P(-1) if k == v else P(0, c) for k, c in enumerate(counts[v])]
            for v in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        v, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[v][k] = rows[v][k] + draw(_poly)
    if draw(st.booleans()):
        v = draw(st.integers(0, n - 1))
        rows[v] = draw(st.lists(_poly, min_size=n, max_size=n))
    return n, counts, [tuple(row) for row in rows]


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _full(n, rows, v):
    full = list(PolyMatrix.identity(n).rows)
    full[v] = rows[v]
    return PolyMatrix(full)


_ONE_EDGE = [[0, 1], [1, 0]]


@settings(max_examples=150, deadline=None)
@given(reflection_rows(), st.integers(0, 4), st.integers(0, 3))
# row 1 is e_1, so u_1 = 0 while u_01 != 0, and the braid scalars are nonzero
@example((2, _ONE_EDGE, [(P(-1), P(0, 1)), (P(), P(1))]), 0, 0)
@example((2, _ONE_EDGE, [(P(-1), P(0, 1)), (P(), P(1))]), 1, 0)
# both rows are e_v: every identity holds through u_v = 0 alone
@example((2, _ONE_EDGE, [(P(1), P()), (P(), P(1))]), 0, 0)
# diagonal entries 1 and 0 in rows that are not e_v
@example((2, _ONE_EDGE, [(P(1), P(0, 1)), (P(0, 1), P(-1))]), 0, 0)
@example((2, [[0, 2], [2, 0]], [(P(0, 2), P(-1)), (P(0, 2), P())]), 1, 0)
def test_row_local_checks_match_full_matrix_identities(case, i, step):
    # the predicates read packed rows, as the verifier's do
    n, counts, rows = case
    i %= n
    j = (i + 1 + step % (n - 1)) % n
    si, sj = _full(n, rows, i), _full(n, rows, j)
    packed = pack_rows(rows, W)
    assert _involution_holds(packed, i) == is_identity(naive_matmul(si, si))
    assert _commutation_holds(packed, i, j) == (naive_matmul(si, sj) == naive_matmul(sj, si))
    factor = P(-1, 0, counts[i][j] * counts[j][i])
    left = naive_matmul(naive_matmul(si, sj), si) - naive_matmul(naive_matmul(sj, si), sj)
    assert _braid_holds(packed, i, j, pack(factor.coeffs, W)) == (left == scaled(si - sj, factor))
    multigraph = Quiver(tuple(str(v) for v in range(n)),
                        tuple(Arrow(f"e{a}_{b}_{k}", a, b) for a in range(n)
                              for b in range(a + 1, n) for k in range(counts[a][b])))
    gram = gram_matrix(multigraph)
    assert gram == PolyMatrix([[ONE if a == b else P(0, Fraction(-counts[a][b], 2))
                                for b in range(n)] for a in range(n)])
    invariant = naive_matmul(naive_matmul(si.transpose(), gram), si) == gram
    # the verifier reads 2G, with int coefficients; G is its half
    gram2 = _gram2(multigraph.edge_counts())
    assert scaled(gram, 2) == PolyMatrix(gram2)
    assert _form_invariant(pack_rows(gram2, W)[i], i, packed[i]) == invariant


@settings(max_examples=100, deadline=None)
@given(reflection_rows(), st.data())
def test_sink_conjugates_match_full_matrix_products(case, data):
    n, _, rows = case
    v = data.draw(st.integers(0, n - 1))
    m = PolyMatrix(data.draw(st.lists(st.lists(_poly, min_size=n, max_size=n),
                                      min_size=n, max_size=n)))
    s = _full(n, rows, v)
    packed_m, row = pack_rows(m.rows, W), pack_rows(rows, W)[v]
    assert _congruent(packed_m, v, row) == \
        pack_rows(naive_matmul(naive_matmul(s, m), s.transpose()).rows, W)
    assert _two_sided(_eye(n), packed_m, v, row) == \
        pack_rows(naive_matmul(naive_matmul(s, m), s).rows, W)


def test_verifier_bound_covers_phi_and_the_words(monkeypatch):
    # the products the verifier still packs: Phi, the numbering words, X C,
    # C^T (X C), and per sink s Phi s, s C s^T and the reversed quiver's C and
    # numbering word; and what the row predicates compare: the braid sums
    # and their products u_ij u_ji, the 2G combinations and their two
    # terms, and the entries of A
    import qcox.coxeter as coxeter_module
    from qcox.coxeter import _gamma_row, _graph_row, _reflection_product
    from qcox.polyring import row_combination
    from test_cli_golden import golden_quivers
    bounds = []
    monkeypatch.setattr(coxeter_module, "slot_width", lambda b: bounds.append(b) or slot_width(b))

    def largest(rows):
        return max(abs(c) for row in rows for e in row for c in e.coeffs)

    for quiver in golden_quivers().values():
        bq = BoundQuiver(quiver)
        assert verify_identities(bq).passed
        (bound,) = bounds    # one width per call
        bounds.clear()
        n, counts = quiver.n, quiver.edge_counts()
        c = cartan_matrix(bq)
        inverse = cell_matrix(c.n, inverse_cells(bq, c))
        form = symmetric_form_matrix(c, inverse)
        eye = PolyMatrix.identity(n).rows
        phi = naive_matmul(c.transpose(), -inverse)
        xc = naive_matmul(inverse, c)
        products = [phi, xc, naive_matmul(c.transpose(), xc)]
        numberings = [admissible_numbering(quiver), admissible_numbering(quiver, True)]
        graph = [_graph_row(quiver, counts, v) for v in range(n)]
        for refl in (graph, [_gamma_row(form.rows[v], v) for v in range(n)]):
            products += [_reflection_product(numbering, refl.__getitem__, eye)
                         for numbering in numberings]
        gram2 = _gram2(counts)
        compared = []
        for i in range(n):
            for j in range(i + 1, n):
                if counts[i][j]:
                    cross = graph[i][j] * graph[j][i]
                    factor = P(-1, 0, counts[i][j] * counts[j][i])
                    compared += [cross, factor] + [graph[v][v] + cross - factor for v in (i, j)]
            u = list(graph[i])
            u[i] = u[i] - 1
            compared += [*row_combination((P(2), gram2[i][i]), (gram2[i], u)),
                         *(P(2) * e for e in gram2[i]), *(gram2[i][i] * e for e in u)]
        products += [[compared], form]
        for sink in quiver.sinks():
            s = graph_reflection(quiver, sink)
            flipped = sigma_reflect(quiver, sink)
            f_counts = flipped.edge_counts()
            f_rows = [_graph_row(flipped, f_counts, v) for v in range(n)]
            products += [naive_matmul(naive_matmul(s, phi), s),
                         naive_matmul(naive_matmul(s, c), s.transpose()),
                         cartan_matrix(BoundQuiver(flipped)),
                         _reflection_product(admissible_numbering(flipped),
                                             f_rows.__getitem__, eye)]
        seen = max(largest(m.rows if isinstance(m, PolyMatrix) else m) for m in products)
        assert seen <= bound
        # the proved bound is far above the true coefficients, yet the width
        # stays at most 64 bits on these inputs
        assert slot_width(bound) <= 64


def test_verifier_packed_products_grow_linearly_on_chains(monkeypatch):
    # the pair checks read rows instead of multiplying words, and the duality
    # check forms X C once: packed row combinations grow with n, not n^2
    import qcox.coxeter as coxeter_module
    calls = []
    original = coxeter_module.packed_combination
    monkeypatch.setattr(coxeter_module, "packed_combination",
                        lambda *args: calls.append(1) or original(*args))
    made = []
    for n in (20, 40):
        assert verify_identities(_parallel_chain([1] * (n - 1))).passed
        made.append(len(calls))
        calls.clear()
    assert made[1] <= 2 * made[0]


def test_verifier_packs_only_nonzero_entries_on_chains(monkeypatch):
    # the shared packed rows cost their nonzero entries: fewer pack calls
    # than 3 * nnz(C), where packing every entry takes 6n^2
    import qcox.coxeter as coxeter_module
    calls = []
    original = coxeter_module.pack
    monkeypatch.setattr(coxeter_module, "pack",
                        lambda *args: calls.append(1) or original(*args))
    for n in (20, 40):
        bq = _parallel_chain([1] * (n - 1))
        nnz = sum(1 for row in cartan_matrix(bq).rows for e in row if e.coeffs)
        calls.clear()
        assert verify_identities(bq).passed
        assert 0 < len(calls) < 3 * nnz


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")


def test_verifier_does_no_polynomial_arithmetic_without_relations(monkeypatch):
    # without relations C and C^-1 are built from counts, and every check
    # reads packed rows: not one Polynomial or Fraction sum, product or
    # negation is formed
    calls = Counter()
    for cls in (Polynomial, Fraction):
        for name in _ARITHMETIC:
            original = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda *args, _f=original, _k=(cls.__name__, name):
                                calls.update([_k]) or _f(*args))
    rng = random.Random(29)
    quivers = [_parallel_chain([1] * 19), _parallel_chain([1] * 39)]
    quivers += [BoundQuiver(random_acyclic_quiver(rng, 3, 9)) for _ in range(20)]
    for bq in quivers:
        report = verify_identities(bq)
        assert report.passed
        assert not calls, (bq.quiver.n, calls)


# the ids keep naming the kind of row, graph or Cartan, that is corrupted
@pytest.mark.parametrize("row_maker, identity", [("_packed_graph_rows", "reflection_involution"),
                                                 ("_gamma_row", "gamma_involution")],
                         ids=["_graph_row-reflection_involution", "_gamma_row-gamma_involution"])
def test_verify_identities_fails_on_a_corrupted_reflection_row(monkeypatch, row_maker,
                                                               identity):
    import qcox.coxeter as coxeter_module
    original = getattr(coxeter_module, row_maker)

    def corrupted(*args):
        rows = original(*args)
        # the graph rows come packed from the edge counts, all at once, and
        # the verifier's Cartan rows packed, one at a time: the diagonal
        # entry of row 1 gains q (2^w, for the width w last in args) or 1
        if row_maker == "_packed_graph_rows":
            rows[1][1] += 1 << args[-1]
            assert isinstance(rows[1][1], int)
        elif args[-1] == 1:
            rows = list(rows)
            rows[1] = rows[1] + 1
            assert isinstance(rows[1], int)
        return rows

    monkeypatch.setattr(coxeter_module, row_maker, corrupted)
    report = verify_identities(BoundQuiver(A3))
    assert not report.passed
    assert idx(report)[identity] == ("fail", "")
    if row_maker == "_packed_graph_rows":
        # the graph reflection rows also enter the form invariance check
        assert idx(report)["form_invariance"] == ("fail", "")


def _with_q_added(m: PolyMatrix, i: int, j: int) -> PolyMatrix:
    rows = [list(row) for row in m.rows]
    rows[i][j] = rows[i][j] + P(0, 1)
    return PolyMatrix(rows)


def _corrupt_first_row(inverse: PolyMatrix) -> PolyMatrix:
    return _with_q_added(inverse, 0, 1)


def _packed_inverse_with_q_added(monkeypatch, i: int, j: int) -> None:
    # the verifier packs C^-1 from the cells of algebra.inverse_cells: q is
    # added to the coefficients of cell (i, j)
    import qcox.algebra as algebra_module
    original = algebra_module.inverse_cells

    def corrupted(*args):
        cells = original(*args)
        cs = cells.get((i, j), [0]) + [0]
        cs[1] += 1
        cells[i, j] = cs
        return cells

    monkeypatch.setattr(algebra_module, "inverse_cells", corrupted)


def test_verify_identities_fails_on_a_corrupted_inverse(monkeypatch):
    # A3 has no relations: C^-1 is the closed form E - qB of algebra.inverse_cells
    assert idx(verify_identities(BoundQuiver(A3)))["euler_form_coxeter"] == ("pass", "")
    _packed_inverse_with_q_added(monkeypatch, 0, 1)
    report = idx(verify_identities(BoundQuiver(A3)))
    assert report["projective_injective_duality"] == (
        "fail", "projective vector differs from -Phi * injective vector")
    assert report["euler_form_coxeter"] == ("fail", "")


def test_verify_identities_fails_on_a_corrupted_elimination_inverse(monkeypatch):
    # DOUBLE_CHAIN has a relation: C^-1 comes from PolyMatrix.inverse_unimodular
    original = PolyMatrix.inverse_unimodular

    def corrupted(self):
        return _corrupt_first_row(original(self))

    assert idx(verify_identities(DOUBLE_CHAIN))["euler_form_coxeter"] == ("pass", "")
    monkeypatch.setattr(PolyMatrix, "inverse_unimodular", corrupted)
    report = idx(verify_identities(DOUBLE_CHAIN))
    assert report["projective_injective_duality"] == (
        "fail", "projective vector differs from -Phi * injective vector")
    assert report["euler_form_coxeter"] == ("fail", "")


# --- the exact Euler-form check ---------------------------------------------------

def _parallel_chain(counts):
    """Relation-free chain 1 -> 2 -> ... with counts[k] parallel arrows
    from vertex k + 1 to vertex k + 2."""
    return BoundQuiver(Quiver(tuple(str(v + 1) for v in range(len(counts) + 1)),
                              tuple(Arrow(f"a{k}_{m}", k, k + 1)
                                    for k, c in enumerate(counts) for m in range(c))))


def test_euler_form_invariant_matches_matrix_products():
    # X == -X^T Phi and X == Phi^T X Phi with Phi = -C^T X, against
    # PolyMatrix products, for the true C^-1, for one with an entry changed
    # (both identities fail) and for -C^-1 (only the second holds)
    rng = random.Random(83)
    quivers = [random_bound_quiver(rng) for _ in range(15)]
    quivers += [random_cyclic_bound_quiver(rng) for _ in range(300)]
    quivers += [_parallel_chain(c) for c in ((1,), (2,), (3, 1), (1, 2, 2), (2, 1, 3, 1))]
    outcomes = Counter()
    cyclic = 0
    for bq in quivers:
        c = cartan_matrix(bq)
        try:
            inverse = cell_matrix(c.n, inverse_cells(bq, c))
        except NotUnimodular:
            continue
        cyclic += not bq.quiver.is_acyclic()
        n = c.n
        changed = _with_q_added(inverse, rng.randrange(n), rng.randrange(n))
        for label, x in (("true", inverse), ("changed", changed), ("negated", -inverse)):
            phi = c.transpose() * -x
            sides = (-(x.transpose() * phi), phi.transpose() * x * phi)
            # the elimination inverse keeps integer coefficients as Fractions
            w = slot_width(int(max(abs(k) for m in (x, *sides)
                                   for row in m.rows for e in row for k in e.coeffs)))
            x_p, phi_p = pack_rows(x.rows, w), pack_rows(phi.rows, w)
            holds = tuple(side == x for side in sides)
            assert _euler_form_invariant(x_p, phi_p, [list(col) for col in zip(*phi_p)]) \
                == all(holds)
            outcomes[label, holds] += 1
    assert cyclic >= 10
    assert set(outcomes) == {("true", (True, True)), ("changed", (False, False)),
                             ("negated", (False, True))}
    assert min(outcomes.values()) >= 30


@pytest.mark.parametrize("i, j", [(i, j) for i in range(3) for j in range(3)])
def test_euler_form_check_fails_on_any_corrupted_inverse_entry(monkeypatch, i, j):
    _packed_inverse_with_q_added(monkeypatch, i, j)
    assert idx(verify_identities(BoundQuiver(A3)))["euler_form_coxeter"] == ("fail", "")


# --- shared data from counts and cells --------------------------------------------

def _count_and_cell_inputs() -> list[BoundQuiver]:
    """Random bound and cyclic quivers; relation-free acyclic quivers with up
    to 3 parallel arrows, parallel chains and the golden quivers, and some
    of them with the arrows at a sink reversed."""
    from test_cli_golden import golden_quivers
    rng = random.Random(41)
    quivers = [random_bound_quiver(rng) for _ in range(60)]
    quivers += [random_cyclic_bound_quiver(rng) for _ in range(30)]
    free = [random_acyclic_quiver(rng, 2, 9, max_multiplicity=3) for _ in range(60)]
    free += [_parallel_chain(c).quiver for c in ((1,), (3,), (1, 2, 3), (2, 1, 3, 1), [1] * 12)]
    free += list(golden_quivers().values())
    free += [sigma_reflect(q, sink) for q in free[:30] for sink in q.sinks()]
    return quivers + [BoundQuiver(q) for q in free]


def test_verifier_slot_bound_matches_the_polynomial_rows(monkeypatch):
    # the norms read off counts and cells are those of the Polynomial rows
    import qcox.coxeter as coxeter_module
    from oracles import verifier_slot_bound
    bounds = []
    monkeypatch.setattr(coxeter_module, "slot_width", lambda b: bounds.append(b) or slot_width(b))
    for bq in _count_and_cell_inputs():
        verify_identities(bq)
        assert bounds == [verifier_slot_bound(bq)]
        bounds.clear()


@pytest.mark.parametrize("w", [3, 44])
def test_packed_rows_from_counts_and_cells_are_the_packed_polynomial_rows(w):
    # C and C^-1 from their cells, on bound, cyclic and relation-free input,
    # and the graph rows and 2G from the edge counts
    from qcox.algebra import graded_dims
    from qcox.coxeter import _graph_row, _pack_cells, _packed_graph_rows, _packed_gram2
    from qcox.errors import QcoxError
    seen = Counter()
    for bq in _count_and_cell_inputs():
        quiver = bq.quiver
        try:
            table = graded_dims(bq)
        except QcoxError:
            table = None
        if table is not None:
            c = cartan_matrix(bq)
            assert _pack_cells(table.cells, quiver.n, w) == pack_rows(c.rows, w)
            seen["cells"] += 1
            try:
                inverse = cell_matrix(c.n, inverse_cells(bq, c))
            except NotUnimodular:
                with pytest.raises(NotUnimodular):
                    inverse_cells(bq, c)
                seen["not unimodular"] += 1
            else:
                assert _pack_cells(inverse_cells(bq, c), quiver.n, w) == \
                    pack_rows(inverse.rows, w)
                seen["bound inverse" if bq.relations else "inverse"] += 1
                seen["cyclic inverse"] += not quiver.is_acyclic()
        if quiver.is_acyclic():
            counts = quiver.edge_counts()
            rows = [_graph_row(quiver, counts, v) for v in range(quiver.n)]
            assert _packed_graph_rows(counts, w) == pack_rows(rows, w)
            assert _packed_gram2(counts, w) == pack_rows(_gram2(counts), w)
            seen["counts"] += 1
    assert min(seen[k] for k in ("cells", "inverse", "counts")) >= 100
    assert min(seen[k] for k in ("bound inverse", "cyclic inverse", "not unimodular")) >= 4


def _counting(monkeypatch, calls, *targets):
    # wrap module attributes so that each call is counted by name
    for module, name in targets:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _f=original, _k=name, **kwargs:
                            calls.update([_k]) or _f(*args, **kwargs))


def test_relation_free_verifier_builds_no_polynomial_matrix(monkeypatch):
    # C, C^-1, the graph rows and 2G come from counts and cells; the graded
    # dimensions, of the input and of each quiver with the arrows at a sink
    # reversed, are called as algebra.graded_dims, where a tracer sees them
    import qcox.algebra as algebra_module
    import qcox.coxeter as coxeter_module
    calls = Counter()
    _counting(monkeypatch, calls, (algebra_module, "cartan_matrix"),
              (algebra_module, "cell_matrix"), (algebra_module, "graded_dims"),
              (coxeter_module, "_graph_row"), (coxeter_module, "_gram2"))
    rng = random.Random(43)
    quivers = [_parallel_chain([1] * 24), _parallel_chain([2, 1, 3])]
    quivers += [BoundQuiver(random_acyclic_quiver(rng, 2, 9, max_multiplicity=3))
                for _ in range(30)]
    for bq in quivers:
        assert verify_identities(bq).passed
        assert calls == Counter({"graded_dims": 1 + len(bq.quiver.sinks())})
        calls.clear()
    # with relations C is built once, from the same table
    assert verify_identities(DOUBLE_CHAIN).passed
    assert calls == Counter({"graded_dims": 1, "cell_matrix": 1})


def test_relation_free_verifier_reads_c_inverse_under_its_own_limits():
    # A100 needs degree 100 > the default cap: at cap 400 every check that
    # needs C^-1 runs, and the only skips are for the one numbering
    report = verify_identities(_parallel_chain([1] * 99), degree_cap=400)
    assert report.passed
    assert {c.reason for c in report.checks if c.status == "skipped"} == \
        {"only one admissible numbering available"}
    assert sum(c.status == "pass" for c in report.checks) == 12


def test_relation_free_reflection_product_forms_no_symmetric_form(monkeypatch):
    # the Cartan reflection rows of A = 2E - q(B + B^T) are the graph rows
    import qcox.coxeter as coxeter_module
    rng = random.Random(47)
    quivers = [_parallel_chain([1] * 10), _parallel_chain([3, 1, 2])]
    quivers += [BoundQuiver(random_acyclic_quiver(rng, 2, 9, max_multiplicity=3))
                for _ in range(20)]
    expected = []
    for bq in quivers:
        c = cartan_matrix(bq)
        form = symmetric_form_matrix(c)
        product = PolyMatrix.identity(c.n)
        for v in admissible_numbering(bq.quiver):
            product = naive_matmul(product, gamma_reflection(c, v, form))
        expected.append(product)
    calls = Counter()
    _counting(monkeypatch, calls, (coxeter_module, "symmetric_form_matrix"),
              (coxeter_module, "_gamma_row"))
    for bq, product in zip(quivers, expected):
        assert coxeter_matrix_bound(bq, "reflections") == product
    assert not calls
