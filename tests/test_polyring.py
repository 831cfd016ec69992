import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcox import polyring
from qcox.algebra import cartan_matrix
from qcox.errors import NotUnimodular, QcoxError
from qcox.polyring import (MINUS_ONE, ONE, Q, ZERO, Polynomial, PolyMatrix, _quotient,
                           echelon, format_rational, pack, packed_combination,
                           row_combination,
                           parse_rational, rank_rational, slot_width)

from oracles import (constant_value, degree, det_permutation_sum, gauss_pivot_columns,
                     gauss_rank,
                     is_constant, is_identity, is_lower_unitriangular, is_symmetric,
                     koszul_inverse, matrix_from_json_obj, matrix_json_obj, mul_vector,
                     naive_matmul, naive_sink_order, norm, permuted, poly_from_coeff_strings,
                     random_cyclic_bound_quiver, random_quadratic_monomial_quiver, scaled,
                     unpack, value_at)


def P(*coeffs):
    return Polynomial(coeffs)


def M(rows):
    return PolyMatrix(rows)


coeffs_st = st.lists(
    st.one_of(st.integers(-9, 9),
              st.fractions(min_value=-5, max_value=5, max_denominator=6)),
    max_size=6)
poly_st = st.builds(Polynomial, coeffs_st)


# --- rationals -------------------------------------------------------------

def test_parse_and_format_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == -7
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-4, 2)) == "-2"
    assert format_rational(Fraction(0)) == "0"
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("q")


# --- polynomials -----------------------------------------------------------

def test_polynomial_normalization_and_basics():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P().is_zero() and P(0, 0).is_zero()
    assert P(0, 1) == Q
    assert degree(Q) == 1 and degree(ZERO) == -1
    assert P(5) == 5 and P(5) == Fraction(5)
    assert P(0, 0, 3) != P(3)


def test_polynomial_arithmetic():
    p = P(1, 0, 1)      # 1 + q^2
    r = P(0, 1)         # q
    assert p + r == P(1, 1, 1)
    assert p - p == ZERO
    assert p * r == P(0, 1, 0, 1)
    assert -p == P(-1, 0, -1)
    assert 2 * r == P(0, 2)
    assert r * Fraction(1, 2) == P(0, Fraction(1, 2))
    assert degree(p * r) == degree(p) + degree(r)


def test_polynomial_str():
    assert str(ZERO) == "0"
    assert str(P(1, 0, 2)) == "1+2q^2"
    assert str(P(-1, 0, 1)) == "-1+q^2"
    assert str(P(0, -1)) == "-q"
    assert str(P(Fraction(1, 2), Fraction(-3, 2))) == "1/2-(3/2)q"


def test_polynomial_serialization_round_trip():
    p = P(1, 0, Fraction(2, 3), -4)
    strings = p.to_coeff_strings()
    assert strings == ["1", "0", "2/3", "-4"]
    assert poly_from_coeff_strings(strings) == p


def test_quotient():
    p = P(1, 0, 1) * P(2, 3)
    assert _quotient(p, P(2, 3)) == P(1, 0, 1)
    assert _quotient(p, ONE) == p
    # 1 + q = 1 * q + 1: the remainder 1 is dropped
    assert _quotient(P(1, 1), P(0, 1)) == ONE
    # 1 + 2q + 3q^2 = (1 + 2q)(1/4 + (3/2)q) + 3/4
    assert _quotient(P(1, 2, 3), P(1, 2)) == P(Fraction(1, 4), Fraction(3, 2))
    with pytest.raises(ZeroDivisionError):
        _quotient(ONE, ZERO)


@given(poly_st, poly_st)
def test_quotient_leaves_a_remainder_of_lower_degree(a, b):
    if b.is_zero():
        return
    assert degree(a - b * _quotient(a, b)) < degree(b)


def test_evaluate():
    p = P(1, -2, 3)
    assert p.evaluate(Fraction(1, 2)) == 1 - 1 + Fraction(3, 4)
    assert p.evaluate(0) == 1


@given(poly_st, st.one_of(st.integers(-4, 4),
                          st.fractions(min_value=-3, max_value=3, max_denominator=4)))
@example(P(1, -2, 3), Fraction(2))
@example(P(Fraction(1, 2), 0, 1), Fraction(-3))
@example(P(0, 0, -7, 0, 4), Fraction(-1, 2))
@example(P(*[-3] * 9), Fraction(3, 2))
@example(P(1, -2, 3), Fraction(1, 3))
@example(P(Fraction(1, 2), 0, 1), Fraction(-1, 2))
@example(P(2, Fraction(-5, 3), 4), Fraction(3, 2))
@example(P(Fraction(7, 2)), Fraction(1, 3))
@example(P(), Fraction(1, 3))
def test_evaluate_gives_the_fraction_sum_of_terms(p, q0):
    # Horner runs over a^k b^(d-k) at q0 = a/b, in ints for int coefficients,
    # then divides once; the value is a Fraction either way
    value = p.evaluate(q0)
    assert type(value) is Fraction and value == value_at(p, q0)


@settings(max_examples=150)
@given(poly_st, poly_st, poly_st)
def test_distributivity_and_normalization(p, r, s):
    left = (p + r) * s
    right = p * s + r * s
    assert left == right
    for poly in (left, right, p - r, p * r):
        assert not poly.coeffs or poly.coeffs[-1] != 0


def test_bool_coefficients_rejected():
    for bad in ([True], [1, False], [Fraction(1, 2), True]):
        with pytest.raises(TypeError):
            Polynomial(bad)
    with pytest.raises(TypeError):
        Polynomial.coerce(True)
    with pytest.raises(TypeError):
        M([[True]])


def test_hash_agrees_with_equality_on_constants():
    assert hash(P(3)) == hash(3) and P(3) == 3
    assert hash(P(Fraction(-1, 2))) == hash(Fraction(-1, 2))
    assert hash(ZERO) == hash(0) and hash(P(0, 0)) == hash(0)
    assert {P(3): "three"}[3] == "three"
    assert {3: "three"}[P(3)] == "three"
    assert {P(2), 2, Fraction(2)} == {2}


@given(poly_st)
def test_equal_values_hash_equal(p):
    constant = constant_value(p)
    if constant is not None:
        assert p == constant and hash(p) == hash(constant)
    assert hash(p) == hash(Polynomial(p.coeffs))


@given(poly_st, poly_st)
def test_degree_multiplicative(p, r):
    if p.is_zero() or r.is_zero():
        assert (p * r).is_zero()
    else:
        assert degree(p * r) == degree(p) + degree(r)


# --- matrices --------------------------------------------------------------

def rand_poly(rng, max_deg=2, lo=-3, hi=3):
    return Polynomial([rng.randint(lo, hi) for _ in range(rng.randint(0, max_deg + 1))])


def rand_matrix(rng, n, max_deg=2):
    return M([[rand_poly(rng, max_deg) for _ in range(n)] for _ in range(n)])


def rand_unimodular(rng, n):
    # product of elementary shears and +-1 diagonal flips: det is +-1
    out = PolyMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        e = [[ONE if a == b else ZERO for b in range(n)] for a in range(n)]
        e[i][j] = rand_poly(rng)
        out = out * M(e)
    flips = [[(MINUS_ONE if (a == b and rng.random() < 0.3) else (ONE if a == b else ZERO))
              for b in range(n)] for a in range(n)]
    return out * M(flips)


def test_matrix_construction_errors():
    with pytest.raises(ValueError):
        M([[ONE, ZERO]])
    with pytest.raises(ValueError):
        PolyMatrix([])


def test_matrix_identity_and_mul():
    a = M([[1, Q], [0, 1]])
    e = PolyMatrix.identity(2)
    assert a * e == a and e * a == a
    b = M([[0, 1], [1, 0]])
    assert (a * b).rows == M([[Q, 1], [1, 0]]).rows


def test_matrix_mul_associative_random():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        a, b, c = (rand_matrix(rng, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * PolyMatrix.identity(n) == a == PolyMatrix.identity(n) * a


sparse_poly_st = st.one_of(st.just(ZERO), st.just(ONE), st.just(MINUS_ONE), poly_st)


@st.composite
def sparse_matrices(draw, n):
    """Matrices with Fraction coefficients, many zero and unit entries, and
    some rows and columns that are zero throughout."""
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return M([[ZERO if i in zero_rows or j in zero_cols else draw(sparse_poly_st)
               for j in range(n)] for i in range(n)])


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(sparse_matrices(n)), draw(sparse_matrices(n))


@settings(max_examples=100, deadline=None)
@given(matrix_pairs())
def test_sparse_product_matches_triple_loop(pair):
    a, b = pair
    expected = naive_matmul(a, b)
    assert a * b == expected
    for j in range(a.n):
        assert mul_vector(a, b.column(j)) == expected.column(j)


# --- row kernels against a dense reference loop ------------------------------

def dense_combination(coeffs, rows, zero):
    """The row sum of coeffs[k] * rows[k], every entry visited, zeros included."""
    out = [zero] * len(rows[0])
    for a, row in zip(coeffs, rows):
        for j, e in enumerate(row):
            out[j] = out[j] + a * e
    return out


@st.composite
def combinations(draw, entry, zero, coeff=None):
    """(coeffs, rows): k rows of length n, some coefficients zero and some
    rows zero throughout; coefficients are drawn from coeff (default: entry)."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    coeffs = draw(st.lists(st.one_of(st.just(zero), entry if coeff is None else coeff),
                           min_size=k, max_size=k))
    rows = draw(st.lists(st.one_of(st.just([zero] * n),
                                   st.lists(entry, min_size=n, max_size=n)),
                         min_size=k, max_size=k))
    return coeffs, rows


def shifted(coeffs, shift):
    return Polynomial([0] * shift + coeffs)


nonzero_coeff_st = st.one_of(st.integers(-9, 9),
                             st.fractions(min_value=-5, max_value=5,
                                          max_denominator=6)).filter(bool)
# a*q^s, as the reflection rows, E - qB and the forms vectors have them
monomial_st = st.builds(lambda a, s: shifted([a], s), nonzero_coeff_st, st.integers(0, 8))
# entries up to degree 50 that are mostly zero coefficients, as Cartan rows
high_degree_st = st.one_of(sparse_poly_st,
                           st.builds(shifted, coeffs_st, st.integers(0, 45)))
# degree-40 entries with zeros inside, and a zero entry, for the examples
WIDE_ROWS = [[shifted([1], 40), ZERO, shifted([-1, 0, 0, 2], 41)],
             [ZERO, shifted([Fraction(1, 3)], 44), P(1, 0, 0, -4)],
             [shifted([5, 0, 1], 40), ONE, ZERO],
             [ZERO, ZERO, ZERO]]


@settings(max_examples=300, deadline=None)
@given(st.one_of(combinations(sparse_poly_st, ZERO),
                 combinations(high_degree_st, ZERO, monomial_st)))
@example(([ZERO, ZERO], [[P(1), ZERO], [ZERO, Q]]))
@example(([P(Fraction(1, 2)), Q], [[ZERO, ZERO], [P(0, Fraction(-2, 3)), ZERO]]))
@example(([ONE, MINUS_ONE, P(0, Fraction(1, 2)), P(0, 0, 0, 2)], WIDE_ROWS))
@example(([P(0, 0, 0, 2), P(0, Fraction(1, 2)), MINUS_ONE, ONE], WIDE_ROWS))
@example(([MINUS_ONE, ZERO, MINUS_ONE, ONE], WIDE_ROWS))
def test_row_combination_matches_the_dense_loop(case):
    coeffs, rows = case
    assert row_combination(coeffs, rows) == tuple(dense_combination(coeffs, rows, ZERO))


int_poly_st = st.builds(shifted, st.lists(st.integers(-9, 9), max_size=6), st.integers(0, 45))
int_monomial_st = st.builds(lambda a, s: shifted([a], s),
                            st.integers(-9, 9).filter(bool), st.integers(0, 8))


@settings(max_examples=100, deadline=None)
@given(st.one_of(combinations(int_poly_st, ZERO),
                 combinations(int_poly_st, ZERO, int_monomial_st)))
@example(([ONE, MINUS_ONE, P(0, 0, 0, 2)], WIDE_ROWS[2:] + [[P(-1, 0, 0, 2)] * 3]))
def test_row_combination_keeps_int_coefficients_ints(case):
    # in the monomial branch and in the general one
    coeffs, rows = case
    for p in row_combination(coeffs, rows):
        assert all(type(c) is int for c in p.coeffs)


@settings(max_examples=300, deadline=None)
@given(combinations(st.one_of(st.just(0), st.integers(-(1 << 70), 1 << 70)), 0))
@example(([0, 0], [[1, 0], [0, 5]]))
@example(([3, -1], [[0, 0], [0, 0]]))
def test_packed_combination_matches_the_dense_loop(case):
    coeffs, rows = case
    before = [list(row) for row in rows]
    result = packed_combination(coeffs, rows)
    assert result == dense_combination(coeffs, rows, 0)
    # the result is a new list: writing to it leaves the rows as they were
    result[0] += 1
    assert rows == before


# --- packed Z[q] ------------------------------------------------------------

@settings(max_examples=200)
@given(st.integers(2, 70), st.data())
def test_pack_round_trip_up_to_the_slot_limits(w, data):
    top = (1 << (w - 1)) - 1
    coeff = st.one_of(st.integers(-top, top), st.sampled_from([top, -top, 0]))
    p = Polynomial(data.draw(st.lists(coeff, max_size=8)))
    assert unpack(pack(p.coeffs, w), w) == p
    # a Fraction with denominator 1 packs as its integer
    assert pack(Polynomial([Fraction(c) for c in p.coeffs]).coeffs, w) == pack(p.coeffs, w)


def test_pack_rejects_a_non_integral_coefficient():
    with pytest.raises(ValueError):
        pack(P(1, Fraction(1, 2)).coeffs, 8)


int_poly_st = st.lists(st.integers(-50, 50), max_size=4).map(Polynomial)


@st.composite
def int_matrix_pairs(draw):
    n = draw(st.integers(1, 4))
    rows = st.lists(st.lists(int_poly_st, min_size=n, max_size=n), min_size=n, max_size=n)
    return M(draw(rows)), M(draw(rows))


@settings(max_examples=100, deadline=None)
@given(int_matrix_pairs())
def test_packed_products_match_the_triple_loop(pair):
    a, b = pair
    # norm is submultiplicative, so norm(a) * norm(b) bounds the product
    w = slot_width(norm(a.rows) * norm(b.rows))
    packed_b = [[pack(p.coeffs, w) for p in row] for row in b.rows]
    product = [packed_combination([pack(p.coeffs, w) for p in row], packed_b) for row in a.rows]
    assert [[unpack(v, w) for v in row] for row in product] == \
        [list(row) for row in naive_matmul(a, b).rows]
    x, y = a.entry(0, 0), b.entry(0, 0)
    assert pack(x.coeffs, w) * pack(y.coeffs, w) - pack(x.coeffs, w) == pack((x * y - x).coeffs, w)


@settings(max_examples=200)
@given(st.integers(1, 10 ** 6), st.data())
def test_packed_equality_is_polynomial_equality_under_the_bound(bound, data):
    coeff = st.integers(-bound, bound)
    a = Polynomial(data.draw(st.lists(coeff, max_size=5)))
    b = data.draw(st.one_of(st.just(a), st.lists(coeff, max_size=5).map(Polynomial)))
    w = slot_width(bound)
    assert (pack(a.coeffs, w) == pack(b.coeffs, w)) == (a == b)
    assert (pack(a.coeffs, w) == 0) == a.is_zero()


def test_carries_collide_only_below_the_chosen_width():
    for w in range(2, 64):
        # q and the constant 2^w both pack to 2^w at width w
        big = P(1 << w)
        assert pack(Q.coeffs, w) == pack(big.coeffs, w)
        chosen = slot_width(1 << w)
        assert chosen > w and pack(Q.coeffs, chosen) != pack(big.coeffs, chosen)
        # coefficients of absolute value at most B = 2^(w-1) collide at
        # w = B.bit_length(): 2^(w-1) and q - 2^(w-1)
        half = 1 << (w - 1)
        a, b = P(half), P(-half, 1)
        assert a != b and pack(a.coeffs, w) == pack(b.coeffs, w)
        assert slot_width(half) == w + 2 and pack(a.coeffs, w + 2) != pack(b.coeffs, w + 2)


def test_norm_is_the_largest_row_sum_of_absolute_coefficients():
    assert norm([[P(1, -2), P(0, 0, 3)], [P(-1), ZERO]]) == 6
    assert norm([[ZERO, ZERO]]) == 1
    assert norm([[P(Fraction(3), -1)]]) == 4


def test_mul_vector_and_scaled():
    a = M([[1, Q], [0, 1]])
    assert mul_vector(a, [1, 1]) == (P(1, 1), ONE)
    assert scaled(a, Q) == M([[Q, Q * Q], [0, Q]])
    with pytest.raises(ValueError):
        mul_vector(a, [1])


def test_det_golden_examples():
    assert PolyMatrix.identity(4).det() == 1
    a3 = M([[1, 0, 0], [Q, 1, Q], [0, 0, 1]])
    assert a3.det() == 1
    assert det_permutation_sum(a3) == ONE
    two_vertex = M([[P(1), P(0, 2)], [Q, P(1, 0, 2)]])
    assert two_vertex.det() == 1


def test_det_matches_permutation_sum_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, max_deg=1)
        assert a.det() == det_permutation_sum(a)


def test_det_multiplicative_random():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 4)
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        assert (a * b).det() == a.det() * b.det()


def test_det_singular():
    assert M([[1, 1], [1, 1]]).det() == 0
    assert M([[0, 0], [Q, 1]]).det() == 0


def test_inverse_golden_examples():
    two_vertex = M([[P(1), P(0, 2)], [Q, P(1, 0, 2)]])
    assert two_vertex.inverse_unimodular() == M([[P(1, 0, 2), P(0, -2)], [-Q, P(1)]])

    upper = M([[P(1), P(0, 2), P(0, 0, 1)],
               [P(0), P(1), Q],
               [P(0), P(0), P(1)]])
    assert upper.inverse_unimodular() == M([[P(1), P(0, -2), P(0, 0, 1)],
                                            [P(0), P(1), -Q],
                                            [P(0), P(0), P(1)]])

    e = PolyMatrix.identity(3)
    assert e.inverse_unimodular() == e


def test_inverse_requires_unimodular():
    with pytest.raises(NotUnimodular):
        M([[P(1, 0, 1)]]).inverse_unimodular()
    with pytest.raises(NotUnimodular) as raised:
        M([[2, 0], [0, 1]]).inverse_unimodular()
    assert raised.value.det == 2


def test_determinant_sign_from_pivot_rows():
    swap = M([[0, 1], [1, 0]])
    shifted_swap = M([[Q, 1], [1, 0]])
    three_cycle = M([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for a, det in ((swap, -1), (shifted_swap, -1), (three_cycle, 1)):
        assert a.det() == det == det_permutation_sum(a)
        inv = a.inverse_unimodular()
        assert is_identity(a * inv) and is_identity(inv * a)
        # doubling the first row doubles the determinant, sign included
        doubled = M([[2 * e for e in a.rows[0]]] + [list(r) for r in a.rows[1:]])
        with pytest.raises(NotUnimodular) as raised:
            doubled.inverse_unimodular()
        assert raised.value.det == 2 * det


def test_inverse_keeps_minus_one_pivots_int():
    a = M([[-1, Q], [0, 1]])
    inv = a.inverse_unimodular()
    assert inv == M([[-1, Q], [0, 1]])
    assert is_identity(a * inv)
    coeffs = [c for row in inv.rows for e in row for c in e.coeffs]
    assert all(type(c) is int for c in coeffs)
    found_det = a.det()
    assert found_det == -1 and type(found_det.coeffs[0]) is int


def test_inverse_without_constant_pivots():
    # every entry has positive degree, so no column starts with a constant
    # pivot and the Euclidean rounds must make one
    a = M([[P(1, 1), Q], [P(2, 1), P(1, 1)]])
    assert not any(is_constant(e) for row in a.rows for e in row)
    inv = a.inverse_unimodular()
    assert inv == M([[P(1, 1), -Q], [P(-2, -1), P(1, 1)]])
    assert is_identity(a * inv) and is_identity(inv * a)
    # no constant entry anywhere, in either orientation
    b = M([[P(1, 0, 1), P(0, 2, 0, 1)], [Q, P(1, 0, 1)]])
    for c in (b, b.transpose()):
        assert not any(is_constant(e) for row in c.rows for e in row)
        inv = c.inverse_unimodular()
        assert is_identity(naive_matmul(c, inv)) and is_identity(naive_matmul(inv, c))


def test_inverse_round_trip_random():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = rand_unimodular(rng, n)
        inv = a.inverse_unimodular()
        assert is_identity(a * inv)
        assert is_identity(inv * a)
        assert a.adjugate() == (inv if a.det() == 1 else -inv)


def test_cyclic_cartan_sweep(monkeypatch):
    # Cartan matrices of cyclic quivers often have no constant pivot where
    # the elimination needs one, so this sweep reaches the Euclidean rounds
    quotients = []

    def counted(a, b):
        quotients.append(b)
        return _quotient(a, b)

    monkeypatch.setattr(polyring, "_quotient", counted)
    rng = random.Random(31)
    unimodular = euclidean = 0
    for _ in range(300):
        a = cartan_matrix(random_cyclic_bound_quiver(rng))
        assert a.n <= 4
        det = a.det()
        assert det == det_permutation_sum(a)
        rounds = len(quotients)
        try:
            inv = a.inverse_unimodular()
        except NotUnimodular as raised:
            assert raised.det == det and det != 1 and det != -1
            continue
        unimodular += 1
        euclidean += len(quotients) > rounds
        assert is_identity(naive_matmul(a, inv))
    assert unimodular >= 20 and euclidean >= 5


def test_inverse_matches_koszul_dual():
    rng = random.Random(37)
    matched = cyclic = 0
    for _ in range(300):
        bq = random_quadratic_monomial_quiver(rng)
        try:
            a = cartan_matrix(bq, degree_cap=16, max_dim=200)
        except QcoxError:       # infinite-dimensional
            continue
        try:
            inv = a.inverse_unimodular()
        except NotUnimodular:
            assert det_permutation_sum(a) not in (1, -1)
            continue
        assert inv == koszul_inverse(bq)
        matched += 1
        cyclic += naive_sink_order(bq.quiver) is None
    assert matched >= 30 and cyclic >= 5


def test_specialize_golden():
    cartan = M([[P(1, 0, 1), Q, P(0)],
                [Q, P(1, 0, 1), Q],
                [P(0), Q, P(1, 0, 1)]])
    assert cartan.specialize(1) == [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    assert cartan.specialize(0) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_specialize_multiplicative_random():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 4)
        a, b = rand_matrix(rng, n), rand_matrix(rng, n)
        q0 = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        left = (a * b).specialize(q0)
        ra, rb = a.specialize(q0), b.specialize(q0)
        prod = [[sum(ra[i][k] * rb[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert left == prod


def test_permuted_and_predicates():
    a = M([[1, Q], [0, 1]])
    assert permuted(a, [1, 0]) == M([[1, 0], [Q, 1]])
    assert is_lower_unitriangular(permuted(a, [1, 0]))
    assert not is_lower_unitriangular(a)
    assert is_symmetric(M([[1, Q], [Q, 1]]))
    with pytest.raises(ValueError):
        permuted(a, [0, 0])


def test_matrix_json_round_trip():
    a = M([[P(1, 0, 1), P(Fraction(1, 2))], [Q, P(-1)]])
    assert matrix_from_json_obj(matrix_json_obj(a)) == a


# --- rational rank ---------------------------------------------------------

def test_rank_trivial_cases():
    assert rank_rational([]) == 0
    assert rank_rational([[0, 0], [0, 0]]) == 0
    assert rank_rational([[1, -1]]) == 1
    assert rank_rational([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert rank_rational([[1, 0], [0, 1], [1, 1]]) == 2


def test_rank_matches_gauss_oracle_random():
    rng = random.Random(23)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
             for _ in range(rows)]
        assert rank_rational(m) == gauss_rank(m)


def test_echelon_is_reduced_and_spans_the_rows():
    rng = random.Random(29)
    for _ in range(60):
        cols = rng.randint(1, 7)
        dense = [[Fraction(rng.choice([0, 0, 0, 1, -1, 2, -3]), rng.randint(1, 3))
                  for _ in range(cols)] for _ in range(rng.randint(1, 7))]
        reduced = echelon({c: x for c, x in enumerate(row) if x} for row in dense)
        assert sorted(reduced) == gauss_pivot_columns(dense)
        for lead, row in reduced.items():
            assert min(row) == lead and row[lead] == 1
            assert all(c == lead or c not in reduced for c in row)
            assert all(row.values())
        # same row space: adding the reduced rows raises no rank
        as_dense = [[row.get(c, 0) for c in range(cols)] for row in reduced.values()]
        assert gauss_rank(dense + as_dense) == len(reduced)
