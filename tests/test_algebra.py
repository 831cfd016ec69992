import random
from fractions import Fraction
from itertools import count, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcox.algebra as algebra_module
from qcox.algebra import (DEFAULT_MAX_DIM, _normal_word_dims, _path_steps, _path_totals,
                          _vanishing_degree, cartan_inverse, cartan_matrix, dim_vector,
                          graded_dims)
from qcox.errors import DegreeCapExceeded, DimensionBudgetExceeded, NotUnimodular
from qcox.polyring import Polynomial, PolyMatrix
from qcox.quiverdsl import Arrow, BoundQuiver, Quiver, Relation, parse_quiver
from qcox.randquiver import random_acyclic_quiver, random_bound_quiver

from oracles import (classical_cartan_by_path_counts, det_permutation_sum, dim, enumerate_paths,
                     exterior, exterior_dims, is_identity, koszul_inverse, mul_vector,
                     naive_degree_dims, naive_graded_dims, path_from_arrows, preprojective,
                     preprojective_dims, random_cyclic_bound_quiver,
                     random_quadratic_monomial_quiver, total_at, truncated, truncated_dims)


def P(*coeffs):
    return Polynomial(coeffs)


@pytest.fixture
def three_cycle():
    # commuting square folded on a line: arrows both ways between neighbours
    return parse_quiver("""
    quiver c3 {
      vertices: 1, 2, 3;
      arrows: a: 1 -> 2; d: 2 -> 1; b: 2 -> 3; g: 3 -> 2;
      relations: a*b; g*d; d*a - b*g;
    }
    """)


@pytest.fixture
def double_arrow_chain():
    # two parallel arrows into a chain, one relation identifying the composites
    return parse_quiver("""
    quiver dc {
      vertices: 1, 2, 3;
      arrows: a: 1 -> 2; b: 1 -> 2; d: 2 -> 3;
      relations: a*d - b*d;
    }
    """)


@pytest.fixture
def two_vertex_cyclic():
    # cyclic quiver whose relations still cut the algebra down to finite dimension
    return parse_quiver("""
    quiver tv {
      vertices: 1, 2;
      arrows: a: 1 -> 2; b: 1 -> 2; d: 2 -> 1;
      relations: a*d; b*d;
    }
    """)


def test_enumerate_paths_goldens(three_cycle, double_arrow_chain):
    from qcox.quiverdsl import Path
    q = three_cycle.quiver
    loops = enumerate_paths(q, 0, 0, 2)
    assert [p.names(q) for p in loops] == [["a", "d"]]
    assert enumerate_paths(q, 1, 1, 0) == [Path.trivial(1)]

    dq = double_arrow_chain.quiver
    two_step = enumerate_paths(dq, 0, 2, 2)
    assert [p.names(dq) for p in two_step] == [["a", "d"], ["b", "d"]]


def test_enumerate_paths_lex_order():
    bq = parse_quiver("""
    quiver lex {
      vertices: 1, 2, 3;
      arrows: a: 1 -> 2; b: 1 -> 2; c: 2 -> 3; d: 2 -> 3;
    }
    """)
    q = bq.quiver
    paths = enumerate_paths(q, 0, 2, 2)
    assert [p.names(q) for p in paths] == [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]


def test_graded_dims_three_cycle(three_cycle):
    table = graded_dims(three_cycle)
    assert table.max_degree == 3
    expected = {(v, v, 0): 1 for v in range(3)}
    expected.update({(0, 1, 1): 1, (1, 0, 1): 1, (1, 2, 1): 1, (2, 1, 1): 1,
                     (0, 0, 2): 1, (1, 1, 2): 1, (2, 2, 2): 1})
    assert dict(table.dims) == expected
    assert dim(table, 0, 2, 2) == 0
    assert total_at(table, 3) == 0


def test_graded_dims_single_vertex():
    # the grammar requires at least one arrow declaration, so build directly
    from qcox.quiverdsl import BoundQuiver, Quiver
    bq = BoundQuiver(Quiver(("1",), ()))
    table = graded_dims(bq)
    assert dict(table.dims) == {(0, 0, 0): 1}
    assert table.max_degree == 1


def test_degree_cap_exceeded_on_unbounded_cycle():
    from qcox.quiverdsl import Arrow, BoundQuiver, Quiver
    bq = BoundQuiver(Quiver(("1", "2"), (Arrow("u", 0, 1), Arrow("v", 1, 0))))
    with pytest.raises(DegreeCapExceeded):
        graded_dims(bq, degree_cap=10)


def test_dim_vector_checks_the_kind_before_the_cartan_matrix():
    # the graded dimensions of a 2-cycle never end: a bad kind is reported
    # as such, not as the degree cap of the Cartan matrix
    bq = BoundQuiver(Quiver(("1", "2"), (Arrow("u", 0, 1), Arrow("v", 1, 0))))
    with pytest.raises(ValueError, match="kind must be one of"):
        dim_vector(bq, "bogus", 0)
    assert dim_vector(bq, "simple", 1) == (P(0), P(1))
    with pytest.raises(DegreeCapExceeded):
        dim_vector(bq, "projective", 0, degree_cap=8)


def test_cartan_golden_three_cycle(three_cycle):
    c = cartan_matrix(three_cycle)
    assert c == PolyMatrix([[P(1, 0, 1), P(0, 1), P(0)],
                            [P(0, 1), P(1, 0, 1), P(0, 1)],
                            [P(0), P(0, 1), P(1, 0, 1)]])


def test_cartan_golden_double_arrow_chain(double_arrow_chain):
    c = cartan_matrix(double_arrow_chain)
    assert c == PolyMatrix([[P(1), P(0, 2), P(0, 0, 1)],
                            [P(0), P(1), P(0, 1)],
                            [P(0), P(0), P(1)]])


def test_cartan_golden_two_vertex_cyclic(two_vertex_cyclic):
    c = cartan_matrix(two_vertex_cyclic)
    assert c == PolyMatrix([[P(1), P(0, 2)],
                            [P(0, 1), P(1, 0, 2)]])
    assert graded_dims(two_vertex_cyclic).max_degree == 3


def test_dim_vectors(three_cycle, two_vertex_cyclic):
    assert dim_vector(three_cycle, "projective", 0) == (P(1, 0, 1), P(0, 1), P(0))
    assert dim_vector(three_cycle, "simple", 1) == (P(0), P(1), P(0))
    assert dim_vector(two_vertex_cyclic, "injective", 1) == (P(0, 2), P(1, 0, 2))
    with pytest.raises(ValueError):
        dim_vector(three_cycle, "projective", 5)
    with pytest.raises(ValueError):
        dim_vector(three_cycle, "flat", 0)


def test_dim_vector_rows_and_columns_match_cartan(double_arrow_chain):
    c = cartan_matrix(double_arrow_chain)
    n = c.n
    for i in range(n):
        assert dim_vector(double_arrow_chain, "projective", i) == tuple(c.rows[i])
        assert dim_vector(double_arrow_chain, "injective", i) == c.column(i)
        simple = dim_vector(double_arrow_chain, "simple", i)
        assert mul_vector(c, simple) == c.column(i)


def test_cartan_det_check(three_cycle, two_vertex_cyclic):
    assert cartan_matrix(two_vertex_cyclic).det() == 1
    assert cartan_matrix(BoundQuiver(Quiver(("1",), ()))).det() == 1
    for bq in (three_cycle, two_vertex_cyclic):
        c = cartan_matrix(bq)
        assert c.det() == det_permutation_sum(c)


def test_relation_free_cartan_counts_paths():
    rng = random.Random(31)
    for _ in range(15):
        quiver = random_acyclic_quiver(rng, n_min=3, n_max=5)
        from qcox.quiverdsl import BoundQuiver
        bq = BoundQuiver(quiver)
        c = cartan_matrix(bq)
        md = graded_dims(bq).max_degree
        for i in range(quiver.n):
            for j in range(quiver.n):
                counts = [len(enumerate_paths(quiver, i, j, d)) for d in range(md + 1)]
                assert c.entry(i, j) == Polynomial(counts)


def test_relation_free_cartan_inverts_arrow_matrix():
    # with no relations the Cartan matrix is the inverse of E - q*B
    rng = random.Random(37)
    from qcox.quiverdsl import BoundQuiver
    for _ in range(15):
        quiver = random_acyclic_quiver(rng)
        c = cartan_matrix(BoundQuiver(quiver))
        b = quiver.arrow_counts()
        n = quiver.n
        e_minus_qb = PolyMatrix([[P(int(i == j), -b[i][j]) for j in range(n)]
                                 for i in range(n)])
        assert is_identity(c * e_minus_qb)


def _chain(n: int, parallel: int) -> Quiver:
    return Quiver(tuple(str(v + 1) for v in range(n)),
                  tuple(Arrow(f"a{v}_{c}", v, v + 1)
                        for v in range(n - 1) for c in range(parallel)))


def test_cartan_inverse_closed_form_matches_elimination_and_koszul_dual(double_arrow_chain):
    # without relations cartan_inverse is E - q*B; the elimination and the
    # Koszul dual (C^-1(q) = C_{A!}(-q)^T) must give the same matrix
    rng = random.Random(83)
    quivers = [random_acyclic_quiver(rng, 2, 9) for _ in range(40)]
    quivers += [_chain(n, parallel) for n in (1, 2, 6, 12) for parallel in (1, 2)]
    quivers.append(_chain(5, 3))
    quivers.append(double_arrow_chain.quiver)
    with_parallel = 0
    for quiver in quivers:
        bq = BoundQuiver(quiver)
        c = cartan_matrix(bq)
        assert cartan_inverse(bq, c) == c.inverse_unimodular() == koszul_inverse(bq)
        with_parallel += any(m > 1 for row in quiver.arrow_counts() for m in row)
    assert with_parallel >= 15


def test_cartan_inverse_with_relations_is_the_elimination(three_cycle, double_arrow_chain,
                                                          two_vertex_cyclic):
    rng = random.Random(89)
    cases = [random_bound_quiver(rng) for _ in range(40)]
    cases += [random_cyclic_bound_quiver(rng) for _ in range(40)]
    cases += [three_cycle, double_arrow_chain, two_vertex_cyclic]
    inverted = refused = 0
    for bq in cases:
        if not bq.relations:
            continue
        c = cartan_matrix(bq)
        try:
            expected = c.inverse_unimodular()
        except NotUnimodular as exc:
            with pytest.raises(NotUnimodular) as raised:
                cartan_inverse(bq, c)
            assert str(raised.value) == str(exc)
            refused += 1
            continue
        assert cartan_inverse(bq, c) == expected
        inverted += 1
    assert inverted >= 20 and refused >= 5
    with pytest.raises(NotUnimodular):
        cartan_inverse(three_cycle, cartan_matrix(three_cycle))


def test_graded_dims_match_naive_oracle_random():
    rng = random.Random(41)
    for _ in range(12):
        bq = random_bound_quiver(rng, n_min=3, n_max=5)
        table = graded_dims(bq)
        oracle_dims, oracle_stop = naive_graded_dims(bq)
        assert dict(table.dims) == oracle_dims
        assert table.max_degree == oracle_stop


def test_specialization_at_one_counts_all_paths():
    rng = random.Random(43)
    from qcox.quiverdsl import BoundQuiver
    for _ in range(10):
        quiver = random_acyclic_quiver(rng)
        c = cartan_matrix(BoundQuiver(quiver))
        assert c.specialize(1) == classical_cartan_by_path_counts(quiver)


@pytest.mark.parametrize("n", range(2, 10))
def test_graded_dims_preprojective_hilbert_series(n):
    expected = preprojective_dims(n)
    # the Hilbert series is a polynomial of degree h - 2 = n - 1
    assert max(d for _, _, d in expected) == n - 1
    table = graded_dims(preprojective(n))
    assert dict(table.dims) == expected
    assert table.max_degree == n


@pytest.mark.parametrize("k", range(2, 7))
def test_graded_dims_exterior_binomials(k):
    table = graded_dims(exterior(k))
    assert dict(table.dims) == exterior_dims(k)
    assert table.max_degree == k + 1


@pytest.mark.parametrize("n, pairs, length", [
    (3, [(0, 1), (1, 2), (2, 0)], 4),
    (2, [(0, 1), (0, 1), (1, 0)], 5),
    (1, [(0, 0), (0, 0)], 6),
    (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 5),
    (2, [(0, 1), (0, 1), (1, 0), (1, 0)], 6),
    (3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)], 6),
])
def test_graded_dims_truncated_path_counts(n, pairs, length):
    bq = truncated(n, pairs, length)
    table = graded_dims(bq, degree_cap=length)
    assert dict(table.dims) == truncated_dims(n, pairs, length)
    assert table.max_degree == length
    with pytest.raises(DegreeCapExceeded):
        graded_dims(bq, degree_cap=length - 1)


def test_graded_dims_match_naive_oracle_cyclic():
    rng = random.Random(47)
    for _ in range(30):
        bq = random_cyclic_bound_quiver(rng)
        table = graded_dims(bq)
        oracle_dims, oracle_stop = naive_graded_dims(bq)
        assert dict(table.dims) == oracle_dims
        assert table.max_degree == oracle_stop
        # A_d = 0 forces A_{d+1} = 0: the quotient is generated in degree <= 1
        assert naive_degree_dims(bq, table.max_degree + 1) == {}


def test_dimension_budget():
    from qcox.quiverdsl import Arrow, BoundQuiver, Quiver
    two_loops = BoundQuiver(Quiver(("1",), (Arrow("x", 0, 0), Arrow("y", 0, 0))))
    with pytest.raises(DimensionBudgetExceeded) as info:
        graded_dims(two_loops, max_dim=1000)
    assert (info.value.degree, info.value.max_dim) == (10, 1000)
    # the exterior algebra on 3 generators has dims 1, 3, 3, 1
    assert graded_dims(exterior(3), max_dim=3).max_degree == 4
    with pytest.raises(DimensionBudgetExceeded):
        graded_dims(exterior(3), max_dim=2)
    # k[x, y] from two dependent relations: 4 candidates minus 2 rows would
    # fit a budget of 2, but the rows have rank 1 and degree 2 has dim 3
    commutative = parse_quiver("""
    quiver poly2 {
      vertices: 1;
      arrows: x: 1 -> 1; y: 1 -> 1;
      relations: x*y - y*x; 2*x*y - 2*y*x;
    }
    """)
    with pytest.raises(DimensionBudgetExceeded) as info:
        graded_dims(commutative, max_dim=2)
    assert info.value.degree == 2


def test_dimension_budget_admits_two_arrow_chains():
    # the 2-arrow chain A_n has 2**(n-1) words in its largest degree
    from qcox.quiverdsl import Arrow, BoundQuiver, Quiver
    n = 12
    arrows = tuple(Arrow(f"a{i}{c}", i, i + 1) for i in range(n - 1) for c in range(2))
    chain = BoundQuiver(Quiver(tuple(str(v) for v in range(n)), arrows))
    assert graded_dims(chain, max_dim=2 ** (n - 1)).max_degree == n
    with pytest.raises(DimensionBudgetExceeded):
        graded_dims(chain, max_dim=2 ** (n - 1) - 1)
    assert DEFAULT_MAX_DIM >= 2 ** 19      # admits the 2-arrow chain A20


# --- relation-free quivers: path counts ---------------------------------------

def _relation_free(rng, cyclic):
    """Relation-free quiver on 1-5 vertices, often with parallel arrows.
    Acyclic ones have arrows i -> j with i < j only; cyclic ones may have
    any arrow and always close a cycle, which may be a loop."""
    n = rng.randint(1, 5)
    pairs = []
    for _ in range(rng.randint(0, 7)):
        s, t = rng.randrange(n), rng.randrange(n)
        if not cyclic:
            if s == t:
                continue
            s, t = min(s, t), max(s, t)
        pairs += [(s, t)] * rng.choice((1, 1, 2))
    if cyclic:
        s, t = rng.randrange(n), rng.randrange(n)
        pairs += [(s, t), (t, s)]
    arrows = tuple(Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(pairs))
    return BoundQuiver(Quiver(tuple(str(v) for v in range(n)), arrows))


def _outcome(dims_of, bq, degree_cap, max_dim):
    try:
        table = dims_of(bq, degree_cap, max_dim)
    except (DegreeCapExceeded, DimensionBudgetExceeded) as exc:
        return type(exc), str(exc), getattr(exc, "degree", None)
    return dict(table.dims), table.max_degree


def test_path_counts_match_naive_oracle_and_enumerated_paths():
    rng = random.Random(53)
    for _ in range(40):
        bq = _relation_free(rng, cyclic=False)
        table = graded_dims(bq)
        oracle_dims, oracle_stop = naive_graded_dims(bq)
        assert dict(table.dims) == oracle_dims
        assert table.max_degree == oracle_stop
        assert table == _normal_word_dims(bq, 64, DEFAULT_MAX_DIM)
        n = bq.quiver.n
        for d in range(table.max_degree + 1):
            for i in range(n):
                for j in range(n):
                    assert dim(table, i, j, d) == len(enumerate_paths(bq.quiver, i, j, d))


def test_path_counts_raise_like_normal_words():
    # same table, or the same exception at the same degree with the same
    # message, under small caps and budgets; cyclic quivers never terminate
    rng = random.Random(59)
    seen = set()
    for k in range(300):
        bq = _relation_free(rng, cyclic=k % 2 == 1)
        degree_cap = rng.randint(2, 7)
        max_dim = rng.choice((1, 2, 3, 5, 8, 20, 60, 10 ** 6))
        outcome = _outcome(graded_dims, bq, degree_cap, max_dim)
        assert outcome == _outcome(_normal_word_dims, bq, degree_cap, max_dim)
        seen.add(outcome[0] if isinstance(outcome[0], type) else "table")
    assert seen == {"table", DegreeCapExceeded, DimensionBudgetExceeded}


def _raised(f, *args):
    try:
        return f(*args)
    except (DegreeCapExceeded, DimensionBudgetExceeded) as exc:
        return type(exc), str(exc), getattr(exc, "degree", None)


def test_cartan_inverse_without_c_raises_like_the_cartan_matrix():
    # without relations and without C, only the path totals run: the same
    # exception at the same degree as cartan_matrix, or the inverse of its C
    rng = random.Random(61)
    seen = set()
    for k in range(300):
        bq = _relation_free(rng, cyclic=k % 2 == 1)
        degree_cap = rng.randint(2, 7)
        max_dim = rng.choice((1, 2, 3, 5, 8, 20, 60, 10 ** 6))
        outcome = _raised(cartan_inverse, bq, None, degree_cap, max_dim)
        try:
            c = cartan_matrix(bq, degree_cap, max_dim)
        except (DegreeCapExceeded, DimensionBudgetExceeded) as exc:
            assert outcome == (type(exc), str(exc), getattr(exc, "degree", None))
            seen.add(type(exc))
        else:
            assert outcome == cartan_inverse(bq, c) == c.inverse_unimodular()
            seen.add("inverse")
    assert seen == {"inverse", DegreeCapExceeded, DimensionBudgetExceeded}
    for bad in ((1, 10), (4, 0)):
        with pytest.raises(ValueError):
            cartan_inverse(BoundQuiver(_chain(3, 1)), None, *bad)


def test_cartan_inverse_without_c_computes_it_with_relations(double_arrow_chain, three_cycle):
    assert cartan_inverse(double_arrow_chain) == \
        cartan_matrix(double_arrow_chain).inverse_unimodular()
    with pytest.raises(NotUnimodular):
        cartan_inverse(three_cycle)
    with pytest.raises(DegreeCapExceeded):
        cartan_inverse(three_cycle, None, 2)


def test_parallel_arrow_chain_counts_powers_of_two():
    n = 20
    arrows = tuple(Arrow(f"a{i}{c}", i, i + 1) for i in range(n - 1) for c in range(2))
    table = graded_dims(BoundQuiver(Quiver(tuple(str(v) for v in range(n)), arrows)))
    assert dict(table.dims) == {(i, j, j - i): 2 ** (j - i)
                                for i in range(n) for j in range(i, n)}
    assert table.max_degree == n


def test_vanishing_degree_raises_like_the_path_totals():
    # the one-pass count in sink order decides only when no limit can fire:
    # at the limits and around them, the answer or the error is the path
    # totals' own, and so is the table's last degree
    rng = random.Random(67)
    seen = set()
    for k in range(200):
        bq = _relation_free(rng, cyclic=k % 3 == 2)
        steps = _path_steps(bq.quiver.arrow_counts())
        caps, budgets = [rng.randint(2, 7)], [rng.choice((1, 3, 20, 10 ** 6))]
        if bq.quiver.is_acyclic():
            full = graded_dims(bq)
            top = full.max_degree
            paths = sum(full.dims.values()) - bq.quiver.n
            widest = max((total_at(full, d) for d in range(1, top)), default=0)
            caps += [top - 1, top, top + 1]
            budgets += [paths - 1, paths, widest - 1, widest]
        for degree_cap, max_dim in product(caps, budgets):
            if degree_cap < 2 or max_dim < 1:
                continue
            expected = _raised(_path_totals, steps, degree_cap, max_dim)
            assert _raised(_vanishing_degree, bq.quiver, steps, degree_cap, max_dim) == expected
            table = _raised(graded_dims, bq, degree_cap, max_dim)
            assert getattr(table, "max_degree", table) == expected
            seen.add(expected[0] if isinstance(expected, tuple) else "degree")
    assert seen == {"degree", DegreeCapExceeded, DimensionBudgetExceeded}


def test_path_totals_run_only_where_a_limit_can_fire(monkeypatch):
    calls = []
    real = algebra_module._path_totals
    monkeypatch.setattr(algebra_module, "_path_totals",
                        lambda *args: calls.append(args[1:]) or real(*args))
    chain = BoundQuiver(_chain(60, 1))
    assert graded_dims(chain).max_degree == 60
    cartan_inverse(chain)
    for quiver in (random_acyclic_quiver(random.Random(seed)) for seed in range(20)):
        graded_dims(BoundQuiver(quiver))
    assert calls == []
    # 1770 paths of positive length, at most 59 in one degree
    assert graded_dims(chain, 60, 1769).max_degree == 60
    with pytest.raises(DegreeCapExceeded):
        cartan_inverse(chain, None, 59)
    assert calls == [(60, 1769), (59, DEFAULT_MAX_DIM)]


# --- monomial relations: normal words counted on states ----------------------

@st.composite
def _monomial_quivers(draw):
    """A quiver on 1-3 vertices with 1-4 arrows, loops and cycles allowed,
    bound by one-term relations: composable paths of length 2-4, repeats of
    earlier relations, and earlier relations extended on either side, so
    that one lies inside another.  Coefficients need not be 1."""
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=4))
    out = [[k for k, (s, _) in enumerate(pairs) if s == v] for v in range(n)]
    into = [[k for k, (_, t) in enumerate(pairs) if t == v] for v in range(n)]
    words = []
    for _ in range(draw(st.integers(1, 6))):
        how = draw(st.sampled_from(("fresh", "fresh", "repeat", "extend")))
        if how == "repeat" and words:
            words.append(draw(st.sampled_from(words)))
            continue
        if how == "extend" and words:
            word = list(draw(st.sampled_from(words)))
        else:
            word = [draw(st.integers(0, len(pairs) - 1))]
        for _ in range(draw(st.integers(1, 3))):
            right = draw(st.booleans())
            arrows = out[pairs[word[-1]][1]] if right else into[pairs[word[0]][0]]
            if arrows:
                word.insert(len(word) if right else 0, draw(st.sampled_from(arrows)))
        if len(word) >= 2:
            words.append(word)
    quiver = Quiver(tuple(str(v) for v in range(n)),
                    tuple(Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(pairs)))
    coeffs = st.sampled_from((Fraction(1), Fraction(-1), Fraction(2), Fraction(3, 2)))
    return BoundQuiver(quiver, tuple(Relation(((draw(coeffs), path_from_arrows(quiver, w)),))
                                     for w in words))


THREE_LOOPS = parse_quiver("""
quiver monomial {
  vertices: 0;
  arrows: a0: 0 -> 0; a1: 0 -> 0; a2: 0 -> 0;
  relations: a0*a0; a0*a2; a1*a0; a2*a0; a2*a2;
}
""")


@settings(max_examples=300, deadline=None)
@given(_monomial_quivers(), st.integers(2, 12),
       st.sampled_from((1, 2, 3, 5, 10, 30, 100, 1000)))
@example(THREE_LOOPS, 12, 100)
@example(THREE_LOOPS, 6, 1000)
@example(truncated(2, [(0, 1), (0, 1), (1, 0)], 5), 12, 1000)
def test_monomial_counts_match_normal_words(bq, degree_cap, max_dim):
    # the same table, or the same exception at the same degree and message
    assert _outcome(graded_dims, bq, degree_cap, max_dim) == \
        _outcome(_normal_word_dims, bq, degree_cap, max_dim)


def test_monomial_counts_match_the_naive_oracle():
    rng = random.Random(71)
    finite = endless = 0
    while finite + endless < 40:
        bq = random_quadratic_monomial_quiver(rng)
        if len(bq.quiver.arrows) > 3:
            continue            # keeps the dense naive oracle fast
        try:
            table = graded_dims(bq, degree_cap=4)
        except DegreeCapExceeded:
            assert all(naive_degree_dims(bq, d) for d in range(1, 5))
            endless += 1
        else:
            assert (dict(table.dims), table.max_degree) == naive_graded_dims(bq, 4)
            finite += 1
    assert finite >= 5 and endless >= 5


def test_three_loop_monomial_algebra_counts_lucas_numbers():
    # its normal words of length d number L_{d+1}, for the Lucas numbers
    # L_0 = 2, L_1 = 1, L_{k+1} = L_k + L_{k-1}; the first degree past a
    # budget raises
    lucas = [2, 1]
    while lucas[-1] <= 10 ** 6:
        lucas.append(lucas[-1] + lucas[-2])
    assert (lucas[28], lucas[29]) == (710_647, 1_149_851)
    for d in range(1, 6):
        assert naive_degree_dims(THREE_LOOPS, d) == {(0, 0): lucas[d + 1]}
    for e in range(1, 7):
        with pytest.raises(DimensionBudgetExceeded) as info:
            graded_dims(THREE_LOOPS, max_dim=10 ** e)
        assert info.value.degree == next(d for d in count() if lucas[d + 1] > 10 ** e)
    assert info.value.degree == 28


def test_monomial_relations_run_no_elimination(monkeypatch):
    def no_echelon(rows):
        raise AssertionError("echelon called")

    monkeypatch.setattr(algebra_module, "echelon", no_echelon)
    pairs = [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)]
    assert dict(graded_dims(truncated(3, pairs, 6)).dims) == truncated_dims(3, pairs, 6)
    with pytest.raises(DimensionBudgetExceeded):
        cartan_matrix(THREE_LOOPS)
    with pytest.raises(AssertionError, match="echelon called"):
        graded_dims(exterior(2))
