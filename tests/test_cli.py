import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcox.algebra import GradedDimTable, cartan_matrix, graded_dims
from qcox.cli import (_dims_json, _rational_latex, _verify_json, main, poly_latex,
                      render_matrix, render_poly, render_vector)
from qcox.coxeter import CheckReport, CheckResult
from qcox.polyring import Polynomial, PolyMatrix, format_rational
from qcox.quiverdsl import BoundQuiver, emit_json, emit_text, parse_quiver
from qcox.randquiver import random_acyclic_quiver, random_bound_quiver

from oracles import (dims_json_obj, frac_inverse, frac_mul, frac_neg, frac_transpose,
                     matrix_from_json_obj, matrix_json_obj, poly_text_reference,
                     random_cyclic_bound_quiver, random_quadratic_monomial_quiver, value_at,
                     verify_json_obj)

A3_TEXT = """
quiver a3 {
  vertices: 1, 2, 3;
  arrows: a: 2 -> 1; b: 2 -> 3;
}
"""

DOUBLE_CHAIN_TEXT = """
quiver dc {
  vertices: 1, 2, 3;
  arrows: a: 1 -> 2; b: 1 -> 2; d: 2 -> 3;
  relations: a*d - b*d;
}
"""

TWO_CYCLE_TEXT = """
quiver loop2 {
  vertices: 1, 2;
  arrows: u: 1 -> 2; v: 2 -> 1;
}
"""

TWO_LOOPS_TEXT = """
quiver free2 {
  vertices: 1;
  arrows: x: 1 -> 1; y: 1 -> 1;
}
"""

EMPTY_JSON = '{"vertices": [], "arrows": []}'

TWO_VERTEX_CYCLIC_TEXT = """
quiver tv {
  vertices: 1, 2;
  arrows: a: 1 -> 2; b: 1 -> 2; d: 2 -> 1;
  relations: a*d; b*d;
}
"""


@pytest.fixture
def qv(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_latex():
    assert poly_latex(Polynomial([])) == "0"
    assert poly_latex(Polynomial([1, 0, 2])) == "1+2q^{2}"
    assert poly_latex(Polynomial([-1, 0, 1])) == "-1+q^{2}"
    assert poly_latex(Polynomial([0, -1])) == "-q"
    from fractions import Fraction
    assert poly_latex(Polynomial([Fraction(3, 2)])) == "\\frac{3}{2}"


def test_cartan_latex_golden(qv, capsys):
    code, out, _ = run_cli(capsys, "cartan", qv("dc.qv", DOUBLE_CHAIN_TEXT),
                           "--format=latex")
    assert code == 0
    assert out == ("\\left(\\begin{array}{ccc}\n"
                   "1 & 2q & q^{2} \\\\\n"
                   "0 & 1 & q \\\\\n"
                   "0 & 0 & 1 \\\\\n"
                   "\\end{array}\\right)\n")


def test_cartan_plain(qv, capsys):
    code, out, _ = run_cli(capsys, "cartan", qv("a3.qv", A3_TEXT))
    assert code == 0
    assert out.splitlines() == ["[ 1  0  0 ]", "[ q  1  q ]", "[ 0  0  1 ]"]


def test_cartan_json_round_trip(qv, capsys):
    path = qv("dc.qv", DOUBLE_CHAIN_TEXT)
    code, out, _ = run_cli(capsys, "cartan", path, "--format=json")
    assert code == 0
    parsed = matrix_from_json_obj(json.loads(out))
    assert parsed == cartan_matrix(parse_quiver(DOUBLE_CHAIN_TEXT))


def test_cartan_json_input(qv, capsys):
    from qcox.quiverdsl import emit_json
    blob = emit_json(parse_quiver(DOUBLE_CHAIN_TEXT))
    path = qv("dc.json", blob)
    code, out, _ = run_cli(capsys, "cartan", path, "--format=json")
    assert code == 0
    assert matrix_from_json_obj(json.loads(out)) == \
        cartan_matrix(parse_quiver(DOUBLE_CHAIN_TEXT))


coeff_st = st.one_of(st.integers(-10 ** 12, 10 ** 12),
                     st.fractions(min_value=-100, max_value=100, max_denominator=64))
entry_st = st.one_of(st.just(Polynomial([])), st.lists(coeff_st, max_size=5).map(Polynomial))


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    return PolyMatrix([[draw(entry_st) for _ in range(n)] for _ in range(n)])


def sparse_entry(terms):
    """The polynomial with the given {degree: coefficient} terms."""
    cs = [0] * (max(terms, default=-1) + 1)
    for d, c in terms.items():
        cs[d] = c
    return Polynomial(cs)


# monomials and binomials up to degree 70 with long runs of zero
# coefficients, as Coxeter matrices of long chains have them
sparse_entry_st = st.dictionaries(st.integers(0, 70), coeff_st.filter(bool),
                                  min_size=1, max_size=2).map(sparse_entry)


@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(1, 3))
    return PolyMatrix([[draw(st.one_of(entry_st, sparse_entry_st)) for _ in range(n)]
                       for _ in range(n)])


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(), sparse_matrices()))
@example(PolyMatrix([[0]]))
@example(PolyMatrix([[Polynomial([-1, Fraction(-1, 2), 0, 7])]]))
@example(PolyMatrix([[sparse_entry({63: 1}), sparse_entry({0: -1, 2: 1})],
                     [sparse_entry({1: Fraction(-3, 4), 70: 2}), 0]]))
def test_matrix_json_writer_matches_json_dumps(m):
    assert render_matrix(m, "json", None) == json.dumps(matrix_json_obj(m), indent=2)


at_q_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices(), sparse_matrices()), at_q_st)
@example(PolyMatrix([[0]]), Fraction(2))
@example(PolyMatrix([[Polynomial([1, -1])]]), Fraction(0))
@example(PolyMatrix([[sparse_entry({0: 1, 3: -2}), 0],
                     [Polynomial([Fraction(-3, 4), 0, 1]), Polynomial([0, 5])]]), Fraction(-1, 2))
@example(PolyMatrix([[Polynomial([0, 1, 1]), 0], [0, 0]]), Fraction(3, 2))
def test_matrix_json_at_q_writer_matches_json_dumps(m, at_q):
    assert render_matrix(m, "json", at_q) == json.dumps(matrix_json_obj(m, at_q), indent=2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(entry_st, sparse_entry_st), min_size=1, max_size=4),
       st.one_of(st.none(), at_q_st))
@example([Polynomial([])], None)
@example([Polynomial([Fraction(3, 2), 0, -1]), Polynomial([0, 1])], None)
@example([Polynomial([1, -1]), Polynomial([])], Fraction(-1, 2))
@example([Polynomial([Fraction(-3, 2), 1, 0, Fraction(5, 3), -1])], None)
def test_vector_and_poly_write_each_entry_as_it_is_written_alone(entries, at_q):
    # plain: str or format_rational of each entry; LaTeX: poly_latex or
    # _rational_latex; the terms as the reference term writer gives them
    for fmt, write, value in (("plain", str, format_rational),
                              ("latex", poly_latex, _rational_latex)):
        if at_q is None:
            texts = [write(e) for e in entries]
            assert texts == [poly_text_reference(e, fmt == "latex") for e in entries]
        else:
            texts = [value(value_at(e, at_q)) for e in entries]
        assert [render_poly(e, fmt, at_q) for e in entries] == texts
        body = f"({', '.join(texts)})" + ("^T" if fmt == "latex" else "")
        assert render_vector(entries, fmt, at_q) == body
        assert render_vector(entries, fmt, at_q, label="P(1): ") == "P(1): " + body
    values = [e.to_coeff_strings() if at_q is None else format_rational(value_at(e, at_q))
              for e in entries]
    assert render_vector(entries, "json", at_q) == json.dumps(values, indent=2)
    assert render_poly(entries[0], "json", at_q) == json.dumps(values[0], indent=2)


_json_str = st.text(alphabet=st.sampled_from('ab_1 "\\/\n\té✓\x00\u2028'), max_size=10)


@st.composite
def check_reports(draw):
    return CheckReport(tuple(draw(st.lists(st.builds(
        CheckResult, _json_str, st.sampled_from(["pass", "fail", "skipped"]), _json_str),
        max_size=4))))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_json_str, check_reports()), max_size=3))
@example([("input", CheckReport((CheckResult("x", "skipped", 'a "b" \\ c \u00fc\u2713'),)))])
def test_verify_json_writer_matches_json_dumps(reports):
    payload = verify_json_obj(reports)
    assert _verify_json(payload["passed"], reports) == json.dumps(payload, indent=2)


@st.composite
def dim_tables(draw):
    n = draw(st.integers(1, 3))
    names = draw(st.lists(_json_str, min_size=n, max_size=n, unique=True))
    cells = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                 st.lists(st.integers(0, 10 ** 20), min_size=1, max_size=4),
                                 max_size=n * n))
    return GradedDimTable(n, draw(st.integers(1, 5)), cells), names


@settings(max_examples=200, deadline=None)
@given(dim_tables())
@example((GradedDimTable(1, 1, {(0, 0): [1]}), ["1"]))
def test_dims_json_writer_matches_json_dumps(case):
    table, names = case
    payload = dims_json_obj(table, names)
    assert _dims_json(table, names) == json.dumps(payload, indent=2)


def test_dims_json_writer_on_graded_dims():
    for text in (DOUBLE_CHAIN_TEXT,
                 "quiver one { vertices: 1; arrows: x: 1 -> 1; relations: x*x; }"):
        bq = parse_quiver(text)
        table = graded_dims(bq)
        assert _dims_json(table, bq.quiver.vertices) == \
            json.dumps(dims_json_obj(table, bq.quiver.vertices), indent=2)


def test_at_q_one_matches_classical(qv, capsys):
    path = qv("a3.qv", A3_TEXT)
    code, out, _ = run_cli(capsys, "coxeter", path, "--at-q=1", "--format=json")
    assert code == 0
    got = json.loads(out)
    c1 = cartan_matrix(parse_quiver(A3_TEXT)).specialize(1)
    classical = frac_neg(frac_mul(frac_transpose(c1), frac_inverse(c1)))
    expected = [[str(v) for v in row] for row in classical]
    assert got["entries"] == [[e.replace("/1", "") for e in row] for row in expected]
    assert got["at_q"] == "1"


def test_coxeter_methods_agree(qv, capsys):
    path = qv("dc.qv", DOUBLE_CHAIN_TEXT)
    _, out_refl, _ = run_cli(capsys, "coxeter", path, "--method=reflections")
    _, out_cart, _ = run_cli(capsys, "coxeter", path, "--method=cartan")
    assert out_refl == out_cart


def test_verify_negative_random_count_exit_2(qv, capsys):
    path = qv("a3.qv", A3_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["verify", path, "--random=-2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == \
        "qcox verify: error: argument --random: random count must not be negative"
    code, out, _ = run_cli(capsys, "verify", path, "--random=0")
    assert code == 0
    assert out.splitlines()[-1] == "verified 1 instance(s), 0 failing check(s)"


def test_degree_cap_error_exit_2(qv, capsys):
    code, out, err = run_cli(capsys, "cartan", qv("loop2.qv", TWO_CYCLE_TEXT))
    assert code == 2
    assert out == ""
    assert "DegreeCapExceeded" in err


def test_dimension_budget_exit_2(qv, capsys):
    path = qv("free2.qv", TWO_LOOPS_TEXT)
    for command in ("cartan", "dims", "verify"):
        code, out, err = run_cli(capsys, command, path, "--max-dim=100")
        assert code == 2
        assert out == ""
        assert "DimensionBudgetExceeded" in err and "degree 7" in err


def test_empty_vertex_list_exit_2(qv, capsys):
    code, out, err = run_cli(capsys, "cartan", qv("empty.json", EMPTY_JSON))
    assert code == 2
    assert out == ""
    assert "ValidationError" in err and "NoVertices" in err


def test_error_exits_hold_without_asserts(qv):
    # python -O strips assert statements; every guard must still raise
    import qcox
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qcox.__file__))}
    for name, text, kind in (("free2.qv", TWO_LOOPS_TEXT, "DimensionBudgetExceeded"),
                             ("empty.json", EMPTY_JSON, "ValidationError")):
        proc = subprocess.run([sys.executable, "-O", "-m", "qcox", "cartan", qv(name, text)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert f"error: {kind}" in proc.stderr


def test_syntax_error_exit_2(qv, capsys):
    code, _, err = run_cli(capsys, "cartan", qv("bad.qv", "quiver x {"))
    assert code == 2
    assert "QuiverSyntaxError" in err and "line" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "cartan", "/nonexistent/q.qv")
    assert code == 2
    assert "IO" in err


def test_dims_table(qv, capsys):
    code, out, _ = run_cli(capsys, "dims", qv("dc.qv", DOUBLE_CHAIN_TEXT),
                           "--format=json")
    assert code == 0
    obj = json.loads(out)
    assert obj["max_degree"] == 3
    assert {"source": "1", "target": "2", "degree": 1, "dim": 2} in obj["dims"]
    assert all(set(item) == {"source", "target", "degree", "dim"} for item in obj["dims"])


def test_dims_projective_vector(qv, capsys):
    code, out, _ = run_cli(capsys, "dims", qv("dc.qv", DOUBLE_CHAIN_TEXT),
                           "--projective", "--vertex=1")
    assert code == 0
    assert out.strip() == "P(1): (1, 2q, q^2)"


def test_dims_resolves_the_vertex_before_computing(qv, capsys):
    # the graded dimensions of a 2-cycle never end: an unknown vertex is
    # reported as such, not as the degree cap of the Cartan matrix
    path = qv("loop2.qv", TWO_CYCLE_TEXT)
    code, out, err = run_cli(capsys, "dims", path, "--projective", "--vertex=zz")
    assert (code, out) == (2, "")
    assert err == "error: ValidationError: UnknownVertex: no vertex named 'zz'\n"
    code, out, err = run_cli(capsys, "dims", path, "--simple", "--vertex=zz")
    assert (code, out) == (2, "")
    assert "UnknownVertex" in err


def test_dims_simple_needs_no_cartan_matrix(qv, capsys):
    # a simple module's vector is a standard basis vector, so --simple
    # answers even where the graded dimensions never end
    code, out, err = run_cli(capsys, "dims", qv("loop2.qv", TWO_CYCLE_TEXT), "--simple")
    assert (code, out, err) == (0, "S(1): (1, 0)\nS(2): (0, 1)\n", "")


def test_dims_vertex_needs_a_kind(qv, capsys):
    message = "error: ValueError: --vertex needs --simple, --projective or --injective\n"
    for name, text in (("a3.qv", A3_TEXT), ("loop2.qv", TWO_CYCLE_TEXT)):
        path = qv(name, text)
        for vertex in ("1", "zz"):
            assert run_cli(capsys, "dims", path, f"--vertex={vertex}") == (2, "", message)
    code, out, _ = run_cli(capsys, "dims", qv("a3.qv", A3_TEXT), "--simple", "--vertex=1")
    assert (code, out) == (0, "S(1): (1, 0, 0)\n")


def test_dims_all_kinds_json(qv, capsys):
    path = qv("tv.qv", TWO_VERTEX_CYCLIC_TEXT)
    code, out, _ = run_cli(capsys, "dims", path, "--injective", "--format=json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "injective"
    assert obj["vectors"][1] == {"vertex": "2", "entries": [["0", "2"], ["1", "0", "2"]]}


def test_forms_euler_golden(qv, capsys):
    path = qv("tv.qv", TWO_VERTEX_CYCLIC_TEXT)
    code, out, _ = run_cli(capsys, "forms", path, "--euler", "--x=1,0", "--y=1,0")
    assert code == 0
    assert out.strip() == "1+2q^2"


def test_forms_symmetric(qv, capsys):
    path = qv("dc.qv", DOUBLE_CHAIN_TEXT)
    code, out, _ = run_cli(capsys, "forms", path, "--symmetric", "--x=1,0,0", "--y=0,1,0")
    assert code == 0
    # half of the symmetrized-inverse entry -2q
    assert out.strip() == "-q"


@pytest.mark.parametrize("at_q, vectors", [
    ([], [["1", ["1"], ["0", "2"]], ["2", ["0", "1"], ["1", "0", "2"]]]),
    (["--at-q=1/2"], [["1", "1", "1"], ["2", "1/2", "3/2"]]),
])
def test_dims_vectors_json_stdout(qv, capsys, at_q, vectors):
    path = qv("tv.qv", TWO_VERTEX_CYCLIC_TEXT)
    code, out, _ = run_cli(capsys, "dims", path, "--projective", "--format=json", *at_q)
    assert code == 0
    payload = [{"vertex": name, "entries": entries} for name, *entries in vectors]
    assert out == json.dumps({"kind": "projective", "vectors": payload}, indent=2) + "\n"


@pytest.mark.parametrize("form, at_q, value", [
    ("euler", [], ["0", "-2"]),
    ("symmetric", [], ["0", "-1"]),
    ("euler", ["--at-q=1/2"], "-1"),
    ("symmetric", ["--at-q=1/2"], "-1/2"),
])
def test_forms_json_stdout(qv, capsys, form, at_q, value):
    path = qv("dc.qv", DOUBLE_CHAIN_TEXT)
    code, out, _ = run_cli(capsys, "forms", path, f"--{form}", "--x=1,0,0", "--y=0,1,0",
                           "--format=json", *at_q)
    assert code == 0
    obj = {"form": form, **({"at_q": "1/2"} if at_q else {}), "value": value}
    assert out == json.dumps(obj, indent=2) + "\n"


# relation-free inputs whose graded dimensions do not end
_ENDLESS = [
    ("loop", "quiver lp { vertices: 1; arrows: x: 1 -> 1; }",
     "DegreeCapExceeded: no vanishing degree up to cap 64"),
    ("two-cycle", "quiver c2 { vertices: 1, 2; arrows: u: 1 -> 2; v: 2 -> 1; }",
     "DegreeCapExceeded: no vanishing degree up to cap 64"),
    # 2^20 paths of length 20
    ("two-loops", "quiver l2 { vertices: 1; arrows: x: 1 -> 1; y: 1 -> 1; }",
     "DimensionBudgetExceeded: degree 20 has more than 1000000 basis elements"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in _ENDLESS],
                         ids=[case[0] for case in _ENDLESS])
@pytest.mark.parametrize("argv", [["forms", "--x=1,0", "--y=0,1"],
                                  ["coxeter", "--method=reflections"]],
                         ids=["forms", "reflections"])
def test_c_free_commands_raise_what_the_cartan_matrix_raises(qv, capsys, text, message, argv):
    path = qv("endless.qv", text)
    n = parse_quiver(text).quiver.n
    command, *options = argv
    if command == "forms":
        options = [o.split(",")[0] + ",0" * (n - 1) for o in options]
    expected = (2, "", f"error: {message}\n")
    assert run_cli(capsys, "cartan", path) == expected
    assert run_cli(capsys, command, path, *options) == expected


@pytest.mark.parametrize("argv", [["forms", "--x=1,0,2", "--y=0,1,1"],
                                  ["forms", "--symmetric", "--x=1,0,2", "--y=0,1,1"],
                                  ["coxeter", "--method=reflections"]])
def test_c_free_commands_compute_no_cartan_matrix_without_relations(qv, capsys, monkeypatch,
                                                                    argv):
    import qcox.algebra as algebra_module
    path = qv("a3.qv", A3_TEXT)
    before = run_cli(capsys, argv[0], path, *argv[1:])
    assert before[0] == 0

    def no_graded_dims(*args):
        raise AssertionError("graded dimensions computed")

    monkeypatch.setattr(algebra_module, "graded_dims", no_graded_dims)
    assert run_cli(capsys, argv[0], path, *argv[1:]) == before


def test_form_vectors_keep_integral_entries_int():
    from fractions import Fraction
    from qcox.cli import _parse_vector
    values = _parse_vector("1, -4/2,3/2, 0", 4)
    assert values == [1, -2, Fraction(3, 2), 0]
    assert [type(v) for v in values] == [int, int, Fraction, int]


def test_forms_bad_vector_exit_2(qv, capsys):
    path = qv("dc.qv", DOUBLE_CHAIN_TEXT)
    code, _, err = run_cli(capsys, "forms", path, "--x=1,0", "--y=1,0,0")
    assert code == 2
    assert "ValueError" in err


@pytest.mark.parametrize("x, position", [("1,,0", 2), ("1,0,", 3), (" ,1", 1)])
def test_forms_empty_vector_entry_exit_2(qv, capsys, x, position):
    path = qv("two.qv", "quiver two { vertices: 1, 2; arrows: a: 1 -> 2; }")
    assert run_cli(capsys, "forms", path, "--x=1,0", "--y=0,1") == (0, "-q\n", "")
    code, out, err = run_cli(capsys, "forms", path, f"--x={x}", "--y=0,1")
    assert (code, out) == (2, "")
    assert err == f"error: ValueError: vector {x!r} has an empty entry at position {position}\n"


def test_forms_parses_vectors_before_the_cartan_matrix(qv, capsys):
    # the graded dimensions of a 2-cycle never end: a malformed vector is
    # reported as such, not as the degree cap of the Cartan matrix
    path = qv("loop2.qv", "quiver l2 { vertices: 1, 2; arrows: u: 1 -> 2; v: 2 -> 1; }")
    code, out, err = run_cli(capsys, "forms", path, "--x=1,,0", "--y=0,1")
    assert (code, out) == (2, "")
    assert err == "error: ValueError: vector '1,,0' has an empty entry at position 2\n"
    code, out, err = run_cli(capsys, "forms", path, "--x=1,0", "--y=0,1")
    assert (code, out) == (2, "")
    assert err.startswith("error: DegreeCapExceeded: ")


def test_reflect_golden(qv, capsys):
    code, out, _ = run_cli(capsys, "reflect", qv("a3.qv", A3_TEXT), "--vertex=1")
    assert code == 0
    assert "a: 1 -> 2;" in out and "b: 2 -> 3;" in out
    reparsed = parse_quiver(out)
    assert [str(a.source) + str(a.target) for a in reparsed.quiver.arrows] == ["01", "12"]


def test_reflect_rejects_relations(qv, capsys):
    code, _, err = run_cli(capsys, "reflect", qv("dc.qv", DOUBLE_CHAIN_TEXT), "--vertex=3")
    assert code == 2
    assert "HasRelations" in err


def test_reflect_rejects_json_names_the_text_format_cannot_write(qv, capsys):
    # reflect writes .qv text; "2.0" and "a b" would not parse back
    path = qv("bad.json", json.dumps({"vertices": [1, "2.0"], "arrows": [
        {"name": "a b", "source": 1, "target": "2.0"}]}))
    code, out, err = run_cli(capsys, "reflect", path, "--vertex=1")
    assert (code, out) == (2, "")
    assert err == "error: ValidationError: BadSchema: malformed quiver JSON: '2.0' is not a name\n"


def test_numbering(qv, capsys):
    code, out, _ = run_cli(capsys, "numbering", qv("a3.qv", A3_TEXT))
    assert code == 0
    assert out.strip() == "1, 3, 2"
    code, out, _ = run_cli(capsys, "numbering", qv("a3.qv", A3_TEXT), "--format=json")
    assert json.loads(out) == {"numbering": ["1", "3", "2"]}


def test_numbering_cyclic_exit_2(qv, capsys):
    code, _, err = run_cli(capsys, "numbering", qv("tv.qv", TWO_VERTEX_CYCLIC_TEXT))
    assert code == 2
    assert "NotAcyclic" in err


def test_verify_passes_on_a3(qv, capsys):
    code, out, _ = run_cli(capsys, "verify", qv("a3.qv", A3_TEXT))
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith(("PASS", "SKIP", "verified")) for line in lines)
    assert any(line.startswith("PASS input: coxeter_vs_cartan") for line in lines)
    assert lines[-1] == "verified 1 instance(s), 0 failing check(s)"


def test_verify_skips_sink_checks_when_a_reversed_sink_reaches_the_cap(qv, capsys):
    code, out, err = run_cli(capsys, "verify", qv("a3.qv", A3_TEXT), "--degree-cap=2")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    reason = ("(graded dimensions with the arrows at sink 1 reversed did not terminate "
              "(no vanishing degree up to cap 2))")
    assert [line for line in lines if line.startswith("SKIP")] == [
        f"SKIP input: sink_reflection_cartan {reason}",
        f"SKIP input: sink_reflection_coxeter {reason}"]
    assert lines[-1] == "verified 1 instance(s), 0 failing check(s)"


def test_verify_with_random_instances(qv, capsys):
    code, out, _ = run_cli(capsys, "verify", qv("a3.qv", A3_TEXT),
                           "--random=3", "--seed=11", "--format=json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert len(obj["reports"]) == 4
    assert obj["reports"][1]["instance"] == "random[0]"


def test_verify_exit_1_on_failing_check(qv, capsys, monkeypatch):
    from qcox.coxeter import CheckReport, CheckResult
    import qcox.cli as cli_module

    def fake_verify(bq, degree_cap=64, max_dim=None):
        return CheckReport((CheckResult("reflection_involution", "fail", "forced"),))

    monkeypatch.setattr(cli_module.coxeter, "verify_identities", fake_verify)
    code, out, _ = run_cli(capsys, "verify", qv("a3.qv", A3_TEXT))
    assert code == 1
    assert "FAIL input: reflection_involution" in out


def test_internal_error_exit_2(qv, capsys, monkeypatch):
    import qcox.cli as cli_module

    def broken(args, bq):
        raise ArithmeticError("inexact polynomial division")

    monkeypatch.setitem(cli_module._COMMANDS, "cartan", broken)
    code, out, err = run_cli(capsys, "cartan", qv("a3.qv", A3_TEXT))
    assert code == 2 and out == ""
    assert err == "error: InternalError: ArithmeticError: inexact polynomial division\n"


_FUZZ_GENERATORS = (random_bound_quiver, lambda rng: BoundQuiver(random_acyclic_quiver(rng, 2, 6)),
                    random_cyclic_bound_quiver, random_quadratic_monomial_quiver)
_FUZZ_CHARS = "{}:;,*+-> \n\"[]/0123abquivertsxyz"


@st.composite
def fuzz_inputs(draw):
    """A random bound, acyclic, cyclic or monomial quiver as .qv or .json
    text, then up to three random edits: a span deleted, duplicated or
    replaced by characters of either syntax."""
    make = draw(st.sampled_from(_FUZZ_GENERATORS))
    bq = make(random.Random(draw(st.integers(0, 10 ** 6))))
    suffix = draw(st.sampled_from((".qv", ".json")))
    text = emit_text(bq) if suffix == ".qv" else emit_json(bq)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        edit = draw(st.sampled_from(("delete", "duplicate", "replace")))
        middle = (text[i:j] * 2 if edit == "duplicate" else
                  "" if edit == "delete" else draw(st.text(_FUZZ_CHARS, max_size=4)))
        text = text[:i] + middle + text[j:]
    return suffix, text, bq.quiver.n, bq.quiver.vertices[0]


@settings(max_examples=60, deadline=None)
@given(fuzz_inputs())
def test_every_command_keeps_the_exit_contract(case):
    # exit 0, 1 or 2; 1 only from verify, exactly when it writes a FAIL
    # line; never an InternalError
    suffix, text, n, vertex = case
    x, y = ",".join(["1"] * n), ",".join(["0", "2"] * n)[:2 * n - 1]
    commands = [["cartan"], ["coxeter", "--method=cartan"], ["coxeter", "--method=reflections"],
                ["dims"], ["dims", "--projective"], ["forms", f"--x={x}", f"--y={y}"],
                ["forms", "--symmetric", f"--x={x}", f"--y={y}"],
                ["reflect", f"--vertex={vertex}"], ["numbering"], ["verify", "--random=1"]]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input" + suffix)
        with open(path, "w") as fh:
            fh.write(text)
        for command, *options in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, path, *options, "--degree-cap=8", "--max-dim=200"])
            assert code in (0, 1, 2)
            assert (code == 1) == (command == "verify" and "\nFAIL " in "\n" + out.getvalue())
            assert "InternalError" not in err.getvalue()


def test_output_determinism(qv, capsys):
    path = qv("dc.qv", DOUBLE_CHAIN_TEXT)
    outputs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "verify", path, "--random=2", "--format=json")
        outputs.add(out)
    assert len(outputs) == 1


def test_later_main_calls_match_a_fresh_process(qv, capsys):
    import qcox.cli as cli_module
    # main builds its parser once per process; no option of an earlier call
    # may leak into a later one with another subcommand or other options
    path = qv("dc.qv", DOUBLE_CHAIN_TEXT)
    first = run_cli(capsys, "forms", path, "--symmetric", "--x=1,0,2", "--y=0,1,1",
                    "--format=json")
    assert first[0] == 0
    parser = cli_module._parser
    for argv in (["coxeter", path, "--method", "reflections", "--at-q=2"],
                 ["forms", path, "--x=1,0,2", "--y=0,1,1"],
                 ["dims", path, "--injective", "--vertex", "2", "--format=latex"]):
        in_process = run_cli(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "qcox", *argv],
                              capture_output=True, text=True)
        assert in_process[:2] == (proc.returncode, proc.stdout)
        assert in_process[0] == 0
    assert cli_module._parser is parser


def test_module_entry_point_smoke(qv, tmp_path):
    path = tmp_path / "a3.qv"
    path.write_text(A3_TEXT)
    proc = subprocess.run([sys.executable, "-m", "qcox", "numbering", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1, 3, 2"


def test_json_matrix_writes_each_distinct_entry_once(monkeypatch):
    # A30's Coxeter matrix has 900 entries, of which 61 are distinct
    import qcox.cli as cli_module
    from qcox.coxeter import coxeter_matrix_bound
    from qcox.quiverdsl import BoundQuiver
    from test_cli_golden import golden_quivers
    phi = coxeter_matrix_bound(BoundQuiver(golden_quivers()["A30"]))
    calls = []
    original = cli_module._entry_json
    monkeypatch.setattr(cli_module, "_entry_json", lambda cs: calls.append(cs) or original(cs))
    text = render_matrix(phi, "json", None)
    assert text == json.dumps(matrix_json_obj(phi), indent=2)
    assert len({e.coeffs for row in phi.rows for e in row}) == 61
    assert 0 < len(calls) <= 61


def test_matrix_writes_each_distinct_entry_once_in_every_format(monkeypatch):
    # plain and LaTeX format, and --at-q evaluates, each of the 61 distinct
    # entries of A30's Coxeter matrix once, and write what every entry
    # written on its own gives
    import qcox.cli as cli_module
    from qcox.coxeter import coxeter_matrix_bound
    from qcox.quiverdsl import BoundQuiver
    from test_cli_golden import golden_quivers
    phi = coxeter_matrix_bound(BoundQuiver(golden_quivers()["A30"]))
    at = Fraction(-1, 2)
    values = phi.specialize(at)

    def grid(cells):
        widths = [max(len(row[j]) for row in cells) for j in range(phi.n)]
        return "\n".join("[ " + "  ".join(e.rjust(w) for e, w in zip(row, widths)) + " ]"
                         for row in cells)

    def latex(cells):
        return "\n".join(["\\left(\\begin{array}{" + "c" * phi.n + "}",
                          *(" & ".join(row) + " \\\\" for row in cells),
                          "\\end{array}\\right)"])

    expected = {
        ("plain", None): str(phi),
        ("latex", None): latex([[poly_latex(e) for e in row] for row in phi.rows]),
        ("plain", at): grid([[format_rational(v) for v in row] for row in values]),
        ("latex", at): latex([[cli_module._rational_latex(v) for v in row] for row in values]),
        ("json", at): json.dumps({"n": phi.n, "at_q": "-1/2",
                                  "entries": [[format_rational(v) for v in row]
                                              for row in values]}, indent=2),
    }
    calls = []
    for owner, name in ((Polynomial, "evaluate"), (Polynomial, "__str__"),
                        (cli_module, "poly_latex")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _f=original: calls.append(1) or _f(*args))
    for (fmt, at_q), text in expected.items():
        calls.clear()
        assert render_matrix(phi, fmt, at_q) == text
        assert 0 < len(calls) <= 61
