import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcox.errors import QcoxError, QuiverSyntaxError, ValidationError
from qcox.quiverdsl import (Arrow, BoundQuiver, Path, Quiver, Relation, _relation_issues,
                            _tokenize, emit_json, emit_text, json_text, load_file, parse_json,
                            parse_json_obj, parse_quiver, validate)

from oracles import (naive_sink_order, neighbours, parse_quiver_reference, path_from_arrows,
                     random_cyclic_bound_quiver, tokenize_per_character)

EXAMPLE_3CYCLE = """
# three vertices on a line, arrows both ways between neighbours
quiver commutative3 {
  vertices: 1, 2, 3;
  arrows:
    a: 1 -> 2;
    d: 2 -> 1;
    b: 2 -> 3;
    g: 3 -> 2;
  relations:
    a*b;
    g*d;
    d*a - b*g;
}
"""

A3_ORIENTED = """
quiver a3 {
  vertices: 1, 2, 3;
  arrows:
    a: 2 -> 1;
    b: 2 -> 3;
}
"""


def test_parse_three_vertex_example():
    bq = parse_quiver(EXAMPLE_3CYCLE)
    q = bq.quiver
    assert q.vertices == ("1", "2", "3")
    assert [a.name for a in q.arrows] == ["a", "d", "b", "g"]
    assert q.arrows[0] == Arrow("a", 0, 1)
    assert len(bq.relations) == 3
    last = bq.relations[2]
    assert [(c, p.names(q)) for c, p in last.terms] == \
        [(Fraction(1), ["d", "a"]), (Fraction(-1), ["b", "g"])]
    assert bq.name == "commutative3"


def test_parse_empty_relations_block():
    bq = parse_quiver(A3_ORIENTED)
    assert bq.relations == ()
    assert bq.quiver.sinks() == [0, 2]


def test_parse_coefficients():
    bq = parse_quiver("""
    quiver k {
      vertices: 1, 2, 3;
      arrows: a: 1 -> 2; b: 1 -> 2; c: 2 -> 3;
      relations: 3/2*a*c - 2*b*c;
    }
    """)
    (c1, p1), (c2, p2) = bq.relations[0].terms
    assert c1 == Fraction(3, 2) and p1.names(bq.quiver) == ["a", "c"]
    assert c2 == -2 and p2.names(bq.quiver) == ["b", "c"]


def test_parse_leading_minus_term():
    bq = parse_quiver("""
    quiver k {
      vertices: 1, 2, 3;
      arrows: a: 1 -> 2; b: 1 -> 2; c: 2 -> 3;
      relations: -a*c + b*c;
    }
    """)
    assert [c for c, _ in bq.relations[0].terms] == [-1, 1]


def test_numeric_arrow_names_escape():
    text = """
    quiver n {
      vertices: x, y, z;
      arrows: 2: x -> y; a: y -> z;
      relations: 1*2*a;
    }
    """
    bq = parse_quiver(text)
    assert bq.relations[0].terms[0][1].names(bq.quiver) == ["2", "a"]
    assert parse_quiver(emit_text(bq)) == bq


def test_syntax_error_carries_position():
    with pytest.raises(QuiverSyntaxError) as err:
        parse_quiver("quiver x {\n  vertices 1;\n}")
    assert err.value.line == 2
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("")
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("quiver x { vertices: 1; arrows: a: 1 -> 1; } trailing")


def test_non_homogeneous_relation_rejected():
    with pytest.raises(ValidationError) as err:
        parse_quiver("""
        quiver bad {
          vertices: 1, 2, 3;
          arrows: a: 1 -> 2; b: 2 -> 3; c: 1 -> 3;
          relations: a*b - c;
        }
        """)
    assert err.value.code == "NonHomogeneous"


def test_non_composable_relation_rejected():
    with pytest.raises(ValidationError) as err:
        parse_quiver("""
        quiver bad {
          vertices: 1, 2;
          arrows: a: 1 -> 2; b: 1 -> 2;
          relations: a*b;
        }
        """)
    assert err.value.code == "NonComposable"


def test_degree_one_relation_rejected():
    with pytest.raises(ValidationError) as err:
        parse_quiver("""
        quiver bad {
          vertices: 1, 2;
          arrows: a: 1 -> 2;
          relations: a;
        }
        """)
    assert err.value.code == "DegreeTooLow"


def test_disconnected_rejected_by_parse_and_reported_by_validate():
    with pytest.raises(ValidationError) as err:
        parse_quiver("""
        quiver bad {
          vertices: 1, 2, 3, 4;
          arrows: a: 1 -> 2; b: 3 -> 4;
        }
        """)
    assert err.value.code == "Disconnected"

    q = Quiver(("1", "2", "3", "4"), (Arrow("a", 0, 1), Arrow("b", 2, 3)))
    report = validate(BoundQuiver(q))
    assert not report.passed
    assert "Disconnected" in report.failure_codes()


def test_validate_flags():
    bq = parse_quiver(EXAMPLE_3CYCLE)
    report = validate(bq)
    assert report.passed
    assert report.connected and not report.acyclic
    assert report.loop_arrows == ()

    a3 = parse_quiver(A3_ORIENTED)
    assert validate(a3).acyclic

    loop = parse_quiver("quiver l { vertices: 1; arrows: a: 1 -> 1; }")
    rep = validate(loop)
    assert rep.passed and not rep.acyclic and rep.loop_arrows == ("a",)


_THREE_ARROWS = Quiver(("1", "2", "3"), (Arrow("a", 0, 1), Arrow("b", 1, 2), Arrow("c", 1, 0)))


@st.composite
def _dirty_relations(draw):
    """Relations on _THREE_ARROWS, mostly one-term: any coefficient, zero
    included, any length from 0 to 4, arrows in any order, composable or
    not, with source and target taken from the first and last arrow."""
    relations = []
    for _ in range(draw(st.integers(0, 6))):
        terms = []
        for _ in range(draw(st.sampled_from((1, 1, 1, 2)))):
            arrows = tuple(draw(st.lists(st.integers(0, 2), max_size=4)))
            first, last = (_THREE_ARROWS.arrows[arrows[k]] if arrows else Arrow("", 0, 0)
                           for k in (0, -1))
            coeff = draw(st.sampled_from((0, 1, -2, Fraction(3, 2))))
            terms.append((Fraction(coeff), Path(arrows, first.source, last.target)))
        relations.append(Relation(tuple(terms)))
    return BoundQuiver(_THREE_ARROWS, tuple(relations))


@settings(max_examples=300, deadline=None)
@given(_dirty_relations())
@example(BoundQuiver(_THREE_ARROWS, (Relation(((Fraction(0), Path((2, 1), 1, 2)),)),)))
def test_validate_reports_every_relation_issue_in_order(bq):
    # validate skips the full scan only on clean one-term relations
    expected = tuple(issue for idx, rel in enumerate(bq.relations)
                     for issue in _relation_issues(bq.quiver, idx, rel))
    assert validate(bq).relation_issues == expected


def test_sink_order():
    a3 = parse_quiver(A3_ORIENTED).quiver
    assert a3.sink_order() == (0, 2, 1)
    assert a3.sink_order(prefer_largest=True) == (2, 0, 1)
    assert parse_quiver(EXAMPLE_3CYCLE).quiver.sink_order() is None
    loop = Quiver(("1", "2"), (Arrow("a", 1, 0), Arrow("l", 1, 1)))
    assert loop.sink_order() is None and not loop.is_acyclic()


def test_sink_order_matches_rescanning_oracle():
    from qcox.randquiver import random_acyclic_quiver
    rng = random.Random(37)
    quivers = [random_acyclic_quiver(rng) for _ in range(40)]
    quivers += [random_cyclic_bound_quiver(rng).quiver for _ in range(40)]
    # an arrow back along an existing one closes a 2-cycle
    for q in quivers[:20]:
        a = q.arrows[0]
        quivers.append(Quiver(q.vertices, q.arrows + (Arrow("back", a.target, a.source),)))
    for q in quivers:
        for largest in (False, True):
            assert q.sink_order(largest) == naive_sink_order(q, largest)
        assert q.is_acyclic() == (naive_sink_order(q) is not None)


def test_smallest_first_sink_order_is_computed_once_per_quiver(monkeypatch):
    from qcox.coxeter import admissible_numbering
    calls = []
    original = Quiver._sink_order
    monkeypatch.setattr(Quiver, "_sink_order",
                        lambda self, sign: calls.append(sign) or original(self, sign))
    bq = parse_quiver("quiver a3 { vertices: 1, 2, 3; arrows: a: 2 -> 1; b: 2 -> 3; }")
    assert validate(bq).acyclic and bq.quiver.is_acyclic()
    assert admissible_numbering(bq.quiver) == bq.quiver.sink_order() == (0, 2, 1)
    assert calls == [1]
    assert admissible_numbering(bq.quiver, prefer_largest=True) == (2, 0, 1)
    assert calls == [1, -1]


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError):
        parse_quiver("quiver d { vertices: 1, 1; arrows: a: 1 -> 1; }")
    with pytest.raises(ValidationError):
        parse_quiver("quiver d { vertices: 1, 2; arrows: a: 1 -> 2; a: 2 -> 1; }")
    with pytest.raises(ValidationError):
        parse_quiver("quiver d { vertices: 1, 2; arrows: a: 1 -> 3; }")


def test_duplicate_vertex_is_reported_before_an_unknown_endpoint():
    # both faults at once: the duplicate check runs before the endpoint
    # lookup, from text and from the equivalent JSON alike
    text = "quiver d { vertices: 1, 1; arrows: a: 1 -> 3; }"
    blob = json.dumps({"name": "d", "vertices": ["1", "1"],
                       "arrows": [{"name": "a", "source": "1", "target": "3"}]})
    for parse, source in ((parse_quiver, text), (parse_json, blob)):
        with pytest.raises(ValidationError) as err:
            parse(source)
        assert (err.value.code, str(err.value)) == \
            ("DuplicateVertex", "DuplicateVertex: vertex '1' declared twice")


def test_arrow_count_matrices():
    bq = parse_quiver("""
    quiver k {
      vertices: 1, 2;
      arrows: a: 1 -> 2; b: 1 -> 2; d: 2 -> 1;
    }
    """)
    q = bq.quiver
    assert q.arrow_counts() == [[0, 2], [1, 0]]
    assert q.edge_counts() == [[0, 3], [3, 0]]
    assert neighbours(q, 0) == [1]
    out_degrees = [sum(row) for row in q.arrow_counts()]
    assert out_degrees == [2, 1]
    a = q.edge_counts()
    assert all(a[i][j] == a[j][i] for i in range(2) for j in range(2))


def test_path_composition_invariant():
    bq = parse_quiver(EXAMPLE_3CYCLE)
    q = bq.quiver
    p = path_from_arrows(q, [0, 2])           # a then b: 1 -> 3
    assert (p.source, p.target, p.length) == (0, 2, 2)
    with pytest.raises(ValidationError):
        path_from_arrows(q, [0, 0])            # a does not end where a starts
    assert Path.trivial(1) == Path((), 1, 1)


def test_text_round_trip():
    for text in (EXAMPLE_3CYCLE, A3_ORIENTED):
        bq = parse_quiver(text)
        assert parse_quiver(emit_text(bq)) == bq


def test_json_round_trip():
    bq = parse_quiver(EXAMPLE_3CYCLE)
    blob = emit_json(bq)
    assert parse_json(blob) == bq
    obj = json.loads(blob)
    assert obj["vertices"] == ["1", "2", "3"]
    assert obj["arrows"][0] == {"name": "a", "source": "1", "target": "2"}
    assert obj["relations"][2][0] == {"coeff": "1", "path": ["d", "a"]}


def test_json_schema_errors():
    with pytest.raises(QuiverSyntaxError):
        parse_json("{not json")
    with pytest.raises(ValidationError):
        parse_json(json.dumps({"vertices": ["1"]}))
    with pytest.raises(ValidationError) as info:
        parse_json_obj({"vertices": ["1", "2"], "arrows": [{"name": "a", "source": "1", "target": "2"}],
                        "relations": [[{"coeff": "1", "path": []}]]})
    assert info.value.code == "BadSchema"


@pytest.mark.parametrize("obj, bad", [
    ({"vertices": "12", "arrows": []}, "vertices is not a list"),
    ({"vertices": ["1"], "arrows": {"name": "a", "source": "1", "target": "1"}},
     "arrows is not a list"),
    ({"vertices": ["1"], "arrows": [], "relations": "ab"}, "relations is not a list"),
    ({"vertices": ["1"], "arrows": [], "relations": [{"coeff": "1", "path": ["a"]}]},
     "a relation is not a list"),
    ({"vertices": ["1"], "arrows": [{"name": "a", "source": "1", "target": "1"}],
      "relations": [[{"coeff": "1", "path": "aa"}]]}, "a path is not a list"),
    ({"name": "my quiver", "vertices": ["1"], "arrows": []}, "'my quiver' is not a name"),
    ({"vertices": [1, "2.0"], "arrows": [{"name": "a", "source": 1, "target": "2.0"}]},
     "'2.0' is not a name"),
    ({"vertices": [1, -2], "arrows": []}, "'-2' is not a name"),
    ({"vertices": [1, 2], "arrows": [{"name": "a b", "source": 1, "target": 2}]},
     "'a b' is not a name"),
])
def test_json_rejects_what_the_text_format_cannot_write(obj, bad):
    with pytest.raises(ValidationError) as info:
        parse_json_obj(obj)
    assert info.value.code == "BadSchema"
    assert str(info.value) == f"BadSchema: malformed quiver JSON: {bad}"


def test_json_reads_int_names():
    bq = parse_json_obj({"name": 7, "vertices": [1, 2],
                         "arrows": [{"name": 3, "source": 1, "target": 2}]})
    assert (bq.name, bq.quiver.vertices, bq.quiver.arrows) == ("7", ("1", "2"), (Arrow("3", 0, 1),))
    assert parse_quiver(emit_text(bq)) == bq


def test_empty_vertex_list_rejected():
    with pytest.raises(ValidationError) as info:
        parse_json_obj({"vertices": [], "arrows": []})
    assert info.value.code == "NoVertices"
    with pytest.raises(ValidationError):
        Quiver((), ())
    # the text grammar needs a vertex name before it reaches the model
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("quiver e { vertices: ; arrows: a: 1 -> 1; }")


def test_load_file_closes_its_file(tmp_path, monkeypatch):
    import qcox.quiverdsl as quiverdsl
    path = tmp_path / "a3.qv"
    path.write_text(A3_ORIENTED)
    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(quiverdsl, "open", tracking_open, raising=False)
    assert load_file(str(path)) == parse_quiver(A3_ORIENTED)
    assert len(opened) == 1 and opened[0].closed


# sha256 prefixes of emit_text(random_bound_quiver(Random(s))), s = 0..19;
# verify --random output depends on these instances staying the same
RANDOM_QUIVER_HASHES = (
    "b1904214dbe841e9", "d8beff69c4971518", "ca61964e9d8dfb59", "e7bd530c18fa6a58",
    "bac52b86de98c3ed", "af6c121d54ba5ffd", "63004ef897d64e67", "80e0234828947dfd",
    "31638d159ad3df01", "9b949238a130b20a", "fccbc5ba7e8a5a50", "ed3ab8eb2696a88e",
    "cab2ebe510c8d8c1", "07cbbed21925b595", "d61e62f549358a22", "f962e9cf089bc3fe",
    "c4b2947e31db3577", "2ddb4b3f77928e62", "948536b24571bed6", "bc9f50b3f021adee",
)


def test_random_bound_quivers_are_pinned():
    import hashlib
    from qcox.randquiver import random_bound_quiver
    for seed, expected in enumerate(RANDOM_QUIVER_HASHES):
        text = emit_text(random_bound_quiver(random.Random(seed)))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == expected, seed


def test_random_bound_quiver_texts_are_pinned():
    # three draws per seed, so that the random stream after each draw is
    # pinned too; the digest was taken when relations were drawn from
    # enumerated Path objects
    import hashlib
    from qcox.randquiver import random_bound_quiver
    digest = hashlib.sha256()
    for seed in range(300):
        rng = random.Random(seed)
        for _ in range(3):
            digest.update(emit_text(random_bound_quiver(rng)).encode())
    assert digest.hexdigest() == \
        "2288d004fe5994e0598b412caa9dcd91844d299363cc04bcced14857391b8fb5"


def test_round_trip_random_quivers():
    from qcox.randquiver import random_bound_quiver
    rng = random.Random(5)
    for _ in range(25):
        bq = random_bound_quiver(rng)
        assert parse_quiver(emit_text(bq)) == bq
        assert parse_json(emit_json(bq)) == bq


def test_relations_keyword_with_no_declarations():
    bq = parse_quiver("""
    quiver empty_block {
      vertices: 1, 2;
      arrows: a: 1 -> 2;
      relations:
    }
    """)
    assert bq.relations == ()


# --- fuzz: malformed input fails with a typed error -------------------------------

_TOKENS = ("quiver", "Q", "{", "}", "vertices", "arrows", "relations", ":", ";", ",",
           "->", "*", "+", "-", "1", "2", "0", "1/2", "1/0", "a", "b", "x", "y", "#", "\n")

_EXAMPLE_TOKENS = [t for line in EXAMPLE_3CYCLE.splitlines() if not line.startswith("#")
                   for t in line.split()]


def _mutate(tokens, edits):
    # each edit cuts out, repeats, inserts or replaces one token
    tokens = list(tokens)
    for at, how, token in edits:
        at %= len(tokens) or 1
        if how == 0:
            del tokens[at:at + 1]
        elif how == 1:
            tokens[at:at] = tokens[at:at + 1]
        else:
            tokens[at:at + (how == 3)] = [token]
    return " ".join(tokens)


_fuzz_text = st.one_of(
    st.text(max_size=80),
    st.lists(st.sampled_from(_TOKENS), max_size=40).map(" ".join),
    st.lists(st.sampled_from(_TOKENS), max_size=30).map(
        lambda ts: "quiver Q { vertices: 1, 2; arrows: a: 1 -> 2; " + " ".join(ts)),
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 3), st.sampled_from(_TOKENS)),
             min_size=1, max_size=3).map(lambda edits: _mutate(_EXAMPLE_TOKENS, edits)),
)


# line breaks of str.splitlines, other whitespace, comments, tokens and
# characters that start no token
_LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029")
_LEXEMES = _LINE_BREAKS + (
    " ", "\t", "\x1f", "\xa0", "\u3000", "#", "->", "-", ">", "/", "1/2", "3/", "/4", "a",
    "B_1", "quiver", "{", "}", ":", ";", ",", "*", "+", "0", "!", ".", "\"", "\x00", "\u00e9",
    "\U0001f600")

_lexer_text = st.one_of(
    st.text(max_size=60),
    st.lists(st.one_of(st.sampled_from(_LEXEMES), st.characters()), max_size=40).map("".join))


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except QuiverSyntaxError as exc:
        return exc.line, exc.column, str(exc)


@settings(max_examples=1000, deadline=None)
@given(_lexer_text)
@example("a\u2028b\x85 c\r\n!d")
@example("x # ! \x1c y->z 1/2 1/ é")
def test_tokenizer_matches_per_character_scan(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(tokenize_per_character, text)


def _parse_outcome(parse, text):
    """The bound quiver and its name, or the error's type, text and position."""
    try:
        bq = parse(text)
    except (QcoxError, ValueError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None),
                getattr(exc, "code", None))
    assert all(type(coeff) is Fraction for rel in bq.relations for coeff, _ in rel.terms)
    return bq, bq.name


def _random_quiver_text(seed, edits):
    from qcox.randquiver import random_bound_quiver
    text = emit_text(random_bound_quiver(random.Random(seed)))
    return _mutate(text.split(), edits) if edits else text


def _with_comment_examples(test):
    # a comment ends at each line break; the second line either completes
    # the file or leaves trailing input whose position is on line 3
    for br in _LINE_BREAKS:
        for tail in ("", " ;"):
            test = example("quiver Q { # } ;" + br + " vertices: 1; arrows: a: 1 -> 1; # ! x"
                           + br + "}" + tail)(test)
    return test


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_fuzz_text, _lexer_text, st.builds(
    _random_quiver_text, st.integers(0, 2 ** 32),
    st.lists(st.tuples(st.integers(0, 200), st.integers(0, 3), st.sampled_from(_TOKENS)),
             max_size=2))))
@_with_comment_examples
@example("quiver Q { vertices: 1; arrows: a: 1 -> 1; relations: a*z*w; }")
@example("quiver Q { vertices: 1; arrows: a: 1 -> 1; relations: a*a - 2*; }")
def test_parse_quiver_matches_reference_parser(text):
    assert _parse_outcome(parse_quiver, text) == _parse_outcome(parse_quiver_reference, text)


# names that the grammar also uses as keywords, numeric names, and plain ones
_NAME_POOL = (("quiver", "vertices", "arrows", "relations", "Q", "0", "1", "2", "1x", "b_c")
              + tuple(f"n{k}" for k in range(50)))

# one vertex and no arrows: both formats accept it
_ONE_VERTEX = BoundQuiver(Quiver(("v",), ()), name="one")


@st.composite
def _renamed_bound_quivers(draw, generator):
    """A quiver of ``generator``, seeded, whose quiver, vertex and arrow
    names are drawn from _NAME_POOL."""
    bq = generator(random.Random(draw(st.integers(0, 2 ** 32))))
    q = bq.quiver
    vertices = draw(st.permutations(_NAME_POOL))[:q.n]
    arrows = draw(st.permutations(_NAME_POOL))[:len(q.arrows)]
    quiver = Quiver(tuple(vertices), tuple(Arrow(name, a.source, a.target)
                                           for name, a in zip(arrows, q.arrows)))
    return BoundQuiver(quiver, bq.relations, name=draw(st.sampled_from(_NAME_POOL)))


def _parsed(text):
    """The bound quiver the text parses to, or None."""
    try:
        return parse_quiver(text)
    except (QcoxError, ValueError):
        return None


def _written_inputs():
    """Inputs that parse_quiver or parse_json accept: random bound quivers
    and cyclic ones, with loops, named from _NAME_POOL; the fuzz texts
    and the edited random quiver texts that parse; and the one-vertex
    quiver without arrows."""
    from qcox.randquiver import random_bound_quiver
    texts = st.one_of(_fuzz_text, st.builds(
        _random_quiver_text, st.integers(0, 2 ** 32),
        st.lists(st.tuples(st.integers(0, 200), st.integers(0, 3), st.sampled_from(_TOKENS)),
                 max_size=2)))
    return st.one_of(_renamed_bound_quivers(random_bound_quiver),
                     _renamed_bound_quivers(random_cyclic_bound_quiver),
                     texts.map(_parsed).filter(lambda bq: bq is not None),
                     st.just(_ONE_VERTEX))


@settings(max_examples=200, deadline=None)
@given(_written_inputs(), st.integers(0, 6))
# an arrow named "relations" that is not the first arrow
@example(BoundQuiver(Quiver(("1", "2"), (Arrow("a", 0, 1), Arrow("relations", 0, 1)))), 0)
@example(_ONE_VERTEX, 0)
def test_what_qcox_writes_it_reads_back(bq, pick):
    import contextlib
    import io
    import os
    import tempfile
    from qcox.cli import main
    from qcox.coxeter import sigma_reflect
    for parse, emit in ((parse_quiver, emit_text), (parse_json, emit_json)):
        back = parse(emit(bq))
        assert (back, back.name) == (bq, bq.name)
    # reflect writes a relation-free quiver; read it in one format, write the other
    free = BoundQuiver(bq.quiver, name=bq.name)
    vertex = pick % bq.quiver.n
    expected = BoundQuiver(sigma_reflect(bq.quiver, vertex))
    with tempfile.TemporaryDirectory() as tmp:
        for suffix, emit, fmt, parse in ((".json", emit_json, "plain", parse_quiver),
                                         (".qv", emit_text, "json", parse_json)):
            path = os.path.join(tmp, "in" + suffix)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(emit(free))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["reflect", path, "--vertex", bq.quiver.vertices[vertex],
                             f"--format={fmt}"]) == 0
            back = parse(out.getvalue())
            assert (back, back.name) == (expected, bq.name)


def test_one_vertex_quiver_without_arrows_reads_back(tmp_path, capsys):
    # the text form writes "arrows:" with no declaration after it
    from qcox.cli import main
    text = emit_text(_ONE_VERTEX)
    assert text == "quiver one {\n  vertices: v;\n  arrows:\n}\n"
    for emit, parse in ((emit_text, parse_quiver), (emit_json, parse_json)):
        back = parse(emit(_ONE_VERTEX))
        assert (back, back.name) == (_ONE_VERTEX, "one")
    source = tmp_path / "one.json"
    source.write_text(emit_json(_ONE_VERTEX), encoding="utf-8")
    assert main(["reflect", str(source), "--vertex", "v"]) == 0
    written = tmp_path / "one.qv"
    written.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["cartan", str(written)]) == 0
    assert capsys.readouterr() == ("[ 1 ]\n", "")
    back = load_file(str(written))
    assert (back, back.name) == (_ONE_VERTEX, "one")


def test_valid_input_reads_no_token_positions(monkeypatch):
    import qcox.quiverdsl as quiverdsl
    words = ["*".join("xy"[(k >> i) & 1] for i in range(8)) for k in range(256)]
    lines = [f"  {k % 5 + 1}/3*{w} - {words[(k + 1) % 256]};  # relation {k}"
             for k, w in enumerate(words)]
    text = ("quiver big {\n  vertices: 1;\n  arrows: x: 1 -> 1; y: 1 -> 1;\n  relations:\n"
            + "\n".join(lines) + "\n}\n")
    expected = parse_quiver_reference(text)

    def no_positions(text):
        raise AssertionError("token positions read while parsing valid input")

    monkeypatch.setattr(quiverdsl, "_tokenize", no_positions)
    bq = parse_quiver(text)
    assert len(bq.relations) == 256
    assert (bq, bq.name) == (expected, expected.name)


@pytest.mark.parametrize("text, message, line, column", [
    ("quiver Q {\n  vertices: 1;\n  arrows: a: 1 -> 1;\n  relations: a*a - 2*;\n}",
     "expected arrow name", 4, 22),
    ("quiver Q { vertices: 1; arrows: a: 1 -> 1;\n relations: a*a # no ';'\n",
     "expected ';' (at end of input)", 2, 15),
    ("quiver Q { vertices: 1; arrows: a: 1 -> 1; }\n\t} # extra",
     "trailing input after closing '}'", 2, 2),
])
def test_syntax_error_positions_are_pinned(text, message, line, column):
    with pytest.raises(QuiverSyntaxError) as info:
        parse_quiver(text)
    assert (str(info.value), info.value.line, info.value.column) == \
        (f"line {line}, col {column}: {message}", line, column)


_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                       st.sampled_from(["1", "2", "a", "b", "1/2", "1/0", "x", ""]))
_json_value = st.recursive(_json_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from(["name", "source", "target", "coeff", "path"]),
                    inner, max_size=4)), max_leaves=12)


@st.composite
def _schema_objects(draw):
    """Quiver JSON of the schema's shape, on names that mostly resolve, with
    up to two top-level entries dropped or replaced by arbitrary values."""
    vertices = draw(st.lists(st.sampled_from(["1", "2", "3"]), min_size=1, unique=True))
    vertex = st.sampled_from(vertices)
    arrows = draw(st.lists(st.fixed_dictionaries(
        {"name": st.sampled_from(["a", "b", "c"]), "source": vertex, "target": vertex}),
        max_size=4, unique_by=lambda a: a["name"]))
    term = st.fixed_dictionaries(
        {"coeff": st.sampled_from(["1", "-1", "2", "0", "1/0", "q"]),
         "path": st.lists(st.sampled_from([a["name"] for a in arrows] + ["z"]), max_size=3)})
    obj = {"vertices": vertices, "arrows": arrows,
           "relations": draw(st.lists(st.lists(term, max_size=3), max_size=3))}
    for key in draw(st.lists(st.sampled_from(["vertices", "arrows", "relations", "name"]),
                             max_size=2, unique=True)):
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(_json_value)
    return obj


@settings(max_examples=400, deadline=None)
@given(_fuzz_text)
def test_parse_quiver_fuzz_raises_only_typed_errors(text):
    try:
        parse_quiver(text)
    except (QcoxError, ValueError):
        pass


@settings(max_examples=400, deadline=None)
@given(st.one_of(_json_value, _schema_objects()))
def test_parse_json_obj_fuzz_raises_only_typed_errors(obj):
    try:
        parse_json_obj(obj)
    except (QcoxError, ValueError):
        pass


_layout_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
              st.sampled_from(["", "\"", "\\", "\n\t", "é", "\u2603", "\x00", "\U0001f600"])),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(_layout_value)
def test_json_text_is_json_dumps_indent_2(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)
