"""Bound-quiver data model, description-language parser, and serializers.

A quiver file looks like::

    quiver example {
      vertices: 1, 2, 3;
      arrows:
        a: 1 -> 2;
        b: 2 -> 3;
        c: 1 -> 2;
      relations:
        a*b - c*b;
    }

Grammar::

    quiver    ::= "quiver" NAME "{" "vertices:" namelist ";"
                  "arrows:" arrowdecl+ ("relations:" reldecl+)? "}"
    namelist  ::= NAME ("," NAME)*
    arrowdecl ::= NAME ":" NAME "->" NAME ";"
    reldecl   ::= term (("+"|"-") term)* ";"
    term      ::= (RATIONAL "*")? NAME ("*" NAME)*

``#`` starts a comment running to end of line.  Names are words of
letters, digits and underscores.  Each line (as ``str.splitlines`` splits
the text) is tokenized by one regular-expression scan; any other
non-whitespace character is a syntax error at its line and column.  Path
composition is left to right: ``a*b`` traverses a, then b, and requires
the target of a to equal the source of b.  A rational coefficient is
written like ``3/2`` or ``-1``; a bare path has coefficient 1.  A term
starting with a number-shaped token followed by ``*`` is read as a
coefficient; write ``1*2*a`` to start a path with an arrow literally
named ``2``.

The order of the ``vertices:`` list fixes matrix row and column indexing
everywhere downstream; nothing re-sorts it.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterable

from .errors import QuiverSyntaxError, ValidationError
from .polyring import format_rational, parse_rational


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph; vertices and arrows referenced by index."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValidationError("NoVertices", "a quiver needs at least one vertex")
        names = set()
        for v in self.vertices:
            if v in names:
                raise ValidationError("DuplicateVertex", f"vertex {v!r} declared twice")
            names.add(v)
        seen = set()
        for a in self.arrows:
            if a.name in seen:
                raise ValidationError("DuplicateArrow", f"arrow {a.name!r} declared twice")
            seen.add(a.name)
            if not (0 <= a.source < self.n and 0 <= a.target < self.n):
                raise ValidationError("BadEndpoint", f"arrow {a.name!r} endpoint out of range")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def _vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _arrow_index(self) -> dict[str, int]:
        return {a.name: i for i, a in enumerate(self.arrows)}

    def vertex_index(self, name: str) -> int:
        try:
            return self._vertex_index[name]
        except KeyError:
            raise ValidationError("UnknownVertex", f"no vertex named {name!r}") from None

    def arrow_index(self, name: str) -> int:
        try:
            return self._arrow_index[name]
        except KeyError:
            raise ValidationError("UnknownArrow", f"no arrow named {name!r}") from None

    def arrow_counts(self) -> list[list[int]]:
        """b[i][j] = number of arrows i -> j."""
        b = [[0] * self.n for _ in range(self.n)]
        for a in self.arrows:
            b[a.source][a.target] += 1
        return b

    def edge_counts(self) -> list[list[int]]:
        """a[i][j] = arrows between i and j in either direction (symmetric)."""
        b = self.arrow_counts()
        return [[b[i][j] + b[j][i] for j in range(self.n)] for i in range(self.n)]

    def loops(self) -> list[Arrow]:
        return [a for a in self.arrows if a.source == a.target]

    def sinks(self) -> list[int]:
        out = [False] * self.n
        for a in self.arrows:
            out[a.source] = True
        return [i for i in range(self.n) if not out[i]]

    def sink_order(self, prefer_largest: bool = False) -> tuple[int, ...] | None:
        """Sink-first vertex ordering: each entry is a sink of the subquiver
        on the vertices not yet listed, the smallest-index one at every step
        (largest with ``prefer_largest``).  None when some step finds no
        sink, that is, when the quiver has a directed cycle; a loop is one.
        """
        out_degree = [0] * self.n
        sources_into: list[list[int]] = [[] for _ in range(self.n)]
        for a in self.arrows:
            out_degree[a.source] += 1
            sources_into[a.target].append(a.source)
        sign = -1 if prefer_largest else 1
        sinks = [sign * v for v in range(self.n) if not out_degree[v]]
        heapq.heapify(sinks)
        order = []
        while sinks:
            v = sign * heapq.heappop(sinks)
            order.append(v)
            for u in sources_into[v]:
                out_degree[u] -= 1
                if not out_degree[u]:
                    heapq.heappush(sinks, sign * u)
        return tuple(order) if len(order) == self.n else None

    def is_acyclic(self) -> bool:
        return self.sink_order() is not None

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = [set() for _ in range(self.n)]
        for a in self.arrows:
            adj[a.source].add(a.target)
            adj[a.target].add(a.source)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


@dataclass(frozen=True)
class Path:
    """Composable arrow sequence; length-0 paths are trivial paths at a vertex."""

    arrows: tuple[int, ...]
    source: int
    target: int

    @property
    def length(self) -> int:
        return len(self.arrows)

    @classmethod
    def trivial(cls, vertex: int) -> "Path":
        return cls((), vertex, vertex)

    def names(self, quiver: Quiver) -> list[str]:
        return [quiver.arrows[i].name for i in self.arrows]


@dataclass(frozen=True)
class Relation:
    """Homogeneous relation: rational combination of equal-length parallel paths."""

    terms: tuple[tuple[Fraction, Path], ...]

    @property
    def source(self) -> int:
        return self.terms[0][1].source

    @property
    def target(self) -> int:
        return self.terms[0][1].target

    @property
    def length(self) -> int:
        return self.terms[0][1].length


@dataclass(frozen=True)
class BoundQuiver:
    quiver: Quiver
    relations: tuple[Relation, ...] = ()
    name: str = field(default="Q", compare=False)


@dataclass(frozen=True)
class RelationIssue:
    index: int
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    connected: bool
    acyclic: bool
    loop_arrows: tuple[str, ...]
    relation_issues: tuple[RelationIssue, ...]

    @property
    def passed(self) -> bool:
        return self.connected and not self.relation_issues

    def failure_codes(self) -> list[str]:
        codes = [] if self.connected else ["Disconnected"]
        codes.extend(issue.code for issue in self.relation_issues)
        return codes


def validate(bq: BoundQuiver) -> ValidationReport:
    """Check every bound-quiver invariant, returning a report instead of raising.

    Connectivity and per-relation homogeneity are hard requirements;
    acyclicity and loops are informational flags (needed only by the
    reflection machinery, which checks them itself).
    """
    q = bq.quiver
    issues: list[RelationIssue] = []
    for idx, rel in enumerate(bq.relations):
        issues.extend(_relation_issues(q, idx, rel))
    return ValidationReport(
        connected=q.is_connected(),
        acyclic=q.is_acyclic(),
        loop_arrows=tuple(a.name for a in q.loops()),
        relation_issues=tuple(issues),
    )


def _relation_issues(q: Quiver, idx: int, rel: Relation) -> Iterable[RelationIssue]:
    if not rel.terms:
        yield RelationIssue(idx, "EmptyRelation", "relation has no terms")
        return
    for coeff, path in rel.terms:
        if coeff == 0:
            yield RelationIssue(idx, "ZeroCoefficient", "term with coefficient 0")
        for a, b in zip(path.arrows, path.arrows[1:]):
            if q.arrows[a].target != q.arrows[b].source:
                yield RelationIssue(idx, "NonComposable",
                                    f"arrows {q.arrows[a].name!r} and {q.arrows[b].name!r} do not compose")
    lengths = {path.length for _, path in rel.terms}
    if len(lengths) > 1:
        yield RelationIssue(idx, "NonHomogeneous",
                            f"paths of different lengths {sorted(lengths)} in one relation")
    elif min(lengths) < 2:
        yield RelationIssue(idx, "DegreeTooLow",
                            f"relation paths must have length >= 2, got {min(lengths)}")
    endpoints = {(path.source, path.target) for _, path in rel.terms}
    if len(endpoints) > 1:
        yield RelationIssue(idx, "NonParallel", "relation paths do not share source and target")
    seen_paths = set()
    for _, path in rel.terms:
        if path.arrows in seen_paths:
            yield RelationIssue(idx, "DuplicatePath", "same path appears in two terms")
        seen_paths.add(path.arrows)


# --- text format -------------------------------------------------------------

# a token, or any other non-space character, which is an error
_TOKEN_RE = re.compile(r"(->|[{}:;,*+\-]|[A-Za-z0-9_]+(?:/[0-9]+)?)|\S")
_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_RATIONAL_RE = re.compile(r"[0-9]+(?:/[0-9]+)?\Z")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """(text, line, column) of every token, by one scan per line."""
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line.split("#", 1)[0]):
            if m[1] is None:
                raise QuiverSyntaxError(f"unexpected character {m[0]!r}", lineno, m.start() + 1)
            tokens.append((m[1], lineno, m.start() + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    def _error(self, message: str):
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
            raise QuiverSyntaxError(message, line, col)
        _, line, col = self.tokens[-1] if self.tokens else ("", 1, 1)
        raise QuiverSyntaxError(message + " (at end of input)", line, col)

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            self._error("unexpected end of input")
        self.pos += 1
        return self.tokens[self.pos - 1][0]

    def expect(self, text: str) -> None:
        if self.peek() != text:
            self._error(f"expected {text!r}")
        self.pos += 1

    def name(self, what: str) -> str:
        t = self.peek()
        if t is None or not _NAME_RE.match(t):
            self._error(f"expected {what}")
        self.pos += 1
        return t

    def parse(self) -> BoundQuiver:
        self.expect("quiver")
        qname = self.name("quiver name")
        self.expect("{")
        self.expect("vertices")
        self.expect(":")
        vertices = [self.name("vertex name")]
        while self.peek() == ",":
            self.take()
            vertices.append(self.name("vertex name"))
        self.expect(";")
        self.expect("arrows")
        self.expect(":")
        arrows = []
        while True:
            aname = self.name("arrow name")
            self.expect(":")
            src = self.name("source vertex")
            self.expect("->")
            dst = self.name("target vertex")
            self.expect(";")
            arrows.append((aname, src, dst))
            nxt = self.peek()
            if nxt in ("relations", "}") or nxt is None:
                break
        relations = []
        if self.peek() == "relations":
            self.take()
            self.expect(":")
            while self.peek() not in ("}", None):
                relations.append(self._reldecl())
        self.expect("}")
        if self.pos != len(self.tokens):
            self._error("trailing input after closing '}'")
        return _build(qname, vertices, arrows, relations)

    def _reldecl(self) -> list[tuple[Fraction, list[str]]]:
        terms = [self._term(leading_sign=True)]
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            coeff, path = self._term(leading_sign=False)
            terms.append((sign * coeff, path))
        self.expect(";")
        return terms

    def _term(self, leading_sign: bool) -> tuple[Fraction, list[str]]:
        sign = 1
        if leading_sign and self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        coeff = Fraction(1)
        t = self.peek()
        if t is not None and _RATIONAL_RE.match(t) and self._next_is_star() and \
                (("/" in t) or self._looks_like_coefficient()):
            coeff = parse_rational(self.take())
            self.expect("*")
        path = [self.name("arrow name")]
        while self.peek() == "*":
            self.take()
            path.append(self.name("arrow name"))
        return sign * coeff, path

    def _next_is_star(self) -> bool:
        return self.pos + 1 < len(self.tokens) and self.tokens[self.pos + 1][0] == "*"

    def _looks_like_coefficient(self) -> bool:
        # "2*a" is coefficient 2 on path a; "1*2*a" forces an arrow named 2
        return self.pos + 2 < len(self.tokens) and \
            _NAME_RE.match(self.tokens[self.pos + 2][0]) is not None


def _build(qname, vertex_names, arrow_decls, relation_decls) -> BoundQuiver:
    vidx = {}
    for v in vertex_names:
        if v in vidx:
            raise ValidationError("DuplicateVertex", f"vertex {v!r} declared twice")
        vidx[v] = len(vidx)
    arrows = []
    for aname, src, dst in arrow_decls:
        if src not in vidx:
            raise ValidationError("UnknownVertex", f"arrow {aname!r} uses unknown vertex {src!r}")
        if dst not in vidx:
            raise ValidationError("UnknownVertex", f"arrow {aname!r} uses unknown vertex {dst!r}")
        arrows.append(Arrow(aname, vidx[src], vidx[dst]))
    quiver = Quiver(tuple(vertex_names), tuple(arrows))
    relations = []
    for decl in relation_decls:
        terms = []
        for coeff, arrow_names in decl:
            indices = [quiver.arrow_index(nm) for nm in arrow_names]
            path = _path_unchecked(quiver, indices)
            terms.append((coeff, path))
        relations.append(Relation(tuple(terms)))
    bq = BoundQuiver(quiver, tuple(relations), name=qname)
    report = validate(bq)
    if not report.passed:
        code = report.failure_codes()[0]
        raise ValidationError(code, "; ".join(report.failure_codes()), report)
    return bq


def _path_unchecked(quiver: Quiver, indices: list[int]) -> Path:
    # composition problems are reported by validate(), not raised here
    arrows = [quiver.arrows[i] for i in indices]
    return Path(tuple(indices), arrows[0].source, arrows[-1].target)


def parse_quiver(text: str) -> BoundQuiver:
    """Parse quiver description text into a validated bound quiver."""
    tokens = _tokenize(text)
    if not tokens:
        raise QuiverSyntaxError("empty input", 1, 1)
    return _Parser(tokens).parse()


def emit_text(bq: BoundQuiver) -> str:
    """Render a bound quiver in the description language; parses back equal."""
    q = bq.quiver
    lines = [f"quiver {bq.name} {{"]
    lines.append("  vertices: " + ", ".join(q.vertices) + ";")
    lines.append("  arrows:")
    for a in q.arrows:
        lines.append(f"    {a.name}: {q.vertices[a.source]} -> {q.vertices[a.target]};")
    if bq.relations:
        lines.append("  relations:")
        for rel in bq.relations:
            lines.append("    " + _format_relation(q, rel) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _format_relation(q: Quiver, rel: Relation) -> str:
    parts = []
    for coeff, path in rel.terms:
        names = path.names(q)
        body = "*".join(names)
        mag = abs(coeff)
        if mag != 1:
            body = f"{format_rational(mag)}*{body}"
        elif len(names) >= 2 and _RATIONAL_RE.match(names[0]):
            # a numeric first arrow would re-parse as a coefficient
            body = f"1*{body}"
        if not parts:
            parts.append(body if coeff >= 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff >= 0 else "- ") + body)
    return " ".join(parts)


# --- JSON format --------------------------------------------------------------

def emit_json_obj(bq: BoundQuiver) -> dict:
    q = bq.quiver
    return {
        "name": bq.name,
        "vertices": list(q.vertices),
        "arrows": [{"name": a.name,
                    "source": q.vertices[a.source],
                    "target": q.vertices[a.target]} for a in q.arrows],
        "relations": [[{"coeff": format_rational(coeff), "path": path.names(q)}
                       for coeff, path in rel.terms] for rel in bq.relations],
    }


def emit_json(bq: BoundQuiver) -> str:
    return json_text(emit_json_obj(bq)) + "\n"


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.

    With ``indent`` set, ``json`` runs its pure-Python encoder; this writes
    the same layout directly, with the same string encoder.  Dicts need str
    keys; values other than dicts, lists, tuples, strings, ints, bools and
    None go through ``json.dumps`` itself.
    """
    return _json(obj, "\n")


def _json(obj, newline: str) -> str:
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if all(map(isinstance, obj, repeat(str))):
            items = map(_encode_str, obj)
        else:
            items = [_json(item, inner) for item in obj]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [f"{_encode_str(key)}: {_json(value, inner)}" for key, value in obj.items()]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    return json.dumps(obj)


def parse_json_obj(obj: dict) -> BoundQuiver:
    try:
        vertices = [str(v) for v in obj["vertices"]]
        arrow_decls = [(str(a["name"]), str(a["source"]), str(a["target"]))
                       for a in obj["arrows"]]
        relation_decls = [[(parse_rational(str(t["coeff"])), [str(p) for p in t["path"]])
                           for t in rel] for rel in obj.get("relations", [])]
    except (KeyError, TypeError) as exc:
        raise ValidationError("BadSchema", f"malformed quiver JSON: {exc}") from exc
    if any(not path for rel in relation_decls for _, path in rel):
        raise ValidationError("BadSchema", "malformed quiver JSON: a relation term has an empty path")
    return _build(str(obj.get("name", "Q")), vertices, arrow_decls, relation_decls)


def parse_json(text: str) -> BoundQuiver:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise QuiverSyntaxError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    return parse_json_obj(obj)


def load_file(path) -> BoundQuiver:
    """Read a .qv (description language) or .json quiver file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".json"):
        return parse_json(text)
    return parse_quiver(text)
