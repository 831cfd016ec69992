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
                  "arrows:" arrowdecl* ("relations:" reldecl*)? "}"
    namelist  ::= NAME ("," NAME)*
    arrowdecl ::= NAME ":" NAME "->" NAME ";"
    reldecl   ::= term (("+"|"-") term)* ";"
    term      ::= (RATIONAL "*")? NAME ("*" NAME)*

``#`` starts a comment running to the next line break (any break that
``str.splitlines`` splits at).  Names are words of letters, digits and
underscores; any other non-whitespace character is a syntax error.  The
text is scanned once: one regular expression strips the comments and one
``findall`` gives the token strings, without positions.  Only when the
scan meets a bad character or the parser an unexpected token does
``_tokenize`` scan the text again, line by line, to give the error its line
and column, so a file that parses pays nothing for positions.  Path
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

    @cached_property
    def _smallest_sink_order(self) -> tuple[int, ...] | None:
        # shared by validate, is_acyclic and admissible_numbering
        return self._sink_order(1)

    def sink_order(self, prefer_largest: bool = False) -> tuple[int, ...] | None:
        """Sink-first vertex ordering: each entry is a sink of the subquiver
        on the vertices not yet listed, the smallest-index one at every step
        (largest with ``prefer_largest``).  None when some step finds no
        sink, that is, when the quiver has a directed cycle; a loop is one.
        The smallest-first order is computed once per quiver.
        """
        return self._sink_order(-1) if prefer_largest else self._smallest_sink_order

    def _sink_order(self, sign: int) -> tuple[int, ...] | None:
        out_degree = [0] * self.n
        sources_into: list[list[int]] = [[] for _ in range(self.n)]
        for a in self.arrows:
            out_degree[a.source] += 1
            sources_into[a.target].append(a.source)
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
    src = [a.source for a in q.arrows]
    tgt = [a.target for a in q.arrows]
    issues: list[RelationIssue] = []
    for idx, rel in enumerate(bq.relations):
        if len(rel.terms) == 1:
            # a clean one-term relation has no issue: skip the full scan
            coeff, path = rel.terms[0]
            p = path.arrows
            if coeff and len(p) >= 2 and \
                    [*map(tgt.__getitem__, p[:-1])] == [*map(src.__getitem__, p[1:])]:
                continue
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
    arrows = q.arrows
    for coeff, path in rel.terms:
        if coeff == 0:
            yield RelationIssue(idx, "ZeroCoefficient", "term with coefficient 0")
        for a, b in zip(path.arrows, path.arrows[1:]):
            if arrows[a].target != arrows[b].source:
                yield RelationIssue(idx, "NonComposable",
                                    f"arrows {arrows[a].name!r} and {arrows[b].name!r} do not compose")
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
# a comment ends at every line break of str.splitlines
_COMMENT_RE = re.compile(r"#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")
_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_RATIONAL_RE = re.compile(r"[0-9]+(?:/[0-9]+)?\Z")
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


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
    """Recursive descent over the token strings, which end in a ``None``
    sentinel.  Token positions are looked up only to raise an error."""

    def __init__(self, text: str, tokens: list[str]):
        self.text = text
        self.tokens = tokens + [None]
        self.pos = 0

    def _error(self, message: str):
        positions = _tokenize(self.text)
        if self.pos < len(positions):
            _, line, col = positions[self.pos]
            raise QuiverSyntaxError(message, line, col)
        _, line, col = positions[-1]
        raise QuiverSyntaxError(message + " (at end of input)", line, col)

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            self._error(f"expected {text!r}")
        self.pos += 1

    def name(self, what: str) -> str:
        t = self.tokens[self.pos]
        if t is None or not _NAME_RE.match(t):
            self._error(f"expected {what}")
        self.pos += 1
        return t

    def parse(self) -> BoundQuiver:
        tokens = self.tokens
        self.expect("quiver")
        qname = self.name("quiver name")
        self.expect("{")
        self.expect("vertices")
        self.expect(":")
        vertices = [self.name("vertex name")]
        while tokens[self.pos] == ",":
            self.pos += 1
            vertices.append(self.name("vertex name"))
        self.expect(";")
        self.expect("arrows")
        self.expect(":")
        arrows = []
        while True:
            # "}" or "relations" ends the arrows, which may be none, unless
            # "relations: x ->" declares one; no relation contains "->"
            t = tokens[self.pos]
            if t == "}" or (t == "relations" and tokens[self.pos + 3:self.pos + 4] != ["->"]):
                break
            aname = self.name("arrow name")
            self.expect(":")
            src = self.name("source vertex")
            self.expect("->")
            dst = self.name("target vertex")
            self.expect(";")
            arrows.append((aname, src, dst))
            if tokens[self.pos] is None:
                break
        relations = []
        if tokens[self.pos] == "relations":
            self.pos += 1
            self.expect(":")
            declared = {aname for aname, _, _ in arrows}
            while tokens[self.pos] not in ("}", None):
                relations.append(self._reldecl(declared))
        self.expect("}")
        if tokens[self.pos] is not None:
            self._error("trailing input after closing '}'")
        return _build(qname, vertices, arrows, relations)

    def _reldecl(self, declared: set[str]) -> list[tuple[Fraction, list[str]]]:
        tokens, pos = self.tokens, self.pos
        terms = []
        t = tokens[pos]
        while True:
            # the first term's sign is optional; every later term has one
            negative = t == "-"
            if negative or t == "+":
                pos += 1
                t = tokens[pos]
            # "2*a" is coefficient 2 on path a; "1*2*a" is path 2*a
            if t is not None and tokens[pos + 1] == "*" and _RATIONAL_RE.match(t):
                coeff = -parse_rational(t) if negative else parse_rational(t)
                pos += 2
                t = tokens[pos]
            else:
                coeff = _MINUS_ONE if negative else _ONE
            path = []
            while True:
                # a declared arrow is a name; only other tokens need the test
                if t not in declared and (t is None or not _NAME_RE.match(t)):
                    self.pos = pos
                    self._error("expected arrow name")
                path.append(t)
                pos += 1
                t = tokens[pos]
                if t != "*":
                    break
                pos += 1
                t = tokens[pos]
            terms.append((coeff, path))
            if t != "+" and t != "-":
                break
        self.pos = pos
        self.expect(";")
        return terms


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
    index = quiver._arrow_index
    sources = [a.source for a in arrows]
    targets = [a.target for a in arrows]
    # composition problems are reported by validate(), not raised here
    relations = []
    for decl in relation_decls:
        terms = []
        for coeff, arrow_names in decl:
            try:
                indices = tuple([index[nm] for nm in arrow_names])
            except KeyError:
                # raises UnknownArrow at the first unknown name
                indices = tuple([quiver.arrow_index(nm) for nm in arrow_names])
            terms.append((coeff, Path(indices, sources[indices[0]], targets[indices[-1]])))
        relations.append(Relation(tuple(terms)))
    bq = BoundQuiver(quiver, tuple(relations), name=qname)
    report = validate(bq)
    if not report.passed:
        code = report.failure_codes()[0]
        raise ValidationError(code, "; ".join(report.failure_codes()), report)
    return bq


def parse_quiver(text: str) -> BoundQuiver:
    """Parse quiver description text into a validated bound quiver."""
    tokens = _TOKEN_RE.findall(_COMMENT_RE.sub("", text))
    if "" in tokens:
        _tokenize(text)     # raises at the first character that starts no token
    if not tokens:
        raise QuiverSyntaxError("empty input", 1, 1)
    return _Parser(text, tokens).parse()


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
    """The bound quiver of a JSON object; every name must be one that the
    text format can write (ints are read as their decimal names)."""
    try:
        vertices = [str(v) for v in _json_list(obj["vertices"], "vertices")]
        arrow_decls = [(str(a["name"]), str(a["source"]), str(a["target"]))
                       for a in _json_list(obj["arrows"], "arrows")]
        relation_decls = [[(parse_rational(str(t["coeff"])),
                            [str(p) for p in _json_list(t["path"], "a path")])
                           for t in _json_list(rel, "a relation")]
                          for rel in _json_list(obj.get("relations", []), "relations")]
        qname = str(obj.get("name", "Q"))
    except (KeyError, TypeError) as exc:
        raise ValidationError("BadSchema", f"malformed quiver JSON: {exc}") from exc
    if any(not path for rel in relation_decls for _, path in rel):
        raise ValidationError("BadSchema", "malformed quiver JSON: a relation term has an empty path")
    for name in (qname, *vertices, *(aname for aname, _, _ in arrow_decls)):
        if not _NAME_RE.match(name):
            raise ValidationError("BadSchema", f"malformed quiver JSON: {name!r} is not a name")
    return _build(qname, vertices, arrow_decls, relation_decls)


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError("BadSchema", f"malformed quiver JSON: {what} is not a list")
    return value


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
