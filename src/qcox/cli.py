"""Command-line interface.

Subcommands: cartan, coxeter, dims, forms, reflect, numbering, verify.
Input files are quiver descriptions (.qv, or any extension other than
.json) or the equivalent JSON schema (.json).  Output formats: plain,
json, latex.  JSON has the layout of ``json.dumps(obj, indent=2)``:
matrices, verify reports and dims tables, the large payloads, are written
in it straight, and the small ones by ``json.dumps`` itself.  Exit codes:
0 success, 1 a verification check failed, 2 bad input, a model error, a
resource limit or an internal error (the message names the error kind; an
unexpected exception is reported as ``InternalError`` with its type).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import chain, compress, count
from json.encoder import encode_basestring_ascii as _encode_str
from operator import attrgetter

from . import algebra, coxeter
from .errors import QcoxError, ValidationError
from .polyring import (Polynomial, PolyMatrix, format_rational, grid_text, parse_rational,
                       poly_text)
from .quiverdsl import BoundQuiver, emit_json_obj, emit_text, load_file
from .randquiver import random_bound_quiver

_COEFFS = attrgetter("coeffs")


def poly_latex(p: Polynomial) -> str:
    return poly_text(p.coeffs, _latex_number, "q^{{{}}}")


def _latex_number(mag, var: str) -> str:
    return _rational_latex(mag) + var


def _rational_latex(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def _matrix_latex(cells: list[list[str]]) -> str:
    n_cols = len(cells[0])
    lines = ["\\left(\\begin{array}{" + "c" * n_cols + "}"]
    lines.extend(" & ".join(row) + " \\\\" for row in cells)
    lines.append("\\end{array}\\right)")
    return "\n".join(lines)


def render_matrix(m: PolyMatrix, fmt: str, at_q: Fraction | None) -> str:
    # each distinct entry, keyed by its coefficients, is written once
    coeffs = [list(map(_COEFFS, row)) for row in m.rows]
    written = dict.fromkeys(chain.from_iterable(coeffs))
    for cs in written:
        written[cs] = _entry(cs, fmt, at_q)
    if fmt == "json":
        # json.dumps({"n": ..., "at_q": ..., "entries": ...}, indent=2)
        # written straight, with "at_q" only under --at-q: str of an int or
        # a Fraction needs no escaping
        at = "" if at_q is None else f'\n  "at_q": "{format_rational(at_q)}",'
        rows = (",\n      ".join(map(written.__getitem__, row)) for row in coeffs)
        return ('{\n  "n": ' + str(m.n) + "," + at + '\n  "entries": [\n    [\n      '
                + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]\n}")
    cells = [list(map(written.__getitem__, row)) for row in coeffs]
    return _matrix_latex(cells) if fmt == "latex" else grid_text(cells)


def _entry(cs: tuple, fmt: str, at_q: Fraction | None) -> str:
    # an entry, given by its coefficients, as render_matrix writes it: in
    # JSON its coefficient list or its quoted value at q = at_q, else _text
    if fmt == "json" and at_q is None:
        return _entry_json(cs)
    p = Polynomial._make(list(cs))
    if fmt == "json":
        return f'"{format_rational(p.evaluate(at_q))}"'
    return _text(p, fmt, at_q)


_COEFF_SEP = '",\n        "'
_ZERO_COEFF = "0" + _COEFF_SEP


def _entry_json(cs: tuple) -> str:
    # the coefficient strings of an entry, given by its coefficients, joined
    # by _COEFF_SEP; a run of k zeros before a nonzero coefficient is written
    # as k copies of _ZERO_COEFF
    if not cs:
        return "[]"
    parts = []
    last = -1
    for k in compress(count(), cs):
        parts.append(_ZERO_COEFF * (k - last - 1) + str(cs[k]))
        last = k
    return '[\n        "' + _COEFF_SEP.join(parts) + '"\n      ]'


def _poly_json(p: Polynomial, at_q: Fraction | None):
    # JSON value of p: its coefficient strings, or its value at q = at_q
    return p.to_coeff_strings() if at_q is None else format_rational(p.evaluate(at_q))


def _text(p: Polynomial, fmt: str, at_q: Fraction | None) -> str:
    # p in plain or LaTeX form, or its value at q = at_q in that form
    if at_q is None:
        return poly_latex(p) if fmt == "latex" else str(p)
    v = p.evaluate(at_q)
    return _rational_latex(v) if fmt == "latex" else format_rational(v)


def render_vector(entries, fmt: str, at_q: Fraction | None, label: str = "") -> str:
    if fmt == "json":
        return _dumps([_poly_json(e, at_q) for e in entries])
    body = ", ".join(_text(e, fmt, at_q) for e in entries)
    return label + (f"({body})^T" if fmt == "latex" else f"({body})")


def render_poly(p: Polynomial, fmt: str, at_q: Fraction | None) -> str:
    if fmt == "json":
        return _dumps(_poly_json(p, at_q))
    return _text(p, fmt, at_q)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2)


def _json_items(items: list[str], pad: str) -> str:
    # the json.dumps(..., indent=2) layout of a list whose items, written at
    # indent pad, are given
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[2:]}]" if items else "[]"


def _verify_json(passed: bool, reports) -> str:
    """json.dumps(payload, indent=2) of the verify payload, written straight:
    {"passed": ..., "reports": [{"instance": label, "checks": [{"identity":
    ..., "status": ..., "reason": ...}, ...]}, ...]}."""
    items = []
    for label, report in reports:
        checks = [f'{{\n          "identity": {_encode_str(c.identity)},'
                  f'\n          "status": {_encode_str(c.status)},'
                  f'\n          "reason": {_encode_str(c.reason)}\n        }}'
                  for c in report.checks]
        items.append(f'{{\n      "instance": {_encode_str(label)},'
                     f'\n      "checks": {_json_items(checks, " " * 8)}\n    }}')
    return (f'{{\n  "passed": {"true" if passed else "false"},'
            f'\n  "reports": {_json_items(items, " " * 4)}\n}}')


def _dims_json(table: algebra.GradedDimTable, names) -> str:
    """json.dumps(payload, indent=2) of the dims table, written straight:
    {"dims": [{"source": name, "target": name, "degree": d, "dim": value},
    ...], "max_degree": ...}, sorted by (source, target, degree) indices."""
    names = [_encode_str(v) for v in names]
    entries = []
    for (i, j), cs in sorted(table.cells.items()):
        head = f'{{\n      "source": {names[i]},\n      "target": {names[j]},\n      "degree": '
        entries += [f'{head}{d},\n      "dim": {value}\n    }}'
                    for d, value in enumerate(cs) if value]
    return (f'{{\n  "dims": {_json_items(entries, " " * 4)},'
            f'\n  "max_degree": {table.max_degree}\n}}')


def _parse_vector(text: str, n: int) -> list:
    # an integral entry becomes an int, which costs far less than a Fraction
    parts = text.split(",")
    empty = next((k for k, p in enumerate(parts, 1) if not p.strip()), None)
    if empty is not None:
        raise ValueError(f"vector {text!r} has an empty entry at position {empty}")
    if len(parts) != n:
        raise ValueError(f"vector needs {n} comma-separated entries, got {len(parts)}")
    values = [parse_rational(p) for p in parts]
    return [v.numerator if v.denominator == 1 else v for v in values]


def _vertex_index(bq: BoundQuiver, name: str | None) -> int | None:
    return None if name is None else bq.quiver.vertex_index(name)


# --- commands ---------------------------------------------------------------

def _cmd_cartan(args, bq: BoundQuiver) -> int:
    matrix = algebra.cartan_matrix(bq, args.degree_cap, args.max_dim)
    print(render_matrix(matrix, args.format, args.at_q))
    return 0


def _cmd_coxeter(args, bq: BoundQuiver) -> int:
    matrix = coxeter.coxeter_matrix_bound(bq, method=args.method,
                                          degree_cap=args.degree_cap,
                                          max_dim=args.max_dim)
    print(render_matrix(matrix, args.format, args.at_q))
    return 0


def _cmd_dims(args, bq: BoundQuiver) -> int:
    kind = next((k for k in algebra.KINDS if getattr(args, k)), None)
    if kind is None and args.vertex is not None:
        raise ValueError("--vertex needs --simple, --projective or --injective")
    vertex = _vertex_index(bq, args.vertex)
    if kind is None:
        table = algebra.graded_dims(bq, args.degree_cap, args.max_dim)
        if args.format == "json":
            print(_dims_json(table, bq.quiver.vertices))
        else:
            names = bq.quiver.vertices
            for (i, j, d), value in sorted(table.dims.items()):
                print(f"{names[i]} -> {names[j]}  degree {d}: {value}")
            print(f"max_degree: {table.max_degree}")
        return 0
    cartan = None
    if kind != "simple":    # a simple module's vector is a standard basis vector
        cartan = algebra.cartan_matrix(bq, args.degree_cap, args.max_dim)
    vertices = range(bq.quiver.n) if vertex is None else [vertex]
    rows = []
    for v in vertices:
        vec = algebra.dim_vector(bq, kind, v, cartan=cartan)
        rows.append((bq.quiver.vertices[v], vec))
    if args.format == "json":
        payload = [{"vertex": name, "entries": [_poly_json(e, args.at_q) for e in vec]}
                   for name, vec in rows]
        print(_dumps({"kind": kind, "vectors": payload}))
    else:
        tag = kind[0].upper()
        for name, vec in rows:
            print(render_vector(vec, args.format, args.at_q, label=f"{tag}({name}): "))
    return 0


def _cmd_forms(args, bq: BoundQuiver) -> int:
    x = _parse_vector(args.x, bq.quiver.n)
    y = _parse_vector(args.y, bq.quiver.n)
    # C^-1 alone; without relations it needs no C
    inverse = algebra.cell_matrix(bq.quiver.n, algebra.inverse_cells(
        bq, None, args.degree_cap, args.max_dim))
    if args.symmetric:
        value = coxeter.symmetric_euler_form(None, x, y, inverse)
        name = "symmetric"
    else:
        value = coxeter.euler_form(None, x, y, inverse)
        name = "euler"
    if args.format == "json":
        at = {} if args.at_q is None else {"at_q": format_rational(args.at_q)}
        print(_dumps({"form": name, **at, "value": _poly_json(value, args.at_q)}))
    else:
        print(render_poly(value, args.format, args.at_q))
    return 0


def _cmd_reflect(args, bq: BoundQuiver) -> int:
    if bq.relations:
        raise ValidationError("HasRelations",
                              "arrow reversal is defined only for relation-free quivers")
    vertex = bq.quiver.vertex_index(args.vertex)
    flipped = BoundQuiver(coxeter.sigma_reflect(bq.quiver, vertex), (), name=bq.name)
    if args.format == "json":
        print(_dumps(emit_json_obj(flipped)))
    else:
        print(emit_text(flipped), end="")
    return 0


def _cmd_numbering(args, bq: BoundQuiver) -> int:
    order = coxeter.admissible_numbering(bq.quiver)
    names = [bq.quiver.vertices[v] for v in order]
    if args.format == "json":
        print(_dumps({"numbering": names}))
    else:
        print(", ".join(names))
    return 0


def _cmd_verify(args, bq: BoundQuiver) -> int:
    limits = {"degree_cap": args.degree_cap, "max_dim": args.max_dim}
    reports = [("input", coxeter.verify_identities(bq, **limits))]
    rng = random.Random(args.seed)
    for k in range(args.random):
        extra = random_bound_quiver(rng)
        reports.append((f"random[{k}]", coxeter.verify_identities(extra, **limits)))
    all_passed = all(report.passed for _, report in reports)
    if args.format == "json":
        print(_verify_json(all_passed, reports))
    else:
        for label, report in reports:
            for check in report.checks:
                if check.status == "pass":
                    print(f"PASS {label}: {check.identity}")
                elif check.status == "fail":
                    print(f"FAIL {label}: {check.identity}")
                else:
                    print(f"SKIP {label}: {check.identity} ({check.reason})")
        n_fail = sum(len(r.failures()) for _, r in reports)
        print(f"verified {len(reports)} instance(s), {n_fail} failing check(s)")
    return 0 if all_passed else 1


_COMMANDS = {
    "cartan": _cmd_cartan,
    "coxeter": _cmd_coxeter,
    "dims": _cmd_dims,
    "forms": _cmd_forms,
    "reflect": _cmd_reflect,
    "numbering": _cmd_numbering,
    "verify": _cmd_verify,
}


def _degree_cap(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("degree cap must be at least 2")
    return value


def _max_dim(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("max dim must be positive")
    return value


def _random_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("random count must not be negative")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="quiver file (.qv text or .json)")
    common.add_argument("--format", choices=("plain", "json", "latex"),
                        default="plain", help="output format (default: plain)")
    common.add_argument("--degree-cap", type=_degree_cap, default=algebra.DEFAULT_DEGREE_CAP,
                        dest="degree_cap",
                        help="abort if graded dimensions persist past this degree")
    common.add_argument("--max-dim", type=_max_dim, default=algebra.DEFAULT_MAX_DIM,
                        dest="max_dim",
                        help="abort if one degree of the quotient algebra has a basis "
                             f"larger than this (default: {algebra.DEFAULT_MAX_DIM})")
    common.add_argument("--at-q", type=parse_rational, default=None, dest="at_q",
                        metavar="RATIONAL", help="evaluate output at q = RATIONAL")

    parser = argparse.ArgumentParser(
        prog="qcox",
        description="q-weighted Cartan and Coxeter matrices of bound quivers, "
                    "exactly, plus machine verification of their identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("cartan", parents=[common],
                   help="q-weighted Cartan matrix")
    coxeter_p = sub.add_parser("coxeter", parents=[common],
                               help="q-weighted Coxeter matrix")
    coxeter_p.add_argument("--method", choices=("reflections", "cartan"),
                           default="cartan",
                           help="reflection product (acyclic only) or -C^T C^-1")

    dims_p = sub.add_parser("dims", parents=[common],
                            help="graded dimension table or module dimension vectors")
    group = dims_p.add_mutually_exclusive_group()
    for kind in algebra.KINDS:
        group.add_argument(f"--{kind}", action="store_true",
                           help=f"dimension vector(s) of the {kind} module(s)")
    dims_p.add_argument("--vertex", default=None,
                        help="restrict the dimension vectors to one vertex (by name)")

    forms_p = sub.add_parser("forms", parents=[common],
                             help="evaluate the Euler or symmetrized bilinear form")
    form_group = forms_p.add_mutually_exclusive_group()
    form_group.add_argument("--euler", action="store_true",
                            help="Euler form x^T C^-1 y (default)")
    form_group.add_argument("--symmetric", action="store_true",
                            help="symmetrized form x^T (C^-1 + C^-T) y / 2")
    forms_p.add_argument("--x", required=True, help="left vector, comma-separated rationals")
    forms_p.add_argument("--y", required=True, help="right vector, comma-separated rationals")

    reflect_p = sub.add_parser("reflect", parents=[common],
                               help="reverse all arrows at a vertex")
    reflect_p.add_argument("--vertex", required=True, help="vertex name")

    sub.add_parser("numbering", parents=[common],
                   help="admissible sink-first vertex numbering")

    verify_p = sub.add_parser("verify", parents=[common],
                              help="check every applicable identity, exit 1 on failure")
    verify_p.add_argument("--seed", type=int, default=0,
                          help="seed for the --random instances")
    verify_p.add_argument("--random", type=_random_count, default=0, metavar="K",
                          help="also verify K seeded random bound quivers")

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        # built on the first call rather than at import, so that importing
        # qcox.cli stays cheap; every later call reuses it
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        bq = load_file(args.input)
        return _COMMANDS[args.command](args, bq)
    except QcoxError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: IO: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: ValueError: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:    # a bug in qcox; exit 1 must mean a failed check
        print(f"error: InternalError: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
