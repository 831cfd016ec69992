"""Rules on the library's source text."""

import ast
from pathlib import Path

import qcox

SOURCES = sorted(Path(qcox.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so none may guard correctness
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []
