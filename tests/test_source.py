"""Rules on the library's source text."""

import ast
import sys
from pathlib import Path

import qcox

SOURCES = sorted(Path(qcox.__file__).parent.glob("*.py"))


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so none may guard correctness
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in _nodes(path)
             if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []


def test_library_imports_only_the_standard_library():
    # qcox has no runtime dependency: every import names a standard library
    # module or qcox itself (a relative import)
    found = []
    for path in SOURCES:
        for node in _nodes(path):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"qcox"}]
    assert SOURCES
    assert found == []


def test_only_the_generator_and_the_cli_import_random():
    # a verifier report is a pure function of its input: only the random
    # quiver generator and the CLI's --random instances draw random numbers
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name not in ("randquiver.py", "cli.py")
             for node in _nodes(path)
             if (isinstance(node, ast.Import) and any(a.name == "random" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "random")]
    assert SOURCES
    assert found == []


def test_public_surface_is_pinned():
    # a name enters or leaves the top-level API only by editing this list
    assert sorted(qcox.__all__) == [
        "Arrow", "BoundQuiver", "CheckReport", "CheckResult", "DegreeCapExceeded",
        "DimensionBudgetExceeded", "GradedDimTable", "LoopAtVertex", "NotAcyclic",
        "NotUnimodular", "Path", "PolyMatrix", "Polynomial", "QcoxError", "Quiver",
        "QuiverSyntaxError", "Rational", "Relation", "ValidationError",
        "ValidationReport", "admissible_numbering", "algebra", "bilinear_form_graph",
        "cartan_matrix", "coxeter", "coxeter_matrix_bound", "coxeter_matrix_graph",
        "dim_vector", "emit_json", "emit_text", "errors", "euler_form", "format_rational",
        "gamma_reflection", "graded_dims", "gram_matrix", "graph_reflection", "load_file",
        "parse_json", "parse_quiver", "parse_rational", "poly_vector", "polyring",
        "quadratic_form_graph", "quiverdsl", "sigma_reflect", "symmetric_euler_form",
        "symmetric_form_matrix", "validate", "verify_identities"]


def test_regexes_are_compiled_at_module_level():
    # a pattern given to ``re`` inside a function is compiled, or looked up
    # in ``re``'s cache, on every call; each regex is a module constant
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "re"}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            found |= {f"{path.name}:{node.lineno}" for node in ast.walk(func)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"}
    assert SOURCES
    assert sorted(found) == []


def test_library_has_no_unused_imports():
    # every name a module imports is used there; __init__.py imports to
    # re-export, and perfbench/spans.py wraps algebra.rank_rational by name
    allowed = {("algebra.py", "rank_rational")}
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno)
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used and (path.name, name) not in allowed]
    assert SOURCES
    assert found == []
