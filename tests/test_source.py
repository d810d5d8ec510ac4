"""Source-level gates: no runtime invariant may rest on assert, A has one
float route, and the cold path imports neither numpy nor the heavy layers."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import rbdesign


def test_no_runtime_asserts_in_source():
    # python -O strips asserts, so a runtime invariant must raise InternalError
    found = set()
    for path in sorted(Path(rbdesign.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.add((path.name, ast.unparse(node.test)))
    assert found == set()


#: numpy's eigendecompositions; the one expected site is the float route for A
EIGEN = {"eig", "eigh", "eigvals", "eigvalsh", "svd"}
FLOAT_ROUTES = [("efficiency.py", "_float_factors", "np.linalg.eigvalsh")]


def _eigen_calls(node, scope=""):
    """(enclosing definition, callee) of every eigendecomposition call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            callee = ast.unparse(child.func)
            if callee.rpartition(".")[2] in EIGEN:
                yield scope, callee
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield from _eigen_calls(child, inner)


def test_one_float_route():
    found = []
    for path in sorted(Path(rbdesign.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, *call) for call in _eigen_calls(tree)]
    assert sorted(found) == FLOAT_ROUTES


#: the only functions that call themselves: canonical labeling's search tree
#: and the one exact-cover search every backtracker is a call to
RECURSIVE = [("canon.py", "canonical_labeling.dfs"), ("core.py", "_exact_covers")]


def _self_calling(node, scope=""):
    """The qualified name of every function whose body calls it by name (or
    as self.name in a method)."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
            if not isinstance(child, ast.ClassDef) and any(
                    isinstance(call, ast.Call)
                    and ast.unparse(call.func) in (child.name, f"self.{child.name}")
                    for call in ast.walk(child)):
                yield inner
        yield from _self_calling(child, inner)


def test_one_backtracking_search():
    found = []
    for path in sorted(Path(rbdesign.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, name) for name in _self_calling(tree)]
    assert sorted(found) == RECURSIVE


#: the modules a numpy-free verb imports, and what none of them may import at
#: module level: numpy and the layers built on it
COLD_MODULES = ("__init__.py", "cli.py", "core.py", "families.py", "refdata.py", "sylvester.py")
HEAVY = {"numpy", "efficiency", "search", "isomorphism", "canon"}


def _module_level_imports(tree):
    """Every module a statement outside any function body imports: the first
    dotted component of absolute imports, the module of relative ones, and
    the names a bare ``from . import`` takes.  A ``TYPE_CHECKING`` block
    never runs, so it is skipped."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _module_level_imports(ast.Module(node.orelse, []))
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.ClassDef)):
            yield from _module_level_imports(node)
        elif isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.partition(".")[0]
            if node.level and not node.module:
                yield from (alias.name for alias in node.names)


def test_cold_modules_import_no_heavy_layer_at_module_level():
    found = {}
    for name in COLD_MODULES:
        path = Path(rbdesign.__file__).parent / name
        found[name] = set(_module_level_imports(ast.parse(path.read_text()))) & HEAVY
    assert found == dict.fromkeys(COLD_MODULES, set())


def test_module_level_import_scan_sees_every_form():
    tree = ast.parse("import numpy as np\nfrom numpy.linalg import inv\nfrom .search import x\n"
                     "from . import canon\ntry:\n    import isomorphism\nexcept ImportError:\n"
                     "    pass\nif TYPE_CHECKING:\n    import efficiency\n"
                     "def f():\n    import efficiency\n")
    assert list(_module_level_imports(tree)) == ["numpy", "numpy", "search", "canon", "isomorphism"]


def test_public_names_resolve_lazily_to_their_definitions(monkeypatch):
    for name in [*rbdesign.__all__, "search"]:
        # unresolved again, as after a fresh import
        monkeypatch.delattr(rbdesign, name, raising=False)
    assert set(rbdesign.__all__) <= set(dir(rbdesign))
    for name in rbdesign.__all__:
        module = importlib.import_module(f"rbdesign.{rbdesign._EXPORTS[name]}")
        value = getattr(rbdesign, name)
        assert value is getattr(module, name) and value.__module__ == module.__name__, name
    assert rbdesign.search is sys.modules["rbdesign.search"]  # a layer is an attribute
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(rbdesign, "no_such_name")
