"""Source-level gates: no runtime invariant may rest on assert, and A has
one float route."""

import ast
from pathlib import Path

import rbdesign

#: asserts that only narrow a type for the checker, never fire at run time
TYPE_NARROWING = {("cli.py", "a is not None"), ("core.py", "k is not None")}


def test_no_runtime_asserts_in_source():
    # python -O strips asserts, so a runtime invariant must raise InternalError
    found = set()
    for path in sorted(Path(rbdesign.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.add((path.name, ast.unparse(node.test)))
    assert found - TYPE_NARROWING == set()


#: numpy's eigendecompositions; the two expected sites are the float route for
#: A and the annealer's one factorization of P = C^+ per state
EIGEN = {"eig", "eigh", "eigvals", "eigvalsh", "svd"}
FLOAT_ROUTES = [("efficiency.py", "_float_factors", "np.linalg.eigvalsh"),
                ("search.py", "SearchState.__init__", "np.linalg.eigh")]


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
