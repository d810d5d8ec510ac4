"""Source-level gates: no runtime invariant may rest on assert."""

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
