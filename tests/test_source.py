"""Source-level contracts of the package."""
import ast
from pathlib import Path

import lieshear

SOURCES = sorted(Path(lieshear.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # runtime invariants must hold under `python -O`, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
