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


def _names_used(node: ast.AST) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def test_every_top_level_definition_is_used_or_exported():
    # a function or class nothing names outside its own body is dead code
    modules = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    top = [node for module in modules for node in module.body]
    uses = [_names_used(node) for node in top]
    unused = [
        node.name
        for i, node in enumerate(top)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in lieshear.__all__
        and not any(node.name in used for j, used in enumerate(uses) if j != i)
    ]
    assert SOURCES and not unused, unused
