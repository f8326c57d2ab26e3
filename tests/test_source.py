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


def test_every_module_level_import_is_used():
    # a leftover import (an operator.mul whose last caller went) is dead code;
    # __future__ imports and the package's re-exports in __init__.py are exempt
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    exported = path.name == "__init__.py" and name in lieshear.__all__
                    if name not in used and not exported:
                        unused.append(f"{path.name}: {name}")
    assert SOURCES and not unused, unused


def test_environment_is_read_only_for_no_color():
    # README: no environment variable other than NO_COLOR is read
    names = {"environ", "getenv", "environb", "getenvb"}
    found = set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(node, "name", None)
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and sub.attr in names
                        or isinstance(sub, ast.Name) and sub.id in names
                        or isinstance(sub, ast.alias) and sub.name in names):
                    found.add((path.name, owner))
    assert found == {("cli.py", "_color_enabled")}, found


def test_no_floats_or_tolerances():
    # arithmetic is exact: no float literal, no float(), no square root or
    # tolerance compare; a float made at run time by `/` on two ints is caught
    # by the entry-type checks of the linalg tests instead
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex)
        ]
        found += [f"{path.name}: {name}" for name in sorted(_names_used(tree) & {"float", "sqrt", "isclose"})]
    assert SOURCES and not found, found
