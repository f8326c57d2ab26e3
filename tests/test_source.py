"""Source-level contracts of the package."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lieshear
from cli_cases import DOCUMENTS

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


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function's or class's, or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def test_every_top_level_definition_is_used_or_exported():
    # a function, class or module constant nothing names outside its own
    # statement is dead code; dunders (__all__) are exempt
    modules = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    top = [node for module in modules for node in module.body]
    uses = [_names_used(node) for node in top]
    unused = [
        name
        for i, node in enumerate(top)
        for name in _defined_names(node)
        if name not in lieshear.__all__ and not (name.startswith("__") and name.endswith("__"))
        and not any(name in used for j, used in enumerate(uses) if j != i)
    ]
    assert SOURCES and not unused, unused


def test_only_value_defines_immutability_and_equality():
    # one rule for every immutable value: a class with its own __setattr__,
    # __delattr__ or __eq__ would restate `_value.Value`'s, and drift from it
    found = [
        f"{path.name}: {node.name}.{item.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and node.name != "Value"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in {"__setattr__", "__delattr__", "__eq__"}
        or isinstance(item, ast.Assign) and {"__setattr__", "__delattr__", "__eq__"} & set(_defined_names(item))
    ]
    assert SOURCES and not found, found


def test_every_module_level_import_is_used():
    # a leftover import (an operator.mul whose last caller went) is dead code;
    # __future__ imports are exempt, and __init__.py re-exports nothing by
    # import, as its names load on first use
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
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert SOURCES and not unused, unused


def test_imports_only_the_standard_library():
    # README: no runtime dependencies beyond the standard library
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # level > 0: the package itself
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"lieshear"}]
    assert SOURCES and not found, found


def test_only_the_process_entry_imports_gc():
    # the collector is a setting of the whole process: the library leaves it
    # alone for callers that run cli.main or the API in process
    found = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and "gc" in {alias.name for alias in node.names}
        or isinstance(node, ast.ImportFrom) and not node.level and node.module == "gc"
    ]
    assert found == ["__main__.py"], found


def test_only_the_process_entry_runs_as_a_script():
    # `lieshear` and `python -m lieshear` both run lieshear.__main__.run; a
    # `__name__ == "__main__"` guard in another module would be a third
    # launch path, one that skips the entry's start-up freeze
    found = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name) and node.left.id == "__name__"
    ]
    assert found == ["__main__.py"], found


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


def _fresh_python(script: str) -> str:
    """What `script` prints in a new interpreter that imports this lieshear."""
    src = str(Path(lieshear.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    flags = ["-O"] if sys.flags.optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # start-up budget: the value classes generate no code, so importing the
    # CLI pulls in neither dataclasses nor inspect (with its ast, dis and
    # tokenize), which no command needs
    script = "import sys, lieshear.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    assert _fresh_python(script) == "[]\n"


def test_package_import_loads_a_submodule_only_on_first_use():
    # a caller pays only for the layers it touches: `import lieshear` loads
    # no submodule, a public name loads its home and what that imports, and
    # a bare `import lieshear` still reaches every submodule by attribute
    script = (
        "import sys, lieshear\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('lieshear.'))\n"
        "print(loaded())\n"
        "lieshear.LieAlgebra\n"
        "print(loaded())\n"
        "print(all(getattr(lieshear, m) is sys.modules['lieshear.' + m] for m in lieshear._SUBMODULES))\n"
    )
    assert _fresh_python(script).splitlines() == [
        "[]",
        "['lieshear._value', 'lieshear.exterior', 'lieshear.lie', 'lieshear.linalg']",
        "True",
    ]


# each command line, its exit code and the layers whose code it runs in a fresh process
LAYER_RUNS = [
    ("algebra-check {h3}", 0, []),
    ("shear-lines {s5}", 0, []),
    ("shear {s5} --x E4 --alpha e4 --f0 e13", 0, ["shear"]),
    ("twist {h3} --alpha e3 --f -e12", 0, ["shear"]),
    ("form-ds {s5} --x E4 --alpha e4 --f0 e13 --form e15", 0, ["shear"]),
    ("check-structure {ab6} --type symplectic --omega e12+e34+e56", 0, ["geometry"]),
    ("search {s5} --x E4 --alpha e4", 0, ["search", "shear"]),
    # refused before the handler runs: a usage error, and a document that does not parse
    ("search {s5}", 1, []),
    ("search {broken} --x E4 --alpha e4", 1, []),
]


def test_each_command_runs_only_the_layers_it_uses(tmp_path):
    # cli binds geometry, search and shear lazily: each is in sys.modules from
    # `import lieshear.cli` on, where bench/tracing.py looks it up, and its code
    # runs on the first read of one of its attributes.  Until then it keeps
    # LazyLoader's module subclass, so a module of the plain type has run
    docs = {}
    for name in ("h3", "s5", "ab6", "broken"):
        docs[name] = str(tmp_path / f"{name}.alg")
        Path(docs[name]).write_text(DOCUMENTS[name])
    found = []
    for line, _, _ in LAYER_RUNS:
        script = (
            "import contextlib, io, sys, types, lieshear.cli\n"
            "layers = ['geometry', 'search', 'shear']\n"
            "def ran(): return [m for m in layers if type(sys.modules.get('lieshear.' + m)) is types.ModuleType]\n"
            "print(all('lieshear.' + m in sys.modules for m in layers), ran())\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = lieshear.cli.main({line.format(**docs).split()!r})\n"
            "print(code, ran())\n"
        )
        found.append((line, *_fresh_python(script).splitlines()))
    assert found == [(line, "True []", f"{code} {layers}") for line, code, layers in LAYER_RUNS]


PUBLIC_NAMES = [
    "KForm", "Vector", "wedge", "interior", "hodge_star_orthonormal", "pullback",
    "LieAlgebra", "parse_salamon", "print_salamon", "SalamonError", "JacobiReport", "SeriesReport",
    "Filtration", "EigenSpace", "ShearLineError", "ShearLineReport",
    "ShearData", "ShearBase", "ShearDataError", "ShearReport", "InvalidShearError", "TwistError",
    "decompose_dalpha", "validate_shear", "apply_shear", "shear_candidate", "apply_twist", "ds_form",
    "is_automorphic", "invert_shear",
    "Metric", "ComplexStructure", "NijenhuisResult", "KahlerReport", "HalfFlatReport", "PhiStabilityReport",
    "is_closed", "symplectic_check", "nijenhuis", "type_components", "kahler_check", "half_flat_check",
    "g2_cocal_check", "phi_stability", "preserves_closure",
    "SearchSpec", "SearchHit", "SearchSpaceError", "SearchSpecError", "enumerate_f0",
]


def test_public_names_and_dir():
    assert lieshear.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) | {"__version__"} <= set(dir(lieshear))
    # every .py module of the package but its dunder files is reachable by attribute
    assert sorted(lieshear._SUBMODULES) == [p.stem for p in SOURCES if not p.stem.startswith("__")]


def test_each_public_name_is_the_object_its_home_module_defines():
    # the table names the module that defines each name, not one that merely
    # imports it, so a name loads no more than its own layer needs
    wrong = []
    for name in lieshear.__all__:
        value = getattr(lieshear, name)
        home = sys.modules[f"lieshear.{lieshear._HOMES[name]}"]
        if getattr(home, name) is not value or value.__module__ != home.__name__:
            wrong.append(name)
    assert not wrong, wrong


def test_star_import_binds_exactly_all_and_unknown_names_are_missing():
    namespace: dict = {}
    exec("from lieshear import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(lieshear.__all__)
    assert not hasattr(lieshear, "no_such_name") and not hasattr(lieshear, "__main__")
    with pytest.raises(AttributeError, match="^module 'lieshear' has no attribute 'no_such_name'$"):
        lieshear.no_such_name
