"""The checked-in mutant table stays applicable: tests/mutants.py runs it."""
import re

import pytest

from cli_cases import CASES
from mutants import MUTANTS, ROOT, SOURCE

ROW_NAMES = {case.name for case in CASES}


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_snippet_occurs_once_and_each_killer_exists(mutant):
    text = (SOURCE / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.killers
    for node in mutant.killers:
        assert " " not in node  # the runner reads the failed ids off pytest's summary lines
        path, *names = node.split("::")
        if path == "tests/test_cli.py" and "::".join(names) in ROW_NAMES:
            continue  # a row of tests/cli_cases.py, which test_cli.py collects under its name
        source = (ROOT / path).read_text(encoding="utf-8")
        *classes, function = names
        for name in classes:
            assert re.search(rf"^class {name}\b", source, flags=re.MULTILINE), node
        assert re.search(rf"^\s*def {function.split('[')[0]}\(", source, flags=re.MULTILINE), node


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
