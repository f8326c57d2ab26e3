"""Checked-in mutants: small faults in src/lieshear that named tests must catch.

Each entry of MUTANTS is one fault: a source file under src/lieshear, an
exact snippet of it, the snippet's replacement, and the ids of the tests
that must fail once the replacement is made.  tests/test_mutants.py checks,
in the tier-1 suite, that each snippet occurs exactly once in its file, so
a refactor that moves the code updates the table in the same change.

Run as a script, it applies each mutant in turn to a copy of src/ in a
temporary directory and runs the mutant's tests against that copy in a
child pytest, with the `mutants` hypothesis profile of tests/conftest.py
(no shrink phase), a time limit and an address-space limit set on the
child alone; a child still running at the time limit is stopped and
counts as killed.  It exits 1 unless every listed test of every mutant
fails:

    python tests/mutants.py [name ...]
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "lieshear"
TIME_LIMIT_S = 300
ADDRESS_SPACE_LIMIT = 2 << 30  # bytes; a chain that never ends grew past 2.9 GB


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/lieshear
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant(
        "nijenhuis-power-of-s", "geometry.py",
        "Fraction(y + s2 * z - x, den)",
        "Fraction(s * y + s2 * z - x, den)",
        ("tests/test_geometry.py::TestNijenhuisDenseReference"
         "::test_matches_the_dense_reference_on_conjugated_structures",),
    ),
    Mutant(
        "rank-at-full", "linalg.py",
        "    return len(found)\n",
        "    return len(cols)\n",
        ("tests/test_linalg.py::TestRankAt::test_is_the_rank_of_the_entries_at_the_columns",
         "tests/test_linalg.py::TestRankAt::test_examples",
         "tests/test_lie.py::TestSeries::test_chains_match_the_dense_reference"),
    ),
    Mutant(
        "derived-sign-of-e1", "lie.py",
        "pairs.setdefault(i * n + j, [0] * n)[k] = -c",
        "pairs.setdefault(i * n + j, [0] * n)[k] = -c if k else c",
        ("tests/test_lie.py::TestSeries::test_chains_match_the_dense_reference",
         "tests/test_lie.py::TestFrameChange::test_the_series_moves_with_the_frame",
         "tests/test_shear.py::TestFrameChange::test_the_twist_moves_with_the_frame"),
    ),
    Mutant(
        "invariance-without-lcm", "lie.py",
        "coords = [[im[p] * (big // b[p]) for b, p in zip(basis, pivots)] for im in images]\n"
        "                if linalg.mat_mul(coords, basis) != [[big * x for x in im] for im in images]:",
        "coords = [[im[p] for b, p in zip(basis, pivots)] for im in images]\n"
        "                if linalg.mat_mul(coords, basis) != images:",
        ("tests/test_lie.py::TestFrameChange::test_the_shear_line_eigenspaces_move_with_the_frame",
         "tests/test_lie.py::TestShearLines::test_fractional_eigenvalues_in_a_tilted_frame"),
    ),
    Mutant(
        "eigenspace-on-its-own-block", "linalg.py",
        "rows = [i for i in range(m) if reach[i] & blocks[mu]]",
        "rows = [i for i in range(m) if blocks[mu] >> i & 1]",
        ("tests/test_linalg.py::TestRationalEigenvalues::test_each_kernel_sees_only_the_rows_reaching_its_root",
         "tests/test_linalg.py::TestRationalEigenvalues::test_each_eigenspace_is_the_nullspace_of_the_whole_shift"),
    ),
    Mutant(
        "eigenspace-unpadded", "linalg.py",
        "padded.append(tuple(full))",
        "padded.append(tuple(v))",
        ("tests/test_linalg.py::TestRationalEigenvalues::test_each_kernel_sees_only_the_rows_reaching_its_root",
         "tests/test_linalg.py::TestRationalEigenvalues::test_each_eigenspace_is_the_nullspace_of_the_whole_shift",
         "tests/test_lie.py::TestShearLines::test_solvable_example"),
    ),
    Mutant(
        "memo-compares-x-only", "shear.py",
        "(base.X, base.alpha) == (X, alpha)",
        "base.X == X",
        ("tests/test_shear.py::TestDecompose::test_a_kept_decomposition_equals_a_fresh_one",),
    ),
    Mutant(
        "memo-compares-alpha-only", "shear.py",
        "(base.X, base.alpha) == (X, alpha)",
        "base.alpha == alpha",
        ("tests/test_shear.py::TestDecompose::test_interleaved_calls_match_the_reference_on_a_fresh_algebra",
         "tests/test_shear.py::TestDecompose::test_a_kept_decomposition_equals_a_fresh_one",
         "tests/test_shear.py::TestFrameChange::test_the_twist_moves_with_the_frame"),
    ),
    Mutant(
        "memo-returns-a-new-base", "shear.py",
        "        return base\n    if X.dim != g.dim:",
        "        return ShearBase(g=g, X=X, alpha=alpha, eta=base.eta, f=base.f)\n    if X.dim != g.dim:",
        ("tests/test_shear.py::TestDecompose::test_only_a_new_pair_is_checked_and_split",
         "tests/test_shear.py::TestDecompose::test_one_plan_and_one_d_eta_per_pair",
         "tests/test_search.py::TestEnumerate::test_decomposes_dalpha_once_per_search"),
    ),
    Mutant(
        "sheared-algebra-keeps-the-base", "lie.py",
        "        g._fill(tuple(diffs), check)\n        return g\n",
        "        g._fill(tuple(diffs), check)\n        object.__setattr__(g, \"_decomp\", base._decomp)\n"
        "        return g\n",
        ("tests/test_shear.py::TestDecompose::test_a_sheared_algebra_is_decomposed_afresh",
         "tests/test_shear.py::TestInvert::test_roundtrip_over_corpus"),
    ),
    Mutant(
        "failing-pair-kept", "shear.py",
        "    if bad is not None:\n        raise ShearDataError",
        "    if bad is not None:\n"
        "        object.__setattr__(g, \"_decomp\", ShearBase(g=g, X=X, alpha=alpha, eta=alpha, f=alpha))\n"
        "        raise ShearDataError",
        ("tests/test_shear.py::TestDecompose::test_only_a_new_pair_is_checked_and_split",
         "tests/test_shear.py::TestDecompose::test_interleaved_calls_match_the_reference_on_a_fresh_algebra",
         "tests/test_shear.py::TestDecompose::test_a_kept_decomposition_equals_a_fresh_one"),
    ),
    Mutant(
        "plan-per-call", "shear.py",
        "return _shear_by(base.g, base.plan, report.f_eff, guard=True)",
        "return _shear_by(base.g, _shear_plan(base.g, base.X), report.f_eff, guard=True)",
        ("tests/test_shear.py::TestDecompose::test_one_plan_and_one_d_eta_per_pair",),
    ),
    Mutant(
        "basis-index-unchecked", "exterior.py",
        "        if not 1 <= k <= dim:",
        "        if not 1 <= k:",
        ("tests/test_exterior.py::test_malformed_arguments_are_refused[vector-basis-above]",),
    ),
    Mutant(
        "decompose-any-dimension", "shear.py",
        "    if X.dim != g.dim:",
        "    if False:",
        ("tests/test_shear.py::test_malformed_arguments_are_refused[decompose-dimension]",),
    ),
    Mutant(
        "shear-without-x-k", "shear.py",
        "            v = x * c\n",
        "            v = c\n",
        ("tests/test_shear.py::TestFrameChange::test_validity_and_the_sheared_algebra_move_with_the_frame",
         "tests/test_shear.py::TestFrameChange::test_inversion_transfer_and_automorphy_move_with_the_frame",
         "tests/test_shear.py::TestFrameChange::test_the_twist_moves_with_the_frame"),
    ),
]


def apply(mutant: Mutant, source: Path) -> None:
    """Make the mutant's one replacement in the copy of src/lieshear at `source`."""
    path = source / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet occurs {text.count(mutant.snippet)} times in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def _limit_child() -> None:
    import resource  # POSIX only, so test_mutants.py can import this module anywhere

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run(mutant: Mutant) -> tuple[bool, str]:
    """(every killer failed, a one-line account) for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SOURCE.parent, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply(mutant, src / "lieshear")
        argv = [sys.executable, *(["-O"] if sys.flags.optimize else []), "-m", "pytest", "-q", "-rfE",
                "-p", "no:cacheprovider", "--hypothesis-profile=mutants", *mutant.killers]
        started = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
                                  capture_output=True, text=True, timeout=TIME_LIMIT_S, preexec_fn=_limit_child)
        except subprocess.TimeoutExpired:
            return True, f"killed: timed out after {TIME_LIMIT_S} s"
        took = time.monotonic() - started
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, flags=re.MULTILINE))
    alive = [node for node in mutant.killers if node not in failed]
    if proc.returncode != 1 or alive:
        tail = proc.stdout.strip().splitlines()[-1:] or proc.stderr.strip().splitlines()[-1:]
        return False, f"ALIVE after {took:.1f} s (exit {proc.returncode}): {', '.join(alive)} {tail}"
    return True, f"killed in {took:.1f} s by {len(failed)} failing tests"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    ok = True
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        killed, account = run(mutant)
        ok = ok and killed
        print(f"{mutant.name}: {account}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
