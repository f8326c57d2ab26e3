"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

# Op prefixes small enough to run in seconds; each holds a reference op.
TINY = {"search": 4, "analysis": 10, "cli": 6}


def tiny_run(workload: str, seed: int = run.DEFAULT_SEED, tracer: Tracer | None = None,
             in_process: bool = False):
    ops, _ = run.set_up(workload, seed, in_process)
    if tracer is not None:
        tracer.install()
    try:
        rec = run.run_pass(ops[:TINY[workload]], run.Checker(workload, seed), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops, run.Tally([rec]), rec


def shape_faults(ops, count: int) -> int:
    return sum(op.name == "malformed.shape" for op in ops[:count])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_matches_recorded_digests(workload):
    assert run.Checker(workload, run.DEFAULT_SEED).expected is not None, \
        "no recorded digests for the default seed"
    ops, tally, rec = tiny_run(workload)
    assert any(op.name.startswith("ref.") for op in ops[:TINY[workload]])
    assert tally.correct, tally.messages
    # the only failures at the default seed are the known wrong-shape tracebacks
    assert tally.failed == shape_faults(ops, TINY[workload])
    assert len(rec["times"]) == len(rec["scaled"]) == TINY[workload]
    assert all(t > 0 for t in rec["scaled"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("seed", [7, 1234])
def test_other_seeds_pass_invariants(workload, seed):
    assert run.Checker(workload, seed).expected is None
    ops, tally, _ = tiny_run(workload, seed)
    assert tally.correct, tally.messages
    assert tally.failed == shape_faults(ops, TINY[workload])


def test_corrupted_digest_raises_error_rate():
    ops, _ = run.set_up("search", run.DEFAULT_SEED)
    checker = run.Checker("search", run.DEFAULT_SEED)
    checker.expected = ["0" * 16] + checker.expected[1:]
    tally = run.Tally([run.run_pass(ops[:2], checker)])
    assert tally.failed == 1 and tally.attempted == 2
    assert not tally.correct


def test_scaled_times_follow_the_probe():
    ref = run.PROBE_REF_S
    assert run.scaled(2.0, ref, ref) == 2.0
    assert run.scaled(2.0, 2 * ref, 2 * ref) == 1.0  # host at half speed
    assert run.scaled(3.0, ref, 2 * ref) == 2.0      # the mean of the two probes
    assert 0 < run.probe() < 1


def test_probe_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    run.probe()
    assert gc.isenabled()
    gc.disable()
    try:
        run.probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_pass_that_differs_from_the_first_fails():
    def rec(digest):
        return {"names": ["op"], "digests": [digest], "problems": [[]], "faults": [[]]}
    tally = run.Tally([rec("a"), rec("a"), rec("b")])
    assert (tally.attempted, tally.failed, tally.correct) == (3, 1, False)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_time_never_exceeds_op_wall_time(workload):
    tracer = Tracer()
    tiny_run(workload, tracer=tracer, in_process=True)
    spans = tracer.op_spans()
    assert len(spans) == TINY[workload]
    for span in spans:
        assert 0 <= span["wrapped_s"] <= span["end"] - span["start"]
    assert all(v >= 0 for v in tracer.self_s.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tiny_run(workload, seed=3, tracer=tracer, in_process=True)
        runs.append((dict(tracer.calls), dict(tracer.counts)))
    assert runs[0] == runs[1]
    assert runs[0][0], "nothing was traced"


def test_search_examines_one_decomposition_per_candidate():
    tracer = Tracer()
    _, _, rec = tiny_run("search", tracer=tracer)
    metrics = run.per_layer(tracer)
    # enumerate_f0's own validate_shear calls, at most the size of the search space
    assert 0 < metrics["search.candidates"][0] <= sum(rec["candidates"])
    assert metrics["shear.decompose_dalpha.per_candidate"][0] == 1.0
    assert metrics["linalg.nullspace.calls"][0] == metrics["search.candidates"][0]


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end(0.5, [0.1] * 20, [5] * 20, 30.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    layers = run.traced_metrics(run.per_layer(Tracer()), [0.1] * 20, [0.1] * 20, (0.0, 0.0))
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (_, u) in layers.items()}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_child_pass_reports_its_record():
    rec = run.spawn_pass("search", run.DEFAULT_SEED, 1, True, None)  # traced: the 40-op prefix
    assert len(rec["times"]) == run.TRACE_OPS["search"]
    assert len(rec["setup_s"]) == run.SETUP_REPEATS
    assert run.Tally([rec]).correct
    assert rec["layers"]["search.candidates"][0] > 0
