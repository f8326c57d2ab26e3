#!/usr/bin/env python3
"""Steadiness check: run each workload with several seeds and print every
end-to-end metric's spread against its bound in BENCHMARK.json.

    python3 bench/steady.py

Every workload of BENCHMARK.json runs RUNS times, with seeds 1..RUNS, each run
lasting BENCHMARK.json's run_seconds.  The spread
of a metric is (q3 - q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4).  A metric is steady when its spread is
below a third of its bound; setup_s is shown but not judged.  Raw results go
to .bench_build/lieshear/steady.json.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  cpu {cpu_model()}  "
          f"runs {RUNS}  seconds {bench['run_seconds']}", flush=True)
    metrics = bench["end_to_end"]
    raw: dict[str, list[dict]] = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(bench["command"], workload, seed, bench["run_seconds"])
                for seed in range(1, RUNS + 1)]
        raw[workload] = runs
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: correct {all(r['correct'] for r in runs)}  "
              f"error_rate {failed / attempted:.4f} ({failed} of {attempted} ops failed)  "
              f"run wall time median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {'metric':18s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            q1, q2, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in runs], n=4)
            s = (q3 - q1) / q2
            if name == "setup_s":
                verdict = "not judged"
            else:
                verdict = "steady" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                ok &= s <= bound
            print(f"  {name:18s} {m['unit']:6s} {q2:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{s:8.4f} {bound:6.3f}  {verdict}")
        sys.stdout.flush()
    out = ROOT / ".bench_build" / "lieshear" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"\n{'all spreads within bounds' if ok else 'SOME SPREADS EXCEED THEIR BOUNDS'}; raw runs in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
