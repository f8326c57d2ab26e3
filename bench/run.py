#!/usr/bin/env python3
"""lieshear benchmark: one run of one workload.

    python3 bench/run.py --workload search|analysis|cli --seed N --seconds S --trace 0|1

Run from the repository root; lieshear is imported from ./src.  Each workload
is a fixed list of ops built from the seed.  Every pass over the list runs in
a fresh child process (set-up, then each op once, in a closed loop with one
client and no extra threads), so nothing one pass computes or caches reaches
another.  Every timing is taken at the reference host speed: a fixed probe
runs just before and just after the op or set-up, and the time is scaled by
PROBE_REF_S over their mean (see `probe`).  With --trace 0 the run makes
round(S / PASS_SECONDS) passes, one child at a time and alternating the CPU
they run on, takes each op's median pass as its latency, and reports the
end-to-end metrics.  With --trace 1 it runs the whole list untraced and a
fixed prefix of it traced, in turn, twice, and reports the per-layer metrics
of the first traced pass, the untraced p90 and the tracing overhead; spans
and aggregates go to
.bench_build/lieshear/trace-<workload>-<seed>.json.  Every op's output is
checked; the last line of stdout is the JSON result.

    python3 bench/run.py --workload W --record

rewrites bench/expected/W.json, the per-op digests of the default seed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "lieshear"
EXPECTED = BENCH / "expected"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("search", "analysis", "cli")
DEFAULT_SEED = 0            # the seed whose per-op digests are recorded
SETUP_REPEATS = 5           # set-ups per pass; setup_s is the median over a run
# Nominal seconds of one pass over a workload's ops at the commit that added
# the benchmark, on a shared 2-core Xeon.  A timed run makes
# round(--seconds / this) passes, so both sides of a comparison do equal work.
PASS_SECONDS = {"search": 6.0, "analysis": 6.25, "cli": 12.5}
TRACE_OPS = {"search": 40, "analysis": 100, "cli": 40}  # fixed prefix traced
TRACE_PASSES = 4            # untraced and traced in turn
STARTUP_RUNS = 15           # subprocess runs behind cli.interpreter_ms / cli.import_ms
PASS_TIMEOUT_S = 150
MAX_FAILURE_LINES = 20
# The probe's typical time on the shared 2-core Xeon the benchmark was tuned on
# (median of 3000 runs 0.356 ms, fastest 0.319 ms): scaled timings read about
# as they would there on a typical day.
PROBE_REF_S = 0.35e-3
PROBE_REPEATS = 3


def probe_kernel() -> Fraction:
    """Fixed pure-Python work in the mix of lieshear's inner loops: Fraction
    arithmetic, small-int dict updates.  It uses nothing of lieshear."""
    acc, table = Fraction(0), {}
    for i in range(1, 160):
        acc += Fraction(i, i + 1)
        table[i & 31] = table.get(i & 31, 0) + i
    return acc


def probe() -> float:
    """How long the probe kernel takes on this core now: the fastest of
    PROBE_REPEATS runs, with the collector off so that the heap the program
    left behind cannot slow it.

    The machine is shared; other tenants slow every instruction by up to
    half for seconds to minutes, and timing the CPU instead of the clock does
    not remove that (the slowdown is not stolen time).  A probe on each side
    of a timed interval measures the slowdown the interval ran under."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            probe_kernel()
            best = min(best, perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """An interval's time at the reference host speed, from the probes taken
    just before and just after it."""
    return seconds * 2 * PROBE_REF_S / (before + after)


def import_lieshear():
    """(Re-)import lieshear from ./src, dropping any loaded copy first."""
    for name in [n for n in sys.modules if n == "lieshear" or n.startswith("lieshear.")]:
        del sys.modules[name]
    import lieshear
    if Path(lieshear.__file__).resolve().parent != (SRC / "lieshear").resolve():
        sys.exit(f"bench: imported lieshear from {lieshear.__file__}, not from {SRC}")
    return lieshear


def build(workload: str, seed: int, in_process: bool = False) -> list[W.Op]:
    if workload == "search":
        return W.search_ops(seed)
    if workload == "analysis":
        return W.analysis_ops(seed)
    return W.cli_ops(seed, WORK / f"cli-{seed}", SRC, in_process)


def set_up(workload: str, seed: int, in_process: bool = False) -> tuple[list[W.Op], list[float]]:
    """Import plus input generation (and document writing), SETUP_REPEATS
    times; the times are scaled to the reference host speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        start = perf_counter()
        import_lieshear()
        ops = build(workload, seed, in_process)
        elapsed = perf_counter() - start
        times.append(scaled(elapsed, before, probe()))
    return ops, times


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def python_ms(code: str, runs: int) -> float:
    """Median wall time of `python -c code` in milliseconds."""
    env, times = subprocess_env(), []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


# -- one pass, in the child process ----------------------------------------------------


class Checker:
    """Checks each op output of a pass: recorded digests (default seed),
    reference digests (any seed) and, when asked, the invariants.  An output
    that is wrong gives problems; one that is right but came with a traceback
    on stderr gives faults."""

    def __init__(self, workload: str, seed: int, invariants: bool = True):
        recorded = load_expected(workload)
        self.expected = recorded["ops"] if recorded and recorded["seed"] == seed else None
        self.refs = recorded["refs"] if recorded else {}
        self.invariants = invariants

    def __call__(self, index: int, op: W.Op, out, error: Exception | None):
        """(digest or None, problems, faults) of one op's output."""
        if error is not None:
            return None, [f"raised {error!r}"], []
        try:
            got = W.digest(op.summary(out))
            problems = op.invariants(out) if self.invariants else []
        except Exception as exc:  # an output the checks cannot read is wrong
            return None, [f"checking the output raised {exc!r}"], []
        want = self.refs.get(op.name) if op.name.startswith("ref.") else None
        if want is not None and got != want:
            problems.append(f"digest {got}, reference digest {want}")
        if self.expected is not None and index < len(self.expected) and got != self.expected[index]:
            problems.append(f"digest {got}, recorded {self.expected[index]}")
        return got, problems, op.faults(out)


def load_expected(workload: str) -> dict | None:
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def run_pass(ops: list[W.Op], check: Checker, tracer: Tracer | None = None) -> dict:
    """Runs every op once, in order, in a closed loop; returns per op its
    time as measured and scaled, F0 candidate count, digest, problems and
    faults, and the measured times of reference ops and their steps."""
    rec = {k: [] for k in ("names", "times", "scaled", "candidates", "digests", "problems",
                           "faults")}
    refs = defaultdict(list)
    for index, op in enumerate(ops):
        out = error = None
        before = probe()
        token = tracer.begin_op(op.name) if tracer else None
        start = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an op failure is counted, not fatal
            error = exc
        elapsed = tracer.end_op(op.name, token) if tracer else perf_counter() - start
        at_ref = scaled(elapsed, before, probe())
        digest, problems, faults = check(index, op, out, error)
        for key, value in zip(rec, (op.name, elapsed, at_ref,
                                    op.candidates(out) if error is None else 0,
                                    digest, problems, faults)):
            rec[key].append(value)
        if op.name.startswith("ref."):
            refs[op.name].append(elapsed)
        for step, value in op.steps.items():
            refs[step].append(value)
    rec["refs"] = refs
    return rec


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def one_pass(workload: str, seed: int, index: int, trace: bool) -> dict:
    """Set-up plus one pass, in this process.  Pass 0 of a run also checks the
    invariants.  In a --trace 1 run the CLI runs in-process, and the odd
    passes trace the fixed prefix of the ops."""
    ops, setup = set_up(workload, seed, in_process=trace)
    tracer = Tracer() if trace and index % 2 else None
    if tracer:
        ops = ops[:TRACE_OPS[workload]]
        tracer.install()
    try:
        rec = run_pass(ops, Checker(workload, seed, invariants=index == 0), tracer)
    finally:
        if tracer:
            tracer.uninstall()
    rec.update(setup_s=setup, rss_mib=peak_rss_mib(workload))
    if tracer:
        rec["layers"] = per_layer(tracer)
        if index == 1:
            out = WORK / f"trace-{workload}-{seed}.json"
            tracer.dump(out, {"workload": workload, "seed": seed, "ops": len(ops),
                              "env": environment(), "metrics": rec["layers"]})
            rec["trace_file"] = str(out.relative_to(ROOT))
    return rec


# -- the run, in the parent process ----------------------------------------------------


def spawn_pass(workload: str, seed: int, index: int, trace: bool, cpu: int | None) -> dict:
    """Runs `one_pass` in a child process, pinned to `cpu`, and returns its record."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace)), "--pass-index", str(index)]
    cpus = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # the child inherits it
    try:  # a session of its own, so a timeout ends its CLI processes too
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
    finally:
        os.sched_setaffinity(0, cpus)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"bench: pass {index} did not end within {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"bench: pass {index} exited {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def spawn_passes(workload: str, seed: int, count: int, trace: bool) -> list[dict]:
    """Passes one after another, alternating between the CPUs this process may
    use: on a shared machine one virtual CPU can run a third slower than
    another for minutes, and a process otherwise stays on one of them.  A
    traced run switches CPU after each untraced-traced pair, so both kinds of
    pass run on each CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    return [spawn_pass(workload, seed, p, trace, cpus[(p // 2 if trace else p) % len(cpus)])
            for p in range(count)]


class Tally:
    """Counts attempted and failed ops over the passes of a run.  A wrong
    output fails the op and clears `correct`; a fault fails it only.  Every
    pass of an op must give its digest in the first pass."""

    def __init__(self, passes: list[dict]):
        self.attempted = self.failed = 0
        self.correct = True
        self.messages: list[str] = []
        first = passes[0]["digests"]
        for rec in passes:
            for index, name in enumerate(rec["names"]):
                problems = list(rec["problems"][index])
                if rec["digests"][index] != first[index] and first[index] is not None:
                    problems.append("output differs from the op's first pass")
                self.add(f"op {index} {name}", problems, rec["faults"][index])

    def add(self, where: str, problems: list[str], faults: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.correct = False
        if problems or faults:
            self.failed += 1
            line = f"{where}: {'; '.join(problems + faults)}"
            if len(self.messages) < MAX_FAILURE_LINES and line not in self.messages:
                self.messages.append(line)


def op_times(passes: list[dict], key: str = "scaled") -> list[float]:
    """Each op's median over the passes."""
    return [statistics.median(t) for t in zip(*(rec[key] for rec in passes))]


def end_to_end(setup_s: float, times: list[float], candidates: list[int], rss_mib: float) -> dict:
    busy = sum(times)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / busy, "ops/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "candidates_per_s": (sum(candidates) / busy, "1/s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def per_layer(tracer: Tracer) -> dict:
    """The per-layer metrics one traced pass gives."""
    calls, counts = tracer.calls, tracer.counts

    def self_ms(name):
        return tracer.self_s.get(name, 0.0) * 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("exterior.wedge", "exterior.interior"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
    m["exterior.KForm.calls"] = (calls["exterior.KForm"], "count")
    for name in ("lie.LieAlgebra", "lie.LieAlgebra.d", "lie.LieAlgebra.bracket"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
    for name in ("series", "twist_filtration", "find_shear_lines"):
        m[f"lie.LieAlgebra.{name}.self_ms"] = (self_ms(f"lie.LieAlgebra.{name}"), "ms")
    for name in ("rref", "nullspace", "charpoly", "rational_roots"):
        m[f"linalg.{name}.calls"] = (calls[f"linalg.{name}"], "count")
        m[f"linalg.{name}.self_ms"] = (self_ms(f"linalg.{name}"), "ms")
    examined = counts["search.candidates"]
    validate, decompose = calls["shear.validate_shear"], calls["shear.decompose_dalpha"]
    m["shear.validate_shear.calls"] = (validate, "count")
    m["shear.validate_shear.self_ms"] = (self_ms("shear.validate_shear"), "ms")
    m["shear.validate_shear.valid_ratio"] = (ratio(counts["shear.validate_shear.valid"], validate), "ratio")
    m["shear.decompose_dalpha.calls"] = (decompose, "count")
    m["shear.decompose_dalpha.self_ms"] = (self_ms("shear.decompose_dalpha"), "ms")
    m["shear.decompose_dalpha.per_candidate"] = (ratio(decompose, examined), "ratio")
    m["shear.shear_candidate.calls"] = (calls["shear.shear_candidate"], "count")
    preserves = calls["geometry.preserves_closure"]
    m["geometry.preserves_closure.calls"] = (preserves, "count")
    m["geometry.preserves_closure.self_ms"] = (self_ms("geometry.preserves_closure"), "ms")
    m["geometry.preserves_closure.pass_ratio"] = (ratio(counts["geometry.preserves_closure.pass"], preserves), "ratio")
    m["geometry.checks.self_ms"] = (self_ms("geometry.checks"), "ms")
    m["search.enumerate_f0.self_ms"] = (self_ms("search.enumerate_f0"), "ms")
    m["search.candidates"] = (examined, "count")
    m["search.hits"] = (counts["search.hits"], "count")
    m["search.hit_ratio"] = (ratio(counts["search.hits"], examined), "ratio")
    m["literals.parse.self_ms"] = (self_ms("literals.parse"), "ms")
    for name in ("load_document", "command", "main"):
        m[f"cli.{name}.self_ms"] = (self_ms(f"cli.{name}"), "ms")
    return m


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit}


def report(workload: str, seed: int, metrics: dict, tally: Tally, refs: dict, notes: list[str]) -> None:
    env = environment()
    print(f"lieshear bench  workload={workload} seed={seed}  python {env['python']}  "
          f"nproc {env['nproc']}  {env['machine']}  commit {env['commit'][:12]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.4f} {unit}")
    for line in notes:
        print(f"  {line}")
    rate = tally.failed / tally.attempted
    print(f"  {'error_rate':42s} {rate:14.4f} ratio  ({tally.failed} of {tally.attempted} ops failed)")
    for name, values in sorted(refs.items()):
        print(f"  {name:42s} {min(values) * 1e3:14.4f} ms  (best of {len(values)}, as measured)")
    for line in tally.messages:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def merge_refs(passes: list[dict]) -> dict:
    refs = defaultdict(list)
    for rec in passes:
        for name, values in rec["refs"].items():
            refs[name] += values
    return refs


def timed_run(workload: str, seed: int, seconds: float) -> None:
    """Each op's latency is its median pass, at the reference host speed."""
    if workload == "cli":  # fill the bytecode cache, as an installed package has it
        python_ms("import lieshear.cli", 1)
    count = max(1, round(seconds / PASS_SECONDS[workload]))
    passes = spawn_passes(workload, seed, count, trace=False)
    times = op_times(passes)
    measured = op_times(passes, "times")
    n = len(times)
    setup_s = statistics.median(t for rec in passes for t in rec["setup_s"])
    notes = [f"latency of each of {n} ops is its median of {count} passes, each in a fresh "
             f"process, at the reference host speed (probe {PROBE_REF_S * 1e3:.2f} ms)",
             f"as measured: ops_per_s {n / sum(measured):.4f}, "
             f"op_ms_p50 {statistics.median(measured) * 1e3:.4f}; host speed "
             f"{sum(times) / sum(measured):.3f} of the reference",
             f"{sum(passes[0]['candidates'])} F0 candidates in the search space per pass; "
             "pass times (s) " + " ".join(f"{sum(rec['times']):.2f}" for rec in passes)]
    metrics = end_to_end(setup_s, times, passes[0]["candidates"], max(rec["rss_mib"] for rec in passes))
    report(workload, seed, metrics, Tally(passes), merge_refs(passes), notes)


def traced_metrics(layers: dict, plain: list[float], traced: list[float],
                   startup: tuple[float, float]) -> dict:
    """Per-layer metrics of a traced run: those of its first traced pass, p90
    of the untraced passes, the CLI start-up times and the tracing overhead
    on the traced prefix."""
    m = dict(layers)
    m["op_ms_p90"] = (p90(plain) * 1e3, "ms")
    m["cli.interpreter_ms"] = (startup[0], "ms")
    m["cli.import_ms"] = (startup[1], "ms")
    prefix = plain[:len(traced)]
    m["trace.overhead"] = (statistics.median(traced) / statistics.median(prefix), "ratio")
    return m


def traced_run(workload: str, seed: int) -> None:
    """Untraced passes over every op and traced passes over a prefix
    alternate; the first traced pass gives the per-layer numbers, the mean
    of each kind per op, at the reference host speed, the overhead and p90."""
    passes = spawn_passes(workload, seed, TRACE_PASSES, trace=True)
    plain, traced = passes[0::2], passes[1::2]
    startup = (0.0, 0.0)
    if workload == "cli":
        interpreter = python_ms("pass", STARTUP_RUNS)
        startup = (interpreter, python_ms("import lieshear.cli", STARTUP_RUNS) - interpreter)
    layers = {k: tuple(v) for k, v in traced[0]["layers"].items()}
    metrics = traced_metrics(layers, op_times(plain), op_times(traced), startup)
    notes = [f"traced the first {len(traced[0]['times'])} ops; spans in {traced[0]['trace_file']}",
             f"op_ms_p90 is over the untraced passes of all {len(plain[0]['times'])} ops"
             + (", the CLI run in-process" if workload == "cli" else "")]
    report(workload, seed, metrics, Tally(passes), merge_refs(traced[:1]), notes)


def record(workload: str) -> None:
    """Run every op of the default seed once and store its digests."""
    ops, _ = set_up(workload, DEFAULT_SEED)
    check = Checker(workload, DEFAULT_SEED)
    check.expected, check.refs = None, {}
    rec = run_pass(ops, check)
    tally = Tally([rec])
    if not tally.correct:
        sys.exit("bench: invariants fail, nothing recorded:\n" + "\n".join(tally.messages))
    EXPECTED.mkdir(exist_ok=True)
    refs = {name: d for name, d in zip(rec["names"], rec["digests"]) if name.startswith("ref.")}
    doc = {"seed": DEFAULT_SEED, "refs": dict(sorted(refs.items())), "ops": rec["digests"]}
    (EXPECTED / f"{workload}.json").write_text(json.dumps(doc, indent=0) + "\n")
    print(f"recorded {len(ops)} digests for {workload}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the default seed's digests")
    parser.add_argument("--pass-index", type=int, help="run set-up and this one pass here and "
                        "print its record (used by the run for each of its passes)")
    args = parser.parse_args(argv)
    if not (SRC / "lieshear" / "__init__.py").is_file():
        sys.exit(f"bench: no lieshear sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    if args.pass_index is not None:
        print(json.dumps(one_pass(args.workload, args.seed, args.pass_index, bool(args.trace))))
    elif args.record:
        record(args.workload)
    elif args.trace:
        traced_run(args.workload, args.seed)
    else:
        timed_run(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
