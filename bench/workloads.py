"""Seeded inputs and operations for the three benchmark workloads.

A workload is a list of `Op`s built during set-up from one seed.  Only an op's
`call` is timed.  `summary` turns its output into the canonical text whose
sha256 is the op's digest; `invariants` lists the properties, holding for every
seed, that the output violates.  `faults` lists failures that leave the output
itself as recorded (a traceback on stderr).

Inputs are built from constructions whose validity is known by design, so the
expected outcome of every op (valid shear, exit code, ...) never comes from the
program under test.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from io import StringIO
from itertools import combinations
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# Distinct ops per workload; a timed run repeats each of them.
SEARCH_OPS = 100
ANALYSIS_OPS = 100
CLI_OPS = 100

PSI4_TERMS = [((1, 4, 2, 5), 1), ((1, 4, 3, 6), 1), ((2, 5, 3, 6), 1), ((4, 5, 6, 7), -1),
              ((4, 2, 3, 7), 1), ((1, 2, 6, 7), 1), ((1, 5, 3, 7), 1)]
PSI4_LITERAL = "e1425 + e1436 + e2536 - e4567 + e4237 + e1267 + e1537"
RHO_MINUS_LITERAL = "e135 - e146 - e236 - e245"
S5 = "(51,52,53,2.54,0)"
# Valid JSON whose shape load_document does not expect.
WRONG_SHAPE_DOCS = ['{"dim":3,"d":[1,2]}', '{"salamon":5}',
                    '{"salamon":"(0,0,12)","substitutions":[1]}']


def _lib():
    # Looked up at call time: set-up re-imports the package between repeats.
    import lieshear
    return lieshear


@dataclass
class Op:
    name: str                                   # op family; reference ops start with "ref."
    call: Callable[[], Any]                     # the timed part
    summary: Callable[[Any], str]               # canonical output text
    invariants: Callable[[Any], list[str]]      # violated seed-independent properties
    candidates: Callable[[Any], int] = lambda out: 0   # F0 search space size (candidates_per_s)
    faults: Callable[[Any], list[str]] = lambda out: []
    steps: dict[str, float] = field(default_factory=dict)  # sub-step seconds of the last call


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- algebra constructions ------------------------------------------------------------


def mono(n: int, idx, c=1):
    return _lib().KForm.monomial(n, idx, c)


def almost_abelian(action) -> list:
    """Differentials of R^(n-1) extended by E_n acting through `action`:
    d e_j = sum_i action[j][i] e_i ^ e_n.  Jacobi holds for every matrix."""
    L = _lib()
    n = len(action) + 1
    top = 1 << (n - 1)
    diffs = [L.KForm(n, 2, {(1 << i) | top: a for i, a in enumerate(row) if a}) for row in action]
    return diffs + [L.KForm.zero(n, 2)]


def diagonal(eigs) -> list:
    m = len(eigs)
    return almost_abelian([[eigs[j] if i == j else 0 for i in range(m)] for j in range(m)])


def related_eigenvalues(rng: random.Random, m: int, k: int, size: int = 3) -> list[Fraction]:
    """m nonzero eigenvalues with eig[k] = eig[i] + eig[j] for some i, j != k, so
    that X = E_(k+1) has a valid shear F0 = e_(i+1)(j+1) besides the e_i ^ e_n ones."""
    pool = [v for v in range(-size, size + 1) if v]
    while True:
        eigs = [Fraction(rng.choice(pool)) for _ in range(m)]
        i, j = rng.sample([t for t in range(m) if t != k], 2)
        eigs[k] = eigs[i] + eigs[j]
        if eigs[k]:
            return eigs


def nilpotent(rng: random.Random, n: int) -> tuple[list, list[int], int]:
    """(differentials, closed generators, top generator) of a nilpotent algebra.

    Filiform core d e_k = e_1 ^ e_(k-1) on the first m generators, or a random
    two-step core over r closed generators; the rest is a Heisenberg or abelian
    summand.  The top generator has the longest bracket chain, so it lies
    outside V_1 of the twist filtration.
    """
    L = _lib()
    diffs = [L.KForm.zero(n, 2) for _ in range(n)]
    if rng.random() < 0.5:
        m = rng.randint(4, min(n, 7))
        for k in range(3, m + 1):
            diffs[k - 1] = mono(n, (1, k - 1))
        closed, top, used = [1, 2], m, m
    else:
        r = rng.randint(3, min(5, n - 1))
        s = rng.randint(1, min(3, n - r))
        pairs = list(combinations(range(1, r + 1), 2))
        for k in range(r + 1, r + s + 1):
            form = L.KForm.zero(n, 2)
            for pair in rng.sample(pairs, rng.randint(1, min(3, len(pairs)))):
                form = form + mono(n, pair, rng.choice([1, -1, 2, Fraction(1, 2)]))
            diffs[k - 1] = form
        closed, top, used = list(range(1, r + 1)), r + s, r + s
    rest = list(range(used + 1, n + 1))
    if len(rest) >= 3 and rng.random() < 0.5:  # Heisenberg summand on the first three
        a, b, c = rest[:3]
        diffs[c - 1] = mono(n, (a, b))
        closed += [a, b] + rest[3:]
    else:
        closed += rest
    return diffs, closed, top


def closed_three_form(n: int, closed: list[int], rng: random.Random):
    a, b, c = sorted(rng.sample(closed, 3)) if len(closed) >= 3 else (1, 2, n)
    return mono(n, (a, b, c))


def structure_check(g) -> str:
    """The dimension's structure check, as a verdict string."""
    L = _lib()
    n = g.dim
    omega = L.KForm(n, 2, {(1 << k) | (1 << (k + 1)): 1 for k in range(0, n - 1, 2)})
    if n == 6:
        rho = sum((mono(6, idx, c) for idx, c in [((1, 3, 5), 1), ((1, 4, 6), -1),
                                                   ((2, 3, 6), -1), ((2, 4, 5), -1)]),
                  L.KForm.zero(6, 3))
        rep = L.half_flat_check(g, omega, rho)
        return f"half-flat {rep.co_symplectic} {rep.rho_minus_closed} {rep.omega_rho_compatible}"
    if n == 7:
        psi = sum((mono(7, idx, c) for idx, c in PSI4_TERMS), L.KForm.zero(7, 4))
        return f"g2-cocal {L.g2_cocal_check(g, psi)}"
    if n % 2 == 0:
        return f"symplectic {L.symplectic_check(g, omega)}"
    return f"closed {L.is_closed(g, L.wedge(omega, mono(n, (n,))))}"


def subspace_text(basis) -> str:
    L = _lib()
    from lieshear.literals import format_vector
    return "span{" + ", ".join(format_vector(L.Vector(r)) for r in basis) + "}"


# -- search ------------------------------------------------------------------------------


def _search_op(name: str, spec, expect: tuple[int, int] | None = None) -> Op:
    L = _lib()
    count = spec.candidate_count()

    def summary(hits) -> str:
        lines = [f"candidates {count}"]
        lines += [f"{h.f0} -> {L.print_salamon(h.sheared)}" for h in hits]
        return "\n".join(lines)

    def invariants(hits) -> list[str]:
        L = _lib()
        bad = []
        if expect is not None and (count, len(hits)) != expect:
            bad.append(f"expected {expect[0]} candidates and {expect[1]} hits, got {count}, {len(hits)}")
        for h in hits:
            data = L.ShearData(X=spec.X, alpha=spec.alpha, F0=h.f0, a=spec.a)
            if not h.sheared.jacobi_check().passed:
                bad.append(f"hit {h.f0}: sheared algebra fails Jacobi")
            elif L.shear_candidate(h.sheared, L.invert_shear(h.sheared, data)) != spec.base:
                bad.append(f"hit {h.f0}: invert_shear does not round-trip")
        return bad

    return Op(name, lambda: L.enumerate_f0(spec), summary, invariants, lambda hits: count)


def reference_searches() -> list[Op]:
    """The two searches of the ROADMAP baseline table, verbatim."""
    L = _lib()
    s = Fraction(3)
    glm = L.LieAlgebra(diagonal([s, 1, 2, -s, -1, -2]))  # g_lm(1, 2)
    psi4 = sum((mono(7, idx, c) for idx, c in PSI4_TERMS), L.KForm.zero(7, 4))
    glm_spec = L.SearchSpec(base=glm, X=L.Vector.basis(7, 1), alpha=mono(7, (1,)),
                            max_terms=2, preserve=(psi4,))
    s5_spec = L.SearchSpec(base=L.parse_salamon(S5), X=L.Vector.basis(5, 4), alpha=mono(5, (4,)),
                           max_terms=3, coefficients=(-2, -1, 0, 1, 2))
    return [_search_op("ref.search_glm", glm_spec, (451, 9)),
            _search_op("ref.search_s5", s5_spec, (1545, 1545))]


def _ann_monomials(n: int, k: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if k not in (i, j)]


COEFF_SETS = [(-1, 0, 1), (-2, -1, 0, 1, 2), (-1, 0, Fraction(1, 2), 1)]


def search_ops(seed: int) -> list[Op]:
    """100 queries: the two reference searches at fixed positions and 98
    smaller ones in fixed proportions of family, dimension and coefficient
    set, so that seeds change the algebras but not the mix."""
    L = _lib()
    rng = random.Random(seed)
    small: list[Op] = []

    def diag_query(name, n, max_terms, coeffs, support_size=None, preserve=False):
        k = rng.randint(1, n - 1)
        g = L.LieAlgebra(diagonal(related_eigenvalues(rng, n - 1, k - 1)))
        support = None
        if support_size is not None:
            support = tuple(rng.sample(_ann_monomials(n, k), support_size))
        # e_a ^ e_k ^ e_n is closed on a diagonal almost abelian algebra
        keep = (L.wedge(mono(n, (rng.choice([t for t in range(1, n) if t != k]),)),
                        mono(n, (k, n))),) if preserve else ()
        spec = L.SearchSpec(base=g, X=L.Vector.basis(n, k), alpha=mono(n, (k,)),
                            coefficients=coeffs, support=support, max_terms=max_terms,
                            preserve=keep)
        small.append(_search_op(name, spec))

    for i in range(36):
        diag_query("query.diag", 5 + i % 3, 1, COEFF_SETS[2 * (i // 3 % 2)], preserve=i % 2 == 0)
    for i in range(20):
        diag_query("query.diag_pairs", 5 + i % 2, 2, (-1, 0, 1), support_size=4)
    for i in range(10):
        diag_query("query.large", 10 + i % 3, 1, (-1, 0, 1), support_size=6)
    for i in range(16):
        c = [1, 2, 3, -1, -2, Fraction(1, 2)][i % 6]
        spec = L.SearchSpec(base=L.parse_salamon(f"(51,52,53,{c}.54,0)"), X=L.Vector.basis(5, 4),
                            alpha=mono(5, (4,)), coefficients=COEFF_SETS[i % 3])
        small.append(_search_op("query.s5_family", spec))
    for i in range(16):
        n = 5 + i % 3
        diffs, closed, _top = nilpotent(rng, n)
        keep = (closed_three_form(n, closed, rng),) if i % 2 else ()
        spec = L.SearchSpec(base=L.LieAlgebra(diffs), X=L.Vector.basis(n, n), alpha=mono(n, (n,)),
                            max_terms=1, preserve=keep)
        small.append(_search_op("query.nilpotent", spec))
    rng.shuffle(small)
    glm, s5 = reference_searches()
    return small[:3] + [glm] + small[3:22] + [s5] + small[22:]


# -- analysis ----------------------------------------------------------------------------


def _random_form(rng: random.Random, n: int, degree: int, terms: int):
    L = _lib()
    out = L.KForm.zero(n, degree)
    for idx in rng.sample(list(combinations(range(1, n + 1), degree)), terms):
        out = out + mono(n, idx, rng.choice([1, -1, 2, Fraction(1, 3)]))
    return out


def triangular_action(rng: random.Random, m: int) -> list[list[Fraction]]:
    """Triangular matrix with small nonzero integer eigenvalues, conjugated by a
    random permutation: every eigenvalue is rational, the bound |eigenvalue| <= 3
    keeps the rational-root search short."""
    size = rng.choice([1, 2, 3])
    pool = [v for v in range(-size, size + 1) if v]
    tri = [[Fraction(rng.choice(pool)) if i == j else
            Fraction(rng.choice([0, 0, 0, 1, -1])) if i > j else Fraction(0)
            for i in range(m)] for j in range(m)]
    perm = list(range(m))
    rng.shuffle(perm)
    action = [[Fraction(0)] * m for _ in range(m)]
    for j in range(m):
        for i in range(m):
            action[perm[j]][perm[i]] = tri[j][i]
    return action


def _shear_analysis_op(rng: random.Random, n: int) -> Op:
    """Build, series, shear lines, then a shear along a found line: validate,
    apply, invert, apply back, transfer a form, probe a random F0, check."""
    L = _lib()
    diffs = almost_abelian(triangular_action(rng, n - 1))
    pick, other = rng.randrange(n), rng.randrange(n - 2)
    c = rng.choice([1, -1, 2, Fraction(1, 2)])
    a = rng.choice([-1, 1, 2, Fraction(-1, 2)])
    sigma = _random_form(rng, n, 3, 2)
    probe_f0 = _random_form(rng, n, 2, 2)

    def call():
        L = _lib()
        g = L.LieAlgebra(diffs)
        series = g.series()
        lines = g.find_shear_lines()
        space = lines.eigenspaces[pick % len(lines.eigenspaces)]
        x = L.Vector(space.basis[0])
        k = next(i for i, comp in enumerate(x.components, start=1) if comp)
        alpha = mono(n, (k,), 1 / x.components[k - 1])
        m = [t for t in range(1, n) if t != k][other]
        # beta kills X, so F0 = beta ^ e_n is a valid shear along span(X)
        beta = mono(n, (m,)) - mono(n, (k,), x.components[m - 1] / x.components[k - 1])
        data = L.ShearData(X=x, alpha=alpha, F0=c * L.wedge(beta, mono(n, (n,))), a=a)
        report = L.validate_shear(g, data)
        sheared = L.apply_shear(g, data)
        back = L.apply_shear(sheared, L.invert_shear(sheared, data))
        ds = L.ds_form(g, data, sigma)
        probe = L.validate_shear(g, L.ShearData(X=x, alpha=alpha, F0=probe_f0, a=a))
        return dict(g=g, series=series, lines=lines, data=data, report=report, sheared=sheared,
                    back=back, ds=ds, probe=probe, structure=structure_check(sheared))

    def summary(out) -> str:
        L = _lib()
        s, lines = out["series"], out["lines"]
        from lieshear.literals import format_vector
        return json.dumps({
            "algebra": L.print_salamon(out["g"]),
            "class": [s.is_nilpotent, s.is_solvable, s.step_length, s.derived_length],
            "derived": [subspace_text(b) for b in s.derived],
            "eigenspaces": [[[str(e) for e in es.eigenvalues], subspace_text(es.basis)]
                            for es in lines.eigenspaces],
            "x": format_vector(out["data"].X), "f0": str(out["data"].F0),
            "conditions": out["report"].conditions, "sheared": L.print_salamon(out["sheared"]),
            "ds": str(out["ds"]), "probe": out["probe"].conditions, "structure": out["structure"],
        }, sort_keys=True)

    def invariants(out) -> list[str]:
        bad = []
        if not out["g"].jacobi_check().passed:
            bad.append("almost abelian algebra fails Jacobi")
        if not out["report"].valid:
            bad.append("shear along a found line is invalid")
        if not out["sheared"].jacobi_check().passed:
            bad.append("sheared algebra fails Jacobi")
        if out["back"] != out["g"]:
            bad.append("invert_shear does not round-trip")
        if out["ds"] != out["sheared"].d(sigma):
            bad.append("ds_form differs from the sheared differential")
        return bad

    return Op("shear_line", call, summary, invariants, lambda out: 3)


def _twist_analysis_op(rng: random.Random, n: int) -> Op:
    """Build, series, twist filtration, twist by a closed F in Lambda^2 V_1, check."""
    L = _lib()
    diffs, closed, top = nilpotent(rng, n)
    f2 = L.KForm.zero(n, 2)
    pairs = list(combinations(sorted(closed), 2))
    for pair in rng.sample(pairs, min(rng.choice([1, 2]), len(pairs))):
        f2 = f2 + mono(n, pair, rng.choice([1, -1, 2]))
    alpha = mono(n, (top,))

    def call():
        L = _lib()
        g = L.LieAlgebra(diffs)
        series = g.series()
        filtration = g.twist_filtration()
        twisted = L.apply_twist(g, alpha, f2)
        return dict(g=g, series=series, filtration=filtration, twisted=twisted,
                    structure=structure_check(twisted))

    def summary(out) -> str:
        L = _lib()
        return json.dumps({
            "algebra": L.print_salamon(out["g"]),
            "lower_central": [subspace_text(b) for b in out["series"].lower_central],
            "filtration": [subspace_text(b) for b in out["filtration"].chain],
            "twisted": L.print_salamon(out["twisted"]), "structure": out["structure"],
        }, sort_keys=True)

    def invariants(out) -> list[str]:
        bad = []
        if not out["series"].is_nilpotent:
            bad.append("nilpotent construction is not nilpotent")
        if len(out["filtration"].chain) != out["series"].step_length:
            bad.append("filtration length differs from the step length")
        if not out["twisted"].jacobi_check().passed:
            bad.append("twisted algebra fails Jacobi")
        if out["twisted"] == out["g"]:
            bad.append("twist by a nonzero F left the algebra unchanged")
        return bad

    return Op("twist", call, summary, invariants, lambda out: 1)


def _reference_dim7_op() -> Op:
    """The dim-7 rows of the ROADMAP baseline table on a fresh g_lm(1, 2):
    construction, d(psi4), validate_shear and find_shear_lines, each timed."""
    L = _lib()
    diffs = diagonal([Fraction(3), 1, 2, -3, -1, -2])
    psi4 = sum((mono(7, idx, c) for idx, c in PSI4_TERMS), L.KForm.zero(7, 4))
    data = L.ShearData(X=L.Vector.basis(7, 1), alpha=mono(7, (1,)), F0=mono(7, (2, 3)))
    steps: dict[str, float] = {}

    def call():
        L = _lib()
        t0 = perf_counter()
        g = L.LieAlgebra(diffs)
        t1 = perf_counter()
        dpsi = g.d(psi4)
        t2 = perf_counter()
        report = L.validate_shear(g, data)
        t3 = perf_counter()
        lines = g.find_shear_lines()
        t4 = perf_counter()
        steps.update({"ref.lie_algebra_dim7": t1 - t0, "ref.d_psi4_dim7": t2 - t1,
                      "ref.validate_shear_dim7": t3 - t2, "ref.find_shear_lines_dim7": t4 - t3})
        return dict(g=g, dpsi=dpsi, report=report, lines=lines)

    def summary(out) -> str:
        return json.dumps({
            "algebra": _lib().print_salamon(out["g"]), "dpsi": str(out["dpsi"]),
            "conditions": out["report"].conditions,
            "eigenspaces": [[[str(e) for e in es.eigenvalues], subspace_text(es.basis)]
                            for es in out["lines"].eigenspaces],
        }, sort_keys=True)

    def invariants(out) -> list[str]:
        bad = []
        if not out["dpsi"].is_zero():
            bad.append("psi4 is not closed on g_lm(1, 2)")
        if not out["report"].valid:
            bad.append("F0 = e23 along E1 is not valid on g_lm(1, 2)")
        return bad

    return Op("ref.dim7", call, summary, invariants, lambda out: 1, steps=steps)


def analysis_ops(seed: int) -> list[Op]:
    """Ten blocks of ten, shuffled inside the block: the dim-7 reference, four
    twist ops and five shear-line ops.  Dimensions depend on the block only,
    so seeds change the algebras but not the mix; over the ten blocks they
    cover 5-14.  Two shear-line ops per block share the largest dimension, so
    the p90 latency falls inside that group rather than on a gap."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for b in range(ANALYSIS_OPS // 10):
        block = [_reference_dim7_op()]
        for n in (5 + b % 3, 8 + b % 3, 11 + b % 2, 13 + b % 2):
            block.append(_twist_analysis_op(rng, n))
        for n in (5 + b % 2, 7 + b % 2, 9 + b % 2, 11, 11):
            block.append(_shear_analysis_op(rng, n))
        rng.shuffle(block)
        ops.extend(block)
    return ops


# -- cli ------------------------------------------------------------------------------------


def _cli_runner(work: Path, src: Path, in_process: bool) -> Callable[[list[str]], tuple]:
    """Runs `lieshear <argv>` in `work`; returns (exit code, stdout, stderr).

    In-process runs call cli.main with output captured; an uncaught exception
    becomes exit code 1 plus its traceback on stderr, as the interpreter does.
    """
    if in_process:
        def run(argv):
            from lieshear import cli
            out, err = StringIO(), StringIO()
            cwd = os.getcwd()
            os.chdir(work)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except Exception:
                        traceback.print_exc()
                        code = 1
            finally:
                os.chdir(cwd)
            return code, out.getvalue(), err.getvalue()
        return run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "lieshear", *argv], cwd=work, env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr
    return run


def _cli_op(name: str, run, argv: list[str], expect: int, report: bool) -> Op:
    """One CLI process; `report` says whether stdout must hold a JSON report."""
    command = argv[0]

    def invariants(out) -> list[str]:
        code, stdout, _ = out
        if code != expect:
            return [f"exit code {code}, expected {expect}"]
        if not report:
            return [] if not stdout else ["unexpected output on stdout"]
        try:
            doc = json.loads(stdout)
        except ValueError:
            return ["stdout is not a JSON report"]
        if doc.get("exit_status") != expect or doc.get("command") != command:
            return ["JSON report disagrees with the command or exit code"]
        return []

    def candidates(out) -> int:
        code, stdout, _ = out
        if command == "search" and code == 0:
            try:
                return int(json.loads(stdout)["result"]["candidates"])
            except (ValueError, KeyError, TypeError):  # a wrong report is caught by the checks
                return 0
        return 1 if command in ("shear", "twist") else 0

    return Op(name, lambda: run(argv), lambda out: f"{out[0]}\n{out[1]}", invariants,
              candidates, lambda out: ["traceback on stderr"] if "Traceback" in out[2] else [])


def cli_ops(seed: int, work: Path, src: Path, in_process: bool = False) -> list[Op]:
    """Five blocks of 20 `lieshear ... --json` runs over documents written to
    `work/docs`.  Each block starts with a reference command and holds every
    subcommand on generated documents, one malformed input with its documented
    exit code (1 parse, 2 Jacobi, 4 search cap) and one wrong-shape JSON
    document.  Dimensions are fixed per slot, so seeds change the algebras
    but not the mix."""
    L = _lib()
    rng = random.Random(seed)
    run = _cli_runner(work, src, in_process)
    docs: dict[str, str] = {}
    (work / "docs").mkdir(parents=True, exist_ok=True)

    def doc(text: str) -> str:
        if text not in docs:
            docs[text] = f"docs/d{len(docs):02d}.alg"
            (work / docs[text]).write_text(text + "\n")
        return docs[text]

    def diag_doc(n: int):
        k = rng.randint(1, n - 1)
        eigs = related_eigenvalues(rng, n - 1, k - 1)
        return doc(L.print_salamon(L.LieAlgebra(diagonal(eigs)))), n, k, eigs

    def nil_doc(n: int):
        diffs, closed, top = nilpotent(rng, n)
        return doc(L.print_salamon(L.LieAlgebra(diffs))), n, closed, top

    def shear_flags(k, f0):
        return ["--x", f"E{k}", "--alpha", f"e{k}", "--f0", str(f0),
                "--a", str(rng.choice([-1, 2, Fraction(1, 2)]))]

    def json_doc(variant: int) -> str:
        if variant == 0:
            c = rng.choice([2, 3, -1])
            return doc(json.dumps({"salamon": "(s.17,l.27,m.37,0.47+s.74,0.57+l.75,0.67+m.76,0)",
                                   "substitutions": {"l": "1", "m": str(c), "s": str(1 + c)}}))
        n = 11 if variant == 1 else 6
        g = L.LieAlgebra(diagonal(related_eigenvalues(rng, n - 1, 0)))
        return doc(json.dumps({"dim": n, "d": {str(k): str(f) for k, f in enumerate(g.diffs, 1) if f.terms}}))

    def structure(variant: int) -> list[str]:
        if variant == 0:
            return [diag_doc(6)[0], "--type", "symplectic", "--standard"]
        if variant == 1:
            return [diag_doc(6)[0], "--type", "half-flat", "--omega", "e12 + e34 + e56",
                    "--rho-minus", RHO_MINUS_LITERAL]
        if variant == 2:
            return [diag_doc(7)[0], "--type", "g2-cocal", "--psi", PSI4_LITERAL]
        return [nil_doc(8)[0], "--type", "symplectic", "--standard"]

    s5 = doc(S5)
    references = [
        ("ref.cli_algebra_check", ["algebra-check", s5]),
        ("ref.cli_search", ["search", s5, "--x", "E4", "--alpha", "e4", "--max-terms", "1",
                            "--coeffs", "-2,-1,0,1,2"]),
    ]
    ops: list[Op] = []
    for b in range(CLI_OPS // 20):
        block: list[Op] = []

        def op(name, argv, expect=0, report=True):
            block.append(_cli_op(name, run, [*argv, "--json"], expect, report))

        for n in (5, 7):
            op("algebra-check", ["algebra-check", diag_doc(n)[0]])
        op("algebra-check", ["algebra-check", nil_doc(5 + b)[0]])
        op("algebra-check", ["algebra-check", json_doc(b % 3)])
        for n in (6, 7):
            path, n, k, eigs = diag_doc(n)
            i = rng.choice([t for t in range(1, n) if t != k])
            op("shear", ["shear", path, *shear_flags(k, mono(n, (i, n)))])
        while True:
            path, n, k, eigs = diag_doc(6)
            # e_ij (i, j < n) is valid along E_k exactly when eig_i + eig_j = eig_k
            bad = [(i, j) for i, j in _ann_monomials(n - 1, k)
                   if eigs[i - 1] + eigs[j - 1] != eigs[k - 1]]
            if bad:
                break
        op("shear.invalid", ["shear", path, *shear_flags(k, mono(n, rng.choice(bad)))], 3)
        for n in (6, 8):
            path, n, closed, top = nil_doc(n)
            f2 = mono(n, rng.choice(list(combinations(sorted(closed), 2))), rng.choice([1, -1, 2]))
            op("twist", ["twist", path, "--alpha", f"e{top}", "--f", str(f2)])
        for n in (6, 7):
            path, n, k, eigs = diag_doc(n)
            i = rng.choice([t for t in range(1, n) if t != k])
            op("form-ds", ["form-ds", path, *shear_flags(k, mono(n, (i, n))),
                           "--form", str(_random_form(rng, n, 3, 3))])
        for v in (2 * b % 4, (2 * b + 1) % 4):
            op("check-structure", ["check-structure", *structure(v)])
        path, n, k, eigs = diag_doc(6)
        op("search", ["search", path, "--x", f"E{k}", "--alpha", f"e{k}"])
        path, n, closed, top = nil_doc(6)
        op("search", ["search", path, "--x", f"E{n}", "--alpha", f"e{n}"])
        for m in (5, 7):
            g = L.LieAlgebra(almost_abelian(triangular_action(rng, m)))
            op("shear-lines", ["shear-lines", doc(L.print_salamon(g))])
        malformed = ["parse", "jacobi", "cap"][b % 3]
        if malformed == "parse":
            op("malformed.parse", ["algebra-check", doc(rng.choice(["(13,0)", "(0,0,12", "(0,0,1.2.3)"]))],
               1, False)
        elif malformed == "jacobi":
            op("malformed.jacobi", ["algebra-check", doc("(0,12,0,23" + ",0" * rng.randint(0, 2) + ")")], 2)
        else:
            path, n, k, eigs = diag_doc(7)
            op("malformed.cap", ["search", path, "--x", f"E{k}", "--alpha", f"e{k}",
                                 "--max-terms", "2", "--cap", "50"], 4, False)
        op("malformed.shape", ["algebra-check", doc(WRONG_SHAPE_DOCS[b % 3])], 1, False)
        rng.shuffle(block)
        name, argv = references[b % 2]
        op(name, argv)
        ops += block[-1:] + block[:-1]
    return ops
