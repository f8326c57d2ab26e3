"""Shared fixtures: reference algebras, forms, and seeded random generators."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from lieshear import KForm, LieAlgebra, SearchHit, ShearData, Vector, parse_salamon, preserves_closure
from lieshear.shear import ShearBase, _sheared, validate_shear

HEISENBERG = "(0,0,12)"
ABELIAN3 = "(0,0,0)"
SOLV5 = "(51,52,53,2.54,0)"
SOLV5_SHEARED = "(51,52,53,13+2.54,0)"
SOLV5_PRODUCT = "(51,52,53,0,0)"
KAHLER6 = "(12,0,0,0,0,0)"

PAPER_STRINGS = [HEISENBERG, ABELIAN3, SOLV5, SOLV5_SHEARED, SOLV5_PRODUCT, KAHLER6]


def mono(dim, indices, coeff=1):
    return KForm.monomial(dim, indices, coeff)


def g_lm(lam, mu) -> LieAlgebra:
    """Almost abelian 7-dimensional family acted on by E_7."""
    lam, mu = Fraction(lam), Fraction(mu)
    s = lam + mu
    return LieAlgebra([
        s * mono(7, (1, 7)),
        lam * mono(7, (2, 7)),
        mu * mono(7, (3, 7)),
        -s * mono(7, (4, 7)),
        -lam * mono(7, (5, 7)),
        -mu * mono(7, (6, 7)),
        KForm.zero(7, 2),
    ])


def h_lm(lam, mu) -> LieAlgebra:
    """The shear of g_lm by X = E_1, F0 = e23, a = -1."""
    g = g_lm(lam, mu)
    diffs = list(g.diffs)
    diffs[0] = diffs[0] + mono(7, (2, 3))
    return LieAlgebra(diffs)


def psi4() -> KForm:
    """Closed four-form carried by every g_lm."""
    out = KForm.zero(7, 4)
    for term, sign in [
        ((1, 4, 2, 5), 1),
        ((1, 4, 3, 6), 1),
        ((2, 5, 3, 6), 1),
        ((4, 5, 6, 7), -1),
        ((4, 2, 3, 7), 1),
        ((1, 2, 6, 7), 1),
        ((1, 5, 3, 7), 1),
    ]:
        out = out + mono(7, term, sign)
    return out


def phi0() -> KForm:
    """Reference stable three-form in dimension 7."""
    out = KForm.zero(7, 3)
    for term, sign in [
        ((1, 2, 3), 1),
        ((1, 4, 5), 1),
        ((1, 6, 7), 1),
        ((2, 4, 6), 1),
        ((2, 5, 7), -1),
        ((3, 4, 7), -1),
        ((3, 5, 6), -1),
    ]:
        out = out + mono(7, term, sign)
    return out


def omega_std(dim) -> KForm:
    return KForm(dim, 2, {(1 << k) | (1 << (k + 1)): Fraction(1) for k in range(0, dim, 2)})


def paper_algebras() -> list[LieAlgebra]:
    algebras = [parse_salamon(s) for s in PAPER_STRINGS]
    algebras.append(LieAlgebra.abelian(6))
    for pair in [(1, 2), (1, -1), (3, 0)]:
        algebras.append(g_lm(*pair))
    for pair in [(1, 2), (1, -1)]:
        algebras.append(h_lm(*pair))
    return algebras


COEFF_POOL = [Fraction(c) for c in (-3, -2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-1, 3)]


def random_form(rng: random.Random, dim: int, degree: int, max_terms: int = 4) -> KForm:
    mons = list(combinations(range(1, dim + 1), degree))
    out = KForm.zero(dim, degree)
    for indices in rng.sample(mons, min(len(mons), rng.randint(0, max_terms))):
        out = out + mono(dim, indices, rng.choice(COEFF_POOL))
    return out


def random_vector(rng: random.Random, dim: int) -> Vector:
    return Vector([rng.choice(COEFF_POOL + [Fraction(0), Fraction(0)]) for _ in range(dim)])


def random_almost_abelian(rng: random.Random, dim: int) -> LieAlgebra:
    """Abelian R^(dim-1) extended by one generator acting linearly: always a
    solvable Lie algebra, for any choice of action matrix."""
    n = dim
    diffs = []
    for j in range(1, n):
        row = KForm.zero(n, 2)
        for i in range(1, n):
            if rng.random() < 0.4:
                c = rng.choice(COEFF_POOL)
                row = row + c * mono(n, (i, n))
        diffs.append(row)
    diffs.append(KForm.zero(n, 2))
    return LieAlgebra(diffs)


def random_diff_candidate(rng: random.Random, dim: int) -> LieAlgebra:
    """Arbitrary generator differentials; usually fails the Jacobi identity."""
    return LieAlgebra([random_form(rng, dim, 2, max_terms=2) for _ in range(dim)])


def frame_ideal_indices(g: LieAlgebra) -> list[int]:
    """Frame indices k for which span(E_k) is an ideal."""
    out = []
    for k in range(1, g.dim + 1):
        ek = Vector.basis(g.dim, k)
        ok = True
        for i in range(1, g.dim + 1):
            b = g.bracket(Vector.basis(g.dim, i), ek)
            if any(b.components[t] for t in range(g.dim) if t != k - 1):
                ok = False
                break
        if ok:
            out.append(k)
    return out


def random_shears(count: int = 220, seed: int = 2024):
    """Seeded (algebra, ShearData) pairs on frame ideals, valid and invalid.

    The same stream as acceptance criterion 6: the paper algebras plus random
    solvable almost-abelian ones of dims 5-7, alpha sometimes with a leg off
    X, random F0 and a mix of transfer constants.
    """
    rng = random.Random(seed)
    bases = list(paper_algebras())
    for dim in (5, 6, 7):
        for _ in range(5):
            cand = random_almost_abelian(rng, dim)
            if cand.jacobi_check().passed and cand.series().is_solvable:
                bases.append(cand)
    a_pool = [Fraction(-1), Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(3)]
    out = []
    while len(out) < count:
        g = bases[len(out) % len(bases)]
        ideals = frame_ideal_indices(g)
        if not ideals:
            bases.remove(g)
            continue
        k = rng.choice(ideals)
        alpha = mono(g.dim, (k,))
        if rng.random() < 0.3:
            extra = rng.choice([i for i in range(1, g.dim + 1) if i != k])
            alpha = alpha + mono(g.dim, (extra,), rng.choice([Fraction(1), Fraction(-2)]))
        data = ShearData(
            X=Vector.basis(g.dim, k),
            alpha=alpha,
            F0=random_form(rng, g.dim, 2, max_terms=3),
            a=rng.choice(a_pool),
        )
        out.append((g, data))
    return out


def reference_det(a) -> Fraction:
    """Determinant by Gaussian elimination on Fractions: the test oracle for
    determinants, which the package itself does not compute."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def reference_enumerate_f0(spec) -> list[SearchHit]:
    """The search as one validate_shear per candidate of the box, with no
    linear screen: the oracle for enumerate_f0's hits, reports and sheared
    algebras."""
    support = spec.effective_support()
    nonzero = tuple(c for c in spec.coefficients if c)
    base = ShearBase.prepare(spec.base, spec.X, spec.alpha)
    hits = []
    for t in range(min(spec.max_terms, len(support)) + 1):
        for monomials in combinations(support, t):
            for coeffs in product(nonzero, repeat=t):
                f0 = KForm(spec.base.dim, 2, {(1 << (i - 1)) | (1 << (j - 1)): c
                                              for (i, j), c in zip(monomials, coeffs)})
                data = ShearData(X=spec.X, alpha=spec.alpha, F0=f0, a=spec.a)
                report = validate_shear(spec.base, data, base)
                if report.valid and all(preserves_closure(spec.base, spec.X, f0, s)
                                        for s in spec.preserve):
                    hits.append(SearchHit(f0=f0, report=report, sheared=_sheared(spec.base, data, report)))
    return hits
