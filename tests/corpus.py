"""Shared fixtures: reference algebras, forms, and seeded random generators."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from lieshear import (KForm, LieAlgebra, SearchHit, ShearData, TwistError, Vector, linalg, parse_salamon,
                      preserves_closure)
from lieshear.exterior import form_row, interior
from lieshear.literals import format_vector
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


def random_nilpotent(rng: random.Random, dim: int) -> LieAlgebra:
    """A nilpotent algebra with d e_k a sum of up to two terms e_ij, i < j < k:
    such candidates are drawn until one satisfies the Jacobi identity."""
    while True:
        diffs = []
        for k in range(1, dim + 1):
            pairs = list(combinations(range(1, k), 2))
            d = KForm.zero(dim, 2)
            for indices in rng.sample(pairs, min(len(pairs), rng.randint(0, 2))):
                d = d + mono(dim, indices, rng.choice(COEFF_POOL))
            diffs.append(d)
        g = LieAlgebra(diffs)
        if g.jacobi_check().passed:
            return g


def random_closed_two_form(rng: random.Random, g: LieAlgebra) -> KForm:
    """A combination of up to two rows of the echelon basis of the closed two-forms."""
    pairs = list(combinations(range(1, g.dim + 1), 2))
    images = [g.d(mono(g.dim, p)) for p in pairs]
    masks = sorted({m for image in images for m in image.terms})
    closed = linalg.nullspace([[image.terms.get(m, 0) for image in images] for m in masks], len(pairs))
    out = KForm.zero(g.dim, 2)
    for row in rng.sample(closed, rng.randint(0, min(2, len(closed)))):
        c = rng.choice(COEFF_POOL)
        out = out + KForm(g.dim, 2, {(1 << (i - 1)) | (1 << (j - 1)): c * x for (i, j), x in zip(pairs, row)})
    return out


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


def reference_twist(g: LieAlgebra, alpha: KForm, f2: KForm) -> LieAlgebra:
    """The twist by a splitting g* = W + span(alpha): W is V1, or on an abelian
    base the span of the i_v F, completed by frame covectors, and X solves
    w(X) = 0 for w in W and alpha(X) = 1.  The oracle for apply_twist's X and
    for its refusals, which it raises with the same messages in the same order."""
    def in_span(basis, row):
        return len(linalg.span_rref([*basis, row])) == len(linalg.span_rref(basis))

    if alpha.dim != g.dim or f2.dim != g.dim:
        raise TwistError("dimension mismatch in twist data")
    if alpha.degree != 1:
        raise TwistError("alpha must be a one-form")
    if not (f2.degree == 2 or f2.is_zero()):
        raise TwistError("F must be a two-form")
    rep = g.series()
    if not rep.is_nilpotent:
        raise TwistError("twist requires a nilpotent algebra")
    if not g.d(f2).is_zero():
        raise TwistError("F must be closed")
    chain = g.twist_filtration().chain
    alpha_row = form_row(alpha)
    if len(chain) > 1:
        w_rows = chain[1]
        if in_span(w_rows, alpha_row):
            raise TwistError("alpha must lie outside V1")
        for v in map(Vector, rep.lower_central[-2]):
            leg = interior(v, f2)
            if not leg.is_zero():
                raise TwistError(f"F is not in Lambda^2 V1: i_v F = {leg} for v = {format_vector(v)}")
    else:
        if alpha.is_zero():
            raise TwistError("alpha must lie outside V1")
        w_rows = linalg.span_rref([form_row(interior(Vector.basis(g.dim, i), f2)) for i in range(1, g.dim + 1)])
        if in_span(w_rows, alpha_row):
            raise TwistError("F must have no alpha-leg on an abelian base")
    frame = linalg.identity(g.dim)
    rows = [*w_rows, *(frame[j] for j in linalg.complement([*w_rows, alpha_row], g.dim)), alpha_row]
    # the n x n system rows X = (0, ..., 0, 1), by one elimination of [rows | rhs]
    red, pivots = linalg.rref([[*row, int(k == g.dim - 1)] for k, row in enumerate(rows)])
    assert pivots == tuple(range(g.dim)), "the splitting is not a basis of g*"
    data = ShearData(X=Vector([row[-1] for row in red]), alpha=alpha, F0=f2)
    return _sheared(g, data, validate_shear(g, data))
