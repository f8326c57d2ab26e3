"""Shared fixtures: reference algebras, forms, and seeded random generators."""
from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from lieshear import (EigenSpace, KForm, LieAlgebra, SearchHit, ShearData, ShearLineError, ShearLineReport, ShearReport,
                      TwistError, Vector, decompose_dalpha, linalg, parse_salamon, preserves_closure, pullback, wedge)
from lieshear.exterior import interior
from lieshear.literals import format_vector
from lieshear.shear import REQUIRED_CONDITIONS, _sheared, validate_shear

HEISENBERG = "(0,0,12)"
ABELIAN3 = "(0,0,0)"
SOLV5 = "(51,52,53,2.54,0)"
SOLV5_SHEARED = "(51,52,53,13+2.54,0)"
SOLV5_PRODUCT = "(51,52,53,0,0)"
KAHLER6 = "(12,0,0,0,0,0)"

PAPER_STRINGS = [HEISENBERG, ABELIAN3, SOLV5, SOLV5_SHEARED, SOLV5_PRODUCT, KAHLER6]


def replaced(value, **changes):
    """A lieshear value object of the same class with some fields changed,
    made by its constructor, so that its checks run again."""
    return type(value)(**{**{name: getattr(value, name) for name in value._fields}, **changes})


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


@functools.cache
def incremental_bases() -> tuple[LieAlgebra, ...]:
    """Bases for a shear-shaped change d e_j + x_j F; the last two fail Jacobi.

    Built at its first use inside a test, so that a fault in the kernel fails
    the tests that use it, not the collection of the modules that import it.
    """
    return (*paper_algebras(), g_lm(1, 2), LieAlgebra.abelian(5),
            parse_salamon("(12,34,0,0)"), parse_salamon("(0,12,0,23)"))


COEFF_POOL = [Fraction(c) for c in (-3, -2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-1, 3)]


def reference_row(form: KForm) -> list:
    """Coordinate row of a one-form, read term by term off its sorted terms:
    the tests' own reader, which shares no code with the package's
    `form_matrix`."""
    row = [0] * form.dim
    for (i,), c in form.sorted_terms():
        row[i - 1] = c
    return row


def reference_nondegenerate(omega: KForm) -> bool:
    """omega^(n/2) != 0, by n/2 - 1 wedges: the Pfaffian test of a two-form's
    nondegeneracy, the oracle for symplectic_check, which reads the rank of
    omega's matrix instead.  Its middle powers have up to C(n, n/2 - 1)
    terms, so it is for small n only."""
    power = omega
    for _ in range(omega.dim // 2 - 1):
        power = wedge(power, omega)
    return not power.is_zero()


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


def random_unimodular(rng: random.Random, n: int, steps: int) -> tuple[list[list[int]], list[list[int]]]:
    """(P, P^-1) for a random unimodular integer P made of `steps` elementary
    row operations: each r_i += c r_j on P is the column operation
    c_j -= c c_i on P^-1, so the two are built side by side."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    return p, q


def random_frame(rng: random.Random, n: int, rational: bool):
    """(P, P^-1) for change_basis's coframe f = P e: a random unimodular P, or
    P = U D for such a U and D a random positive rational diagonal, which
    rescales the frame vectors, the pivots and the structure constants."""
    u, u_inv = random_unimodular(rng, n, 2 * n)
    if not rational:
        return u, u_inv
    d = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n)]
    p = [[x * d[j] for j, x in enumerate(row)] for row in u]
    return p, [[x / d[i] for x in row] for i, row in enumerate(u_inv)]


def change_basis(g: LieAlgebra, seed: int = 0, steps: int = 0, frame=None) -> LieAlgebra:
    """g in the coframe f = P e for a unimodular integer P: `frame` = (P, P^-1),
    or else a random P made of `steps` elementary row operations.  d f_i =
    P_i . (d e) with e = P^-1 f, so nearly every d f_k has nearly every term."""
    n = g.dim
    p, q = frame or random_unimodular(random.Random(seed), n, steps)
    zero = KForm.zero(n, 2)
    return LieAlgebra([pullback(q, sum((c * f for c, f in zip(row, g.diffs) if c), zero)) for row in p])


def permutation_frame(order) -> tuple[list[list[int]], list[list[int]]]:
    """(P, P^-1) for the permutation matrix whose row i is the unit row at
    order[i]: in change_basis's coframe f = P e, f_i = e_order[i]."""
    p = [[int(j == k) for j in range(len(order))] for k in order]
    return p, [list(col) for col in zip(*p)]


def move_shear(data: ShearData, frame) -> ShearData:
    """The shear data in change_basis's coframe f = P e, `frame` = (P, P^-1):
    X goes to P X, and alpha, F0 and eta_g to their pullbacks by P^-1."""
    p, q = frame
    x = Vector([sum(c * v for c, v in zip(row, data.X)) for row in p])
    eta_g = None if data.eta_g is None else pullback(q, data.eta_g)
    return ShearData(X=x, alpha=pullback(q, data.alpha), F0=pullback(q, data.F0), a=data.a, eta_g=eta_g)


EIGEN_POOL = [Fraction(c) for c in (-2, -1, 0, 0, 1, 3)] + [Fraction(1, 2), Fraction(-2, 3)]


def random_solvable_extension(rng: random.Random, frame: str = "tilt") -> LieAlgebra:
    """R^k x| R^m: m = 1-3 commuting actions on R^k (k = 2-5), in the frame
    `frame` names.

    The actions are block diagonal.  On each block every action is a_t I + b_t M
    for one M per block: a nilpotent Jordan shift of size 1-3 (Jordan blocks,
    and zero rows that leave g' short of R^k) or the companion matrix of
    x^2 - c, c in {2, -1, 3} (irrational roots).  The a_t come from a small
    pool, so eigenvalues repeat across blocks.  Then "tilt" changes the basis
    by a random unimodular P, which tilts g', its lower central series and the
    acting vectors off the frame; "permutation" permutes the frame, so each
    action stays triangular up to a permutation; "identity" keeps the frame.
    """
    k, m = rng.randint(2, 5), rng.randint(1, 3)
    actions = [[[Fraction(0)] * k for _ in range(k)] for _ in range(m)]
    start = 0
    while start < k:
        size = min(k - start, rng.randint(1, 3))
        companion = size == 2 and rng.random() < 0.3
        c = rng.choice((2, -1, 3))
        for a in actions:
            shift, scale = rng.choice(EIGEN_POOL), rng.choice((0, 1, -1, 2))
            for i in range(size):
                a[start + i][start + i] = shift
                if i:
                    a[start + i][start + i - 1] = scale
            if companion:
                a[start][start + 1] = c * scale
        start += size
    n = k + m
    # [E_(k+t), E_j] = sum_i A_t[i][j] E_i, so d e_i has A_t[i][j] e_j ^ e_(k+t)
    diffs = [sum((mono(n, (j + 1, k + t + 1), a[i][j]) for t, a in enumerate(actions) for j in range(k)),
                 KForm.zero(n, 2)) for i in range(k)]
    g = LieAlgebra(diffs + [KForm.zero(n, 2)] * m)
    if frame == "tilt":
        return change_basis(g, rng.randrange(1 << 32), 2 * n)
    if frame == "permutation":
        return change_basis(g, frame=permutation_frame(rng.sample(range(n), n)))
    if frame == "identity":
        return g
    raise ValueError(f"unknown frame {frame!r}")


def reference_rref(vectors):
    """Gauss-Jordan on Fraction rows: the reduced rows with pivot 1, and the pivots."""
    m = [[Fraction(x) for x in row] for row in vectors]
    if not m:
        return (), ()
    pivots, r = [], 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def reference_nullspace(vectors, ncols):
    """{x : M x = 0} from the free columns of reference_rref, reduced by a second elimination."""
    red, pivots = reference_rref(vectors)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return reference_rref(basis)[0]


# -- char polys and rational roots ----------------------------------------------
# Faddeev-LeVerrier on Fraction rows, and the rational root theorem by divisor
# search, on Fraction coefficients: the oracles of linalg's integer charpoly and
# its root bisection, sharing no code with them.  Both are exact; the divisor
# search takes work that grows with the size of the coefficients, so it only
# sees small ones.


def reference_charpoly(a):
    """det(xI - A) for a matrix of ints or Fractions, Fraction coefficients ascending."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*mk)] for row in m]
        ck = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = ck
        for i in range(n):
            mk[i][i] += ck
    return coeffs


def reference_poly_eval(coeffs, x):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def reference_divide_out_root(coeffs, root):
    # synthetic division by (x - root); exact, remainder must vanish
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    acc = Fraction(0)
    for k in range(n, 0, -1):
        acc = coeffs[k] + acc * root
        out[k - 1] = acc
    remainder = coeffs[0] + acc * root
    if remainder:
        raise ArithmeticError(f"{root} is not a root: remainder {remainder}")
    return out


def reference_divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def reference_rational_roots(coeffs):
    """(sorted (root, multiplicity) pairs, leftover degree) of a polynomial
    with int or Fraction coefficients, ascending, by the rational root theorem."""
    poly = [Fraction(c) for c in coeffs]
    while len(poly) > 1 and not poly[-1]:
        poly.pop()
    roots = {}
    while len(poly) > 1:
        if not poly[0]:
            roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
            poly = poly[1:]
            continue
        scale = 1
        for c in poly:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        ints = [int(c * scale) for c in poly]
        content = 0
        for v in ints:
            content = gcd(content, v)
        ints = [v // content for v in ints]
        a0, an = abs(ints[0]), abs(ints[-1])
        found = None
        for p in sorted(reference_divisors(a0)):
            for q in sorted(reference_divisors(an)):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if reference_poly_eval(poly, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        poly = reference_divide_out_root(poly, found)
    return sorted(roots.items(), key=lambda t: t[0]), len(poly) - 1


def reference_d(g: LieAlgebra, form: KForm) -> KForm:
    """d(form) by the Koszul formula

        d phi(E_i0, ..., E_ik) = sum_{a<b} (-1)^(a+b) phi([E_ia, E_ib], E_i0, ..., ^a, ..., ^b, ..., E_ik),

    with [E_i, E_j] = sum_t c^t_ij E_t and c^t_ij = -(d e_t)(E_i, E_j) read
    straight off the terms of g.diffs: the oracle for LieAlgebra.d, with no
    antiderivation rule and no bitmask sign.  Every value of a form on frame
    vectors takes the sign of an explicit count of inversions.  The formula
    needs no Jacobi identity."""
    n, k = g.dim, form.degree

    def value(f: KForm, idx) -> Fraction:
        # f(E_i, ...) for 0-based indices in any order: the coefficient of the
        # sorted monomial, times the parity of the sort
        if len(set(idx)) < len(idx):
            return Fraction(0)
        inversions = sum(x > y for x, y in combinations(idx, 2))
        return (-1) ** inversions * Fraction(f.terms.get(sum(1 << i for i in idx), 0))

    terms = {}
    for idx in combinations(range(n), k + 1):
        total = Fraction(0)
        for a, b in combinations(range(k + 1), 2):
            rest = idx[:a] + idx[a + 1:b] + idx[b + 1:]
            bracket = [-value(g.diffs[t], (idx[a], idx[b])) for t in range(n)]
            total += (-1) ** (a + b) * sum((x * value(form, (t, *rest)) for t, x in enumerate(bracket) if x),
                                           Fraction(0))
        terms[sum(1 << i for i in idx)] = total
    return KForm(n, k + 1, terms)


def reference_ad(g: LieAlgebra, v) -> list[list]:
    """ad(v) built entry by entry, as the package did before brackets were
    read off the terms of d e_k: a term c e_ij (i < j) of d e_k puts -c v_i in
    column j and +c v_j in column i of row k."""
    comps = [x.numerator if x.denominator == 1 else x for x in v]
    rows = []
    for f in g.diffs:
        row = [0] * g.dim
        for mask, c in f.terms.items():
            i = (mask & -mask).bit_length() - 1
            j = mask.bit_length() - 1
            row[j] -= c * comps[i]
            row[i] += c * comps[j]
        rows.append([x if type(x) is int or x.denominator != 1 else x.numerator for x in row])
    return rows


def reference_mat_vec(a, v) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def reference_nijenhuis(g: LieAlgebra, j) -> list[tuple[tuple[int, int], list[Fraction]]]:
    """N(E_a, E_b) = [J E_a, J E_b] - J[J E_a, E_b] - J[E_a, J E_b] - [E_a, E_b]
    for 1 <= a < b <= n, each bracket [u, v] the dense ad(u) of `reference_ad`
    applied to v, and J applied as a dense matrix."""
    n = g.dim
    units = [[Fraction(int(i == k)) for i in range(n)] for k in range(n)]
    images = [[Fraction(row[k]) for row in j] for k in range(n)]  # J E_k, column k of J

    def bracket(u, v):
        return reference_mat_vec(reference_ad(g, u), v)

    out = []
    for a in range(n):
        for b in range(a + 1, n):
            parts = (bracket(images[a], images[b]), reference_mat_vec(j, bracket(images[a], units[b])),
                     reference_mat_vec(j, bracket(units[a], images[b])), bracket(units[a], units[b]))
            out.append(((a + 1, b + 1), [p - q - r - s for p, q, r, s in zip(*parts)]))
    return out


def reference_chain(first, step):
    """first, step(first), ... up to the first zero term, or up to the term
    before the first step that does not shrink its term.  In a descending
    chain that step is a repeat.  A start that is no ideal, as a broken
    series would give, can lead to steps that leave their term and wander
    through subspaces forever; they end the chain too."""
    chain = [first]
    while chain[-1] and len(nxt := step(chain[-1])) < len(chain[-1]):
        chain.append(nxt)
    return chain


def reference_bracket_span(g: LieAlgebra, left, right):
    """The reduced Fraction rows of span{[u, v]}: the dense ad(u) applied to
    each v with n^2 Fraction products, then reference_rref."""
    vecs = [reference_mat_vec(reference_ad(g, u), v) for u in left for v in right]
    return reference_rref(vecs)[0]


def reference_shear_lines(g: LieAlgebra) -> ShearLineReport:
    """find_shear_lines on Fraction rows, with its brackets taken from the
    dense reference_ad and its eigen step done by eliminations: one
    reference_rref of [basis^T | images] gives each restricted matrix (a pivot
    among the images' columns means an image left the space), its roots come
    from reference_charpoly and the divisor search, each root's eigenvectors
    are reduced again, and the refined spaces are sorted.  The oracle for
    find_shear_lines' reports and refusals."""
    rep = g.series()
    if not rep.is_solvable:
        raise ShearLineError("shear lines require a solvable algebra")
    if rep.is_abelian:
        raise ShearLineError("abelian algebra has no canonical line")
    dsub = rep.derived[0]
    lower = reference_chain(dsub, lambda s: reference_bracket_span(g, dsub, s))
    if lower[-1]:
        raise RuntimeError("derived subalgebra of a solvable algebra must be nilpotent")
    target = lower[-2]
    acting = tuple(Vector.basis(g.dim, j + 1) for j in linalg.complement(dsub, g.dim))
    spaces = [((), target)]
    nonrational = False
    for a in acting:
        ad_a = reference_ad(g, a.components)
        refined = []
        for eigs, basis in spaces:
            k = len(basis)
            images = [[sum((x * y for x, y in zip(row, b)), Fraction(0)) for row in ad_a] for b in basis]
            red, pivots = reference_rref([[*row, *(im[i] for im in images)] for i, row in enumerate(zip(*basis))])
            if pivots and pivots[-1] >= k:
                raise RuntimeError("complement action does not preserve the target subspace")
            restricted = [[Fraction(0)] * k for _ in range(k)]
            for r, pc in enumerate(pivots):
                restricted[pc] = list(red[r][k:])
            roots, leftover = reference_rational_roots(reference_charpoly(restricted))
            nonrational = nonrational or bool(leftover)
            for root, _mult in roots:
                shifted = [[x - root if i == j else x for j, x in enumerate(row)] for i, row in enumerate(restricted)]
                eigvecs = [[sum((c * b[col] for c, b in zip(y, basis)), Fraction(0)) for col in range(g.dim)]
                           for y in reference_nullspace(shifted, k)]
                refined.append((eigs + (root,), reference_rref(eigvecs)[0]))
        spaces = sorted(refined)
    return ShearLineReport(dsub, target, acting, tuple(EigenSpace(e, b) for e, b in spaces), nonrational)


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


def two_step_document(rng: random.Random, digits: int) -> dict:
    """A dimension-14 algebra document, 2-step nilpotent: d e_1, ..., d e_7 are
    zero, and d e_8, ..., d e_14 each hold all 21 terms +-p/q e_ij with
    i < j <= 7, p and q of `digits` digits.  d(d e_k) = 0 for every k, so it
    passes Jacobi, and [g, g] is spanned by 21 rows of such coefficients."""
    low, high = 10 ** (digits - 1), 10 ** digits
    masks = [(1 << i) | (1 << j) for i, j in combinations(range(7), 2)]
    diffs = {str(k): str(KForm(14, 2, {m: Fraction(rng.choice((-1, 1)) * rng.randrange(low, high),
                                                   rng.randrange(low, high)) for m in masks}))
             for k in range(8, 15)}
    return {"dim": 14, "d": diffs}


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


def reference_shear(g: LieAlgebra, data: ShearData) -> tuple[ShearReport, dict[str, KForm]]:
    """validate_shear by the general formulas of the paper alone, with none
    of ShearBase's shortcuts (leg_free_defect, eta_closed, plan), only its
    eta and f, and no shortcut for X . F0 = 0: the oracle for its leg-free
    branch.  eta0_vanishes_on_xi is evaluated here, not taken as an identity.

    Beside the report come eta_tilde = eta - X . F_eff, f_tilde = f + f' and
    eta_bracket, by [A, X] = eta_bracket(A) X: each by its own formula, the
    oracle for the properties that derive them from the report's fields."""
    decomp = decompose_dalpha(g, data.X, data.alpha)
    f_eff = (-1 / data.a) * data.F0
    nu = interior(data.X, data.F0)
    eta_prime = (1 / data.a) * nu
    eta_0 = decomp.eta + eta_prime
    f_prime = f_eff - wedge(eta_prime, data.alpha)
    dnu = g.d(nu)
    conditions = {
        "xi_ideal": True,  # decompose_dalpha raises otherwise
        "df_eff_eq_eta0_wedge_f_eff": g.d(f_eff) == wedge(eta_0, f_eff),
        "eta0_closed": g.d(eta_0).is_zero(),
        "eta0_vanishes_on_xi": sum(c * x for c, x in zip(reference_row(eta_0), data.X.components)) == 0,
        "dnu_wedge_nu_zero": wedge(dnu, nu).is_zero(),
        "dnu_zero": dnu.is_zero(),
        "f0_compatible_with_eta_g": (
            None if data.eta_g is None else g.d(data.F0) == wedge(data.eta_g, data.F0)
        ),
    }
    report = ShearReport(valid=all(conditions[name] for name in REQUIRED_CONDITIONS), decomp=decomp,
                         eta_prime=eta_prime, eta_0=eta_0, f_prime=f_prime, nu=nu, f_eff=f_eff,
                         conditions=conditions)
    n = g.dim
    # X spans an ideal, so [E_i, X] = alpha([E_i, X]) X, as alpha(X) = 1
    eta_bracket = KForm(n, 1, {1 << (i - 1): data.alpha(g.bracket(Vector.basis(n, i), data.X))
                               for i in range(1, n + 1)})
    derived = {"eta_tilde": decomp.eta - interior(data.X, f_eff), "f_tilde": decomp.f + f_prime,
               "eta_bracket": eta_bracket}
    return report, derived


def reference_validate_shear(g: LieAlgebra, data: ShearData) -> ShearReport:
    return reference_shear(g, data)[0]


def reference_enumerate_f0(spec) -> list[SearchHit]:
    """The search as one validate_shear per candidate of the box, with no
    linear screen: the oracle for enumerate_f0's hits, reports and sheared
    algebras."""
    support = spec.effective_support()
    nonzero = tuple(c for c in spec.coefficients if c)
    hits = []
    for t in range(min(spec.max_terms, len(support)) + 1):
        for monomials in combinations(support, t):
            for coeffs in product(nonzero, repeat=t):
                f0 = KForm(spec.base.dim, 2, {(1 << (i - 1)) | (1 << (j - 1)): c
                                              for (i, j), c in zip(monomials, coeffs)})
                data = ShearData(X=spec.X, alpha=spec.alpha, F0=f0, a=spec.a)
                report = validate_shear(spec.base, data)
                if report.valid and all(preserves_closure(spec.base, spec.X, f0, s)
                                        for s in spec.preserve):
                    hits.append(SearchHit(f0=f0, report=report, sheared=_sheared(report)))
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
    alpha_row = reference_row(alpha)
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
        w_rows = linalg.span_rref([reference_row(interior(Vector.basis(g.dim, i), f2)) for i in range(1, g.dim + 1)])
        if in_span(w_rows, alpha_row):
            raise TwistError("F must have no alpha-leg on an abelian base")
    frame = [[int(i == j) for j in range(g.dim)] for i in range(g.dim)]
    rows = [*w_rows, *(frame[j] for j in linalg.complement([*w_rows, alpha_row], g.dim)), alpha_row]
    # the n x n system rows X = (0, ..., 0, 1), by one elimination of [rows | rhs]
    red, pivots = reference_rref([[*row, int(k == g.dim - 1)] for k, row in enumerate(rows)])
    assert pivots == tuple(range(g.dim)), "the splitting is not a basis of g*"
    data = ShearData(X=Vector([row[-1] for row in red]), alpha=alpha, F0=f2)
    return _sheared(validate_shear(g, data))
