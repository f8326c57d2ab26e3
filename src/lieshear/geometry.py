"""Geometric structure verification on Lie algebras, exact over the rationals.

Complex structures are real endomorphisms J with J^2 = -Id; the holomorphic
type machinery is realized real-linearly (Nijenhuis tensor, (1,1)-projection)
so everything stays inside exact arithmetic.
"""
from __future__ import annotations

import warnings
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import linalg
from ._value import Value
from .exterior import MAX_DIM, KForm, Vector, _as_fraction, form_matrix, interior, pullback, wedge
from .lie import LieAlgebra, _columns

Matrix = tuple[tuple[Fraction, ...], ...]


def _as_matrix(rows: Sequence[Sequence], what: str) -> Matrix:
    n = len(rows)
    if not 0 < n <= MAX_DIM:
        raise ValueError(f"{what} dimension must be in 1..{MAX_DIM}, got {n}")
    m = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
    if any(len(row) != n for row in m):
        raise ValueError(f"{what} must be {n}x{n}")
    return m


class Metric(Value):
    """Symmetric Gram matrix of the frame; definiteness decided exactly."""

    _fields = ("gram",)  # Matrix

    def __init__(self, gram: Sequence[Sequence]):
        m = _as_matrix(gram, "metric")
        if not linalg.is_symmetric(m):
            raise ValueError("metric must be symmetric")
        object.__setattr__(self, "gram", m)

    @property
    def dim(self) -> int:
        return len(self.gram)

    @classmethod
    def standard(cls, dim: int) -> "Metric":
        return cls([[int(i == j) for j in range(dim)] for i in range(dim)])

    def is_positive_definite(self) -> bool:
        return linalg.definiteness(self.gram) == 1


class ComplexStructure(Value):
    """Endomorphism J of the frame with J^2 = -Id (dimension must be even)."""

    _fields = ("j",)  # Matrix

    def __init__(self, j: Sequence[Sequence]):
        m = _as_matrix(j, "J")
        if len(m) % 2:
            raise ValueError("complex structure needs even dimension")
        if linalg.mat_mul(m, m) != [[-(i == k) for k in range(len(m))] for i in range(len(m))]:
            raise ValueError("J^2 must be -Id")
        object.__setattr__(self, "j", m)

    @property
    def dim(self) -> int:
        return len(self.j)

    @classmethod
    def standard(cls, dim: int) -> "ComplexStructure":
        """E_1 -> E_2, E_2 -> -E_1, pairing consecutive frame directions."""
        m = [[Fraction(0)] * dim for _ in range(dim)]
        for k in range(0, dim - 1, 2):  # an odd dim reaches the constructor's ValueError
            m[k + 1][k] = Fraction(1)
            m[k][k + 1] = Fraction(-1)
        return cls(m)

    def apply(self, v: Vector) -> Vector:
        # the row v^T J^T is (J v)^T, the product sparse in v
        return Vector(linalg.mat_mul([v.components], [*zip(*self.j)])[0])


def is_closed(g: LieAlgebra, form: KForm) -> bool:
    if not g.jacobi_check().passed:
        raise ValueError("closure test requires the Jacobi identity")
    return g.d(form).is_zero()


def symplectic_check(g: LieAlgebra, omega: KForm) -> bool:
    """Closed and nondegenerate: d(omega) = 0 and omega's matrix has full rank.

    omega is nondegenerate exactly when no v != 0 has v . omega = 0, that is
    when its matrix W (row i is E_i . omega) has rank n.  The rank is
    `linalg.rank_at` of W's `primitive` rows at every column: O(n^3)
    `_eliminate` steps, whose entries stay bounded by minors of the
    row-scaled W.
    """
    if g.dim % 2:
        raise ValueError("symplectic check needs even dimension")
    if omega.dim != g.dim or not (omega.degree == 2 or omega.is_zero()):
        raise ValueError("omega must be a two-form on the algebra")
    if not is_closed(g, omega):
        return False
    return linalg.rank_at([linalg.primitive(row) for row in form_matrix(omega)], range(g.dim)) == g.dim


class NijenhuisResult(Value):
    _fields = (
        "values",      # tuple[tuple[tuple[int, int], Vector], ...]: N(E_i, E_j) for i < j
        "integrable",  # bool
    )


def nijenhuis(g: LieAlgebra, js: ComplexStructure) -> NijenhuisResult:
    """N(v,w) = [Jv,Jw] - J[Jv,w] - J[v,Jw] - [v,w] on all frame pairs.

    For each b, P and Q have the columns [E_c, E_b] and [E_c, J E_b], each
    from one `_columns` pass over the algebra's integer terms; column a of
    Q J - J (P J + Q) - P is then N(E_a, E_b).  J enters as its least integer
    multiple K = s J, so every product runs over the integers and gives
    scale s^2 N.  The rows held are the transposes: rows c > b of
    K^T Q^T - (K^T P^T + Q^T) K^T - s^2 P^T, from which N(E_b, E_c) =
    -N(E_c, E_b) is read, each frame pair once and in the order of `values`.
    """
    if js.dim != g.dim:
        raise ValueError(f"dimension mismatch: {js.dim} vs {g.dim}")
    if not g.jacobi_check().passed:
        warnings.warn("Nijenhuis tensor on an algebra failing the Jacobi identity", RuntimeWarning)
    n = g.dim
    scale, terms = g._int_terms()
    s = lcm(*(x.denominator for row in js.j for x in row))
    kt = [[x.numerator * (s // x.denominator) for x in col] for col in zip(*js.j)]  # row c: s J E_c
    s2, den = s * s, s * s * scale
    values = []
    for b in range(n):
        p = _columns(terms, [int(c == b) for c in range(n)])  # row c: scale [E_c, E_b]
        q = _columns(terms, kt[b])                              # row c: s scale [E_c, J E_b]
        after = kt[b + 1:]
        inner = [[x + y for x, y in zip(u, v)] for u, v in zip(linalg.mat_mul(after, p), q[b + 1:])]
        rows = zip(linalg.mat_mul(after, q), linalg.mat_mul(inner, kt), p[b + 1:])
        for c, (u, v, w) in enumerate(rows, start=b + 2):
            values.append(((b + 1, c), Vector([Fraction(y + s2 * z - x, den) for x, y, z in zip(u, v, w)])))
    return NijenhuisResult(values=tuple(values), integrable=all(v.is_zero() for _, v in values))


def type_components(js: ComplexStructure, f2: KForm) -> tuple[KForm, KForm]:
    """Split a two-form into ((2,0)+(0,2), (1,1)) parts relative to J.

    The (1,1) part is (F + F(J., J.))/2; the remainder is J-anti-invariant.
    """
    if f2.dim != js.dim:
        raise ValueError(f"dimension mismatch: {f2.dim} vs {js.dim}")
    if not (f2.degree == 2 or f2.is_zero()):
        raise ValueError("type decomposition needs a two-form")
    pulled = pullback(js.j, f2)
    half = Fraction(1, 2)
    f11 = half * (f2 + pulled)
    anti = half * (f2 - pulled)
    return anti, f11


class KahlerReport(Value):
    _fields = ("passed", "checks")  # bool, dict[str, bool]


def kahler_check(g: LieAlgebra, metric: Metric, js: ComplexStructure, omega: KForm) -> KahlerReport:
    """Positive metric, J-compatibility, omega = metric(J., .), closedness, integrability.

    omega_equals_metric_j compares omega's matrix (`form_matrix`) with M^T for
    M = G J, entry by entry.  It fails whenever metric_j_invariant does, as
    metric(J., .) is a two-form only for a J-invariant metric.
    """
    if g.dim % 2:
        raise ValueError("Kaehler check needs even dimension")
    if {metric.dim, js.dim, omega.dim} != {g.dim}:
        raise ValueError("metric, J and omega must live on the algebra's dimension")
    if not (omega.degree == 2 or omega.is_zero()):
        raise ValueError("omega must be a two-form on the algebra")
    # M = G J is all the matrix work: omega(E_i, E_j) = metric(J E_i, E_j) = M[j][i],
    # and since J^2 = -Id and G is symmetric, J^T G J = G exactly when M^T = -M.
    # Only then is metric(J., .) a two-form, so otherwise omega cannot equal it:
    # comparing omega with M's lower triangle alone gives a verdict that
    # depends on the frame
    n = g.dim
    m = linalg.mat_mul(metric.gram, js.j)
    invariant = all(m[i][j] == -m[j][i] for i in range(n) for j in range(i, n))
    checks = {
        "metric_positive_definite": metric.is_positive_definite(),
        "metric_j_invariant": invariant,
        "omega_equals_metric_j": invariant and form_matrix(omega) == [[*col] for col in zip(*m)],
        "omega_closed": is_closed(g, omega),
        "nijenhuis_vanishes": nijenhuis(g, js).integrable,
    }
    return KahlerReport(passed=all(checks.values()), checks=checks)


class HalfFlatReport(Value):
    _fields = (  # each a bool
        "passed",
        "co_symplectic",         # d(omega^2) = 0
        "rho_minus_closed",
        "omega_rho_compatible",  # omega ^ rho_- = 0, reported but not gating
    )


def half_flat_check(g: LieAlgebra, omega: KForm, rho_minus: KForm) -> HalfFlatReport:
    if g.dim != 6:
        raise ValueError("half-flat structures live in dimension 6")
    if not (omega.degree == 2 or omega.is_zero()) or not (rho_minus.degree == 3 or rho_minus.is_zero()):
        raise ValueError("need a two-form omega and a three-form rho_-")
    co = is_closed(g, wedge(omega, omega))
    rho = is_closed(g, rho_minus)
    return HalfFlatReport(
        passed=co and rho,
        co_symplectic=co,
        rho_minus_closed=rho,
        omega_rho_compatible=wedge(omega, rho_minus).is_zero(),
    )


def g2_cocal_check(g: LieAlgebra, psi: KForm) -> bool:
    """Co-calibration: closure of the four-form (positivity is not decided)."""
    if g.dim != 7:
        raise ValueError("co-calibrated structures live in dimension 7")
    if not (psi.degree == 4 or psi.is_zero()):
        raise ValueError("psi must be a four-form")
    return is_closed(g, psi)


class PhiStabilityReport(Value):
    _fields = (
        "b_matrix",      # Matrix
        "definiteness",  # "positive" | "negative" | "indefinite-or-degenerate"
    )

    @property
    def stable(self) -> bool:
        return self.definiteness in ("positive", "negative")


def phi_stability(phi: KForm) -> PhiStabilityReport:
    """Nondegeneracy of a three-form in dimension 7 via B(v,w) vol = (v.phi)^(w.phi)^phi."""
    if phi.dim != 7:
        raise ValueError("stability test is for three-forms in dimension 7")
    if not (phi.degree == 3 or phi.is_zero()):
        raise ValueError("phi must be a three-form")
    full = (1 << 7) - 1
    contractions = [interior(Vector.basis(7, i), phi) for i in range(1, 8)]
    b = [
        [Fraction(wedge(wedge(contractions[i], contractions[j]), phi).terms.get(full, 0)) for j in range(7)]
        for i in range(7)
    ]
    kind = {1: "positive", -1: "negative", 0: "indefinite-or-degenerate"}[linalg.definiteness(b)]
    return PhiStabilityReport(b_matrix=tuple(tuple(row) for row in b), definiteness=kind)


def preserves_closure(g: LieAlgebra, x: Vector, f0: KForm, sigma: KForm) -> bool:
    """A closed sigma transfers to a closed form exactly when F0 ^ (X . sigma) = 0."""
    if x.dim != g.dim or f0.dim != g.dim or sigma.dim != g.dim:
        raise ValueError("dimension mismatch")
    return wedge(f0, interior(x, sigma)).is_zero()

