"""Bounded exhaustive enumeration of deformation two-forms giving valid shears."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .exterior import KForm, Vector
from .geometry import preserves_closure
from .lie import LieAlgebra
from .shear import ShearBase, ShearData, ShearReport, shear_candidate, validate_shear

DEFAULT_CAP = 10**6


class SearchSpaceError(ValueError):
    """Candidate count exceeds the cap; exhaustive-by-contract refuses to truncate."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"search space has {count} candidates, cap is {cap}")
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class SearchSpec:
    """Search space: F0 = sum of coefficients over support monomials.

    Default support is every frame monomial of Lambda^2 Ann(X); coefficients
    must include 0 (absent terms).
    """

    base: LieAlgebra
    X: Vector
    alpha: KForm
    a: Fraction = Fraction(-1)
    coefficients: tuple[Fraction, ...] = (Fraction(-1), Fraction(0), Fraction(1))
    support: tuple[tuple[int, int], ...] | None = None
    max_terms: int = 1
    preserve: tuple[KForm, ...] = ()
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        coeffs = tuple(sorted({Fraction(c) for c in self.coefficients}))
        if Fraction(0) not in coeffs:
            raise ValueError("coefficient set must contain 0")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "a", Fraction(self.a))
        if self.max_terms < 0:
            raise ValueError("max_terms must be nonnegative")
        if self.support is not None:
            mons = []
            for pair in self.support:
                i, j = pair
                if not 1 <= i < j <= self.base.dim:
                    raise ValueError(f"support monomial {pair} must have 1 <= i < j <= dim")
                mons.append((i, j))
            object.__setattr__(self, "support", tuple(sorted(set(mons))))

    def effective_support(self) -> tuple[tuple[int, int], ...]:
        if self.support is not None:
            return self.support
        n = self.base.dim
        comps = self.X.components
        return tuple(
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if not comps[i - 1] and not comps[j - 1]
        )

    def candidate_count(self) -> int:
        support = self.effective_support()
        k = len(self.coefficients) - 1  # nonzero choices
        return sum(comb(len(support), t) * k**t for t in range(min(self.max_terms, len(support)) + 1))


@dataclass(frozen=True)
class SearchHit:
    f0: KForm
    report: ShearReport
    sheared: LieAlgebra


def enumerate_f0(spec: SearchSpec) -> list[SearchHit]:
    """All valid, structure-preserving deformations, in canonical order.

    Candidates are ordered by (term count, monomial tuple, coefficient tuple);
    each hit passes validate_shear, every preservation predicate, and a
    Jacobi re-check of the constructed algebra.  The (base, X, alpha) part
    of the shear is prepared once, before the first candidate.
    """
    count = spec.candidate_count()
    if count > spec.cap:
        raise SearchSpaceError(count, spec.cap)
    support = spec.effective_support()
    nonzero = tuple(c for c in spec.coefficients if c)
    n = spec.base.dim
    base = ShearBase.prepare(spec.base, spec.X, spec.alpha)
    hits: list[SearchHit] = []
    for t in range(min(spec.max_terms, len(support)) + 1):
        for monomials in combinations(support, t):
            for coeffs in product(nonzero, repeat=t):
                terms = {}
                for (i, j), c in zip(monomials, coeffs):
                    terms[(1 << (i - 1)) | (1 << (j - 1))] = c
                f0 = KForm(n, 2, terms)
                data = ShearData(X=spec.X, alpha=spec.alpha, F0=f0, a=spec.a)
                report = validate_shear(spec.base, data, base)
                if not report.valid:
                    continue
                if not all(preserves_closure(spec.base, spec.X, f0, s) for s in spec.preserve):
                    continue
                sheared = shear_candidate(spec.base, data)
                if not sheared.jacobi_check().passed:
                    raise AssertionError(
                        f"validity/Jacobi equivalence broken for F0 = {f0}"
                    )
                hits.append(SearchHit(f0=f0, report=report, sheared=sheared))
    return hits
