"""Bounded exhaustive enumeration of deformation two-forms giving valid shears."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm
from operator import mul

from ._value import Value, slot_setters
from .exterior import DEFAULT_CAP, Coeff, KForm, Vector, _as_coeff, _as_fraction, _make, _stored, interior, wedge
from .lie import LieAlgebra
from .shear import ShearBase, ShearData, ShearDataError, ShearReport, _sheared, decompose_dalpha, validate_shear


class SearchSpaceError(ValueError):
    """Candidate count exceeds the cap; exhaustive-by-contract refuses to truncate."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"search space has {count} candidates, cap is {cap}")
        self.count = count
        self.cap = cap


class SearchSpecError(ValueError):
    """A SearchSpec field is out of range or does not fit the base algebra."""


class SearchSpec(Value):
    """Search space: F0 = sum of coefficients over support monomials.

    Default support is every frame monomial of Lambda^2 Ann(X); coefficients
    must include 0 (absent terms).
    """

    _fields = ("base", "X", "alpha", "a", "coefficients", "support", "max_terms", "preserve", "cap")

    def __init__(self, base: LieAlgebra, X: Vector, alpha: KForm, a: Fraction = Fraction(-1),
                 coefficients: tuple[Fraction, ...] = (Fraction(-1), Fraction(0), Fraction(1)),
                 support: tuple[tuple[int, int], ...] | None = None, max_terms: int = 1,
                 preserve: tuple[KForm, ...] = (), cap: int = DEFAULT_CAP):
        super().__init__(base, X, alpha, a, coefficients, support, max_terms, preserve, cap)
        n = self.base.dim
        for name, value in (("X", self.X), ("alpha", self.alpha),
                            *((f"preserve[{k}]", s) for k, s in enumerate(self.preserve))):
            if value.dim != n:
                raise SearchSpecError(f"{name} has dimension {value.dim}, the base has dimension {n}")
        coeffs = tuple(sorted({_as_fraction(c) for c in self.coefficients}))
        if Fraction(0) not in coeffs:
            raise SearchSpecError("coefficient set must contain 0")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "a", _as_fraction(self.a))
        for name in ("max_terms", "cap"):
            value = getattr(self, name)
            if not _is_int(value):
                raise SearchSpecError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise SearchSpecError(f"{name} must be nonnegative")
        if self.support is not None:
            mons = []
            for pair in self.support:
                if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(_is_int, pair))):
                    raise SearchSpecError(f"support entry {pair!r} must be a pair of ints")
                i, j = pair
                if not 1 <= i < j <= n:
                    raise SearchSpecError(f"support monomial {pair} must have 1 <= i < j <= dim")
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class SearchHit(Value):
    __slots__ = _fields = ("f0", "report", "sheared")

    def __init__(self, f0: KForm, report: ShearReport, sheared: LieAlgebra):
        _set_f0(self, f0)
        _set_report(self, report)
        _set_sheared(self, sheared)


_set_f0, _set_report, _set_sheared = slot_setters(SearchHit)


def enumerate_f0(spec: SearchSpec) -> list[SearchHit]:
    """All valid, structure-preserving deformations, in canonical order.

    Candidates are ordered by (term count, monomial tuple, coefficient tuple).
    The (base, X, alpha) part is checked and split before the first
    candidate (decompose_dalpha); the base algebra keeps that ShearBase, and
    every validate_shear reads it, caches and all.  A leg-free candidate
    whose condition columns, times its coefficients, do not sum to zero (or
    any, when eta is not closed) is dropped unbuilt; a survivor preserves
    every form, and validate_shear confirms it from the base's per-mask
    monomial defects, with nu the shared zero one-form and no defect form
    built.  A candidate with an X-leg goes through validate_shear and the
    test F0 ^ (X . sigma) = 0 of preserves_closure, on the legs X . sigma
    computed once per search.  F0 is assembled from stored nonzero
    coefficients on distinct masks, so `_stored` takes them unchecked, and
    F_eff = -(1/a) F0 from -1/a, computed once per search: F_eff is F0
    itself when -1/a is 1.  A monomial set whose condition columns are all
    zero has no row to test.  Each hit's algebra is built by _sheared from
    the base's plan (ShearBase.plan): the generators X touches, whose d e_k
    it replaces, and the Jacobi re-check set, which adds those whose d e_k
    has a monomial on one of them.  Each replaced d e_k + x_k F_eff is the two
    term dicts merged when x_k = 1 and F_eff has no monomial of d e_k, and
    summed otherwise (_shear_by).  Every other d(d e_k) is the base's, zero
    when the base passes (LieAlgebra._replacing); a base that fails gets the
    full check.  The guard sums each re-checked d(d e_k) into a term dict
    from the built algebra's own d e_k, by the rule of LieAlgebra.d, and
    builds a form only for a failure; every passing algebra shares one
    JacobiReport(True, ()).  F0, the shear data, the reports and the hits
    are slotted values with no instance dict.
    """
    count = spec.candidate_count()
    if count > spec.cap:
        raise SearchSpaceError(count, spec.cap)
    support = spec.effective_support()
    nonzero = tuple(_as_coeff(c) for c in spec.coefficients if c)  # stored form: ints stay ints
    scale = lcm(*(c.denominator for c in nonzero))
    scaled = tuple(int(c * scale) for c in nonzero)
    g, X, alpha, a, trusted = spec.base, spec.X, spec.alpha, spec.a, ShearData._trusted
    base = decompose_dalpha(g, X, alpha)
    if not a:
        raise ShearDataError("transfer constant a must be nonzero")
    neg_inv_a = _as_coeff(-1 / a)
    unit = neg_inv_a == 1  # F_eff is F0 itself
    masks = {(i, j): (1 << (i - 1)) | (1 << (j - 1)) for i, j in support}
    legs = [interior(X, s) for s in spec.preserve]
    columns = _condition_columns(base, masks, legs)
    hits: list[SearchHit] = []
    for t in range(min(spec.max_terms, len(support)) + 1):
        for monomials in combinations(support, t):
            cols = [columns[m] for m in monomials]
            screened = None not in cols
            if screened and not base.eta_closed:
                continue
            rows = [r for r in zip(*cols) if any(r)] if screened else []
            mons = [masks[m] for m in monomials]
            for coeffs, ks in zip(product(nonzero, repeat=t), product(scaled, repeat=t)):
                if rows and any(sum(map(mul, ks, r)) for r in rows):
                    continue
                f0 = _stored(g.dim, 2, dict(zip(mons, coeffs)))
                report = validate_shear(g, trusted(X, alpha, f0, a, f0 if unit else f0 * neg_inv_a))
                if report.valid and (screened or all(wedge(f0, leg).is_zero() for leg in legs)):
                    hits.append(SearchHit(f0, report, _sheared(report)))
    return hits


def _condition_columns(base: ShearBase, masks: dict[tuple[int, int], int], legs: list[KForm]
                       ) -> dict[tuple[int, int], tuple[Coeff, ...] | None]:
    """Image of each support monomial e_m under the linear conditions, on common rows.

    `masks` maps each support monomial (i, j) to its bitmask.  The
    conditions are the base's monomial `defect` and each e_m ^ (X . sigma),
    with `legs` the X . sigma.  None marks a monomial with an X-leg, on
    which they are not linear.
    """
    n = base.g.dim
    images = {mon: None if mask & base._xmask
              else [base.defect(mask), *(wedge(_make(n, 2, {mask: 1}), leg) for leg in legs)]
              for mon, mask in masks.items()}
    rows = sorted({(k, m) for image in images.values() if image is not None
                   for k, f in enumerate(image) for m in f.terms})
    return {mon: None if image is None else tuple(image[k].terms.get(m, 0) for k, m in rows)
            for mon, image in images.items()}
