"""Bounded exhaustive enumeration of deformation two-forms giving valid shears."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm
from operator import mul

from ._value import Value, slot_setters
from .exterior import DEFAULT_CAP, Coeff, KForm, Vector, _as_coeff, _as_fraction, _stored, interior, merge_sign, wedge
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
        return tuple(combinations([i for i, x in enumerate(self.X.components, 1) if not x], 2))

    def candidate_count(self) -> int:
        return _box_count(self, len(self.effective_support()))


def _box_count(spec: SearchSpec, size: int) -> int:
    """The candidates of `spec` on a support of `size` monomials."""
    k = len(spec.coefficients) - 1  # nonzero choices
    return sum(comb(size, t) * k**t for t in range(min(spec.max_terms, size) + 1))


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
    """All valid, structure-preserving deformations, in canonical order:
    by term count, then monomial tuple, then coefficient tuple.

    A search is a plan and a walk.  The plan (_Plan), built once per search,
    holds everything fixed before the first candidate: the box count under
    the cap, which the spec keeps for the CLI's report, the checked and split
    base (decompose_dalpha), each support monomial's condition column, and
    the per-search constants.  The walk drops a leg-free monomial set unbuilt
    when d(eta) != 0 or when it is one monomial with a nonzero column, and a
    leg-free candidate whose columns times its coefficients do not sum to
    zero.  Every other candidate goes through validate_shear, which judges
    it again from the base's monomial defects; an X-leg candidate must also
    have F0 ^ (X . sigma) = 0 on each leg.  A hit's algebra is built by
    _sheared, behind the Jacobi guard.
    """
    plan = _Plan(spec)
    object.__setattr__(spec, "_count", plan.count)  # for the CLI to report; not a field, and only a search sets it
    g, X, alpha, a, trusted = spec.base, spec.X, spec.alpha, spec.a, ShearData._trusted
    nonzero, scaled, neg_inv_a, legs, eta_closed = plan.nonzero, plan.scaled, plan.neg_inv_a, plan.legs, plan.eta_closed
    unit = neg_inv_a == 1  # F_eff is F0 itself
    hits: list[SearchHit] = []
    for t in range(min(spec.max_terms, len(plan.masks)) + 1):
        for mons, cols in zip(combinations(plan.masks, t), combinations(plan.columns, t)):
            screened = None not in cols
            # no nonzero multiple of one nonzero column vanishes
            if screened and (not eta_closed or t == 1 and any(cols[0])):
                continue
            rows = [r for r in zip(*cols) if any(r)] if screened else []
            for coeffs, ks in zip(product(nonzero, repeat=t), product(scaled, repeat=t)):
                if rows and any(sum(map(mul, ks, r)) for r in rows):
                    continue
                f0 = _stored(g.dim, 2, dict(zip(mons, coeffs)))  # stored coefficients, distinct masks
                report = validate_shear(g, trusted(X, alpha, f0, a, f0 if unit else f0 * neg_inv_a))
                if report.valid and (screened or all(wedge(f0, leg).is_zero() for leg in legs)):
                    hits.append(SearchHit(f0, report, _sheared(report)))
    return hits


class _Plan:
    """What a search fixes before its first candidate, in one pass over the
    spec: the support (SearchSpec.effective_support) and its box count, refused
    over the cap; the base, checked and split once (decompose_dalpha); a != 0
    and -1/a; the nonzero coefficients in stored form, and on integers;
    the legs X . sigma; and each support monomial as its mask and condition
    column (_condition_columns), in two lists.
    """

    __slots__ = ("count", "masks", "columns", "legs", "nonzero", "scaled", "neg_inv_a", "eta_closed")

    def __init__(self, spec: SearchSpec):
        support = spec.effective_support()
        self.count = _box_count(spec, len(support))
        if self.count > spec.cap:
            raise SearchSpaceError(self.count, spec.cap)
        base = decompose_dalpha(spec.base, spec.X, spec.alpha)
        if not spec.a:
            raise ShearDataError("transfer constant a must be nonzero")
        self.neg_inv_a = _as_coeff(-1 / spec.a)
        self.nonzero = tuple(_as_coeff(c) for c in spec.coefficients if c)  # stored form: ints stay ints
        scale = lcm(*(c.denominator for c in self.nonzero))
        self.scaled = tuple(int(c * scale) for c in self.nonzero)
        self.masks = [(1 << i - 1) | (1 << j - 1) for i, j in support]
        self.legs = [interior(spec.X, s) for s in spec.preserve]
        self.columns = _condition_columns(base, self.masks, self.legs)
        self.eta_closed = base.eta_closed


def _condition_columns(base: ShearBase, masks: list[int], legs: list[KForm]) -> list[tuple[Coeff, ...] | None]:
    """The image of each monomial e_m of `masks` under the linear conditions, on
    common rows: its defect (ShearBase.defect) and each e_m ^ (X . sigma), with
    `legs` the X . sigma.  Both are read from term dicts, the wedge signed by
    merge_sign, as a leg need not be a one-form.  A row is a defect's mask,
    or the mask of a term of e_m ^ leg k tagged with k above the frame's n
    bits.  None marks a monomial with an X-leg, on which the conditions are
    not linear.
    """
    n, xmask = base.g.dim, base._xmask
    images = [None if mask & xmask else {**base.defect(mask).terms, **{
        k << n | m | mask: c if merge_sign(mask, m) > 0 else -c
        for k, leg in enumerate(legs, 1) for m, c in leg.terms.items() if not m & mask}} for mask in masks]
    rows = sorted({r for image in images if image is not None for r in image})
    return [None if image is None else tuple([image.get(r, 0) for r in rows]) for image in images]
