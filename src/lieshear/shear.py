"""Twist and shear constructions, validity checking, and the transfer differential.

A shear is given by (X, alpha, F0, a): a vector X spanning a one-dimensional
ideal, a one-form alpha with alpha(X) = 1, a deformation two-form F0 and a
nonzero constant a.  Internally everything runs on F_eff = -(1/a) * F0, so the
a = -1 convention reproduces the deformation F0 verbatim while other constants
feed through one code path.

The new algebra keeps every differential on Ann(X) and replaces the generator
dual to X; on the common frame this reads d_new e_j = d e_j + e_j(X) * F_eff,
which is exactly the transfer differential d_S applied to e_j.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Sequence

from . import linalg
from ._value import Value, slot_setters
from .exterior import (MAX_DIM, Coeff, KForm, Vector, _as_coeff, _as_fraction, _make, _stored, form_matrix,
                       interior, one_form, wedge)
from .lie import LieAlgebra, _columns, _d_terms

#: conditions that decide validity (the rest are geometric diagnostics;
#: eta0_vanishes_on_xi holds for all shear data, see validate_shear)
REQUIRED_CONDITIONS = (
    "xi_ideal",
    "df_eff_eq_eta0_wedge_f_eff",
    "eta0_closed",
)
_required = itemgetter(*REQUIRED_CONDITIONS)  # a report's required values, in one call


class ShearDataError(ValueError):
    """Shear data violates a structural precondition (not a validity condition)."""


class InvalidShearError(ValueError):
    """Shear data fails the validity conditions; carries the full report."""

    def __init__(self, report: "ShearReport"):
        failed = [k for k, v in report.conditions.items() if v is False and k in REQUIRED_CONDITIONS]
        super().__init__(f"invalid shear data, failed: {', '.join(failed)}")
        self.report = report


class ShearData(Value):
    """Input of one shear: X spans the ideal, alpha(X) = 1, F0 deforms, a transfers.

    F_eff = -(1/a) F0 is kept in the slot `f_eff`, which is not a field.
    """

    _fields = ("X", "alpha", "F0", "a", "eta_g")
    __slots__ = (*_fields, "f_eff")

    def __init__(self, X: Vector, alpha: KForm, F0: KForm, a: Fraction = Fraction(-1),
                 eta_g: KForm | None = None):
        a = _as_fraction(a)
        dims = {X.dim, alpha.dim, F0.dim}
        if eta_g is not None:
            dims.add(eta_g.dim)
        if len(dims) != 1:
            raise ShearDataError(f"mixed dimensions in shear data: {sorted(dims)}")
        if alpha.degree != 1:
            raise ShearDataError("alpha must be a one-form")
        if not (F0.degree == 2 or F0.is_zero()):
            raise ShearDataError("F0 must be a two-form")
        if eta_g is not None and not (eta_g.degree == 1 or eta_g.is_zero()):
            raise ShearDataError("eta_g must be a one-form")
        if a == 0:
            raise ShearDataError("transfer constant a must be nonzero")
        pairing = alpha(X)
        if pairing != 1:
            raise ShearDataError(f"alpha(X) must be 1, got {pairing}")
        if eta_g is not None and eta_g.degree == 1:
            val = eta_g(X)
            if val != 0:
                raise ShearDataError(f"eta_g(X) must vanish, got {val}")
        _set_X(self, X)
        _set_alpha(self, alpha)
        _set_F0(self, F0)
        _set_a(self, a)
        _set_eta_g(self, eta_g)
        _set_data_f_eff(self, F0 * (-1 / a))

    @classmethod
    def _trusted(cls, X: Vector, alpha: KForm, F0: KForm, a: Fraction, f_eff: KForm) -> "ShearData":
        """ShearData without the checks of __init__, for a search: one per
        candidate that reaches validate_shear, its slots filled by their setters.

        The caller vouches for them: decompose_dalpha checked X and alpha,
        a is a nonzero Fraction, F0 a two-form of the same dimension, and
        f_eff is -(1/a) * F0.
        """
        data = object.__new__(cls)
        _set_X(data, X)
        _set_alpha(data, alpha)
        _set_F0(data, F0)
        _set_a(data, a)
        _set_eta_g(data, None)
        _set_data_f_eff(data, f_eff)
        return data


_set_X, _set_alpha, _set_F0, _set_a, _set_eta_g, _set_data_f_eff = slot_setters(ShearData)


class ShearReport(Value):
    """Every shear condition of one F0, with `decomp` the base it was judged on."""

    __slots__ = _fields = ("valid", "decomp", "eta_prime", "eta_0", "f_prime", "nu", "f_eff", "conditions")
    _hidden = ("conditions",)

    def __init__(self, valid: bool, decomp: ShearBase, eta_prime: KForm, eta_0: KForm,
                 f_prime: KForm, nu: KForm, f_eff: KForm, conditions: dict[str, bool | None]):
        _set_valid(self, valid)
        _set_decomp(self, decomp)
        _set_eta_prime(self, eta_prime)
        _set_eta_0(self, eta_0)
        _set_f_prime(self, f_prime)
        _set_nu(self, nu)
        _set_f_eff(self, f_eff)
        _set_conditions(self, conditions)

    # the paper's eta_tilde and f_tilde restate the fields, so they are read off them
    @property
    def eta_tilde(self) -> KForm:
        return self.eta_0  # eta - X . F_eff, as eta_prime = -X . F_eff

    @property
    def f_tilde(self) -> KForm:
        return self.decomp.f + self.f_prime


(_set_valid, _set_decomp, _set_eta_prime, _set_eta_0, _set_f_prime, _set_nu, _set_f_eff,
 _set_conditions) = slot_setters(ShearReport)


def check_xi_ideal(g: LieAlgebra, X: Vector) -> KForm | None:
    """None when span(X) is an ideal, else a covector w of Ann(X) with i_X dw != 0.

    (i_X dw)(E_i) = -w([X, E_i]) = w([E_i, X]): one pass of the bracket formula
    gives every b = [E_i, X], on integer multiples, as a zero test is blind to
    scale.  With x_q the last nonzero coordinate of X, span(X) is an ideal
    when x_q b = b_q x for every b: a zero b passes untested, any other in
    one comparison.  Only when a column fails is the witness sought: Ann(X)
    has the reduced echelon basis w_j = e_j - (x_j/x_q) e_q, j != q, and
    x_q w_j(b) is the cross product x_q b_j - x_j b_q, so the first w_j with
    one nonzero is returned.  Span(0) is the zero ideal.
    """
    x = linalg.primitive(X.components)
    q = next((q for q in reversed(range(g.dim)) if x[q]), None)
    if q is None:
        return None
    brackets = _columns(g._int_terms()[1], x)
    xq = x[q]
    if all(not any(b) or [xq * c for c in b] == [b[q] * c for c in x] for b in brackets):
        return None
    # a failing column differs at some j, never at q, where both sides are x_q b_q
    for j, xj in enumerate(x):
        if j != q and any(xq * b[j] - xj * b[q] for b in brackets):
            return one_form([Fraction(k == j) if k != q else Fraction(-xj, xq) for k in range(g.dim)])


#: the last two bases decompose_dalpha built, newest first: the one memo of
#: the process, replaced whole by one assignment of a new tuple
_BASES: tuple[ShearBase, ...] = ()


def decompose_dalpha(g: LieAlgebra, X: Vector, alpha: KForm) -> ShearBase:
    """The shear's base: (g, X, alpha) checked, and d(alpha) = eta ^ alpha + f
    split with eta = -X . d(alpha) and f killing X.

    The process keeps the last two bases built here, newest first, and no
    algebra holds one: a call on the same g (by identity) with equal X and
    alpha returns its base itself, caches and all, without the checks,
    which they passed, or the split.  Two, because a shear round trip
    needs two: validating and applying on g, inverting and applying back on
    the sheared algebra, then probing g again split each d(alpha) once.
    Memory held for bases is bounded, and a dropped algebra is freed once
    it has left the memo.  The memo is replaced whole, by one assignment of
    a new tuple, so a thread reads one state or the other, and a race costs
    only a recomputation.  A failing (X, alpha) is not kept, and raises on
    every call.
    """
    global _BASES
    for base in _BASES:
        # a tuple compares its items by identity first, then by ==
        if base.g is g and (base.X, base.alpha) == (X, alpha):
            return base
    if X.dim != g.dim:
        raise ShearDataError(f"dimension mismatch: {X.dim} vs {g.dim}")
    if alpha(X) != 1:
        raise ShearDataError(f"alpha(X) must be 1, got {alpha(X)}")
    bad = check_xi_ideal(g, X)
    if bad is not None:
        raise ShearDataError(f"span(X) is not an ideal: i_X d({bad}) != 0")
    dalpha = g.d(alpha)
    eta = -interior(X, dalpha)
    # eta(X) = -dalpha(X, X) = 0, and X . f = X . dalpha + eta = 0 as alpha(X) = 1
    base = ShearBase(g=g, X=X, alpha=alpha, eta=eta, f=dalpha - wedge(eta, alpha))
    _BASES = (base, *_BASES[:1])
    return base


class ShearBase(Value):
    """The part of a shear fixed by (g, X, alpha): d(alpha) = eta ^ alpha + f,
    with both parts annihilating X.

    decompose_dalpha checks and splits it once and keeps it among the last
    two bases of the process (two for a shear round trip, on g and on the
    sheared algebra; the memo is replaced whole, so threads read whole
    states), so its caches (`plan`, `eta_closed`, the monomial defects) are
    computed once per (g, X, alpha) while it is kept.  validate_shear then
    only does the work that depends on F0, a and eta_g.  For an F0 with
    X . F0 = 0, `leg_free_defect` and `eta_closed` decide validity.  The
    base holds X's support as a mask: a two-form F0 with no monomial on it
    has nu = X . F0 = 0, the shared zero one-form.
    Each monomial's defect d e_m - eta ^ e_m is built once, in one term
    dict (`defect`), and read by mask by leg_free_defect and the search.
    """

    _fields = ("g", "X", "alpha", "eta", "f")

    def __init__(self, g: LieAlgebra, X: Vector, alpha: KForm, eta: KForm, f: KForm):
        # not fields: the mask of X's support and the cache of the monomial defects
        xmask = sum(1 << k for k, x in enumerate(X.components) if x)
        self.__dict__.update(g=g, X=X, alpha=alpha, eta=eta, f=f, _xmask=xmask, _defects={})

    @property
    def eta_bracket(self) -> KForm:
        """The one-form with [A, X] = eta_bracket(A) * X, which is -eta.

        By the sign convention d(alpha)(A, B) = -alpha([A, B]): as X spans an
        ideal and alpha(X) = 1, eta_bracket(A) = alpha([A, X])
        = -d(alpha)(A, X) = d(alpha)(X, A) = (X . d(alpha))(A) = -eta(A).
        """
        return -self.eta

    @cached_property
    def plan(self) -> tuple[tuple[tuple[int, Coeff], ...], tuple[int, ...]]:
        """(_support(X), the generators the guard's Jacobi re-check reads):
        LieAlgebra._recheck of the support, every one when g fails Jacobi."""
        return _support(self.X), self.g._recheck(self._xmask)

    @cached_property
    def eta_closed(self) -> bool:
        """d(eta) = 0, which is eta0_closed for every F0 with X . F0 = 0."""
        return self.g.d(self.eta).is_zero()

    def leg_free_defect(self, f0: KForm) -> KForm:
        """dF0 - eta ^ F0, for an F0 with X . F0 = 0.

        Such an F0 has eta_0 = eta and F_eff = -(1/a) F0, so it satisfies
        df_eff_eq_eta0_wedge_f_eff, for every a, exactly when this is zero:
        with eta_closed, the required conditions are linear in F0.  So F0's
        defect is the combination of its monomials' `defect`s.
        """
        return _make(self.g.dim, 3, self._leg_free_terms(f0))

    def _leg_free_terms(self, f0: KForm) -> dict[int, Coeff]:
        """The terms of leg_free_defect(f0), zeros of cancelled sums kept."""
        terms: dict[int, Coeff] = {}
        for mask, c in f0.terms.items():
            for m, v in (self._defects.get(mask) or self.defect(mask)).terms.items():
                terms[m] = terms[m] + c * v if m in terms else c * v
        return terms

    def defect(self, mask: int) -> KForm:
        """d e_m - eta ^ e_m for the two-form monomial e_m of `mask`, built
        once per base by `_monomial_defect` and then read by mask."""
        defect = self._defects.get(mask)
        if defect is None:
            defect = self._defects[mask] = _monomial_defect(self.g, self.eta, mask)
        return defect


# immutable, so one per dimension serves every shear's nu = 0
_ZERO_ONE_FORMS = {n: KForm.zero(n, 1) for n in range(1, MAX_DIM + 1)}


def _monomial_defect(g: LieAlgebra, eta: KForm, mask: int) -> KForm:
    """d e_m - eta ^ e_m for the monomial e_m of `mask`, in one term dict:
    e_b ^ e_m is sorted across the bits of m below b."""
    terms = _d_terms(g.diffs, ((mask, 1),), {})
    for b, c in eta.terms.items():
        if not b & mask:
            m = b | mask
            v = c if (mask & (b - 1)).bit_count() & 1 else -c
            terms[m] = terms[m] + v if m in terms else v
    return _make(g.dim, 3, terms)


def validate_shear(g: LieAlgebra, data: ShearData) -> ShearReport:
    """Evaluate every shear condition; validity means the sheared algebra exists.

    The report's base is decompose_dalpha(g, data.X, data.alpha), one of the
    last two bases the process keeps (two for a shear round trip; replaced
    whole, so threads read whole states), so many F0 on one (g, X, alpha)
    in a row share its split and its caches.

    eta0_vanishes_on_xi is reported True without evaluation, because it holds
    for all shear data: eta_0 = eta - X . F_eff, where eta(X) = -dalpha(X, X) = 0
    and (X . F_eff)(X) = F_eff(X, X) = 0, both forms being alternating.
    """
    base = decompose_dalpha(g, data.X, data.alpha)
    if data.eta_g is not None and not g.d(data.eta_g).is_zero():
        raise ShearDataError("eta_g must be closed")
    f_eff = data.f_eff
    f0 = data.F0
    # an F0 with no monomial on X's support (ShearData admits a two-form or a
    # zero F0) has nu = X . F0 = 0, taken without the interior product
    nu = _ZERO_ONE_FORMS[g.dim]
    xmask = base._xmask
    for m in f0.terms:
        if m & xmask:
            nu = interior(data.X, f0)
            break
    if not nu.terms:
        # eta' = 0 and d(nu) = 0: eta_0 = eta and f' = F_eff, so the required
        # conditions are base.eta_closed and leg_free_defect(F0) = 0
        eta_prime, eta_0, f_prime = nu, base.eta, f_eff
        df_ok = not any(base._leg_free_terms(f0).values())  # leg_free_defect(F0) = 0, built as no form
        eta0_closed = base.eta_closed
        dnu_wedge_nu_zero = dnu_zero = True
    else:
        eta_prime = nu * (1 / data.a)  # -X . F_eff, as F_eff = -(1/a) F0
        eta_0 = base.eta + eta_prime  # eta - X . F_eff
        f_prime = f_eff - wedge(eta_prime, data.alpha)
        df_ok = g.d(f_eff) == wedge(eta_0, f_eff)
        eta0_closed = g.d(eta_0).is_zero()
        dnu = g.d(nu)
        dnu_wedge_nu_zero = wedge(dnu, nu).is_zero()
        dnu_zero = dnu.is_zero()
    conditions: dict[str, bool | None] = {
        "xi_ideal": True,  # established by decompose_dalpha
        "df_eff_eq_eta0_wedge_f_eff": df_ok,
        "eta0_closed": eta0_closed,
        "eta0_vanishes_on_xi": True,  # an identity, see the docstring
        "dnu_wedge_nu_zero": dnu_wedge_nu_zero,
        "dnu_zero": dnu_zero,
        "f0_compatible_with_eta_g": (
            None if data.eta_g is None else g.d(f0) == wedge(data.eta_g, f0)
        ),
    }
    valid = all(_required(conditions))
    return ShearReport(valid, base, eta_prime, eta_0, f_prime, nu, f_eff, conditions)


def shear_candidate(g: LieAlgebra, data: ShearData) -> LieAlgebra:
    """The would-be sheared algebra, built without any validity requirement.

    d_new e_j = d e_j + e_j(X) * F_eff on the common frame; passes the Jacobi
    check exactly when validate_shear reports valid, by the full check.
    """
    return _shear_by(g, _support(data.X), data.f_eff, range(g.dim))


def apply_shear(g: LieAlgebra, data: ShearData) -> LieAlgebra:
    """Shear g by the given data; raises InvalidShearError when conditions fail."""
    return _sheared(validate_shear(g, data))


def _sheared(report: ShearReport) -> LieAlgebra:
    """The algebra of a validated shear, read off its report alone: the
    algebra and the plan from its base, F_eff from its fields.

    An algebra failing Jacobi raises: the runtime guard of the validity <=>
    Jacobi equivalence, kept under `python -O`.  It checks d(d e_k) on the
    plan's re-check set only (LieAlgebra._replacing).
    """
    if not report.valid:
        raise InvalidShearError(report)
    base = report.decomp
    support, recheck = base.plan
    sheared = _shear_by(base.g, support, report.f_eff, recheck)
    if not sheared.jacobi_check().passed:
        raise AssertionError(f"validity/Jacobi equivalence broken for F_eff = {report.f_eff}")
    return sheared


def _support(X: Vector) -> tuple[tuple[int, Coeff], ...]:
    """(k, x_k) for each nonzero component x_k of X (k 0-based, x_k an int
    when integral): the generators whose d e_k a shear along X replaces."""
    return tuple([(k, _as_coeff(x)) for k, x in enumerate(X.components) if x])


def _shear_by(g: LieAlgebra, support: tuple[tuple[int, Coeff], ...], f_eff: KForm,
              check: Sequence[int]) -> LieAlgebra:
    """The algebra with d e_j + x_j * F_eff on the common frame: the one shear formula.

    `support` is _support(X); the Jacobi report reads d(d e_k) for the k of
    `check` only (LieAlgebra._replacing).  When x_k = 1 and no mask of
    F_eff is one of d e_k, the sum is the two stored term dicts merged, as
    every value is canonical already; otherwise it is summed and `_make`
    drops the zeros and demotes integral Fractions.
    """
    replaced = []
    fterms = f_eff.terms
    for k, x in support:
        dk = g.diffs[k].terms
        if x == 1 and dk.keys().isdisjoint(fterms):
            replaced.append((k, _stored(g.dim, 2, {**dk, **fterms})))
            continue
        # summed in one pass into a two-form, whatever the degree of a zero F_eff
        terms = dict(dk)
        for m, c in fterms.items():
            v = x * c
            terms[m] = terms[m] + v if m in terms else v
        replaced.append((k, _make(g.dim, 2, terms)))
    return LieAlgebra._replacing(g, replaced, check)


def ds_form(g: LieAlgebra, data: ShearData, form: KForm) -> KForm:
    """Transfer differential d_S(form) = d(form) - (1/a) F0 ^ (X . form).

    For a valid shear this equals the sheared algebra's differential of the
    transferred form (same coefficients on the common frame).
    """
    if form.dim != g.dim:
        raise ValueError(f"dimension mismatch: {form.dim} vs {g.dim}")
    return g.d(form) + wedge(data.f_eff, interior(data.X, form))


def is_automorphic(g: LieAlgebra, data: ShearData, form: KForm) -> tuple[bool, KForm]:
    """Test L_X form = gamma ^ (X . form) with gamma = (1/a)(X . F0) - eta_g."""
    if data.eta_g is None:
        raise ShearDataError("is_automorphic needs eta_g in the shear data")
    nu = interior(data.X, data.F0)
    gamma = nu * (1 / data.a) - data.eta_g
    lhs = g.lie_derivative(data.X, form)
    rhs = wedge(gamma, interior(data.X, form))
    return lhs == rhs, gamma


def invert_shear(g_sheared: LieAlgebra, data: ShearData) -> ShearData:
    """Data shearing g_sheared back to the original: F0 negated, rest kept.

    Raises InvalidShearError if the inverted data fails validation on the
    sheared algebra (it never does when `data` was valid on the original).
    """
    inverse = ShearData(X=data.X, alpha=data.alpha, F0=-data.F0, a=data.a)
    report = validate_shear(g_sheared, inverse)
    if not report.valid:
        raise InvalidShearError(report)
    return inverse


class TwistError(ValueError):
    """Twist preconditions (filtration membership, closedness) violated."""


def apply_twist(g: LieAlgebra, alpha: KForm, f2: KForm) -> LieAlgebra:
    """Twist a nilpotent algebra: d(beta) = d(alpha) + F for closed F in Lambda^2 V_1.

    The twist runs along the circle fibre: Z is the echelon basis of
    n^(r-1), the last nonzero lower-central term, or on an abelian base of
    ker F, the `nullspace` of F's matrix (`form_matrix`, the matrix whose
    rank decides `symplectic_check`), and X = z / alpha(z) for z the last
    row of Z with alpha(z) != 0.  As Z is reduced, X is the one vector of
    span(Z) with alpha(X) = 1 that vanishes at the pivots of the other rows
    of Z.  The shear path with a = -1 then gives the new differential
    d e_j + e_j(X) F, the direct twist construction, as both eta parts
    vanish.  The echelon basis, so X, depends on the frame: with dim Z >= 2,
    two frames can give twists that differ by e_j(Y) F, Y in Z with
    alpha(Y) = 0.
    """
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
    if rep.is_abelian:
        # ker F = {v : i_v F = 0}, the kernel of F's matrix, whose rows are the i_{E_i} F
        zs = [*map(Vector, linalg.nullspace(form_matrix(f2), g.dim))]
    else:
        zs = [*map(Vector, rep.lower_central[-2])]
    z = next((v for v in reversed(zs) if alpha(v)), None)
    if z is None:
        # alpha kills Z: it lies in V1 = Ann(n^(r-1)), or on an abelian base,
        # where V1 = 0, it is zero or lies in span{i_v F} = Ann(ker F)
        if rep.is_abelian and not alpha.is_zero():
            raise TwistError("F must have no alpha-leg on an abelian base")
        raise TwistError("alpha must lie outside V1")
    if not rep.is_abelian:
        # F lies in Lambda^2 V1 exactly when i_v F = 0 for the vectors V1 kills:
        # as V1 = Ann(n^(r-1)), they have the echelon basis Z of n^(r-1)
        for v in zs:
            leg = interior(v, f2)
            if not leg.is_zero():
                from .literals import format_vector  # for the message alone

                raise TwistError(f"F is not in Lambda^2 V1: i_v F = {leg} for v = {format_vector(v)}")
    # both eta parts vanish, so the shear is the twist.  eta(A) = -d(alpha)(X, A)
    # = alpha([X, A]) is zero, as X lies in n^(r-1) and [g, n^(r-1)] = n^(r) = 0,
    # or g is abelian.  eta' = (1/a) X . F is zero, as X lies in span(Z) and
    # i_v F = 0 for each v of Z: checked above on a nilpotent base, and Z = ker F
    # on an abelian one
    data = ShearData(X=z * (1 / alpha(z)), alpha=alpha, F0=f2, a=Fraction(-1))
    return apply_shear(g, data)
