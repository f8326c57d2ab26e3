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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import linalg
from .exterior import KForm, Vector, _as_fraction, form_row, interior, one_form, wedge
from .lie import LieAlgebra, _columns

CONDITION_NAMES = (
    "xi_ideal",
    "df_eff_eq_eta0_wedge_f_eff",
    "eta0_closed",
    "eta0_vanishes_on_xi",
    "dnu_wedge_nu_zero",
    "dnu_zero",
    "f0_compatible_with_eta_g",
)

#: conditions that decide validity (the rest are geometric diagnostics;
#: eta0_vanishes_on_xi holds for all shear data, see validate_shear)
REQUIRED_CONDITIONS = (
    "xi_ideal",
    "df_eff_eq_eta0_wedge_f_eff",
    "eta0_closed",
)


class ShearDataError(ValueError):
    """Shear data violates a structural precondition (not a validity condition)."""


class InvalidShearError(ValueError):
    """Shear data fails the validity conditions; carries the full report."""

    def __init__(self, report: "ShearReport"):
        failed = [k for k, v in report.conditions.items() if v is False and k in REQUIRED_CONDITIONS]
        super().__init__(f"invalid shear data, failed: {', '.join(failed)}")
        self.report = report


@dataclass(frozen=True)
class ShearData:
    """Input of one shear: X spans the ideal, alpha(X) = 1, F0 deforms, a transfers."""

    X: Vector
    alpha: KForm
    F0: KForm
    a: Fraction = Fraction(-1)
    eta_g: KForm | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        dims = {self.X.dim, self.alpha.dim, self.F0.dim}
        if self.eta_g is not None:
            dims.add(self.eta_g.dim)
        if len(dims) != 1:
            raise ShearDataError(f"mixed dimensions in shear data: {sorted(dims)}")
        if self.alpha.degree != 1:
            raise ShearDataError("alpha must be a one-form")
        if not (self.F0.degree == 2 or self.F0.is_zero()):
            raise ShearDataError("F0 must be a two-form")
        if self.eta_g is not None and not (self.eta_g.degree == 1 or self.eta_g.is_zero()):
            raise ShearDataError("eta_g must be a one-form")
        if self.a == 0:
            raise ShearDataError("transfer constant a must be nonzero")
        pairing = self.alpha(self.X)
        if pairing != 1:
            raise ShearDataError(f"alpha(X) must be 1, got {pairing}")
        if self.eta_g is not None and self.eta_g.degree == 1:
            val = self.eta_g(self.X)
            if val != 0:
                raise ShearDataError(f"eta_g(X) must vanish, got {val}")

    @cached_property
    def f_eff(self) -> KForm:
        """Effective deformation -(1/a) * F0 entering the new differential."""
        return (-1 / self.a) * self.F0


@dataclass(frozen=True)
class DecompResult:
    """d(alpha) = eta ^ alpha + f with both parts annihilating X.

    eta_bracket is the one-form defined by [A, X] = eta_bracket(A) * X.  It
    is -eta, by the sign convention d(alpha)(A, B) = -alpha([A, B]): as X
    spans an ideal and alpha(X) = 1, eta_bracket(A) = alpha([A, X])
    = -d(alpha)(A, X) = d(alpha)(X, A) = (X . d(alpha))(A) = -eta(A).
    """

    eta: KForm
    f: KForm
    eta_bracket: KForm


@dataclass(frozen=True)
class ShearReport:
    valid: bool
    decomp: DecompResult
    eta_prime: KForm
    eta_0: KForm
    eta_tilde: KForm
    f_prime: KForm
    f_tilde: KForm
    nu: KForm
    f_eff: KForm
    conditions: dict[str, bool | None] = field(repr=False)


def check_xi_ideal(g: LieAlgebra, X: Vector) -> KForm | None:
    """None when span(X) is an ideal, else a covector w of Ann(X) with i_X dw != 0.

    (i_X dw)(E_i) = -w([X, E_i]) = w([E_i, X]): one pass of the bracket formula
    gives every b = [E_i, X], on integer multiples, as a zero test is blind to
    scale.  With x_q the last nonzero coordinate of X, Ann(X) has the reduced
    echelon basis w_j = e_j - (x_j/x_q) e_q, j != q, and x_q w_j(b) is the
    cross product x_q b_j - x_j b_q.  Span(0) is the zero ideal.
    """
    x = linalg.primitive(X.components)
    q = next((q for q in reversed(range(g.dim)) if x[q]), None)
    if q is None:
        return None
    brackets = _columns(g._terms(integral=True), x, g.dim)
    for j, xj in enumerate(x):
        if j != q and any(x[q] * b[j] - xj * b[q] for b in brackets):
            return one_form([Fraction(k == j) if k != q else Fraction(-xj, x[q]) for k in range(g.dim)])
    return None


def decompose_dalpha(g: LieAlgebra, X: Vector, alpha: KForm) -> DecompResult:
    """Split d(alpha) = eta ^ alpha + f with eta = -X . d(alpha), f killing X."""
    if X.dim != g.dim:
        raise ShearDataError(f"dimension mismatch: {X.dim} vs {g.dim}")
    pairing = alpha(X)
    if pairing != 1:
        raise ShearDataError(f"alpha(X) must be 1, got {pairing}")
    bad = check_xi_ideal(g, X)
    if bad is not None:
        raise ShearDataError(f"span(X) is not an ideal: i_X d({bad}) != 0")
    dalpha = g.d(alpha)
    eta = -1 * interior(X, dalpha)
    # eta(X) = -dalpha(X, X) = 0, and X . f = X . dalpha + eta = 0 as alpha(X) = 1
    f = dalpha - wedge(eta, alpha)
    return DecompResult(eta=eta, f=f, eta_bracket=-eta)  # see DecompResult


@dataclass(frozen=True)
class ShearBase:
    """The part of a shear fixed by (g, X, alpha), checked and decomposed once.

    `prepare` runs the dimension, alpha(X) = 1 and ideal checks and splits
    d(alpha) (decompose_dalpha); validate_shear then only does the work that
    depends on F0, a and eta_g.  Build one per run over many F0 on one
    (g, X, alpha); nothing outlives it.
    """

    g: LieAlgebra
    X: Vector
    alpha: KForm
    decomp: DecompResult

    @classmethod
    def prepare(cls, g: LieAlgebra, X: Vector, alpha: KForm) -> "ShearBase":
        return cls(g=g, X=X, alpha=alpha, decomp=decompose_dalpha(g, X, alpha))

    @cached_property
    def eta_closed(self) -> bool:
        """d(eta) = 0, which is eta0_closed for every F0 with X . F0 = 0."""
        return self.g.d(self.decomp.eta).is_zero()

    def leg_free_defect(self, f0: KForm) -> KForm:
        """dF0 - eta ^ F0, for an F0 with X . F0 = 0.

        Such an F0 has eta_0 = eta and F_eff = -(1/a) F0, so it satisfies
        df_eff_eq_eta0_wedge_f_eff, for every a, exactly when this is zero:
        with eta_closed, the required conditions are linear in F0.
        """
        return self.g.d(f0) - wedge(self.decomp.eta, f0)


def validate_shear(g: LieAlgebra, data: ShearData, base: ShearBase | None = None) -> ShearReport:
    """Evaluate every shear condition; validity means the sheared algebra exists.

    `base` is ShearBase.prepare(g, data.X, data.alpha), made here when None;
    a base prepared for another algebra, X or alpha raises ShearDataError.

    eta0_vanishes_on_xi is reported True without evaluation, because it holds
    for all shear data: eta_0 = eta - X . F_eff, where eta(X) = -dalpha(X, X) = 0
    and (X . F_eff)(X) = F_eff(X, X) = 0, both forms being alternating.
    """
    if base is None:
        base = ShearBase.prepare(g, data.X, data.alpha)
    else:
        for name, mine, theirs in (("algebra", base.g, g), ("X", base.X, data.X),
                                   ("alpha", base.alpha, data.alpha)):
            if mine is not theirs and mine != theirs:
                raise ShearDataError(f"shear base was prepared for another {name}")
    decomp = base.decomp
    if data.eta_g is not None and not g.d(data.eta_g).is_zero():
        raise ShearDataError("eta_g must be closed")
    f_eff = data.f_eff
    nu = interior(data.X, data.F0)
    eta_prime = (1 / data.a) * nu  # -X . F_eff, as F_eff = -(1/a) F0
    eta_0 = eta_tilde = decomp.eta + eta_prime  # both are eta - X . F_eff
    f_prime = f_eff - wedge(eta_prime, data.alpha)
    f_tilde = decomp.f + f_prime
    dnu = g.d(nu)
    conditions: dict[str, bool | None] = {
        "xi_ideal": True,  # established by ShearBase.prepare
        "df_eff_eq_eta0_wedge_f_eff": g.d(f_eff) == wedge(eta_0, f_eff),
        "eta0_closed": g.d(eta_0).is_zero(),
        "eta0_vanishes_on_xi": True,  # an identity, see the docstring
        "dnu_wedge_nu_zero": wedge(dnu, nu).is_zero(),
        "dnu_zero": dnu.is_zero(),
        "f0_compatible_with_eta_g": (
            None if data.eta_g is None else g.d(data.F0) == wedge(data.eta_g, data.F0)
        ),
    }
    valid = all(conditions[name] for name in REQUIRED_CONDITIONS)
    return ShearReport(
        valid=valid,
        decomp=decomp,
        eta_prime=eta_prime,
        eta_0=eta_0,
        eta_tilde=eta_tilde,
        f_prime=f_prime,
        f_tilde=f_tilde,
        nu=nu,
        f_eff=f_eff,
        conditions=conditions,
    )


def shear_candidate(g: LieAlgebra, data: ShearData) -> LieAlgebra:
    """The would-be sheared algebra, built without any validity requirement.

    d_new e_j = d e_j + e_j(X) * F_eff on the common frame; passes the Jacobi
    check exactly when validate_shear reports valid.
    """
    f_eff = data.f_eff
    diffs = [
        diff + comp * f_eff if comp else diff
        for diff, comp in zip(g.diffs, data.X.components)
    ]
    return LieAlgebra(diffs)


def apply_shear(g: LieAlgebra, data: ShearData) -> LieAlgebra:
    """Shear g by the given data; raises InvalidShearError when conditions fail."""
    return _sheared(g, data, validate_shear(g, data))


def _sheared(g: LieAlgebra, data: ShearData, report: ShearReport) -> LieAlgebra:
    if not report.valid:
        raise InvalidShearError(report)
    sheared = shear_candidate(g, data)
    if not sheared.jacobi_check().passed:
        raise AssertionError(f"validity/Jacobi equivalence broken for F0 = {data.F0}")
    return sheared


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
    gamma = (1 / data.a) * nu - data.eta_g
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
    n^(r-1), the last nonzero lower-central term, or of ker F on an abelian
    base, and X = z / alpha(z) for z the last row of Z with alpha(z) != 0.
    As Z is reduced, X is the one vector of span(Z) with alpha(X) = 1 that
    vanishes at the pivots of the other rows of Z.  The shear path with
    a = -1 then gives the new differential d e_j + e_j(X) F, the direct
    twist construction; the eta parts are checked to vanish.
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
        # ker F = {v : i_v F = 0}, the kernel of the rows i_{E_i} F
        legs = [form_row(interior(Vector.basis(g.dim, i), f2)) for i in range(1, g.dim + 1)]
        zs = [*map(Vector, linalg.nullspace(legs, g.dim))]
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
        from .literals import format_vector

        # F lies in Lambda^2 V1 exactly when i_v F = 0 for the vectors V1 kills:
        # as V1 = Ann(n^(r-1)), they have the echelon basis Z of n^(r-1)
        for v in zs:
            leg = interior(v, f2)
            if not leg.is_zero():
                raise TwistError(f"F is not in Lambda^2 V1: i_v F = {leg} for v = {format_vector(v)}")
    data = ShearData(X=(1 / alpha(z)) * z, alpha=alpha, F0=f2, a=Fraction(-1))
    report = validate_shear(g, data)
    if not (report.decomp.eta.is_zero() and report.eta_prime.is_zero()):
        raise TwistError("twist data produced nonzero eta parts")
    return _sheared(g, data, report)
