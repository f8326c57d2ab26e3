"""Value semantics of the package's forms, vectors, algebras, reports, specs and shear data."""
import copy
import pickle
from fractions import Fraction

import pytest

from corpus import mono
from lieshear import (
    ComplexStructure,
    EigenSpace,
    Filtration,
    HalfFlatReport,
    JacobiReport,
    KahlerReport,
    KForm,
    LieAlgebra,
    Metric,
    NijenhuisResult,
    PhiStabilityReport,
    SearchHit,
    SearchSpec,
    SeriesReport,
    ShearBase,
    ShearData,
    ShearLineReport,
    ShearReport,
    Vector,
    decompose_dalpha,
    parse_salamon,
)

F = Fraction
E3 = ((F(0), F(0), F(1)),)
H3 = parse_salamon("(0,0,12)")
S5 = parse_salamon("(51,52,53,2.54,0)")
X5, ALPHA5 = Vector.basis(5, 4), mono(5, (4,))
BASE = dict(g=S5, X=X5, alpha=ALPHA5, eta=mono(5, (5,), 2), f=KForm.zero(5, 2))
REPORT = dict(valid=True, decomp=ShearBase(**BASE), eta_prime=KForm.zero(5, 1), eta_0=mono(5, (5,), 2),
              f_prime=mono(5, (1, 2)), nu=KForm.zero(5, 1), f_eff=mono(5, (1, 2)),
              conditions=dict.fromkeys(("xi_ideal", "df_eff_eq_eta0_wedge_f_eff", "eta0_closed",
                                        "eta0_vanishes_on_xi", "dnu_wedge_nu_zero", "dnu_zero",
                                        "f0_compatible_with_eta_g"), True))
# the forms these values derive from their fields, read-only like the fields
DERIVED = {ShearBase: dict(eta_bracket=mono(5, (5,), -2)),
           ShearReport: dict(eta_tilde=mono(5, (5,), 2), f_tilde=mono(5, (1, 2)))}

# every value class, with the keywords of one valid construction
CASES = [
    (KForm, dict(dim=3, degree=2, terms={0b011: 1})),
    (Vector, dict(components=(F(1), F(0), F(-2)))),
    (LieAlgebra, dict(diffs=(KForm.zero(3, 2), KForm.zero(3, 2), mono(3, (1, 2))))),
    (JacobiReport, dict(passed=False, failures=((3, mono(4, (1, 2, 3))),))),
    (SeriesReport, dict(lower_central=(E3, ()), derived=(E3, ()), is_abelian=False, is_nilpotent=True,
                        is_solvable=True, step_length=2, derived_length=2)),
    (Filtration, dict(chain=(E3,))),
    (EigenSpace, dict(eigenvalues=(F(-2),), basis=((F(0), F(0), F(0), F(1), F(0)),))),
    (ShearLineReport, dict(derived_subalgebra=E3, target=E3, acting=(Vector.basis(3, 1),), eigenspaces=(),
                           nonrational_present=False)),
    (ShearData, dict(X=X5, alpha=ALPHA5, F0=mono(5, (1, 2)), a=F(-1), eta_g=None)),
    (ShearReport, REPORT),
    (ShearBase, BASE),
    (SearchSpec, dict(base=H3, X=Vector.basis(3, 3), alpha=mono(3, (3,)), a=F(-1),
                      coefficients=(F(-1), F(0), F(1)), support=None, max_terms=1, preserve=(), cap=1000)),
    (SearchHit, dict(f0=mono(5, (1, 2)), report=ShearReport(**REPORT), sheared=S5)),
    (Metric, dict(gram=((F(1), F(0)), (F(0), F(2))))),
    (ComplexStructure, dict(j=((F(0), F(-1)), (F(1), F(0))))),
    (NijenhuisResult, dict(values=(((1, 2), Vector.zero(2)),), integrable=True)),
    (KahlerReport, dict(passed=False, checks={"omega_closed": False})),
    (HalfFlatReport, dict(passed=False, co_symplectic=False, rho_minus_closed=True, omega_rho_compatible=True)),
    (PhiStabilityReport, dict(b_matrix=((F(1),),), definiteness="positive")),
]
HOLDS_A_DICT = {ShearReport, SearchHit, KahlerReport}
IDS = [cls.__name__ for cls, _ in CASES]
SLOTTED = (KForm, Vector, LieAlgebra, ShearData, ShearReport, SearchHit)


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("cls, kwargs", CASES, ids=IDS)
def test_value_semantics(cls, kwargs):
    value, twin = cls(**kwargs), cls(**kwargs)
    assert value == twin and not value != twin
    if cls in HOLDS_A_DICT:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    for twin_of in (copy.copy, copy.deepcopy, _pickled):
        assert twin_of(value) == value
    # equality needs the same class, not only the same fields
    other = type("Other", (cls,), {})(**kwargs)
    assert value != other and other != value
    assert value.__eq__(other) is NotImplemented and value.__eq__(kwargs) is NotImplemented
    for name, form in DERIVED.get(cls, {}).items():
        assert getattr(value, name) == form
    for name in [*kwargs, *DERIVED.get(cls, ()), "unknown"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin
    first, *_ = kwargs
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in kwargs.items() if k != first})
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=None)


@pytest.mark.parametrize("cls", SLOTTED, ids=[cls.__name__ for cls in SLOTTED])
def test_kernel_values_have_no_instance_dict(cls):
    # slots keep them small: the s5 reference search keeps 1,545 hits, each
    # with its F0, report and algebra, and builds a ShearData per hit; copies
    # are filled through the slots, those that are not fields (ShearData's
    # f_eff) included
    value = cls(**dict(CASES)[cls])
    assert not hasattr(value, "__dict__")
    for twin_of in (copy.deepcopy, _pickled):
        twin = twin_of(value)
        assert not hasattr(twin, "__dict__") and twin == value
        for name in cls.__slots__:
            assert getattr(twin, name, None) == getattr(value, name, None), name


def test_zero_forms_of_different_degrees_are_equal():
    # a form compares by dimension and terms: a zero form has a degree in name only
    assert KForm.zero(3, 1) == KForm.zero(3, 2) and hash(KForm.zero(3, 1)) == hash(KForm.zero(3, 2))
    assert KForm.zero(3, 1) != KForm.zero(4, 1)


def test_no_attribute_of_a_kernel_value_can_be_deleted():
    g, k, v = parse_salamon("(0,0,12)"), mono(3, (1, 2)), Vector.basis(3, 1)
    g.series()
    for value, name in [(g, "_series"), (g, "_decomp"), (g, "diffs"), (k, "degree"), (k, "terms"),
                        (v, "components")]:
        with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
            delattr(value, name)
    assert g.series().is_nilpotent and k.degree == 2 and v.components == (1, 0, 0)


def test_a_round_trip_keeps_an_algebra_and_its_kept_base_together():
    g = parse_salamon("(51,52,53,2.54,0)")
    base = decompose_dalpha(g, X5, ALPHA5)
    g.series()
    for twin_of in (copy.deepcopy, _pickled):
        twin = twin_of(g)
        assert twin == g and twin._decomp.g is twin and twin._decomp == base
        assert twin._series == g._series and twin.jacobi_check() == g.jacobi_check()


def test_defaults():
    data = ShearData(X=X5, alpha=ALPHA5, F0=mono(5, (1, 2)))
    assert (data.a, data.eta_g) == (F(-1), None) and type(data.a) is Fraction
    spec = SearchSpec(base=H3, X=Vector.basis(3, 3), alpha=mono(3, (3,)))
    assert (spec.a, spec.coefficients, spec.support, spec.max_terms, spec.preserve, spec.cap) == (
        F(-1), (F(-1), F(0), F(1)), None, 1, (), 10**6)


def test_a_shear_base_compares_without_its_defect_cache():
    base, twin = ShearBase(**BASE), ShearBase(**BASE)
    base.leg_free_defect(mono(5, (1, 2)))
    assert base == twin and hash(base) == hash(twin) and repr(base) == repr(twin)
    assert "_defects" not in repr(base)


# the kernel types' reprs as they were, the rest captured from the dataclass
# versions of those classes; ShearBase's fields,
# and so the reports holding one, are those of the split d(alpha) = eta ^ alpha + f
REPRS = {
    "KForm": "KForm(3, 2, e12)",
    "Vector": "Vector([Fraction(1, 1), Fraction(0, 1), Fraction(-2, 1)])",
    "LieAlgebra": "LieAlgebra('(0,0,12)')",
    "JacobiReport": 'JacobiReport(passed=False, failures=((3, KForm(4, 3, e123)),))',
    "SeriesReport": ('SeriesReport(lower_central=(((Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)),), ()), '
                     'derived=(((Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)),), ()), is_abelian=False, '
                     'is_nilpotent=True, is_solvable=True, step_length=2, derived_length=2)'),
    "Filtration": 'Filtration(chain=(((Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)),),))',
    "EigenSpace": ('EigenSpace(eigenvalues=(Fraction(-2, 1),), basis=((Fraction(0, 1), Fraction(0, 1), '
                   'Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)),))'),
    "ShearLineReport": ('ShearLineReport(derived_subalgebra=((Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)),), '
                        'target=((Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)),), acting=(Vector([Fraction(1, '
                        '1), Fraction(0, 1), Fraction(0, 1)]),), eigenspaces=(), nonrational_present=False)'),
    "ShearData": ('ShearData(X=Vector([Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), '
                  'Fraction(0, 1)]), alpha=KForm(5, 1, e4), F0=KForm(5, 2, e12), a=Fraction(-1, 1), eta_g=None)'),
    "ShearReport": ("ShearReport(valid=True, decomp=ShearBase(g=LieAlgebra('(51,52,53,2.54,0)'), "
                    'X=Vector([Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)]), '
                    'alpha=KForm(5, 1, e4), eta=KForm(5, 1, 2*e5), f=KForm(5, 2, 0)), '
                    'eta_prime=KForm(5, 1, 0), eta_0=KForm(5, 1, 2*e5), f_prime=KForm(5, 2, e12), nu=KForm(5, '
                    '1, 0), f_eff=KForm(5, 2, e12))'),
    "ShearBase": ("ShearBase(g=LieAlgebra('(51,52,53,2.54,0)'), X=Vector([Fraction(0, 1), Fraction(0, 1), "
                  'Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)]), alpha=KForm(5, 1, e4), '
                  'eta=KForm(5, 1, 2*e5), f=KForm(5, 2, 0))'),
    "SearchSpec": ("SearchSpec(base=LieAlgebra('(0,0,12)'), X=Vector([Fraction(0, 1), Fraction(0, 1), Fraction(1, "
                   '1)]), alpha=KForm(3, 1, e3), a=Fraction(-1, 1), coefficients=(Fraction(-1, 1), Fraction(0, '
                   '1), Fraction(1, 1)), support=None, max_terms=1, preserve=(), cap=1000)'),
    "SearchHit": ("SearchHit(f0=KForm(5, 2, e12), report=ShearReport(valid=True, decomp=ShearBase(g=LieAlgebra("
                  "'(51,52,53,2.54,0)'), X=Vector([Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), "
                  "Fraction(0, 1)]), alpha=KForm(5, 1, e4), eta=KForm(5, 1, 2*e5), f=KForm(5, 2, 0)), "
                  "eta_prime=KForm(5, 1, 0), eta_0=KForm(5, 1, 2*e5), f_prime=KForm(5, 2, e12), nu=KForm(5, 1, 0), "
                  "f_eff=KForm(5, 2, e12)), sheared=LieAlgebra('(51,52,53,2.54,0)'))"),
    "Metric": 'Metric(gram=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(2, 1))))',
    "ComplexStructure": ('ComplexStructure(j=((Fraction(0, 1), Fraction(-1, 1)), (Fraction(1, 1), Fraction(0, '
                         '1))))'),
    "NijenhuisResult": ('NijenhuisResult(values=(((1, 2), Vector([Fraction(0, 1), Fraction(0, 1)])),), '
                        'integrable=True)'),
    "KahlerReport": "KahlerReport(passed=False, checks={'omega_closed': False})",
    "HalfFlatReport": ('HalfFlatReport(passed=False, co_symplectic=False, rho_minus_closed=True, '
                       'omega_rho_compatible=True)'),
    "PhiStabilityReport": "PhiStabilityReport(b_matrix=((Fraction(1, 1),),), definiteness='positive')",
}


@pytest.mark.parametrize("cls, kwargs", CASES, ids=IDS)
def test_repr_is_unchanged(cls, kwargs):
    assert repr(cls(**kwargs)) == REPRS[cls.__name__]
