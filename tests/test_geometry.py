import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from corpus import (COEFF_POOL, change_basis, g_lm, h_lm, mono, omega_std, paper_algebras, phi0, psi4,
                    random_almost_abelian, random_form, random_frame, random_nilpotent, random_unimodular,
                    reference_det, reference_nijenhuis, reference_nondegenerate)
from lieshear import (
    ComplexStructure,
    KForm,
    LieAlgebra,
    Metric,
    ShearData,
    Vector,
    apply_shear,
    g2_cocal_check,
    half_flat_check,
    hodge_star_orthonormal,
    interior,
    is_closed,
    kahler_check,
    linalg,
    nijenhuis,
    parse_salamon,
    phi_stability,
    preserves_closure,
    pullback,
    shear_candidate,
    symplectic_check,
    type_components,
    validate_shear,
    wedge,
)
from lieshear.exterior import MAX_DIM


def dense_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def conjugated_structure(rng: random.Random, n: int, fractional: bool = False):
    """(J, G): J = S J_0 S^-1 for the standard J_0 and S = P D, with P a random
    unimodular matrix, and the J-invariant metric G = S^-T S^-1.  D is the
    identity, which leaves integral entries, or with `fractional` a random
    positive rational diagonal, which makes J and G fractional."""
    p, q = random_unimodular(rng, n, 3 * n)
    d = [Fraction(rng.randint(1, 4), rng.randint(1, 4)) if fractional else Fraction(1) for _ in range(n)]
    s = [[x * dk for x, dk in zip(row, d)] for row in p]  # P D
    s_inv = [[x / dk for x in row] for row, dk in zip(q, d)]  # D^-1 P^-1
    j = dense_mul(dense_mul(s, ComplexStructure.standard(n).j), s_inv)
    return j, dense_mul([list(col) for col in zip(*s_inv)], s_inv)


# every argument check of the module, by the call that trips it
REFUSALS = {
    "metric-size": (lambda: Metric([]), f"metric dimension must be in 1..{MAX_DIM}, got 0"),
    "metric-square": (lambda: Metric([[1, 0], [0]]), "metric must be 2x2"),
    "metric-symmetric": (lambda: Metric([[1, 2], [0, 1]]), "metric must be symmetric"),
    "j-even": (lambda: ComplexStructure([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), "complex structure needs even dimension"),
    "j-square": (lambda: ComplexStructure([[1, 0], [0, 1]]), "J^2 must be -Id"),
    "symplectic-even": (lambda: symplectic_check(LieAlgebra.abelian(5), KForm.zero(5, 2)),
                        "symplectic check needs even dimension"),
    "symplectic-degree": (lambda: symplectic_check(LieAlgebra.abelian(4), mono(4, (1,))),
                          "omega must be a two-form on the algebra"),
    "symplectic-dim": (lambda: symplectic_check(LieAlgebra.abelian(4), omega_std(6)),
                       "omega must be a two-form on the algebra"),
    "nijenhuis-dim": (lambda: nijenhuis(LieAlgebra.abelian(4), ComplexStructure.standard(6)),
                      "dimension mismatch: 6 vs 4"),
    "type-dim": (lambda: type_components(ComplexStructure.standard(4), omega_std(6)), "dimension mismatch: 6 vs 4"),
    "type-degree": (lambda: type_components(ComplexStructure.standard(4), mono(4, (1,))),
                    "type decomposition needs a two-form"),
    "kahler-even": (lambda: kahler_check(LieAlgebra.abelian(5), Metric.standard(4), ComplexStructure.standard(4),
                                         omega_std(4)), "Kaehler check needs even dimension"),
    "kahler-dim": (lambda: kahler_check(LieAlgebra.abelian(4), Metric.standard(6), ComplexStructure.standard(4),
                                        omega_std(4)), "metric, J and omega must live on the algebra's dimension"),
    "kahler-degree": (lambda: kahler_check(LieAlgebra.abelian(6), Metric.standard(6), ComplexStructure.standard(6),
                                           mono(6, (1, 2, 3))), "omega must be a two-form on the algebra"),
    "half-flat-dim": (lambda: half_flat_check(LieAlgebra.abelian(4), KForm.zero(4, 2), KForm.zero(4, 3)),
                      "half-flat structures live in dimension 6"),
    "half-flat-omega": (lambda: half_flat_check(LieAlgebra.abelian(6), mono(6, (1,)), KForm.zero(6, 3)),
                        "need a two-form omega and a three-form rho_-"),
    "half-flat-rho": (lambda: half_flat_check(LieAlgebra.abelian(6), omega_std(6), mono(6, (1, 2))),
                      "need a two-form omega and a three-form rho_-"),
    "cocal-dim": (lambda: g2_cocal_check(LieAlgebra.abelian(6), KForm.zero(6, 4)),
                  "co-calibrated structures live in dimension 7"),
    "cocal-degree": (lambda: g2_cocal_check(LieAlgebra.abelian(7), mono(7, (1, 2, 3))), "psi must be a four-form"),
    "phi-dim": (lambda: phi_stability(KForm.zero(6, 3)), "stability test is for three-forms in dimension 7"),
    "phi-degree": (lambda: phi_stability(mono(7, (1, 2))), "phi must be a three-form"),
    "preserves-dim": (lambda: preserves_closure(LieAlgebra.abelian(6), Vector.basis(4, 1), mono(6, (1, 2)),
                                                omega_std(6)), "dimension mismatch"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_malformed_arguments_are_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestClosedness:
    def test_psi_closed_on_family(self):
        assert is_closed(g_lm(1, 2), psi4())

    def test_weighted_generator_not_closed(self):
        g = parse_salamon("(51,52,53,2.54,0)")
        assert not is_closed(g, mono(5, (4,)))

    def test_everything_closed_on_abelian(self):
        rng = random.Random(31)
        g = LieAlgebra.abelian(5)
        for _ in range(10):
            assert is_closed(g, random_form(rng, 5, rng.randint(0, 4)))


class TestSymplectic:
    def test_standard_form(self):
        g = LieAlgebra.abelian(6)
        omega = omega_std(6)
        assert symplectic_check(g, omega)
        cubed = wedge(wedge(omega, omega), omega)
        assert cubed == mono(6, (1, 2, 3, 4, 5, 6), 6)

    def test_degenerate(self):
        g = LieAlgebra.abelian(6)
        assert not symplectic_check(g, mono(6, (1, 2)) + mono(6, (3, 4)))

    def test_kahler_shear_base(self):
        g = parse_salamon("(12,0,0,0,0,0)")
        assert symplectic_check(g, omega_std(6))

    def test_nondegenerate_but_not_closed(self):
        g = parse_salamon("(0,0,0,0,12,13)")
        omega = mono(6, (1, 5)) + mono(6, (2, 6)) + mono(6, (3, 4))
        assert wedge(wedge(omega, omega), omega) == mono(6, (1, 2, 3, 4, 5, 6), -6)
        assert g.d(omega) == mono(6, (1, 2, 3))
        assert not symplectic_check(g, omega)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            symplectic_check(LieAlgebra.abelian(5), KForm.zero(5, 2))

    @settings(max_examples=6)
    @given(st.integers(0, 2**32), st.booleans())
    def test_nondegeneracy_is_the_wedge_power_verdict(self, seed, perturbed):
        # in each even dimension n <= 12 and for each k <= n/2, the sum of k
        # decomposable forms c_t e_(2t+1) ^ e_(2t+2), moved by a random rational
        # frame, has rank 2k, so it is degenerate for every k < n/2; perturbed,
        # it also gets a random form.  On the abelian algebra every form is
        # closed, so the check is nondegeneracy alone, which must be the verdict
        # of omega^(n/2) != 0
        rng = random.Random(seed)
        for n in range(2, 13, 2):
            for k in range(n // 2 + 1):
                base = sum((rng.choice(COEFF_POOL) * mono(n, (2 * t + 1, 2 * t + 2)) for t in range(k)),
                           KForm.zero(n, 2))
                omega = pullback(random_frame(rng, n, rational=True)[0], base)
                if perturbed:
                    omega = omega + random_form(rng, n, 2, max_terms=n)
                expected = reference_nondegenerate(omega)
                assert perturbed or expected == (2 * k == n)
                assert symplectic_check(LieAlgebra.abelian(n), omega) == expected, (n, k, str(omega))


class TestNijenhuis:
    def test_abelian_always_integrable(self):
        res = nijenhuis(LieAlgebra.abelian(4), ComplexStructure.standard(4))
        assert res.integrable
        assert all(v.is_zero() for _, v in res.values)

    def test_kahler_shear_integrable(self):
        g = parse_salamon("(12,0,0,0,0,0)")
        assert nijenhuis(g, ComplexStructure.standard(6)).integrable

    def test_obstructed_structure(self):
        g = parse_salamon("(0,0,0,0,13,0)")
        res = nijenhuis(g, ComplexStructure.standard(6))
        assert not res.integrable

    def test_bilinearity_antisymmetry_by_construction(self):
        # N on vectors v, w expands bilinearly from frame values
        g = parse_salamon("(12,0,0,0,0,0)")
        js = ComplexStructure.standard(6)

        def n_of(v, w):
            return (
                g.bracket(js.apply(v), js.apply(w))
                - js.apply(g.bracket(js.apply(v), w))
                - js.apply(g.bracket(v, js.apply(w)))
                - g.bracket(v, w)
            )

        rng = random.Random(32)
        for _ in range(10):
            v = Vector([Fraction(rng.randint(-2, 2)) for _ in range(6)])
            w = Vector([Fraction(rng.randint(-2, 2)) for _ in range(6)])
            assert n_of(v, w) == -1 * n_of(w, v)

    def test_invalid_j_rejected(self):
        with pytest.raises(ValueError):
            ComplexStructure([[1, 0], [0, 1]])

    def test_matrices_must_be_exact(self):
        with pytest.raises(TypeError):
            ComplexStructure([[0, -1.0], [1, 0]])
        with pytest.raises(TypeError):
            Metric([[1, 0], [0, 0.5]])
        j = ComplexStructure([[0, -1], [1, 0]])
        metric = Metric([[Fraction(1, 3), 0], [0, 2]])
        assert j.j == ((0, -1), (1, 0)) and metric.gram == ((Fraction(1, 3), 0), (0, 2))
        assert all(type(x) is Fraction for m in (j.j, metric.gram) for row in m for x in row)

    def test_matrix_sizes_outside_1_to_max_dim_are_refused(self):
        # as Vector and KForm do; a 0x0 metric would count as positive definite
        big = [[int(i == j) for j in range(MAX_DIM + 2)] for i in range(MAX_DIM + 2)]
        for make in (Metric, ComplexStructure):
            for rows in ([], big):
                with pytest.raises(ValueError, match=f"dimension must be in 1..{MAX_DIM}, got {len(rows)}"):
                    make(rows)
        with pytest.raises(ValueError, match=f"1..{MAX_DIM}"):
            Metric.standard(MAX_DIM + 1)
        with pytest.raises(ValueError, match="even dimension"):
            ComplexStructure.standard(5)
        assert Metric.standard(MAX_DIM).is_positive_definite()
        assert ComplexStructure.standard(MAX_DIM).dim == MAX_DIM


class TestNijenhuisDenseReference:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6, 8]),
           st.sampled_from(["almost abelian", "nilpotent", "tilted"]), st.booleans())
    @settings(max_examples=40)
    def test_matches_the_dense_reference_on_conjugated_structures(self, seed, n, kind, fractional):
        # random J = (P D) J_0 (P D)^-1, integral or fractional, and structure constants
        # with 1/2 and -1/3 in them, which the tilted change of basis spreads over every d e_k
        rng = random.Random(seed)
        if kind == "nilpotent":
            g = random_nilpotent(rng, n)
        else:
            g = random_almost_abelian(rng, n)
            if kind == "tilted":
                g = change_basis(g, rng.randrange(1 << 32), 2 * n)
        j, _ = conjugated_structure(rng, n, fractional)
        res = nijenhuis(g, ComplexStructure(j))
        want = reference_nijenhuis(g, j)
        assert res.values == tuple((ab, Vector(v)) for ab, v in want)
        assert res.integrable == (not any(any(v) for _, v in want))


class TestNijenhuisReadsTheTermsOnce:
    def test_no_bracket_and_one_term_read_at_dimension_14(self, monkeypatch):
        # R^13 x| R with a diagonal action: 4 C(14, 2) = 364 brackets for N on the frame
        # pairs, each reading the terms again, if N went through LieAlgebra.bracket
        rng = random.Random(39)
        g = LieAlgebra([mono(14, (i, 14), rng.choice([-5, -3, -1, 1, 2, 4])) for i in range(1, 14)]
                       + [KForm.zero(14, 2)])
        js = ComplexStructure.standard(14)
        counts = {}
        for name in ("bracket", "_int_terms"):
            def counted(self, *args, _name=name, _method=getattr(LieAlgebra, name)):
                counts[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(LieAlgebra, name, counted)
        for check in (lambda: nijenhuis(g, js), lambda: kahler_check(g, Metric.standard(14), js, omega_std(14))):
            counts.update(bracket=0, _int_terms=0)
            check()
            assert counts == {"bracket": 0, "_int_terms": 1}

    def test_an_algebra_failing_jacobi_warns_once(self):
        g = parse_salamon("(0,12,0,23,0,0)")
        message = "^Nijenhuis tensor on an algebra failing the Jacobi identity$"
        with pytest.warns(RuntimeWarning, match=message) as record:
            nijenhuis(g, ComplexStructure.standard(6))
        assert len(record) == 1


def _dphi_anti_invariant_test(g, js):
    """Independent integrability test: for each generator covector phi with
    psi = J* phi, the two-form dphi(v,w) - dphi(Jv,Jw) + dpsi(Jv,w) + dpsi(v,Jw)
    pairs every (v,w) pair to phi(N(v,w)); all zero iff N = 0."""
    for k in range(1, g.dim + 1):
        phi = mono(g.dim, (k,))
        psi = pullback(js.j, phi)
        dphi, dpsi = g.d(phi), g.d(psi)
        for i in range(1, g.dim + 1):
            for j in range(i + 1, g.dim + 1):
                v, w = Vector.basis(g.dim, i), Vector.basis(g.dim, j)
                jv, jw = js.apply(v), js.apply(w)
                value = dphi(v, w) - dphi(jv, jw) + dpsi(jv, w) + dpsi(v, jw)
                if value != 0:
                    return False
    return True


class TestNijenhuisCrossCheck:
    def test_two_implementations_agree(self):
        js6 = ComplexStructure.standard(6)
        cases = [
            (LieAlgebra.abelian(6), js6),
            (parse_salamon("(12,0,0,0,0,0)"), js6),
            (parse_salamon("(0,0,0,0,13,0)"), js6),
            (parse_salamon("(0,0,0,0,12,34)"), js6),
            (LieAlgebra.abelian(4), ComplexStructure.standard(4)),
        ]
        for g, js in cases:
            assert nijenhuis(g, js).integrable == _dphi_anti_invariant_test(g, js)


class TestTypeComponents:
    def test_e12_is_type_11(self):
        anti, f11 = type_components(ComplexStructure.standard(6), mono(6, (1, 2)))
        assert anti.is_zero() and f11 == mono(6, (1, 2))

    def test_e13_has_anti_part(self):
        anti, f11 = type_components(ComplexStructure.standard(6), mono(6, (1, 3)))
        assert not anti.is_zero()
        assert pullback(ComplexStructure.standard(6).j, mono(6, (1, 3))) == mono(6, (2, 4))

    def test_zero(self):
        anti, f11 = type_components(ComplexStructure.standard(4), KForm.zero(4, 2))
        assert anti.is_zero() and f11.is_zero()

    def test_reconstruction_and_invariance(self):
        rng = random.Random(33)
        js = ComplexStructure.standard(6)
        for _ in range(25):
            f = random_form(rng, 6, 2)
            anti, f11 = type_components(js, f)
            assert anti + f11 == f
            assert pullback(js.j, f11) == f11
            assert pullback(js.j, anti) == -1 * anti


class TestKahler:
    def test_flat_structure(self):
        rep = kahler_check(LieAlgebra.abelian(6), Metric.standard(6),
                           ComplexStructure.standard(6), omega_std(6))
        assert rep.passed

    def test_kahler_shear(self):
        rep = kahler_check(parse_salamon("(12,0,0,0,0,0)"), Metric.standard(6),
                           ComplexStructure.standard(6), omega_std(6))
        assert rep.passed

    def test_nijenhuis_obstruction(self):
        rep = kahler_check(parse_salamon("(0,0,0,0,13,0)"), Metric.standard(6),
                           ComplexStructure.standard(6), omega_std(6))
        assert not rep.passed
        assert rep.checks["nijenhuis_vanishes"] is False

    def test_pass_implies_symplectic_and_integrable(self):
        js = ComplexStructure.standard(6)
        for s in ["(0,0,0,0,0,0)", "(12,0,0,0,0,0)", "(0,0,0,0,13,0)", "(0,0,0,0,12,34)"]:
            g = parse_salamon(s)
            rep = kahler_check(g, Metric.standard(6), js, omega_std(6))
            if rep.passed:
                assert symplectic_check(g, omega_std(6))
                assert nijenhuis(g, js).integrable

    def test_wrong_omega_detected(self):
        rep = kahler_check(LieAlgebra.abelian(6), Metric.standard(6),
                           ComplexStructure.standard(6), mono(6, (1, 2)))
        assert not rep.passed
        assert rep.checks["omega_equals_metric_j"] is False


def metric_omega(j, gram) -> KForm:
    """The two-form with omega(E_a, E_b) = (J^T G)[a][b] for a < b."""
    n = len(j)
    jt_g = dense_mul([list(col) for col in zip(*j)], gram)
    return sum((mono(n, (a + 1, b + 1), jt_g[a][b]) for a in range(n) for b in range(a + 1, n) if jt_g[a][b]),
               KForm.zero(n, 2))


def is_antisymmetric(m) -> bool:
    return all(m[a][b] == -m[b][a] for a in range(len(m)) for b in range(len(m)))


def reference_kahler_checks(g, gram, j, omega) -> dict:
    """kahler_check's checks computed densely: J^T G J and J^T G as plain
    matrix products, definiteness by Sylvester's leading minors.  omega
    equals metric(J., .) only when J^T G is antisymmetric, which makes
    metric_omega's upper triangle a two-form's."""
    n = g.dim
    return {
        "metric_positive_definite": all(reference_det([row[:k] for row in gram[:k]]) > 0 for k in range(1, n + 1)),
        "metric_j_invariant": dense_mul(dense_mul([list(col) for col in zip(*j)], gram), j) == gram,
        "omega_equals_metric_j": is_antisymmetric(dense_mul([list(col) for col in zip(*j)], gram))
                                 and omega == metric_omega(j, gram),
        "omega_closed": g.d(omega).is_zero(),
        "nijenhuis_vanishes": not any(any(v) for _, v in reference_nijenhuis(g, j)),
    }


class TestKahlerDenseReference:
    def test_matches_the_dense_reference_on_conjugated_structures(self):
        # on J = S J_0 S^-1, S = P or P D as in conjugated_structure: the invariant
        # G = S^-T S^-1 and its omega, G with one diagonal entry raised off
        # invariance, the negative definite -G, and a wrong omega
        rng = random.Random(37)
        algebras = [parse_salamon(s) for s in ["(0,0,0,0,0,0)", "(12,0,0,0,0,0)", "(0,0,0,0,13,0)", "(0,0,0,0,12,34)"]]
        algebras += [LieAlgebra.abelian(4)] + [random_almost_abelian(rng, n) for n in (4, 8)]
        seen = {}
        for g in algebras:
            n = g.dim
            for fractional in (False, False, True, True):
                j, gram = conjugated_structure(rng, n, fractional)
                k = rng.randrange(n)
                perturbed = [[x + (a == b == k) for b, x in enumerate(row)] for a, row in enumerate(gram)]
                negated = [[-x for x in row] for row in gram]
                cases = [(m, metric_omega(j, m)) for m in (gram, perturbed, negated)]
                cases.append((gram, cases[0][1] + mono(n, (1, 2))))
                for metric, omega in cases:
                    got = kahler_check(g, Metric(metric), ComplexStructure(j), omega)
                    want = reference_kahler_checks(g, metric, j, omega)
                    assert got.checks == want
                    assert got.passed == all(want.values())
                    for name, value in want.items():
                        seen.setdefault(name, set()).add(value)
        assert all(values == {True, False} for values in seen.values()), seen


class TestFrameChange:
    """Verdicts in change_basis's coframe f = P e, Q = P^-1: a vector goes to
    P v, so J goes to P J Q and the Gram matrix G to Q^T G Q, and every form
    is pulled back by Q.  P is unimodular with determinant 1, so the volume
    form and with it the sign of phi's B are kept."""

    def test_kahler_verdicts(self):
        # TestKahlerDenseReference's cases, each check (the Nijenhuis verdict among
        # them) coming out both ways
        rng = random.Random(38)
        algebras = [parse_salamon(s) for s in ["(0,0,0,0,0,0)", "(12,0,0,0,0,0)", "(0,0,0,0,13,0)", "(0,0,0,0,12,34)"]]
        algebras += [LieAlgebra.abelian(4)] + [random_almost_abelian(rng, n) for n in (4, 8)]
        seen = {}
        for g in algebras:
            n = g.dim
            for fractional in (False, True):
                j, gram = conjugated_structure(rng, n, fractional)
                p, q = random_unimodular(rng, n, 3 * n)
                moved_g, moved_j = change_basis(g, frame=(p, q)), dense_mul(dense_mul(p, j), q)
                k = rng.randrange(n)
                perturbed = [[x + (a == b == k) for b, x in enumerate(row)] for a, row in enumerate(gram)]
                negated = [[-x for x in row] for row in gram]
                cases = [(m, metric_omega(j, m)) for m in (gram, perturbed, negated)]
                cases.append((gram, cases[0][1] + mono(n, (1, 2))))
                for metric, omega in cases:
                    got = kahler_check(g, Metric(metric), ComplexStructure(j), omega)
                    moved_metric = dense_mul(dense_mul([list(col) for col in zip(*q)], metric), q)
                    moved = kahler_check(moved_g, Metric(moved_metric), ComplexStructure(moved_j), pullback(q, omega))
                    assert moved == got
                    for name, value in got.checks.items():
                        seen.setdefault(name, set()).add(value)
        assert all(values == {True, False} for values in seen.values()), seen

    def test_closure_verdicts(self):
        # symplectic in dimensions 4 and 6, half-flat in 6 and co-calibrated in 7,
        # on the standard forms and random ones
        rng = random.Random(40)
        seen = {}
        even = [parse_salamon(s) for s in ["(0,0,0,0,0,0)", "(12,0,0,0,0,0)", "(0,0,0,0,12,13)", "(0,0,0,0,12,34)"]]
        even += [LieAlgebra.abelian(4), parse_salamon("(0,0,12,0)")]
        seven = [g_lm(1, 2), h_lm(1, -1), LieAlgebra.abelian(7), LieAlgebra([mono(7, (6, 7))] + [KForm.zero(7, 2)] * 6)]
        for g in even + seven:
            n = g.dim
            p, q = random_unimodular(rng, n, 3 * n)
            moved_g = change_basis(g, frame=(p, q))
            for _ in range(3):
                if n % 2 == 0:
                    for omega in (omega_std(n), random_form(rng, n, 2)):
                        verdict = symplectic_check(g, omega)
                        assert symplectic_check(moved_g, pullback(q, omega)) == verdict
                        seen.setdefault("symplectic", set()).add(verdict)
                if n == 6:
                    for rho in (rho_minus_std(), rho_minus_std() + random_form(rng, 6, 3, max_terms=2)):
                        omega = omega_std(6) + random_form(rng, 6, 2, max_terms=1)
                        rep = half_flat_check(g, omega, rho)
                        assert half_flat_check(moved_g, pullback(q, omega), pullback(q, rho)) == rep
                        seen.setdefault("half-flat", set()).add(rep.passed)
                if n == 7:
                    for psi in (psi4(), random_form(rng, 7, 4, max_terms=3)):
                        verdict = g2_cocal_check(g, psi)
                        assert g2_cocal_check(moved_g, pullback(q, psi)) == verdict
                        seen.setdefault("co-calibrated", set()).add(verdict)
        assert all(values == {True, False} for values in seen.values()), seen

    def test_phi_definiteness(self):
        rng = random.Random(42)
        seen = set()
        for phi in [phi0(), -1 * phi0(), mono(7, (1, 2, 3))] + [random_form(rng, 7, 3, max_terms=5) for _ in range(5)]:
            _, q = random_unimodular(rng, 7, 21)
            kind = phi_stability(phi).definiteness
            assert phi_stability(pullback(q, phi)).definiteness == kind
            seen.add(kind)
        assert seen == {"positive", "negative", "indefinite-or-degenerate"}


def rho_minus_std() -> KForm:
    """Im((e1+ie2)^(e3+ie4)^(e5+ie6)) expanded over the reals."""
    return (
        mono(6, (2, 3, 5)) + mono(6, (1, 4, 5)) + mono(6, (1, 3, 6)) - mono(6, (2, 4, 6))
    )


class TestHalfFlat:
    def test_flat_structure(self):
        rep = half_flat_check(LieAlgebra.abelian(6), omega_std(6), rho_minus_std())
        assert rep.passed
        assert rep.omega_rho_compatible

    def test_transferred_structure_co_symplectic(self):
        rep = half_flat_check(parse_salamon("(12,0,0,0,0,0)"), omega_std(6), rho_minus_std())
        assert rep.co_symplectic

    def test_perturbed_rho_fails(self):
        g = parse_salamon("(0,0,0,0,0,12)")
        rho = rho_minus_std() + mono(6, (4, 5, 6))
        rep = half_flat_check(g, omega_std(6), rho)
        assert not rep.rho_minus_closed
        assert not rep.passed

    def test_dimension_gate(self):
        with pytest.raises(ValueError):
            half_flat_check(LieAlgebra.abelian(4), KForm.zero(4, 2), KForm.zero(4, 3))

    def test_closure_requires_the_jacobi_identity(self):
        g = parse_salamon("(0,12,0,23,0,0)")
        assert not g.jacobi_check().passed
        for check in (lambda: symplectic_check(g, omega_std(6)),
                      lambda: half_flat_check(g, omega_std(6), rho_minus_std())):
            with pytest.raises(ValueError, match=r"^closure test requires the Jacobi identity$"):
                check()


class TestG2Cocal:
    def test_family_and_its_shear(self):
        for pair in [(1, 2), (1, -1)]:
            assert g2_cocal_check(g_lm(*pair), psi4())
            assert g2_cocal_check(h_lm(*pair), psi4())

    def test_non_closed_four_form(self):
        g = LieAlgebra([mono(7, (6, 7))] + [KForm.zero(7, 2)] * 6)  # de1 = e67
        assert g.jacobi_check().passed
        assert not g2_cocal_check(g, mono(7, (1, 2, 3, 4)))

    def test_dimension_gate(self):
        with pytest.raises(ValueError):
            g2_cocal_check(LieAlgebra.abelian(6), KForm.zero(6, 4))


class TestPhiStability:
    def test_reference_form_definite(self):
        rep = phi_stability(phi0())
        assert rep.stable and rep.definiteness == "positive"
        assert rep.b_matrix == tuple(
            tuple(Fraction(6 * (i == j)) for j in range(7)) for i in range(7)
        )

    def test_decomposable_form_unstable(self):
        rep = phi_stability(mono(7, (1, 2, 3)))
        assert not rep.stable

    def test_negation_flips_sign(self):
        rep = phi_stability(-1 * phi0())
        assert rep.definiteness == "negative"
        # B is cubic in phi
        assert rep.b_matrix == tuple(
            tuple(-x for x in row) for row in phi_stability(phi0()).b_matrix
        )

    def test_definiteness_takes_no_charpoly(self, monkeypatch):
        # positive, negative and indefinite alike, B and a metric's Gram matrix
        # are read by Sylvester's pivots, with no characteristic polynomial
        def refuse(*args):
            raise AssertionError("definiteness took a characteristic polynomial")

        monkeypatch.setattr(linalg, "charpoly", refuse)
        monkeypatch.setattr(linalg, "rational_roots", refuse)
        kinds = [phi_stability(phi).definiteness for phi in (phi0(), -1 * phi0(), mono(7, (1, 2, 3)))]
        assert kinds == ["positive", "negative", "indefinite-or-degenerate"]
        grams = ([[2, 1], [1, 2]], [[-2, 1], [1, -2]], [[1, 2], [2, 1]])
        assert [Metric(g).is_positive_definite() for g in grams] == [True, False, False]

    def test_b_matrix_symmetric_for_random_forms(self):
        rng = random.Random(34)
        for _ in range(25):
            rep = phi_stability(random_form(rng, 7, 3, max_terms=5))
            assert linalg.is_symmetric(rep.b_matrix)

    def test_oracle_brute_force(self):
        # independent wedge evaluation via permutation-parity on index tuples
        from itertools import permutations

        def parity(seq):
            inv = sum(
                1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
            )
            return -1 if inv % 2 else 1

        def brute_entry(phi, i, j):
            total = Fraction(0)
            terms = [(idx, c) for idx, c in phi.sorted_terms()]
            for idx1, c1 in terms:
                if i not in idx1:
                    continue
                pos1 = idx1.index(i)
                rest1 = tuple(x for x in idx1 if x != i)
                s1 = Fraction((-1) ** pos1)
                for idx2, c2 in terms:
                    if j not in idx2:
                        continue
                    pos2 = idx2.index(j)
                    rest2 = tuple(x for x in idx2 if x != j)
                    s2 = Fraction((-1) ** pos2)
                    for idx3, c3 in terms:
                        seq = rest1 + rest2 + idx3
                        if len(set(seq)) != 7:
                            continue
                        total += s1 * s2 * c1 * c2 * c3 * parity(seq)
            return total

        rng = random.Random(35)
        for phi in [phi0(), random_form(rng, 7, 3, max_terms=4), random_form(rng, 7, 3, max_terms=4)]:
            rep = phi_stability(phi)
            for i in range(1, 8):
                for j in range(1, 8):
                    assert rep.b_matrix[i - 1][j - 1] == brute_entry(phi, i, j)


class TestPreservesClosure:
    def test_kahler_case(self):
        g = LieAlgebra.abelian(6)
        assert preserves_closure(g, Vector.basis(6, 1), mono(6, (1, 2)), omega_std(6))

    def test_obstructed_case(self):
        g = LieAlgebra.abelian(6)
        assert not preserves_closure(g, Vector.basis(6, 1), mono(6, (3, 4)), omega_std(6))

    def test_g2_case(self):
        assert preserves_closure(g_lm(1, 2), Vector.basis(7, 1), mono(7, (2, 3)), psi4())

    def test_theorem_on_corpus(self):
        """For valid shears and closed sigma: transferred sigma closed iff
        F0 ^ (X . sigma) = 0."""
        rng = random.Random(36)
        from corpus import frame_ideal_indices

        checked = 0
        for g in paper_algebras():
            ideals = frame_ideal_indices(g)
            if not ideals:
                continue
            k = ideals[0]
            x, alpha = Vector.basis(g.dim, k), mono(g.dim, (k,))
            for _ in range(20):
                f0 = random_form(rng, g.dim, 2, max_terms=2)
                data = ShearData(X=x, alpha=alpha, F0=f0)
                if not validate_shear(g, data).valid:
                    continue
                out = shear_candidate(g, data)
                sigma = random_form(rng, g.dim, rng.randint(1, min(4, g.dim)))
                if not is_closed(g, sigma):
                    continue
                assert is_closed(out, sigma) == preserves_closure(g, x, f0, sigma)
                checked += 1
        assert checked >= 30


class TestStarSupportedChecks:
    def test_psi_from_phi_via_star(self):
        # for the orthonormal frame, the four-form star(phi0) is closed on the
        # abelian algebra and phi0 itself is stable
        star_phi = hodge_star_orthonormal(phi0())
        assert star_phi.degree == 4
        assert is_closed(LieAlgebra.abelian(7), star_phi)

    def test_interior_of_psi_matches_hand_expansion(self):
        got = interior(Vector.basis(7, 1), psi4())
        expected = (
            mono(7, (4, 2, 5)) + mono(7, (4, 3, 6)) + mono(7, (2, 6, 7)) + mono(7, (5, 3, 7))
        )
        assert got == expected
