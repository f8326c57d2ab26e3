import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from corpus import (
    frame_ideal_indices,
    g_lm,
    h_lm,
    mono,
    paper_algebras,
    psi4,
    random_almost_abelian,
    random_closed_two_form,
    random_form,
    random_nilpotent,
    random_shears,
    reference_twist,
)
import lieshear
from lieshear import (
    InvalidShearError,
    KForm,
    LieAlgebra,
    ShearBase,
    ShearData,
    ShearDataError,
    TwistError,
    Vector,
    apply_shear,
    apply_twist,
    decompose_dalpha,
    ds_form,
    invert_shear,
    is_automorphic,
    parse_salamon,
    print_salamon,
    shear_candidate,
    validate_shear,
    wedge,
)

S5 = "(51,52,53,2.54,0)"


def data_on(g, k, f0, a=Fraction(-1), eta_g=None):
    return ShearData(
        X=Vector.basis(g.dim, k),
        alpha=mono(g.dim, (k,)),
        F0=f0,
        a=a,
        eta_g=eta_g,
    )


class TestShearData:
    def test_alpha_pairing_enforced(self):
        with pytest.raises(ShearDataError):
            ShearData(X=Vector.basis(3, 1), alpha=mono(3, (2,)), F0=KForm.zero(3, 2))

    def test_nonzero_constant(self):
        with pytest.raises(ShearDataError):
            data_on(LieAlgebra.abelian(3), 1, KForm.zero(3, 2), a=Fraction(0))

    def test_eta_g_must_kill_x(self):
        with pytest.raises(ShearDataError):
            data_on(LieAlgebra.abelian(3), 1, KForm.zero(3, 2), eta_g=mono(3, (1,)))

    def test_f_eff_scaling(self):
        d = data_on(LieAlgebra.abelian(4), 1, mono(4, (2, 3)), a=Fraction(2))
        assert d.f_eff == mono(4, (2, 3), Fraction(-1, 2))

    def test_constant_must_be_exact(self):
        # a float would silently become a binary fraction, 0.1 = 3602879701896397/2**55
        with pytest.raises(TypeError):
            data_on(LieAlgebra.abelian(3), 1, KForm.zero(3, 2), a=0.1)
        for a in (2, Fraction(1, 3)):
            d = data_on(LieAlgebra.abelian(3), 1, KForm.zero(3, 2), a=a)
            assert d.a == a and type(d.a) is Fraction

    def test_f_eff_computed_once(self):
        d = data_on(LieAlgebra.abelian(4), 1, mono(4, (2, 3)), a=Fraction(2))
        assert d.f_eff is d.f_eff
        assert d == data_on(LieAlgebra.abelian(4), 1, mono(4, (2, 3)), a=Fraction(2))


class TestDecompose:
    def test_solvable_example(self):
        g = parse_salamon(S5)
        res = decompose_dalpha(g, Vector.basis(5, 4), mono(5, (4,)))
        assert res.eta == mono(5, (5,), 2)
        assert res.f.is_zero()
        assert res.eta_bracket == mono(5, (5,), -2)

    def test_g2_family(self):
        for lam, mu in [(1, 2), (1, -1), (3, 0)]:
            g = g_lm(lam, mu)
            res = decompose_dalpha(g, Vector.basis(7, 1), mono(7, (1,)))
            assert res.eta == mono(7, (7,), -(lam + mu))
            assert res.f.is_zero()

    def test_abelian(self):
        g = LieAlgebra.abelian(6)
        res = decompose_dalpha(g, Vector.basis(6, 1), mono(6, (1,)))
        assert res.eta.is_zero() and res.f.is_zero()

    def test_reconstruction_with_nonzero_f(self):
        g = parse_salamon("(0,0,12)")
        x, alpha = Vector.basis(3, 3), mono(3, (3,))
        res = decompose_dalpha(g, x, alpha)
        assert wedge(res.eta, alpha) + res.f == g.d(alpha)
        assert res.f == mono(3, (1, 2))

    def test_rejects_non_ideal(self):
        g = parse_salamon("(0,0,12)")
        with pytest.raises(ShearDataError) as err:
            decompose_dalpha(g, Vector.basis(3, 1), mono(3, (1,)))
        assert "not an ideal" in str(err.value)

    @pytest.mark.parametrize("algebra, x, alpha, w", [
        # the first covector of Ann(X) that fails, not always the first one
        ("(0,0,12,13)", [1, 2, 0, 0], (1,), "e3"),
        ("(0,0,12,13,14+23)", [0, 1, 0, 0, 0], (2,), "e3"),
        ("(51,52,53,2.54,0)", [1, 0, 0, 0, 1], (1,), "e1 - e5"),
        ("(0,-1/2.13,12,0)", [3, 0, 0, 1], (4,), "e2"),
    ])
    def test_non_ideal_error_names_the_first_failing_covector(self, algebra, x, alpha, w):
        g = parse_salamon(algebra)
        with pytest.raises(ShearDataError) as err:
            decompose_dalpha(g, Vector(x), mono(g.dim, alpha))
        assert str(err.value) == f"span(X) is not an ideal: i_X d({w}) != 0"

    def test_rejects_unnormalized_alpha(self):
        g = LieAlgebra.abelian(3)
        with pytest.raises(ShearDataError):
            decompose_dalpha(g, Vector.basis(3, 1), mono(3, (1,), 2))


class TestValidate:
    def test_golden_valid(self):
        g = parse_salamon(S5)
        rep = validate_shear(g, data_on(g, 4, mono(5, (1, 3))))
        assert rep.valid
        assert rep.eta_0 == mono(5, (5,), 2)  # eta_0 = eta
        assert rep.nu.is_zero()
        # the CLI prints the conditions in the report's own order
        assert tuple(rep.conditions) == lieshear.shear.CONDITION_NAMES

    def test_golden_invalid(self):
        g = parse_salamon(S5)
        rep = validate_shear(g, data_on(g, 4, mono(5, (1, 4))))
        assert not rep.valid
        assert rep.eta_0 == mono(5, (1,)) + mono(5, (5,), 2)
        assert rep.conditions["eta0_closed"] is False

    def test_abelian_with_alpha_leg(self):
        g = LieAlgebra.abelian(6)
        rep = validate_shear(g, data_on(g, 1, mono(6, (1, 2))))
        assert rep.valid
        assert rep.eta_0 == mono(6, (2,), -1)

    def test_eta_g_compatibility_checked(self):
        g = g_lm(1, 2)
        good = data_on(g, 1, mono(7, (2, 3)), eta_g=mono(7, (7,), -3))
        assert validate_shear(g, good).conditions["f0_compatible_with_eta_g"] is True
        bad = data_on(g, 1, mono(7, (2, 3)), eta_g=KForm.zero(7, 1))
        assert validate_shear(g, bad).conditions["f0_compatible_with_eta_g"] is False

    def test_eta_g_must_be_closed(self):
        g = parse_salamon(S5)
        with pytest.raises(ShearDataError):
            validate_shear(g, data_on(g, 4, KForm.zero(5, 2), eta_g=mono(5, (1,))))

    def test_diagnostic_nu_conditions(self):
        g = LieAlgebra.abelian(6)
        rep = validate_shear(g, data_on(g, 1, mono(6, (1, 2)) + mono(6, (3, 4))))
        # nu = e2 is closed here, but the shear is invalid
        assert rep.conditions["dnu_zero"] is True
        assert not rep.valid


class TestApplyShear:
    def test_golden_triple(self):
        g = parse_salamon(S5)
        s1 = apply_shear(g, data_on(g, 4, mono(5, (1, 3))))
        assert print_salamon(s1) == "(51,52,53,13+2.54,0)"
        s2 = apply_shear(g, data_on(g, 4, mono(5, (5, 4), -2)))
        assert print_salamon(s2) == "(51,52,53,0,0)"
        back = apply_shear(s2, data_on(s2, 4, mono(5, (5, 4), 2)))
        assert back == g

    def test_kahler_shear(self):
        g = LieAlgebra.abelian(6)
        out = apply_shear(g, data_on(g, 1, mono(6, (1, 2))))
        assert print_salamon(out) == "(12,0,0,0,0,0)"

    def test_g2_shear_matches_family(self):
        for pair in [(1, 2), (1, -1)]:
            g = g_lm(*pair)
            out = apply_shear(g, data_on(g, 1, mono(7, (2, 3))))
            assert out == h_lm(*pair)

    def test_invalid_raises_with_report(self):
        g = parse_salamon(S5)
        with pytest.raises(InvalidShearError) as err:
            apply_shear(g, data_on(g, 4, mono(5, (1, 4))))
        assert err.value.report.conditions["eta0_closed"] is False

    def test_identity_shear(self):
        for g in paper_algebras():
            for k in frame_ideal_indices(g):
                assert apply_shear(g, data_on(g, k, KForm.zero(g.dim, 2))) == g
                break

    def test_w_differentials_preserved(self):
        g = parse_salamon(S5)
        out = apply_shear(g, data_on(g, 4, mono(5, (1, 3))))
        for j in range(5):
            if j != 3:  # generators dual to W stay untouched
                assert out.diffs[j] == g.diffs[j]

    def test_general_alpha_with_w_component(self):
        # alpha = e4 + e5 still pairs to 1 with X = E4; the construction
        # must agree with d_S on every generator
        g = parse_salamon(S5)
        data = ShearData(
            X=Vector.basis(5, 4),
            alpha=mono(5, (4,)) + mono(5, (5,)),
            F0=mono(5, (1, 3)),
        )
        rep = validate_shear(g, data)
        assert rep.valid
        out = apply_shear(g, data)
        assert out.jacobi_check().passed
        for k in range(1, 6):
            assert out.diffs[k - 1] == ds_form(g, data, mono(5, (k,)))

    def test_jacobi_recheck_survives_python_O(self):
        # validate_shear forced to call an invalid F0 valid: the Jacobi re-check
        # of the built algebra must still refuse it with assertions compiled out
        script = textwrap.dedent(f"""
            import dataclasses, sys
            from lieshear import KForm, ShearData, Vector, apply_shear, parse_salamon, shear
            real = shear.validate_shear
            shear.validate_shear = lambda g, data, base=None: dataclasses.replace(
                real(g, data, base), valid=True)
            g = parse_salamon({S5!r})
            data = ShearData(X=Vector.basis(5, 4), alpha=KForm.monomial(5, (4,)),
                             F0=KForm.monomial(5, (1, 4)))
            try:
                apply_shear(g, data)
            except AssertionError as exc:
                print("raised", sys.flags.optimize, exc)
            else:
                print("returned", sys.flags.optimize)
        """)
        src = str(Path(lieshear.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.startswith("raised 1 validity/Jacobi equivalence broken"), proc.stderr


class TestShearBase:
    def test_equal_algebra_is_accepted(self):
        base = ShearBase.prepare(parse_salamon(S5), Vector.basis(5, 4), mono(5, (4,)))
        g = parse_salamon(S5)
        assert base.g is not g
        assert validate_shear(g, data_on(g, 4, mono(5, (1, 3))), base).valid

    @pytest.mark.parametrize("other", ["algebra", "X", "alpha"])
    def test_base_for_other_data_raises(self, other):
        g = parse_salamon("(0,0,12,0)")
        x, alpha = Vector.basis(4, 4), mono(4, (4,))
        base = ShearBase.prepare(LieAlgebra.abelian(4) if other == "algebra" else g, x, alpha)
        if other == "X":
            x = Vector([0, 0, 1, 1])
        if other == "alpha":
            alpha = alpha + mono(4, (1,))
        with pytest.raises(ShearDataError, match=f"another {other}"):
            validate_shear(g, ShearData(X=x, alpha=alpha, F0=mono(4, (1, 2))), base)

    def test_linear_form_decides_leg_free_deformations(self):
        # with X . F0 = 0, validity is eta_closed and leg_free_defect(F0) = 0, for every a
        verdicts = set()
        for g, data in random_shears(120):
            (k,) = [i for i, x in enumerate(data.X.components, start=1) if x]
            f0 = KForm(g.dim, 2, {m: c for m, c in data.F0.terms.items() if not m >> (k - 1) & 1})
            base = ShearBase.prepare(g, data.X, data.alpha)
            valid = validate_shear(g, ShearData(X=data.X, alpha=data.alpha, F0=f0, a=data.a), base).valid
            assert valid == (base.eta_closed and base.leg_free_defect(f0).is_zero())
            verdicts.add(valid)
        assert verdicts == {True, False}

    def test_eta_closed_only_fails_off_jacobi(self):
        # eta is minus the character of the ideal span(X), closed by Jacobi
        assert ShearBase.prepare(parse_salamon(S5), Vector.basis(5, 4), mono(5, (4,))).eta_closed
        base = ShearBase.prepare(parse_salamon("(12,34,0,0)"), Vector.basis(4, 1), mono(4, (1,)))
        assert base.decomp.eta == -mono(4, (2,)) and not base.eta_closed


class TestApplyTwist:
    def test_golden_pair(self):
        h3 = parse_salamon("(0,0,12)")
        flat = apply_twist(h3, mono(3, (3,)), mono(3, (1, 2), -1))
        assert print_salamon(flat) == "(0,0,0)"
        back = apply_twist(flat, mono(3, (3,)), mono(3, (1, 2)))
        assert print_salamon(back) == "(0,0,12)"

    def test_rejects_f_outside_v1(self):
        h3 = parse_salamon("(0,0,12)")
        with pytest.raises(TwistError) as err:
            apply_twist(h3, mono(3, (3,)), mono(3, (1, 3)))
        assert "V1" in str(err.value)

    def test_rejects_alpha_inside_v1(self):
        h3 = parse_salamon("(0,0,12)")
        with pytest.raises(TwistError, match="^alpha must lie outside V1$"):
            apply_twist(h3, mono(3, (1,)), mono(3, (1, 2)))

    def test_rejects_zero_alpha_on_an_abelian_base(self):
        # V1 = 0 on an abelian base, so only alpha = 0 lies in it
        with pytest.raises(TwistError, match="^alpha must lie outside V1$"):
            apply_twist(LieAlgebra.abelian(4), KForm.zero(4, 1), mono(4, (1, 2)))

    def test_rejects_non_nilpotent(self):
        g = parse_salamon(S5)
        with pytest.raises(TwistError):
            apply_twist(g, mono(5, (4,)), KForm.zero(5, 2))

    def test_rejects_non_closed_f(self):
        g = parse_salamon("(0,0,12,13)")
        # e24 is not closed: d(e24) = -e2 ^ e13
        with pytest.raises(TwistError):
            apply_twist(g, mono(4, (4,)), mono(4, (2, 4)))

    def test_step_three_twist(self):
        g = parse_salamon("(0,0,12,13)")
        out = apply_twist(g, mono(4, (4,)), mono(4, (1, 2)))
        assert print_salamon(out) == "(0,0,12,12+13)"
        assert out.jacobi_check().passed

    def test_alpha_off_the_frame(self):
        h3 = parse_salamon("(0,0,12)")
        alpha = mono(3, (1,)) + mono(3, (3,))
        assert print_salamon(apply_twist(h3, alpha, mono(3, (1, 2), -1))) == "(0,0,0)"
        # z = E5 is the last row of n^(1) = span(E4, E5) off ker alpha, alpha(E5) = 2
        g = parse_salamon("(0,0,0,12,13)")
        alpha = mono(5, (1,)) - mono(5, (4,)) + 2 * mono(5, (5,))
        out = apply_twist(g, alpha, mono(5, (2, 3)))
        assert print_salamon(out) == "(0,0,0,12,13+1/2.23)"
        assert out.jacobi_check().passed

    def test_abelian_base_splits_from_the_support_of_f(self):
        ab4 = LieAlgebra.abelian(4)
        assert print_salamon(apply_twist(ab4, mono(4, (4,)), mono(4, (1, 2)))) == "(0,0,0,12)"
        # z = E3 is the last row of ker e12 = span(E3, E4) off ker alpha, alpha(E3) = 1
        alpha = mono(4, (2,)) + mono(4, (3,))
        assert print_salamon(apply_twist(ab4, alpha, mono(4, (1, 2)))) == "(0,0,12,0)"
        with pytest.raises(TwistError, match="^F must have no alpha-leg on an abelian base$"):
            apply_twist(ab4, mono(4, (1,)) + mono(4, (2,)), mono(4, (1, 2)))

    def test_matches_the_splitting_construction(self):
        # apply_twist against W + span(alpha) = g*, solved for X, on random
        # nilpotent bases of step 1-4 and abelian ones; about half refuse
        rng = random.Random(15)
        outcomes = set()
        for case in range(600):
            if case % 4 == 0:
                g = LieAlgebra.abelian(rng.randint(2, 6))
            else:
                g = random_nilpotent(rng, rng.randint(3, 7))
                if g.series().step_length > 4:
                    continue
            alpha = random_form(rng, g.dim, 1, max_terms=3)
            if rng.random() < 0.5:
                alpha = alpha + mono(g.dim, (g.dim,), rng.choice([1, -2, Fraction(1, 3)]))
            f2 = random_closed_two_form(rng, g) if rng.random() < 0.9 else random_form(rng, g.dim, 2, 3)
            results = []
            for twist in (apply_twist, reference_twist):
                try:
                    results.append(twist(g, alpha, f2).diffs)
                except TwistError as exc:
                    results.append(str(exc))
            assert results[0] == results[1], (print_salamon(g), str(alpha), str(f2))
            outcomes.add(results[0].split(":")[0] if isinstance(results[0], str) else "twist")
        assert outcomes == {"twist", "alpha must lie outside V1", "F is not in Lambda^2 V1",
                            "F must have no alpha-leg on an abelian base", "F must be closed"}


class TestDsForm:
    def test_kahler_omega(self):
        g = LieAlgebra.abelian(6)
        omega = mono(6, (1, 2)) + mono(6, (3, 4)) + mono(6, (5, 6))
        for a in (Fraction(-1), Fraction(1), Fraction(3)):
            assert ds_form(g, data_on(g, 1, mono(6, (1, 2)), a=a), omega).is_zero()

    def test_g2_psi(self):
        g = g_lm(1, 2)
        assert ds_form(g, data_on(g, 1, mono(7, (2, 3))), psi4()).is_zero()

    def test_no_x_leg_reduces_to_d(self):
        g = parse_salamon(S5)
        data = data_on(g, 4, mono(5, (1, 3)))
        form = mono(5, (1, 2))  # i_{E4} form = 0
        assert ds_form(g, data, form) == g.d(form)

    def test_matches_new_differential_on_generators(self):
        g = parse_salamon(S5)
        data = data_on(g, 4, mono(5, (1, 3)))
        out = apply_shear(g, data)
        for k in range(1, 6):
            assert ds_form(g, data, mono(5, (k,))) == out.diffs[k - 1]

    def test_antiderivation_and_square_zero_for_valid_shears(self):
        rng = random.Random(21)
        g = g_lm(1, 2)
        data = data_on(g, 1, mono(7, (2, 3)))
        assert validate_shear(g, data).valid
        for _ in range(40):
            a = random_form(rng, 7, rng.randint(0, 3))
            b = random_form(rng, 7, rng.randint(0, 3))
            sign = Fraction((-1) ** a.degree)
            lhs = ds_form(g, data, wedge(a, b))
            rhs = wedge(ds_form(g, data, a), b) + sign * wedge(a, ds_form(g, data, b))
            assert lhs == rhs
            assert ds_form(g, data, ds_form(g, data, a)).is_zero()


class TestAutomorphic:
    def test_e1_with_correct_eta_g(self):
        g = g_lm(1, 2)
        for a in (Fraction(-1), Fraction(1), Fraction(5)):
            data = data_on(g, 1, mono(7, (2, 3)), a=a, eta_g=mono(7, (7,), -3))
            ok, gamma = is_automorphic(g, data, mono(7, (1,)))
            assert ok
            assert gamma == mono(7, (7,), 3)

    def test_invariant_generators(self):
        g = g_lm(2, 7)
        data = data_on(g, 1, mono(7, (2, 3)), eta_g=mono(7, (7,), -9))
        for i in range(2, 8):
            ok, _ = is_automorphic(g, data, mono(7, (i,)))
            assert ok

    def test_wrong_eta_g_detected(self):
        g = g_lm(1, 2)
        data = data_on(g, 1, mono(7, (2, 3)), eta_g=KForm.zero(7, 1))
        ok, _ = is_automorphic(g, data, mono(7, (1,)))
        assert not ok

    def test_requires_eta_g(self):
        g = g_lm(1, 2)
        with pytest.raises(ShearDataError):
            is_automorphic(g, data_on(g, 1, mono(7, (2, 3))), mono(7, (1,)))


class TestInvert:
    def test_recovers_original_from_product_algebra(self):
        r = parse_salamon("(51,52,53,0,0)")
        data = invert_shear(r, data_on(r, 4, mono(5, (5, 4), -2)))
        assert data.F0 == mono(5, (5, 4), 2)
        assert print_salamon(apply_shear(r, data)) == S5

    def test_twist_pair_roundtrip(self):
        h3 = parse_salamon("(0,0,12)")
        data = data_on(h3, 3, mono(3, (1, 2), -1))
        flat = apply_shear(h3, data)
        inv = invert_shear(flat, data)
        assert apply_shear(flat, inv) == h3

    def test_zero_deformation_roundtrip(self):
        g = parse_salamon(S5)
        data = data_on(g, 4, KForm.zero(5, 2))
        assert invert_shear(g, data).F0.is_zero()

    def test_roundtrip_over_corpus(self):
        rng = random.Random(22)
        for g in paper_algebras():
            ideals = frame_ideal_indices(g)
            if not ideals:
                continue
            k = ideals[0]
            for _ in range(8):
                f0 = random_form(rng, g.dim, 2, max_terms=2)
                a = rng.choice([Fraction(-1), Fraction(1), Fraction(2), Fraction(-1, 2)])
                data = data_on(g, k, f0, a=a)
                rep = validate_shear(g, data)
                if not rep.valid:
                    continue
                out = apply_shear(g, data)
                inv = invert_shear(out, data)
                assert apply_shear(out, inv) == g


class TestEquivalence:
    def test_validity_iff_jacobi_on_random_data(self):
        rng = random.Random(23)
        agree = 0
        for g in paper_algebras():
            ideals = frame_ideal_indices(g)
            if not ideals:
                continue
            for _ in range(12):
                k = rng.choice(ideals)
                f0 = random_form(rng, g.dim, 2, max_terms=3)
                a = rng.choice([Fraction(-1), Fraction(1), Fraction(3), Fraction(-2, 3)])
                data = data_on(g, k, f0, a=a)
                rep = validate_shear(g, data)
                candidate = shear_candidate(g, data)
                assert rep.valid == candidate.jacobi_check().passed
                agree += 1
        assert agree >= 100
