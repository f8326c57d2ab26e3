import functools
import gc
import os
import random
import subprocess
import sys
import textwrap
import threading
import weakref
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from corpus import (
    change_basis,
    frame_ideal_indices,
    g_lm,
    h_lm,
    mono,
    move_shear,
    paper_algebras,
    psi4,
    random_almost_abelian,
    random_closed_two_form,
    random_form,
    random_frame,
    random_nilpotent,
    random_shears,
    random_unimodular,
    reference_row,
    reference_shear,
    reference_twist,
    reference_validate_shear,
    replaced,
)
import lieshear
from lieshear import (
    InvalidShearError,
    KForm,
    LieAlgebra,
    ShearBase,
    ShearData,
    ShearDataError,
    ShearReport,
    TwistError,
    Vector,
    apply_shear,
    apply_twist,
    decompose_dalpha,
    ds_form,
    invert_shear,
    is_automorphic,
    linalg,
    parse_salamon,
    print_salamon,
    shear,
    shear_candidate,
    validate_shear,
    wedge,
)
from lieshear.exterior import interior, one_form, pullback

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


# every argument check of the module, by the call that trips it
E1, H3, ZERO2 = Vector.basis(3, 1), parse_salamon("(0,0,12)"), KForm.zero(3, 2)
S5_G = parse_salamon(S5)
REFUSALS = {
    "shear-data-dimensions": (ShearDataError, lambda: ShearData(X=E1, alpha=mono(4, (1,)), F0=ZERO2),
                              "mixed dimensions in shear data: [3, 4]"),
    "shear-data-eta-dimension": (ShearDataError, lambda: ShearData(X=E1, alpha=mono(3, (1,)), F0=ZERO2,
                                                                   eta_g=mono(4, (2,))),
                                 "mixed dimensions in shear data: [3, 4]"),
    "shear-data-alpha": (ShearDataError, lambda: ShearData(X=E1, alpha=mono(3, (1, 2)), F0=ZERO2),
                         "alpha must be a one-form"),
    "shear-data-f0": (ShearDataError, lambda: ShearData(X=E1, alpha=mono(3, (1,)), F0=mono(3, (2,))),
                      "F0 must be a two-form"),
    "shear-data-eta": (ShearDataError, lambda: ShearData(X=E1, alpha=mono(3, (1,)), F0=ZERO2, eta_g=mono(3, (2, 3))),
                       "eta_g must be a one-form"),
    "shear-data-a": (ShearDataError, lambda: ShearData(X=E1, alpha=mono(3, (1,)), F0=ZERO2, a=0),
                     "transfer constant a must be nonzero"),
    "shear-data-pairing": (ShearDataError, lambda: ShearData(X=E1, alpha=mono(3, (2,)), F0=ZERO2),
                           "alpha(X) must be 1, got 0"),
    "shear-data-eta-on-x": (ShearDataError, lambda: ShearData(X=E1, alpha=mono(3, (1,)), F0=ZERO2,
                                                              eta_g=mono(3, (1,), 3)),
                            "eta_g(X) must vanish, got 3"),
    "decompose-dimension": (ShearDataError, lambda: decompose_dalpha(H3, Vector.basis(4, 4), mono(4, (4,))),
                            "dimension mismatch: 4 vs 3"),
    "decompose-pairing": (ShearDataError, lambda: decompose_dalpha(H3, Vector.basis(3, 3), mono(3, (3,), 2)),
                          "alpha(X) must be 1, got 2"),
    "validate-eta-closed": (ShearDataError, lambda: validate_shear(S5_G, ShearData(
        X=Vector.basis(5, 4), alpha=mono(5, (4,)), F0=KForm.zero(5, 2), eta_g=mono(5, (1,)))),
                            "eta_g must be closed"),
    "invalid-shear": (InvalidShearError, lambda: apply_shear(S5_G, ShearData(
        X=Vector.basis(5, 4), alpha=mono(5, (4,)), F0=mono(5, (1, 4)))),
                      "invalid shear data, failed: df_eff_eq_eta0_wedge_f_eff, eta0_closed"),
    "ds-form-dimension": (ValueError, lambda: ds_form(H3, ShearData(X=Vector.basis(3, 3), alpha=mono(3, (3,)),
                                                                    F0=ZERO2), mono(4, (1,))),
                          "dimension mismatch: 4 vs 3"),
    "automorphic-eta": (ShearDataError, lambda: is_automorphic(H3, ShearData(X=Vector.basis(3, 3), alpha=mono(3, (3,)),
                                                                             F0=ZERO2), mono(3, (1,))),
                        "is_automorphic needs eta_g in the shear data"),
    "twist-dimension": (TwistError, lambda: apply_twist(H3, mono(4, (3,)), ZERO2), "dimension mismatch in twist data"),
    "twist-alpha": (TwistError, lambda: apply_twist(H3, mono(3, (1, 3)), ZERO2), "alpha must be a one-form"),
    "twist-f": (TwistError, lambda: apply_twist(H3, mono(3, (3,)), mono(3, (1,))), "F must be a two-form"),
    "twist-nilpotent": (TwistError, lambda: apply_twist(S5_G, mono(5, (4,)), KForm.zero(5, 2)),
                        "twist requires a nilpotent algebra"),
    "twist-closed": (TwistError, lambda: apply_twist(parse_salamon("(0,0,12,13)"), mono(4, (4,)), mono(4, (2, 4))),
                     "F must be closed"),
}


@pytest.mark.parametrize("error, call, message", REFUSALS.values(), ids=REFUSALS)
def test_malformed_arguments_are_refused(error, call, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


@functools.cache
def random_shear_cases():
    """random_shears()'s stream, built at its first use inside a test, so that
    a fault in the kernel fails the tests that use it, not the collection of
    this module."""
    return random_shears()


# drawn from the stream, which the deferred strategy builds at its first draw
SHEAR_CASES = st.deferred(lambda: st.sampled_from(random_shear_cases()))


class TestDerivedForms:
    @settings(max_examples=100)
    @given(SHEAR_CASES)
    def test_derived_forms_match_their_formulas(self, case):
        # eta_tilde, f_tilde and eta_bracket are read off the stored fields;
        # the reference computes each by its own formula
        g, data = case
        report = validate_shear(g, data)
        _, derived = reference_shear(g, data)
        assert report.eta_tilde == report.eta_0 == derived["eta_tilde"]
        assert report.f_tilde == report.decomp.f + report.f_prime == derived["f_tilde"]
        assert report.decomp.eta_bracket == -report.decomp.eta == derived["eta_bracket"]


TWO_FORM_MASKS_4 = [m for m in range(16) if m.bit_count() == 2]
NONZERO_FRACTIONS = st.fractions(-3, 3, max_denominator=4).filter(bool)


class TestShearBy:
    @given(st.lists(st.dictionaries(st.sampled_from(TWO_FORM_MASKS_4), NONZERO_FRACTIONS, max_size=4),
                    min_size=4, max_size=4),
           st.integers(0, 3), st.sampled_from([1, -1, 2, Fraction(1, 2)]),
           st.sampled_from(["disjoint", "overlap", "cancel"]),
           st.dictionaries(st.sampled_from(TWO_FORM_MASKS_4), NONZERO_FRACTIONS, max_size=4))
    def test_is_the_public_sum_with_canonical_coefficients(self, diffs, k, x, kind, drawn):
        # _shear_by merges the term dicts of d e_k and F_eff when x_k = 1 and
        # their masks are disjoint, and sums them otherwise; either way each
        # d e_j + x_j F_eff is the sum of KForm's own operators, stored canonically
        g = LieAlgebra([KForm(4, 2, terms) for terms in diffs])
        dk = g.diffs[k].terms
        if kind == "disjoint":
            fterms = {m: c for m, c in drawn.items() if m not in dk}
        elif kind == "overlap":
            fterms = {**drawn, **{m: c + 1 for m, c in dk.items()}}
        else:  # d e_k + x_k F_eff is zero on every mask of d e_k
            fterms = {**drawn, **{m: -Fraction(c) / x for m, c in dk.items()}}
        f_eff = KForm(4, 2, fterms)
        X = Vector([x if j == k else 0 for j in range(4)])
        sheared = shear._shear_by(g, shear._support(X), f_eff, ())
        for j, (form, x_j) in enumerate(zip(sheared.diffs, X.components)):
            assert form == g.diffs[j] + x_j * f_eff
            assert form.degree == 2
            for c in form.terms.values():
                assert c and (type(c) is int or type(c) is Fraction and c.denominator != 1)


class TestFrameChange:
    def test_validity_and_the_sheared_algebra_move_with_the_frame(self):
        # every fifth case of the stream, moved to the coframe f = P e: X goes
        # to P X, off the frame vectors, so each x_j of d e_j + x_j F_eff counts
        rng = random.Random(26)
        cases = random_shear_cases()[::5]
        off_frame = valid = 0
        for g, data in cases:
            frame = random_unimodular(rng, g.dim, 2 * g.dim)
            moved_g, moved = change_basis(g, frame=frame), move_shear(data, frame)
            report, moved_report = validate_shear(g, data), validate_shear(moved_g, moved)
            assert moved_report.conditions == report.conditions
            assert moved_report.valid == shear_candidate(moved_g, moved).jacobi_check().passed
            if report.valid:
                assert apply_shear(moved_g, moved) == change_basis(apply_shear(g, data), frame=frame)
                valid += 1
            off_frame += any(x not in (0, 1) for x in moved.X)
        assert 10 < valid < len(cases) - 10 and off_frame > len(cases) // 2

    @settings(max_examples=60)
    @given(SHEAR_CASES, st.randoms(use_true_random=False), st.booleans())
    def test_every_report_form_moves_with_the_frame(self, case, rng, rational):
        # P unimodular, or P = U D with D a positive rational diagonal, which
        # rescales X, alpha and the structure constants
        g, data = case
        frame = random_frame(rng, g.dim, rational)
        _, q = frame
        report = validate_shear(g, data)
        moved_report = validate_shear(change_basis(g, frame=frame), move_shear(data, frame))
        for name in ("eta_prime", "eta_0", "f_prime", "nu", "f_eff"):
            assert getattr(moved_report, name) == pullback(q, getattr(report, name)), name
        assert moved_report.decomp.eta == pullback(q, report.decomp.eta)
        assert moved_report.decomp.f == pullback(q, report.decomp.f)
        assert moved_report.conditions == report.conditions

    @settings(max_examples=60)
    @given(SHEAR_CASES, st.randoms(use_true_random=False), st.booleans())
    def test_inversion_transfer_and_automorphy_move_with_the_frame(self, case, rng, rational):
        # eta_g is a closed one-form killing X, drawn from their echelon basis
        g, data = case
        n = g.dim
        masks = sorted({m for f in g.diffs for m in f.terms})
        rows = [[f.terms.get(m, 0) for f in g.diffs] for m in masks] + [list(data.X.components)]
        closed = linalg.nullspace(rows, n)
        eta_g = sum((rng.choice([-1, 1, Fraction(1, 2)]) * one_form(row) for row in closed), KForm.zero(n, 1))
        data = replaced(data, eta_g=eta_g)
        frame = random_frame(rng, n, rational)
        _, q = frame
        moved_g, moved = change_basis(g, frame=frame), move_shear(data, frame)
        form = random_form(rng, n, rng.randint(1, min(3, n)))
        assert ds_form(moved_g, moved, pullback(q, form)) == pullback(q, ds_form(g, data, form))
        automorphic, gamma = is_automorphic(g, data, form)
        assert is_automorphic(moved_g, moved, pullback(q, form)) == (automorphic, pullback(q, gamma))
        report = validate_shear(g, data)
        assert validate_shear(moved_g, moved).conditions == report.conditions
        if report.valid:
            sheared = apply_shear(g, data)
            moved_sheared = apply_shear(moved_g, moved)
            assert moved_sheared == change_basis(sheared, frame=frame)
            assert invert_shear(moved_sheared, moved) == move_shear(invert_shear(sheared, data), frame)

    @settings(max_examples=80)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_the_twist_moves_with_the_frame(self, rng, rational):
        # apply_twist takes X from an echelon basis of Z (n^(r-1), or ker F on
        # an abelian base), which depends on the frame: the moved twist is the
        # shear along the moved X plus Y, a vector of Z killed by alpha
        g = LieAlgebra.abelian(rng.randint(2, 5)) if rng.random() < 0.25 else random_nilpotent(rng, rng.randint(3, 6))
        alpha = random_form(rng, g.dim, 1, max_terms=3)
        if rng.random() < 0.5:
            alpha = alpha + mono(g.dim, (g.dim,), rng.choice([1, -2, Fraction(1, 3)]))
        f2 = random_closed_two_form(rng, g) if rng.random() < 0.9 else random_form(rng, g.dim, 2, 3)
        frame = random_frame(rng, g.dim, rational)
        _, q = frame
        moved_g, moved_alpha, moved_f2 = change_basis(g, frame=frame), pullback(q, alpha), pullback(q, f2)
        twisted = outcome(apply_twist, g, alpha, f2)
        moved_twisted = outcome(apply_twist, moved_g, moved_alpha, moved_f2)
        if not isinstance(twisted, LieAlgebra):
            assert not isinstance(moved_twisted, LieAlgebra) and moved_twisted[0] is twisted[0] is TwistError
            return
        assert isinstance(moved_twisted, LieAlgebra)
        if f2.is_zero():
            assert (twisted, moved_twisted) == (g, moved_g)
            return
        x = twist_vector(g, twisted, f2)
        moved = move_shear(ShearData(X=x, alpha=alpha, F0=f2), frame)
        assert apply_shear(moved_g, moved) == change_basis(twisted, frame=frame)
        y = [b - a for a, b in zip(moved.X, twist_vector(moved_g, moved_twisted, moved_f2))]
        assert moved_twisted == apply_shear(moved_g, replaced(moved, X=Vector([a + b for a, b in zip(moved.X, y)])))
        # Q y, the difference in the original frame, lies in Z and alpha kills it
        back = [sum(c * v for c, v in zip(row, y)) for row in q]
        rep = g.series()
        if rep.is_abelian:
            z = linalg.nullspace([reference_row(interior(Vector.basis(g.dim, i), f2)) for i in range(1, g.dim + 1)],
                                 g.dim)
        else:
            z = rep.lower_central[-2]
        assert len(linalg.span_rref([*z, back])) == len(linalg.span_rref(z))
        assert alpha(Vector(back)) == 0


def twist_vector(g, twisted, f2):
    """The X of a twist by a nonzero F, read off d e_j + e_j(X) F."""
    m, c = next(iter(f2.terms.items()))
    x = [Fraction((t - d).terms.get(m, 0)) / c for t, d in zip(twisted.diffs, g.diffs)]
    assert twisted.diffs == tuple(d + xj * f2 for d, xj in zip(g.diffs, x))
    return Vector(x)


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
        # on every call: a failing pair is never kept
        g = LieAlgebra.abelian(3)
        for _ in range(2):
            with pytest.raises(ShearDataError, match="alpha\\(X\\) must be 1, got 2"):
                decompose_dalpha(g, Vector.basis(3, 1), mono(3, (1,), 2))

    # on (51,52,53,2.54,0): E4, E1 + E2 and 2 E3 span ideals, E1 + E4 and E5 do not
    KEPT_XS = [(0, 0, 0, 1, 0), (1, 1, 0, 0, 0), (1, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, 2, 0, 0)]

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, len(KEPT_XS) - 1), st.integers(-1, 1), st.sampled_from([1, 2])),
                    min_size=2, max_size=12))
    def test_a_kept_decomposition_equals_a_fresh_one(self, steps):
        # (X, alpha) in turn on one algebra, repeats and failing pairs among them:
        # alpha is e_q / x_q tilted by a covector killing X, or twice that
        g = parse_salamon(S5)
        for i, tilt, scale in steps:
            comps = self.KEPT_XS[i]
            q = max(k for k, x in enumerate(comps) if x)
            p = (q + 1) % 5
            x = Vector(comps)
            alpha = mono(5, (q + 1,), Fraction(scale, comps[q])) + tilt * (
                mono(5, (p + 1,)) - mono(5, (q + 1,), Fraction(comps[p], comps[q])))
            outcomes = []
            for h in (g, LieAlgebra(g.diffs)):  # the kept algebra, and one with nothing kept
                try:
                    outcomes.append(decompose_dalpha(h, x, alpha))
                except ShearDataError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            if not isinstance(outcomes[0], str):
                dalpha = g.d(alpha)
                assert outcomes[0].eta == -interior(x, dalpha)
                assert outcomes[0].f == dalpha - wedge(outcomes[0].eta, alpha)

    def test_only_a_new_pair_is_checked_and_split(self, monkeypatch):
        calls = []
        check = lieshear.shear.check_xi_ideal
        monkeypatch.setattr(lieshear.shear, "check_xi_ideal", lambda g, X: calls.append(X) or check(g, X))
        g = parse_salamon(S5)
        kept, failing, other, third = (Vector.basis(5, 4), mono(5, (4,))), (Vector.basis(5, 5), mono(5, (5,))), \
            (Vector([1, 1, 0, 0, 0]), mono(5, (1,))), (Vector([0, 0, 2, 0, 0]), mono(5, (3,), Fraction(1, 2)))
        bases = []
        for x, alpha in (kept, kept, failing, kept, other, kept, third, other, kept):
            try:
                bases.append(decompose_dalpha(g, x, alpha))
            except ShearDataError:
                bases.append(None)
        # the failing pair is not kept, so it evicts nothing; a hit does not
        # move a base up, so the third pair evicts the kept one, built first
        assert calls == [kept[0], failing[0], other[0], third[0], kept[0]]
        # a kept base itself comes back, until two newer ones replace it
        assert bases[0] is bases[1] is bases[3] is bases[5] and bases[4] is bases[7]
        assert bases[8] == bases[0] and bases[8] is not bases[0]
        assert bases[2] is None and bases[4].X == other[0] and bases[6].X == third[0]
        assert lieshear.shear._BASES == (bases[8], bases[6]) and lieshear.shear._BASES[0] is bases[8]
        with pytest.raises(ShearDataError, match="not an ideal"):
            decompose_dalpha(g, *failing)

    def test_a_third_algebra_evicts_the_oldest_base(self, monkeypatch):
        # the memo is of the process, not of an algebra: the bases of the
        # last two algebras decomposed come back, newest first, and the
        # third evicts the first, though the pair is the same on all three
        calls = []
        check = lieshear.shear.check_xi_ideal
        monkeypatch.setattr(lieshear.shear, "check_xi_ideal", lambda g, X: calls.append(g) or check(g, X))
        pair = (Vector.basis(5, 4), mono(5, (4,)))
        g1, g2, g3 = (parse_salamon(S5) for _ in range(3))
        b1, b2 = decompose_dalpha(g1, *pair), decompose_dalpha(g2, *pair)
        assert lieshear.shear._BASES[0] is b2 and lieshear.shear._BASES[1] is b1
        assert decompose_dalpha(g1, *pair) is b1 and decompose_dalpha(g2, *pair) is b2
        b3 = decompose_dalpha(g3, *pair)
        assert b3.g is g3 and lieshear.shear._BASES[0] is b3 and lieshear.shear._BASES[1] is b2
        again = decompose_dalpha(g1, *pair)
        assert again is not b1 and again == b1 and again.g is g1
        assert len(calls) == 4 and all(h is g for h, g in zip(calls, (g1, g2, g3, g1)))

    @pytest.mark.parametrize("failing", ["dimension", "pairing", "ideal"])
    def test_a_failing_pair_neither_enters_nor_trims_the_memo(self, failing):
        g = parse_salamon(S5)
        kept = decompose_dalpha(g, Vector.basis(5, 4), mono(5, (4,)))
        other = decompose_dalpha(g, Vector([1, 1, 0, 0, 0]), mono(5, (1,)))
        x, alpha = {"dimension": (Vector.basis(4, 4), mono(4, (4,))),
                    "pairing": (Vector.basis(5, 4), mono(5, (4,), 2)),
                    "ideal": (Vector.basis(5, 5), mono(5, (5,)))}[failing]
        for _ in range(2):
            with pytest.raises(ShearDataError):
                decompose_dalpha(g, x, alpha)
        memo = lieshear.shear._BASES
        assert len(memo) == 2 and memo[0] is other and memo[1] is kept

    def test_a_round_trip_and_a_probe_build_two_bases(self, monkeypatch):
        # validate and apply on g, invert and apply back on the sheared
        # algebra, then probe g: the traffic the memo is sized for
        built = []
        check = lieshear.shear.check_xi_ideal
        monkeypatch.setattr(lieshear.shear, "check_xi_ideal", lambda g, X: built.append(g) or check(g, X))
        g = parse_salamon(S5)
        data, probe = data_on(g, 4, mono(5, (1, 3))), data_on(g, 4, mono(5, (2, 3)))
        report = validate_shear(g, data)
        sheared = apply_shear(g, data)
        back = apply_shear(sheared, invert_shear(sheared, data))
        probed = validate_shear(g, probe)
        assert back == g and report.valid and probed.valid
        assert len(built) == 2 and built[0] is g and built[1] is sheared
        assert probed.decomp is report.decomp and report.decomp.g is g

    def test_a_sheared_algebra_is_decomposed_afresh(self):
        # shearing by e13 along E4 adds F_eff = e13 to d e4 = d(alpha), so the
        # sheared algebra must split its own d(alpha), not read its base's
        g = parse_salamon(S5)
        data = data_on(g, 4, mono(5, (1, 3)))
        base = decompose_dalpha(g, data.X, data.alpha)
        sheared = apply_shear(g, data)
        again = decompose_dalpha(sheared, data.X, data.alpha)
        assert again.g is sheared and again.eta == base.eta
        assert again.f == base.f + mono(5, (1, 3)) == sheared.d(data.alpha) - wedge(again.eta, data.alpha)
        assert invert_shear(sheared, data).F0 == -data.F0

    def test_a_dropped_algebra_is_freed_without_a_collection(self):
        # no algebra holds its base, so a decomposed algebra is in no
        # reference cycle: with the cyclic collector off, the memo keeps a
        # dropped algebra alive only until two newer bases replace its own,
        # and then it is freed at once, its base's caches filled or not
        class Referable(LieAlgebra):
            __slots__ = ("__weakref__",)

        g = Referable(list(parse_salamon(S5).diffs))
        ref = weakref.ref(g)
        enabled = gc.isenabled()
        gc.disable()
        try:
            data = data_on(g, 4, mono(5, (1, 3)))
            apply_shear(g, data)
            validate_shear(g, data_on(g, 4, mono(5, (1, 4))))
            del g
            assert ref() is not None
            decompose_dalpha(parse_salamon(S5), data.X, data.alpha)
            assert ref() is not None
            decompose_dalpha(parse_salamon(S5), data.X, data.alpha)
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_validating_fresh_algebras_keeps_at_most_two_bases(self):
        # memory held for decompositions is bounded: with the collector off,
        # so that no base waits in a cycle, 1,000 algebras validated in turn
        # and dropped leave two of their bases tracked, the two the memo keeps
        diffs = parse_salamon(S5).diffs
        data = data_on(parse_salamon(S5), 4, mono(5, (1, 3)))
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(1000):
                validate_shear(LieAlgebra(diffs), data)
            ours = [o for o in gc.get_objects() if type(o) is ShearBase and o.g.diffs is diffs]
        finally:
            if enabled:
                gc.enable()
        assert len(ours) == 2 and all(any(o is b for b in lieshear.shear._BASES) for o in ours)

    def test_threads_sharing_an_algebra_read_whole_decompositions(self):
        # each thread decomposes and validates along its own (X, alpha) on one
        # algebra, so the memo of bases is replaced under it all the time while
        # other threads fill its monomial defects and cached properties; a
        # reader that mixed two bases, or read a half-filled cache, would
        # return a base or a report that differs from the fresh one
        g = parse_salamon(S5)
        pairs = [(Vector.basis(5, k), mono(5, (k,))) for k in range(1, 5)]
        want = [decompose_dalpha(LieAlgebra(g.diffs), x, alpha) for x, alpha in pairs]
        datas = [[ShearData(X=x, alpha=alpha, F0=mono(5, pair)) for pair in combinations(range(1, 6), 2)]
                 for x, alpha in pairs]
        reports = [[validate_shear(LieAlgebra(g.diffs), data) for data in row] for row in datas]
        wrong = []

        def work(k):
            for i in range(1000):
                j = i % len(datas[k])
                if decompose_dalpha(g, *pairs[k]) != want[k] or validate_shear(g, datas[k][j]) != reports[k][j]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k % 4,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not wrong
        assert {report.valid for row in reports for report in row} == {True, False}

    def test_one_plan_and_one_d_eta_per_pair(self, monkeypatch):
        # validate_shear, apply_shear and a leg-free probe, validated and
        # applied, on one (g, X, alpha) share the base the memo keeps: one shear
        # plan, whose re-check set is the one _recheck call, and d(eta)
        # taken once
        g = parse_salamon(S5)
        data, probe = data_on(g, 4, mono(5, (1, 3))), data_on(g, 4, mono(5, (2, 3)))
        eta = mono(5, (5,), 2)
        rechecks, diffs = [], []
        recheck, d = LieAlgebra._recheck, LieAlgebra.d
        monkeypatch.setattr(LieAlgebra, "_recheck",
                            lambda h, changed: rechecks.append((h, changed)) or recheck(h, changed))
        monkeypatch.setattr(LieAlgebra, "d", lambda h, form: diffs.append((h, form)) or d(h, form))
        report = validate_shear(g, data)
        sheared = apply_shear(g, data)
        probed = validate_shear(g, probe)
        probe_sheared = apply_shear(g, probe)
        assert rechecks == [(g, 1 << 3)]
        assert sum(h is g and form == eta for h, form in diffs) == 1
        assert report.decomp is probed.decomp is decompose_dalpha(g, data.X, data.alpha)
        assert report.valid and probed.valid and report.decomp.eta == eta
        monkeypatch.undo()
        assert (sheared, probe_sheared) == (shear_candidate(g, data), shear_candidate(g, probe))

    def test_shear_candidate_takes_no_plan(self, monkeypatch):
        # the oracle of the validity <=> Jacobi equivalence runs the full
        # Jacobi check: it asks for no re-check set and decomposes nothing
        g = parse_salamon(S5)
        calls = []
        recheck = LieAlgebra._recheck
        monkeypatch.setattr(LieAlgebra, "_recheck", lambda h, changed: calls.append(changed) or recheck(h, changed))
        before = lieshear.shear._BASES
        candidate = shear_candidate(g, data_on(g, 4, mono(5, (1, 4))))
        assert calls == [] and lieshear.shear._BASES is before
        assert not candidate.jacobi_check().passed
        assert candidate.jacobi_check() == LieAlgebra(list(candidate.diffs)).jacobi_check()

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.sampled_from(["validate", "apply", "invert"]),
                              st.integers(0, len(KEPT_XS) - 1),
                              st.lists(st.tuples(st.integers(0, 9), st.integers(-2, 2)), max_size=3)),
                    min_size=2, max_size=10))
    def test_interleaved_calls_match_the_reference_on_a_fresh_algebra(self, steps):
        # validate_shear, apply_shear and invert_shear in turn on one algebra,
        # over several (X, alpha), failing pairs among them: each outcome is
        # the reference's on a fresh algebra, whose bases are its own, and a
        # validation's base is the one the memo hands back for g
        g = parse_salamon(S5)
        monomials = list(combinations(range(1, 6), 2))
        for op, i, terms in steps:
            comps = self.KEPT_XS[i]
            q = max(k for k, x in enumerate(comps) if x)
            x, alpha = Vector(comps), mono(5, (q + 1,), Fraction(1, comps[q]))
            f0 = sum((mono(5, monomials[m], c) for m, c in terms), KForm.zero(5, 2))
            data = ShearData(X=x, alpha=alpha, F0=f0)
            call, reference = {"validate": (validate_shear, reference_validate_shear),
                               "apply": (apply_shear, reference_apply),
                               "invert": (invert_shear, reference_invert)}[op]
            got = outcome(call, g, data)
            if op == "validate" and isinstance(got, ShearReport):
                assert got.decomp is decompose_dalpha(g, x, alpha) and got.decomp.g is g
            fresh = LieAlgebra(g.diffs)
            want = outcome(reference, fresh, data)
            assert got == want, (op, comps, str(f0))
            if isinstance(want, ShearReport):
                assert want.decomp.g is fresh


def reference_apply(g, data):
    """apply_shear from the reference report and the unguarded shear."""
    report = reference_validate_shear(g, data)
    if not report.valid:
        raise InvalidShearError(report)
    return shear_candidate(g, data)


def reference_invert(g, data):
    """invert_shear from the reference: F0 negated, checked by reference_apply."""
    inverse = replaced(data, F0=-data.F0)
    reference_apply(g, inverse)
    return inverse


def outcome(call, *args):
    """What a call returns, or the class, message and report of its refusal."""
    try:
        return call(*args)
    except (ShearDataError, InvalidShearError, TwistError) as exc:
        return type(exc), str(exc), getattr(exc, "report", None)


class TestValidate:
    def test_golden_valid(self):
        g = parse_salamon(S5)
        rep = validate_shear(g, data_on(g, 4, mono(5, (1, 3))))
        assert rep.valid
        assert rep.eta_0 == mono(5, (5,), 2)  # eta_0 = eta
        assert rep.nu.is_zero()
        # the CLI prints the conditions in the report's own order
        assert tuple(rep.conditions) == ("xi_ideal", "df_eff_eq_eta0_wedge_f_eff", "eta0_closed",
                                         "eta0_vanishes_on_xi", "dnu_wedge_nu_zero", "dnu_zero",
                                         "f0_compatible_with_eta_g")

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
            import sys
            from lieshear import KForm, ShearData, ShearReport, Vector, apply_shear, parse_salamon, shear
            real = shear.validate_shear

            def called_valid(g, data):
                r = real(g, data)
                return ShearReport(valid=True, decomp=r.decomp, eta_prime=r.eta_prime, eta_0=r.eta_0,
                                   f_prime=r.f_prime, nu=r.nu, f_eff=r.f_eff, conditions=r.conditions)

            shear.validate_shear = called_valid
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


small_rationals = st.integers(-2, 2) | st.fractions(min_value=-3, max_value=3, max_denominator=4)

@functools.cache
def leg_free_bases():
    """(algebra, X, alpha) with X spanning an ideal and eta closed: basis and
    non-basis X (an eigenvector of a repeated eigenvalue), eta zero and not.
    Built at its first use inside a test, so that a fault in the kernel fails
    the tests that use it, not the collection of this module."""
    return (
        (parse_salamon(S5), (0, 0, 0, 1, 0), mono(5, (4,))),
        (parse_salamon(S5), (1, 1, 0, 0, 0), mono(5, (1,))),
        (parse_salamon(S5), (1, -2, 3, 0, 0), mono(5, (3,), Fraction(1, 3)) + mono(5, (5,), 2)),
        (parse_salamon("(0,0,12,13)"), (0, 0, 0, 1), mono(4, (4,))),
        (g_lm(1, 1), (0, 1, 1, 0, 0, 0, 0), mono(7, (2,), Fraction(1, 2)) + mono(7, (3,), Fraction(1, 2))),
        (LieAlgebra.abelian(5), (1, 1, 0, 0, 0), mono(5, (2,)) - mono(5, (5,))),
    )


@functools.cache
def _valid_leg_free(case):
    """The base of a case, a basis of Lambda^2 Ann(X), and a basis of
    the F0 in it that make a valid shear: the kernel of leg_free_defect."""
    g, x, alpha = leg_free_bases()[case]
    base = decompose_dalpha(g, Vector(x), alpha)
    ann = [one_form(row) for row in linalg.nullspace([x], g.dim)]
    forms = [wedge(u, v) for u, v in combinations(ann, 2)]
    defects = [g.d(f) - wedge(base.eta, f) for f in forms]
    rows = [[d.terms.get(m, 0) for d in defects] for m in sorted({m for d in defects for m in d.terms})]
    kernel = [sum((c * f for c, f in zip(vec, forms)), KForm.zero(g.dim, 2))
              for vec in linalg.nullspace(rows, len(forms))]
    return base, forms, kernel


class TestShearBase:
    def test_linear_form_decides_leg_free_deformations(self):
        # with X . F0 = 0, validity is eta_closed and leg_free_defect(F0) = 0, for every a
        verdicts = set()
        for g, data in random_shears(120):
            (k,) = [i for i, x in enumerate(data.X.components, start=1) if x]
            f0 = KForm(g.dim, 2, {m: c for m, c in data.F0.terms.items() if not m >> (k - 1) & 1})
            base = decompose_dalpha(g, data.X, data.alpha)
            assert validate_shear(g, data) == reference_validate_shear(g, data)
            leg_free = ShearData(X=data.X, alpha=data.alpha, F0=f0, a=data.a)
            report = validate_shear(g, leg_free)
            assert report == reference_validate_shear(g, leg_free)
            assert base.leg_free_defect(f0) == g.d(f0) - wedge(base.eta, f0)
            valid = shear_candidate(g, leg_free).jacobi_check().passed
            assert report.valid == valid == (base.eta_closed and base.leg_free_defect(f0).is_zero())
            verdicts.add(valid)
        assert verdicts == {True, False}

    @settings(max_examples=100)
    @given(st.deferred(lambda: st.integers(0, len(leg_free_bases()) - 1)),
           st.lists(small_rationals, min_size=15, max_size=15),
           st.lists(st.tuples(st.integers(0, 14), small_rationals), max_size=2), small_rationals.filter(bool))
    def test_leg_free_branch_matches_the_general_formulas(self, case, coeffs, noise, a):
        # F0 in Lambda^2 Ann(X), where X . F0 = 0 even when a monomial of F0
        # has an X-leg: the kernel combinations are valid, noise may break them
        base, forms, kernel = _valid_leg_free(case)
        f0 = sum((c * k for c, k in zip(coeffs, kernel)), KForm.zero(base.g.dim, 2))
        f0 = sum((c * forms[i % len(forms)] for i, c in noise), f0)
        data = ShearData(X=base.X, alpha=base.alpha, F0=f0, a=a)
        report = validate_shear(base.g, data)
        assert report == reference_validate_shear(base.g, data)
        assert report.valid == shear_candidate(base.g, data).jacobi_check().passed
        assert report.valid or noise

    def test_leg_free_cases_cover_eta_and_frame(self):
        cases = [_valid_leg_free(case) for case in range(len(leg_free_bases()))]
        assert all(base.eta_closed and kernel for base, _, kernel in cases)
        assert {base.eta.is_zero() for base, _, _ in cases} == {True, False}
        assert {sum(map(bool, base.X.components)) == 1 for base, _, _ in cases} == {True, False}
        # some F0 in Lambda^2 Ann(X) have monomials with an X-leg
        assert any(m >> i & 1 for base, forms, _ in cases for f in forms for m in f.terms
                   for i, x in enumerate(base.X.components) if x)

    @pytest.mark.parametrize("a", [-1, 2, Fraction(-1, 2)])
    @pytest.mark.parametrize("f0, nu, interior_calls", [
        (mono(5, (1, 3)) - mono(5, (2, 3)), KForm.zero(5, 1), 1),  # on X's support, X . F0 = 0 by cancellation
        (mono(5, (3, 4)) + mono(5, (4, 5), 2), KForm.zero(5, 1), 0),  # off X's support
        (mono(5, (1, 3)) + mono(5, (3, 5)), mono(5, (3,)), 1),  # a real X-leg
    ], ids=["cancelled", "off-support", "x-leg"])
    def test_nu_is_computed_only_for_an_f0_on_the_support_of_x(self, monkeypatch, f0, nu, interior_calls, a):
        # X = E1 + E2 spans an ideal of S5: nu = X . F0 is the interior product
        # only when a monomial of F0 meets X's support, else a shared zero one-form
        g, X = parse_salamon(S5), Vector([1, 1, 0, 0, 0])
        data = ShearData(X=X, alpha=mono(5, (1,)), F0=f0, a=a)
        expected = reference_validate_shear(g, data)
        calls = []
        monkeypatch.setattr(shear, "interior", lambda v, form: calls.append(form) or interior(v, form))
        report = validate_shear(g, data)
        assert report == expected and report.nu == nu and len(calls) == interior_calls

    def test_each_monomial_defect_is_built_once_and_read_by_mask(self, monkeypatch):
        # d e_m - eta ^ e_m in one term dict, for every monomial of bases with
        # eta zero and not, X in the frame and not
        built = []
        real = shear._monomial_defect
        monkeypatch.setattr(shear, "_monomial_defect", lambda g, eta, mask: built.append(mask) or real(g, eta, mask))
        for g, x, alpha in [*leg_free_bases(), (parse_salamon("(12,34,0,0)"), (1, 0, 0, 0), mono(4, (1,)))]:
            g = LieAlgebra(list(g.diffs))  # keeps no base, whatever other tests did with g
            base = decompose_dalpha(g, Vector(x), alpha)
            built.clear()
            masks = [(1 << i) | (1 << j) for i, j in combinations(range(g.dim), 2)]
            for mask in masks * 2:
                e = KForm(g.dim, 2, {mask: 1})
                assert base.defect(mask) == g.d(e) - wedge(base.eta, e)
            assert built == masks

    def test_eta_closed_only_fails_off_jacobi(self):
        # eta is minus the character of the ideal span(X), closed by Jacobi
        assert decompose_dalpha(parse_salamon(S5), Vector.basis(5, 4), mono(5, (4,))).eta_closed
        base = decompose_dalpha(parse_salamon("(12,34,0,0)"), Vector.basis(4, 1), mono(4, (1,)))
        assert base.eta == -mono(4, (2,)) and not base.eta_closed


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

    def test_refuses_data_that_is_invalid_on_the_given_algebra(self):
        # invert_shear validates -F0 on the algebra it is given, which need not
        # come from a valid shear: F0 = e14 is invalid on (51,52,53,2.54,0)
        g = parse_salamon(S5)
        with pytest.raises(InvalidShearError) as err:
            invert_shear(g, data_on(g, 4, mono(5, (1, 4), -1)))
        assert str(err.value) == "invalid shear data, failed: df_eff_eq_eta0_wedge_f_eff, eta0_closed"
        assert err.value.report == validate_shear(g, data_on(g, 4, mono(5, (1, 4))))

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
