import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from corpus import g_lm, mono, psi4, random_form
from lieshear import (
    KForm,
    LieAlgebra,
    SearchSpaceError,
    SearchSpec,
    ShearData,
    Vector,
    enumerate_f0,
    is_closed,
    parse_salamon,
    shear,
    shear_candidate,
)

S5 = "(51,52,53,2.54,0)"


def spec_on(g, k, **kw):
    return SearchSpec(base=g, X=Vector.basis(g.dim, k), alpha=mono(g.dim, (k,)), **kw)


class TestSearchSpec:
    def test_coefficients_must_include_zero(self):
        g = LieAlgebra.abelian(3)
        with pytest.raises(ValueError):
            spec_on(g, 1, coefficients=(Fraction(1),))

    def test_constant_and_coefficients_must_be_exact(self):
        g = LieAlgebra.abelian(3)
        with pytest.raises(TypeError):
            spec_on(g, 1, a=0.5)
        with pytest.raises(TypeError):
            spec_on(g, 1, coefficients=(0, 1, 0.5))
        spec = spec_on(g, 1, a=2, coefficients=(1, 0, Fraction(1, 2)))
        assert spec.a == 2 and spec.coefficients == (0, Fraction(1, 2), 1)
        assert all(type(c) is Fraction for c in (spec.a, *spec.coefficients))

    def test_default_support_kills_x(self):
        g = parse_salamon(S5)
        support = spec_on(g, 4).effective_support()
        assert support == ((1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 5))

    def test_candidate_count(self):
        g = parse_salamon(S5)
        spec = spec_on(g, 4, support=((1, 2), (1, 3)), max_terms=2)
        # 1 + C(2,1)*2 + C(2,2)*4
        assert spec.candidate_count() == 9

    def test_bad_support_monomial(self):
        g = LieAlgebra.abelian(3)
        with pytest.raises(ValueError):
            spec_on(g, 1, support=((2, 2),))


class TestEnumerate:
    def test_finds_paper_deformation(self):
        g = parse_salamon(S5)
        hits = enumerate_f0(spec_on(g, 4, support=tuple(combinations((1, 2, 3, 5), 2))))
        found = {str(h.f0) for h in hits}
        assert "e13" in found
        assert KForm.zero(5, 2) in [h.f0 for h in hits]  # identity shear always valid

    def test_psi_preserving_search(self):
        g = g_lm(1, 2)
        hits = enumerate_f0(spec_on(g, 1, preserve=(psi4(),)))
        found = {str(h.f0) for h in hits}
        assert "e23" in found
        for h in hits:
            assert is_closed(h.sheared, psi4()) or h.f0.is_zero()

    def test_decomposes_dalpha_once_per_search(self, monkeypatch):
        calls = []
        real = shear.decompose_dalpha

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(shear, "decompose_dalpha", counted)
        g = parse_salamon(S5)
        spec = spec_on(g, 4, max_terms=2)
        assert len(enumerate_f0(spec)) == spec.candidate_count() == 73
        assert len(calls) == 1
        enumerate_f0(spec)
        assert len(calls) == 2

    def test_zero_coefficient_set_gives_identity_only(self):
        g = parse_salamon(S5)
        hits = enumerate_f0(spec_on(g, 4, coefficients=(Fraction(0),)))
        assert len(hits) == 1
        assert hits[0].f0.is_zero()
        assert hits[0].sheared == g

    def test_cap_enforced(self):
        g = LieAlgebra.abelian(6)
        with pytest.raises(SearchSpaceError):
            enumerate_f0(spec_on(g, 1, max_terms=6, cap=10))

    def test_deterministic_output(self):
        g = parse_salamon(S5)
        spec = spec_on(g, 4, max_terms=2, coefficients=(Fraction(-1), Fraction(0), Fraction(1)))
        runs = [
            [(str(h.f0), str(h.sheared.diffs[3])) for h in enumerate_f0(spec)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_ordering_key(self):
        g = LieAlgebra.abelian(4)
        hits = enumerate_f0(spec_on(g, 1, max_terms=2))
        keys = [
            (len(h.f0.terms), tuple(idx for idx, _ in h.f0.sorted_terms()),
             tuple(c for _, c in h.f0.sorted_terms()))
            for h in hits
        ]
        assert keys == sorted(keys)

    def test_completeness_against_brute_force_oracle(self):
        """On tiny bounds the search must match direct Jacobi testing of every
        candidate algebra."""
        for base, k in [(parse_salamon(S5), 4), (parse_salamon("(0,0,12)"), 3),
                        (LieAlgebra.abelian(4), 1)]:
            support = spec_on(base, k).effective_support()[:4]
            coeffs = (Fraction(-1), Fraction(0), Fraction(1))
            spec = spec_on(base, k, support=support, max_terms=len(support), coefficients=coeffs)
            got = [h.f0 for h in enumerate_f0(spec)]

            expected = []
            for t in range(len(support) + 1):
                for mons in combinations(support, t):
                    for cs in product((Fraction(-1), Fraction(1)), repeat=t):
                        f0 = KForm(base.dim, 2, {
                            (1 << (i - 1)) | (1 << (j - 1)): c
                            for (i, j), c in zip(mons, cs)
                        })
                        data = ShearData(X=Vector.basis(base.dim, k),
                                         alpha=mono(base.dim, (k,)), F0=f0)
                        if shear_candidate(base, data).jacobi_check().passed:
                            expected.append(f0)
            assert got == expected

    def test_soundness_random_specs(self):
        rng = random.Random(41)
        for base, k in [(parse_salamon(S5), 4), (g_lm(1, -1), 1)]:
            spec = spec_on(
                base,
                k,
                max_terms=2,
                coefficients=(Fraction(-1), Fraction(0), Fraction(2)),
            )
            for h in enumerate_f0(spec):
                assert h.report.valid
                assert h.sheared.jacobi_check().passed
