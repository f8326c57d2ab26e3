import functools
import random
from fractions import Fraction
from itertools import combinations, product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from corpus import g_lm, incremental_bases, mono, psi4, random_form, reference_enumerate_f0, replaced
from lieshear import (
    KForm,
    LieAlgebra,
    SearchSpaceError,
    SearchSpec,
    SearchSpecError,
    ShearData,
    ShearDataError,
    Vector,
    enumerate_f0,
    interior,
    is_closed,
    lie,
    parse_salamon,
    preserves_closure,
    search,
    shear,
    shear_candidate,
    wedge,
)
from lieshear.shear import check_xi_ideal

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
        with pytest.raises(SearchSpecError):
            spec_on(g, 1, support=((2, 2),))

    @pytest.mark.parametrize("field", ["max_terms", "cap"])
    def test_counts_must_be_nonnegative(self, field):
        g = LieAlgebra.abelian(3)
        with pytest.raises(SearchSpecError, match=f"^{field} must be nonnegative$"):
            spec_on(g, 1, **{field: -1})
        assert getattr(spec_on(g, 1, **{field: 0}), field) == 0

    @pytest.mark.parametrize("field, value", [
        ("max_terms", 1.5), ("max_terms", True), ("cap", 2.5), ("cap", "10"),
    ])
    def test_counts_must_be_ints(self, field, value):
        g = LieAlgebra.abelian(3)
        with pytest.raises(SearchSpecError, match=f"^{field} must be an int, got {value!r}$"):
            spec_on(g, 1, **{field: value})

    @pytest.mark.parametrize("entry", [(1, 2, 3), (1,), (1, Fraction(2)), (True, 2), "12", 12],
                             ids=["triple", "single", "fraction", "bool", "str", "int"])
    def test_support_entries_must_be_pairs_of_ints(self, entry):
        g = LieAlgebra.abelian(3)
        with pytest.raises(SearchSpecError, match=r"^support entry .* must be a pair of ints$"):
            spec_on(g, 1, support=((2, 3), entry))
        assert spec_on(g, 1, support=([2, 3],)).support == ((2, 3),)

    @pytest.mark.parametrize("field, value, message", [
        ("X", Vector.basis(4, 4), "X has dimension 4, the base has dimension 5"),
        ("alpha", mono(6, (4,)), "alpha has dimension 6, the base has dimension 5"),
        ("preserve", (mono(5, (1, 4, 5)), mono(4, (1, 4))),
         r"preserve\[1\] has dimension 4, the base has dimension 5"),
    ], ids=["X", "alpha", "preserve"])
    def test_wrong_dimension_names_the_field(self, field, value, message):
        fields = {"X": Vector.basis(5, 4), "alpha": mono(5, (4,)), field: value}
        with pytest.raises(SearchSpecError, match=f"^{message}$"):
            SearchSpec(base=parse_salamon(S5), **fields)
        assert issubclass(SearchSpecError, ValueError)


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
        # the screen and every hit's validate_shear read the base the plan
        # built, first in the memo, so (base, X, alpha) is checked and split
        # once, and not again by a second search on the same algebra
        calls = []
        real = shear.check_xi_ideal
        monkeypatch.setattr(shear, "check_xi_ideal", lambda g, X: calls.append(X) or real(g, X))
        g = parse_salamon(S5)
        spec = spec_on(g, 4, max_terms=2)
        hits = enumerate_f0(spec)
        assert len(hits) == spec.candidate_count() == 73
        assert len(calls) == 1
        assert all(h.report.decomp is hits[0].report.decomp for h in hits)
        assert enumerate_f0(spec) == hits
        assert len(calls) == 1
        enumerate_f0(replaced(spec, base=parse_salamon(S5)))
        assert len(calls) == 2

    @pytest.mark.parametrize("preserve", [(), (psi4(),)], ids=["plain", "psi4"])
    def test_validates_once_per_hit(self, monkeypatch, preserve):
        # every candidate of a default support is screened by its condition
        # columns, so only the hits reach validate_shear
        calls = []
        real = search.validate_shear

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(search, "validate_shear", counted)
        spec = spec_on(g_lm(1, 2), 1, max_terms=2, preserve=preserve)
        hits = enumerate_f0(spec)
        assert len(calls) == len(hits) == (9 if preserve else 73)
        assert spec.candidate_count() == 451
        # X-leg e12, e13 beside leg-free e23, e45: the 24 candidates with an
        # X-leg all reach validate_shear, the 9 leg-free ones only as hits
        spec = spec_on(g_lm(1, 2), 1, support=((1, 2), (1, 3), (2, 3), (4, 5)), max_terms=2,
                       preserve=preserve)
        calls.clear()
        hits = enumerate_f0(spec)
        assert hits == reference_enumerate_f0(spec)
        leg_free_hits = sum(interior(spec.X, h.f0).is_zero() for h in hits)
        assert leg_free_hits == 3
        assert (spec.candidate_count(), len(calls)) == (33, 33 - 9 + leg_free_hits)

    def test_per_hit_work_on_the_s5_reference_search(self, monkeypatch):
        # counts, not timings: on leg-free hits validate_shear takes nu as the
        # shared zero one-form, the guard sums d(d e_k) once per hit for each
        # generator of the re-check set, on that hit's own d e_k, and each
        # support monomial's defect is built once per base.  x_4 = 1 and no
        # F0 has a monomial on d e_4 = -2 e45, so each hit's d e_4 + F_eff is
        # merged: the defects are the only forms shear._make builds
        g = parse_salamon(S5)
        spec = spec_on(g, 4, max_terms=3, coefficients=tuple(range(-2, 3)))
        base = shear.decompose_dalpha(g, spec.X, spec.alpha)
        assert base.eta_closed  # computed before the count, like the split
        interiors, defects, ds, makes = [], [], [], []
        real_interior, real_defect, real_d_terms = shear.interior, shear._monomial_defect, lie._d_terms
        real_make = shear._make
        monkeypatch.setattr(shear, "interior", lambda v, form: interiors.append(form) or real_interior(v, form))
        monkeypatch.setattr(shear, "_make", lambda dim, degree, terms: makes.append(degree) or
                            real_make(dim, degree, terms))
        monkeypatch.setattr(shear, "_monomial_defect",
                            lambda g, eta, mask: defects.append(mask) or real_defect(g, eta, mask))
        monkeypatch.setattr(lie, "_d_terms",
                            lambda diffs, items, terms: ds.append((diffs, dict(items))) or
                            real_d_terms(diffs, items, terms))
        hits = enumerate_f0(spec)
        assert len(hits) == spec.candidate_count() == 1545
        assert all(interior(spec.X, h.f0).is_zero() for h in hits)
        assert interiors == []
        _, recheck = base.plan
        assert recheck == (3,)  # d e_4 = -2 e45 is the one generator with a monomial on E4
        assert len(ds) == len(hits) * len(recheck)
        reads = [(h.sheared.diffs, h.sheared.diffs[k].terms) for h in hits for k in recheck]
        assert all(diffs is own and terms == own_terms for (diffs, terms), (own, own_terms) in zip(ds, reads))
        masks = [(1 << i - 1) | (1 << j - 1) for i, j in spec.effective_support()]
        assert sorted(defects) == sorted(masks) and len(masks) == 6
        assert makes == [3] * len(defects)

    @pytest.mark.parametrize("psi", [False, True], ids=["s5", "glm-psi4"])
    def test_one_support_scan_and_one_defect_per_monomial_per_search(self, monkeypatch, psi):
        # counts, not timings: a search reads its support once, for the box
        # count and the walk alike, and builds each support monomial's defect
        # once; building and counting a spec, as set-up may do untimed, runs
        # none of that and keeps nothing on the spec
        g = g_lm(1, 2) if psi else parse_salamon(S5)
        before = shear._BASES
        spec = spec_on(g, 1, max_terms=2, preserve=(psi4(),)) if psi else spec_on(g, 4, max_terms=3)
        assert spec.candidate_count() == (451 if psi else 233)
        assert shear._BASES is before and vars(spec).keys() == set(SearchSpec._fields)
        scans, defects = [], []
        real_support, real_defect = SearchSpec.effective_support, shear._monomial_defect
        monkeypatch.setattr(SearchSpec, "effective_support", lambda spec: scans.append(spec) or real_support(spec))
        monkeypatch.setattr(shear, "_monomial_defect",
                            lambda g, eta, mask: defects.append(mask) or real_defect(g, eta, mask))
        hits = enumerate_f0(spec)
        assert scans == [spec] and spec._count == (451 if psi else 233)  # the count the CLI reports
        masks = [(1 << i - 1) | (1 << j - 1) for i, j in real_support(spec)]
        assert sorted(defects) == sorted(masks) and len(masks) == (15 if psi else 6)
        # a second search plans again, on the defects the base keeps
        assert enumerate_f0(spec) == hits and scans == [spec, spec] and len(defects) == len(masks)

    @settings(max_examples=60)
    @given(st.data())
    def test_condition_columns_are_the_defects_and_the_wedges_with_the_legs(self, data):
        # the plan's matrix, read from term dicts, against KForm arithmetic:
        # ShearBase.defect and e_m ^ (X . sigma), for sigma of degree 3 and 4,
        # on supports with and without X-legs; the rows are compared as a
        # multiset, as the screen reads them in no particular order
        g, x, alpha = data.draw(st.sampled_from(random_bases()))
        n, X = g.dim, Vector(x)
        base = shear.decompose_dalpha(g, X, alpha)
        pairs = list(combinations(range(1, n + 1), 2))
        support = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
        masks = [(1 << i - 1) | (1 << j - 1) for i, j in support]
        legs = []
        for degree in (3, 4):
            terms = data.draw(st.dictionaries(st.sampled_from(list(combinations(range(1, n + 1), degree))),
                                              st.sampled_from([1, -2, Fraction(1, 2)]), min_size=1, max_size=4))
            legs.append(interior(X, sum((mono(n, idx, c) for idx, c in terms.items()), KForm.zero(n, degree))))
        images = [None if m & base._xmask else [base.defect(m), *(wedge(KForm(n, 2, {m: 1}), leg) for leg in legs)]
                  for m in masks]
        rows = sorted({(k, m) for image in images if image for k, f in enumerate(image) for m in f.terms})
        expected = [image and tuple(image[k].terms.get(m, 0) for k, m in rows) for image in images]
        got = search._condition_columns(base, masks, legs)
        assert [col is None for col in got] == [col is None for col in expected]
        got, expected = ([col for col in cols if col is not None] for cols in (got, expected))
        assert len({len(col) for col in got}) <= 1  # one row count: the columns are a matrix
        assert sorted(zip(*got)) == sorted(zip(*expected))

    @pytest.mark.parametrize("algebra, k", [(S5, 4), ("(12,34,0,0)", 1)], ids=["s5", "eta-not-closed"])
    def test_zero_constant_is_refused_once_per_search(self, algebra, k):
        # on (12,34,0,0) eta is not closed, so every candidate is dropped unbuilt
        spec = spec_on(parse_salamon(algebra), k, a=0)
        with pytest.raises(ShearDataError, match="^transfer constant a must be nonzero$"):
            enumerate_f0(spec)
        # the cap and the base's (X, alpha) are checked first
        with pytest.raises(SearchSpaceError):
            enumerate_f0(replaced(spec, cap=0))
        wrong = replaced(spec, alpha=2 * spec.alpha)
        with pytest.raises(ShearDataError, match=r"^alpha\(X\) must be 1, got 2$"):
            enumerate_f0(wrong)

    @pytest.mark.parametrize("a", [-1, 2, Fraction(-1, 2), Fraction(3, 4)])
    def test_per_search_constants_give_the_reference_hits(self, a):
        # F0 is assembled from the coefficients and F_eff from -1/a, fixed per
        # search, on leg-free and X-leg candidates alike
        coefficients = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1))
        for spec in (spec_on(g_lm(1, 2), 1, max_terms=2, coefficients=coefficients, a=a),
                     spec_on(parse_salamon(S5), 4, support=((1, 2), (1, 4), (2, 3), (3, 4), (4, 5)),
                             max_terms=2, coefficients=coefficients, a=a)):
            hits = enumerate_f0(spec)
            assert len(hits) > 1
            assert hits == reference_enumerate_f0(spec)
            for h in hits:
                assert h.report.f_eff == (-1 / spec.a) * h.f0
        with pytest.raises(ShearDataError, match="^transfer constant a must be nonzero$"):
            enumerate_f0(replaced(spec, a=0))

    def test_validate_shear_judges_what_the_screen_lets_through(self, monkeypatch):
        # a screen that passes every leg-free candidate sends invalid F0 to
        # validate_shear too, which refuses them: the hits stay the same
        spec = spec_on(g_lm(1, 2), 1, max_terms=2)
        expected = enumerate_f0(spec)
        monkeypatch.setattr(search, "_condition_columns", lambda base, masks, legs: [() for _ in masks])
        assert enumerate_f0(spec) == expected == reference_enumerate_f0(spec)

    def test_jacobi_guard_catches_a_hit_validation_let_through(self, monkeypatch):
        # with the screen passing every leg-free candidate and validate_shear
        # calling every report valid, an invalid F0 reaches _sheared; the
        # Jacobi re-check of its algebra must refuse it, also under
        # `python -O`, as the guard raises rather than asserts
        real = search.validate_shear
        monkeypatch.setattr(search, "validate_shear", lambda g, data: replaced(real(g, data), valid=True))
        monkeypatch.setattr(search, "_condition_columns", lambda base, masks, legs: [() for _ in masks])
        with pytest.raises(AssertionError, match="^validity/Jacobi equivalence broken for F_eff = "):
            enumerate_f0(spec_on(g_lm(1, 2), 1))

    @settings(max_examples=60)
    @given(st.data())
    def test_hits_equal_the_unguarded_shear_and_the_full_check(self, data):
        # each hit's algebra, built from the search's shear plan with the
        # partial Jacobi re-check, is shear_candidate's, and its report is
        # the full check's
        spec = data.draw(hit_specs())
        for h in enumerate_f0(spec):
            shear_data = ShearData(X=spec.X, alpha=spec.alpha, F0=h.f0, a=spec.a)
            assert h.sheared == shear_candidate(spec.base, shear_data)
            # d e_j + x_j F_eff, written here with the public form arithmetic
            assert h.sheared.diffs == tuple(d + x * shear_data.f_eff for d, x in zip(spec.base.diffs, spec.X))
            assert h.sheared.jacobi_check() == LieAlgebra(list(h.sheared.diffs)).jacobi_check()

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

    # (base, k, support: None for the first four default monomials, a, preserve, coefficients)
    ORACLE_CASES = [
        (parse_salamon(S5), 4, None, -1, (), (-1, 0, 1)),
        (parse_salamon("(0,0,12)"), 3, None, -1, (), (-1, 0, 1)),
        (LieAlgebra.abelian(4), 1, None, -1, (), (-1, 0, 1)),
        # X-leg monomials e14, e34, e45 bypass the screen
        (parse_salamon(S5), 4, ((1, 2), (1, 4), (2, 3), (3, 4), (4, 5)), 2, (), (-1, 0, 1)),
        (parse_salamon(S5), 4, ((1, 2), (1, 3), (1, 4), (2, 3), (4, 5)), Fraction(-1, 2),
         (mono(5, (1, 4, 5)),), (-1, 0, 1)),
        (g_lm(1, 2), 1, None, -1, (psi4(),), (-1, 0, 1)),
        (g_lm(1, -1), 1, ((1, 2), (2, 3), (2, 5), (3, 6), (5, 6)), 2, (psi4(),), (-1, 0, 1)),
        # hits such as -e13 + 2*e24 join an X-leg monomial to a leg-free one
        (parse_salamon("(0,0,12,13)"), 4, ((1, 3), (1, 4), (2, 4), (3, 4)), -1,
         (mono(4, (2, 3, 4)),), (-1, 0, Fraction(1, 2), 2)),
        # F0 ^ (e23 + 2*e45) = 0 asks c_e45 = -2 c_e23: columns meet unequal coefficients
        (LieAlgebra.abelian(5), 1, ((2, 3), (2, 4), (4, 5)), Fraction(-1, 2),
         (mono(5, (1, 2, 3)) + mono(5, (1, 4, 5), 2),), (-1, 0, Fraction(1, 2), 1)),
        # the same on e12 and e34 along E5: a column of a monomial on e_1 cancels another
        (LieAlgebra.abelian(5), 5, ((1, 2), (1, 3), (3, 4)), 2,
         (mono(5, (5, 1, 2)) + mono(5, (5, 3, 4), 2),), (-1, 0, Fraction(1, 2), 1)),
    ]

    def test_completeness_against_brute_force_oracle(self):
        """On tiny bounds the search must match direct Jacobi testing of every
        candidate algebra, and the per-candidate loop hit for hit."""
        for case in self.ORACLE_CASES:
            self._check_oracle(*case)

    @staticmethod
    def _check_oracle(base, k, support, a, preserve, coeffs):
        support = support or spec_on(base, k).effective_support()[:4]
        spec = spec_on(base, k, support=support, max_terms=min(len(support), 4),
                       coefficients=coeffs, a=a, preserve=preserve)
        hits = enumerate_f0(spec)
        assert hits == reference_enumerate_f0(spec)
        got = [h.f0 for h in hits]

        expected = []
        for t in range(spec.max_terms + 1):
            for mons in combinations(support, t):
                for cs in product([c for c in spec.coefficients if c], repeat=t):
                    f0 = KForm(base.dim, 2, {
                        (1 << (i - 1)) | (1 << (j - 1)): c
                        for (i, j), c in zip(mons, cs)
                    })
                    data = ShearData(X=Vector.basis(base.dim, k),
                                     alpha=mono(base.dim, (k,)), F0=f0, a=a)
                    candidate = shear_candidate(base, data)
                    # a closed sigma stays closed exactly when it is preserved
                    if candidate.jacobi_check().passed and all(is_closed(candidate, s) for s in preserve):
                        expected.append(f0)
        assert got == expected

    def test_matches_the_reference_on_random_specs(self):
        # whole hits (F0, report, algebra) against one validate_shear per candidate
        rng = random.Random(18)
        paths = set()
        for _ in range(40):
            spec = _random_spec(rng)
            hits = enumerate_f0(spec)
            assert hits == reference_enumerate_f0(spec), spec
            paths |= {interior(spec.X, h.f0).is_zero() for h in hits if not h.f0.is_zero()}
        assert paths == {True, False}  # both leg-free and X-leg hits occurred

    def test_x_leg_candidates_keep_the_preservation_oracle(self):
        # custom supports with X-leg monomials and random preserved forms: an
        # X-leg candidate is tested on the legs X . sigma of its search, and
        # every hit still passes the public predicate for every sigma
        rng = random.Random(23)
        x_leg_hits = refused = 0
        for _ in range(30):
            g, x, alpha = rng.choice(random_bases())
            X, pairs = Vector(x), list(combinations(range(1, g.dim + 1), 2))
            legged = [(i, j) for i, j in pairs if x[i - 1] or x[j - 1]]
            support = tuple({*rng.sample(legged, 2), *rng.sample(pairs, 3)})
            preserve = tuple(random_form(rng, g.dim, rng.choice([3, 4]), max_terms=3)
                             for _ in range(rng.randint(1, 2)))
            spec = SearchSpec(base=g, X=X, alpha=alpha, coefficients=rng.choice(RANDOM_COEFFS),
                              support=support, max_terms=2, preserve=preserve)
            hits = enumerate_f0(spec)
            assert hits == reference_enumerate_f0(spec), spec
            assert all(preserves_closure(g, X, h.f0, s) for h in hits for s in preserve)
            legged_hits = sum(not interior(X, h.f0).is_zero() for h in hits)
            x_leg_hits += legged_hits
            unchecked = enumerate_f0(replaced(spec, preserve=()))
            refused += sum(not interior(X, h.f0).is_zero() for h in unchecked) - legged_hits
        assert x_leg_hits and refused  # the legs let some X-leg candidates through, and refused some

    def test_search_on_a_base_with_eta_not_closed(self, monkeypatch):
        # span(E1) is an ideal of this non-Jacobi base, but eta = -e2 has
        # d eta = -e34: every leg-free candidate is refused before validation
        base = parse_salamon("(12,34,0,0)")
        spec = spec_on(base, 1, support=tuple(combinations(range(1, 5), 2)), max_terms=2, a=2)
        assert not base.jacobi_check().passed
        assert not shear.decompose_dalpha(base, spec.X, spec.alpha).eta_closed
        expected = reference_enumerate_f0(spec)
        calls = []
        real = search.validate_shear

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(search, "validate_shear", counted)
        assert enumerate_f0(spec) == expected
        # 73 candidates, 19 of them on the leg-free monomials e23, e24, e34 alone
        assert (spec.candidate_count(), len(calls)) == (73, 73 - 19)

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


@functools.cache
def random_bases():
    """(algebra, X, alpha): X spans an ideal; the non-basis X are eigenvectors of a
    repeated eigenvalue, and some alpha have a leg off X's frame vectors.  Built
    at its first use inside a test, so that a fault in the kernel fails the
    tests that use it, not the collection of this module."""
    return (
        *((parse_salamon(f"(51,52,53,{c}.54,0)"), (0, 0, 0, 1, 0), mono(5, (4,))) for c in ("1", "2", "-1", "1/2")),
        (parse_salamon(S5), (1, 1, 0, 0, 0), mono(5, (1,))),
        (parse_salamon(S5), (1, -2, 3, 0, 0), mono(5, (3,), Fraction(1, 3)) + mono(5, (4,), 2)),
        (g_lm(1, 2), (1, 0, 0, 0, 0, 0, 0), mono(7, (1,))),
        (g_lm(1, 1), (0, 1, 1, 0, 0, 0, 0), mono(7, (2,), Fraction(1, 2)) + mono(7, (3,), Fraction(1, 2))),
        (parse_salamon("(0,0,12,13)"), (0, 0, 0, 1), mono(4, (4,))),
        (LieAlgebra.abelian(5), (1, 1, 0, 0, 0), mono(5, (2,)) - mono(5, (5,))),
    )


RANDOM_COEFFS = [(-1, 0, 1), (-2, -1, 0, 1, 2), (-1, 0, Fraction(1, 2), 1), (0, Fraction(1, 3), Fraction(-3, 2))]


def _random_spec(rng):
    g, x, alpha = rng.choice(random_bases())
    n = g.dim
    support = None
    if rng.random() < 0.5:
        support = tuple(rng.sample(list(combinations(range(1, n + 1), 2)), rng.randint(3, 5)))
    preserve = tuple(random_form(rng, n, rng.choice([3, 4]), max_terms=2)
                     for _ in range(rng.choice([0, 0, 1, 2])))
    spec = SearchSpec(base=g, X=Vector(x), alpha=alpha, a=rng.choice([-1, 1, 2, Fraction(-1, 2), Fraction(3, 4)]),
                      coefficients=rng.choice(RANDOM_COEFFS), support=support,
                      max_terms=rng.randint(1, 3), preserve=preserve)
    while spec.candidate_count() > 150:
        spec = replaced(spec, max_terms=spec.max_terms - 1)
    return spec


def ideal_vectors(g):
    """Vectors spanning one-dimensional ideals of g: frame vectors, and sums
    u + c v of two of them with c in (1, -2)."""
    n = g.dim
    frame = [Vector.basis(n, k) for k in range(1, n + 1) if check_xi_ideal(g, Vector.basis(n, k)) is None]
    sums = [u + c * v for u, v in combinations(frame, 2) for c in (1, -2)]
    return frame + [v for v in sums if check_xi_ideal(g, v) is None]


@functools.cache
def hit_bases():
    """The Jacobi-passing bases, each with its ideal vectors, built at their
    first draw."""
    return tuple([(g, ideal_vectors(g)) for g in incremental_bases() if g.jacobi_check().passed])


@st.composite
def hit_specs(draw):
    """Search specs with a != -1 on a base passing Jacobi: X a multiple of an
    ideal vector, alpha(X) = 1 with an optional leg off X, and a support of
    leg-free monomials only, or of any monomials, X-legs included."""
    g, vectors = draw(st.sampled_from(hit_bases()))
    n = g.dim
    X = draw(st.sampled_from(vectors)) * draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(-1, 2)]))
    x = X.components
    q = max(k for k in range(n) if x[k])
    alpha = mono(n, (q + 1,), 1 / x[q])
    off = [k for k in range(n) if not x[k]]
    if off and draw(st.booleans()):
        alpha = alpha + mono(n, (draw(st.sampled_from(off)) + 1,), draw(st.sampled_from([1, Fraction(-1, 2)])))
    pairs = list(combinations(range(1, n + 1), 2))
    leg_free = [(i, j) for i, j in pairs if not (x[i - 1] or x[j - 1])]
    pool = leg_free if leg_free and draw(st.booleans()) else pairs
    support = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True)))
    spec = SearchSpec(base=g, X=X, alpha=alpha, a=draw(st.sampled_from([1, 2, Fraction(-1, 2), Fraction(3, 4)])),
                      coefficients=draw(st.sampled_from(RANDOM_COEFFS)), support=support,
                      max_terms=draw(st.integers(1, 3)))
    while spec.candidate_count() > 150:
        spec = replaced(spec, max_terms=spec.max_terms - 1)
    return spec
