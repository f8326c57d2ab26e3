import random
from fractions import Fraction
from itertools import permutations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from corpus import random_form
from lieshear import KForm, Vector, hodge_star_orthonormal, interior, linalg, pullback, wedge
from lieshear.exterior import form_row, indices_of, one_form


def mono(dim, idx, c=1):
    return KForm.monomial(dim, idx, c)


class TestKForm:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            KForm(15, 1)
        with pytest.raises(ValueError):
            KForm(3, 4)

    def test_drops_zero_coefficients(self):
        f = KForm(3, 1, {0b001: Fraction(0), 0b010: Fraction(2)})
        assert list(f.terms) == [0b010]

    def test_monomial_sign_normalization(self):
        assert mono(5, (5, 4)) == mono(5, (4, 5), -1)
        assert mono(5, (5, 1, 3)) == mono(5, (1, 3, 5))  # two transpositions

    def test_monomial_rejects_repeats(self):
        with pytest.raises(ValueError):
            mono(4, (2, 2))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mono(4, (1, 2)) + mono(4, (3,))

    def test_zero_is_degree_polymorphic(self):
        assert mono(4, (1, 2)) + KForm.zero(4, 3) == mono(4, (1, 2))

    def test_canonical_term_order(self):
        f = mono(4, (2, 3)) + mono(4, (1, 4)) + mono(4, (1, 3))
        assert [idx for idx, _ in f.sorted_terms()] == [(1, 3), (1, 4), (2, 3)]

    def test_evaluation(self):
        f = mono(3, (1, 2))
        assert f(Vector.basis(3, 1), Vector.basis(3, 2)) == 1
        assert f(Vector.basis(3, 2), Vector.basis(3, 1)) == -1
        assert f(Vector.basis(3, 1), Vector.basis(3, 3)) == 0

    def test_public_constructors_keep_every_check(self):
        with pytest.raises(TypeError):
            KForm(3, 1, {0b001: 0.5})
        with pytest.raises(TypeError):
            mono(3, (1,), 2.0)
        with pytest.raises(TypeError):
            KForm.scalar(3, 1.0)
        with pytest.raises(TypeError):
            mono(3, (1,)) * 0.5
        with pytest.raises(ValueError):
            KForm(3, 1, {0b1000: 1})  # e4 does not fit dimension 3
        with pytest.raises(ValueError):
            KForm(3, 1, {0b011: 1})  # e12 is not a one-form

    def test_coefficients_stored_canonically(self):
        f = KForm(3, 1, {0b001: Fraction(4, 2), 0b010: Fraction(1, 2), 0b100: True})
        assert f.terms == {0b001: 2, 0b010: Fraction(1, 2), 0b100: 1}
        assert [type(c) for c in f.terms.values()] == [int, Fraction, int]
        assert type(mono(3, (2, 1), Fraction(3)).terms[0b011]) is int

    def test_public_results_are_fractions(self):
        f = mono(3, (1, 2), 3)
        value = f(Vector.basis(3, 1), Vector.basis(3, 2))
        assert value == 3 and type(value) is Fraction
        assert type(f.coefficient((1, 2))) is Fraction
        assert type(f.coefficient((1, 3))) is Fraction
        assert type(KForm.scalar(3, 2)()) is Fraction
        assert type(mono(3, (1,))(Vector.basis(3, 2))) is Fraction
        assert type(Vector([1, 2]).components[0]) is Fraction


# Form evaluation as it was before successive interior products replaced it:
# each monomial's coefficient times the determinant of the vectors' components
# on its indices, kept as the reference the evaluation is compared against.


def reference_evaluate(form: KForm, vectors) -> Fraction:
    total = Fraction(0)
    if form.degree == 0:
        return total + form.terms.get(0, 0)
    for mask, c in form.terms.items():
        idx = indices_of(mask)
        rows = [[v.components[i - 1] for i in idx] for v in vectors]
        total += c * linalg.det(rows)
    return total


small_rationals = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def forms_and_vectors(draw):
    dim = draw(st.integers(1, 7))
    degree = draw(st.integers(0, dim))
    index_sets = draw(st.lists(st.sets(st.integers(1, dim), min_size=degree, max_size=degree),
                               max_size=6))
    form = KForm(dim, degree, {sum(1 << (i - 1) for i in idx): draw(small_rationals)
                               for idx in index_sets})
    vectors = [Vector(draw(st.lists(small_rationals, min_size=dim, max_size=dim)))
               for _ in range(degree)]
    return form, vectors


class TestEvaluation:
    @settings(max_examples=150)
    @given(forms_and_vectors())
    def test_matches_the_determinant_evaluation(self, case):
        form, vectors = case
        value = form(*vectors)
        assert type(value) is Fraction
        assert value == reference_evaluate(form, vectors)

    def test_slot_order(self):
        e1, e2, e3 = (Vector.basis(3, i) for i in (1, 2, 3))
        f = mono(3, (1, 2, 3), 2)
        assert f(e1, e2, e3) == 2 and f(e2, e1, e3) == -2 and f(e3, e1, e2) == 2
        assert KForm.scalar(3, Fraction(1, 2))() == Fraction(1, 2)
        assert KForm.zero(3, 0)() == 0


class TestWedge:
    def test_basis_case(self):
        assert wedge(mono(3, (1,)), mono(3, (2,))) == mono(3, (1, 2))

    def test_antisymmetry_basis(self):
        assert wedge(mono(3, (2,)), mono(3, (1,))) == mono(3, (1, 2), -1)

    def test_paper_coefficient_case(self):
        # 2e5 ^ e13 = 2 * e513 = 2 * e135
        left = wedge(mono(5, (5,), 2), mono(5, (1, 3)))
        assert left == mono(5, (1, 3, 5), 2)
        # matches e513 - e153 term by term
        assert mono(5, (5, 1, 3)) - mono(5, (1, 5, 3)) == mono(5, (1, 3, 5), 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(mono(3, (1,)), mono(4, (1,)))

    def test_repeated_index_kills_term(self):
        assert wedge(mono(3, (1, 2)), mono(3, (2, 3))).is_zero()


class TestOneFormRows:
    def test_round_trip(self):
        row = [Fraction(0), Fraction(2, 3), Fraction(-1)]
        alpha = one_form(row)
        assert alpha == Fraction(2, 3) * mono(3, (2,)) - mono(3, (3,))
        assert form_row(alpha) == row and form_row(KForm.zero(3, 2)) == [0, 0, 0]

    def test_rejects_higher_degree(self):
        with pytest.raises(ValueError):
            form_row(mono(3, (1, 2)))


class TestInterior:
    def test_basis_case(self):
        assert interior(Vector.basis(3, 1), mono(3, (1, 2))) == mono(3, (2,))

    def test_missing_index_gives_zero(self):
        assert interior(Vector.basis(3, 1), mono(3, (2, 3))).is_zero()

    def test_slot_signs(self):
        # E2 . e12 = -e1
        assert interior(Vector.basis(3, 2), mono(3, (1, 2))) == mono(3, (1,), -1)

    def test_degree_zero_returns_zero(self):
        assert interior(Vector.basis(3, 1), KForm.scalar(3, 5)).is_zero()

    def test_antiderivation_spot(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 6)
            a = random_form(rng, n, rng.randint(0, n - 1))
            b = random_form(rng, n, rng.randint(0, n - a.degree))
            v = Vector([Fraction(rng.randint(-2, 2)) for _ in range(n)])
            lhs = interior(v, wedge(a, b))
            sign = Fraction((-1) ** a.degree)
            rhs = wedge(interior(v, a), b) + sign * wedge(a, interior(v, b))
            assert lhs == rhs

    def test_square_zero(self):
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(2, 6)
            a = random_form(rng, n, rng.randint(1, n))
            v = Vector([Fraction(rng.randint(-2, 2)) for _ in range(n)])
            assert interior(v, interior(v, a)).is_zero()


class TestHodgeStar:
    def test_volume(self):
        assert hodge_star_orthonormal(KForm.scalar(4, 1)) == mono(4, (1, 2, 3, 4))
        assert hodge_star_orthonormal(KForm.scalar(4, 1), orientation=-1) == mono(4, (1, 2, 3, 4), -1)

    def test_single_covector_dim7(self):
        assert hodge_star_orthonormal(mono(7, (1,))) == mono(7, (2, 3, 4, 5, 6, 7))

    def test_double_star_sign_law_all_basis(self):
        for n in range(1, 8):
            for k in range(n + 1):
                for idx in permutations(range(1, n + 1), k):
                    if list(idx) != sorted(idx):
                        continue
                    f = mono(n, idx)
                    for orientation in (1, -1):
                        twice = hodge_star_orthonormal(hodge_star_orthonormal(f, orientation), orientation)
                        assert twice == Fraction((-1) ** (k * (n - k))) * f


class TestPullback:
    def test_identity(self):
        rng = random.Random(9)
        eye = [[Fraction(i == j) for j in range(4)] for i in range(4)]
        f = random_form(rng, 4, 2)
        assert pullback(eye, f) == f

    def test_standard_j_moves_e13_to_e24(self):
        # J: E1 -> E2, E2 -> -E1, E3 -> E4, E4 -> -E3
        j = [
            [0, -1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 1, 0],
        ]
        assert pullback(j, mono(4, (1, 3))) == mono(4, (2, 4))

    def test_functorial_for_composition(self):
        rng = random.Random(10)
        n = 3
        m1 = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        m2 = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        comp = [
            [sum(m1[i][t] * m2[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        f = random_form(rng, n, 2)
        assert pullback(m2, pullback(m1, f)) == pullback(comp, f)
