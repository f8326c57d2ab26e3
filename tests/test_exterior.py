import random
from fractions import Fraction
from itertools import permutations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from corpus import random_form, reference_det
from lieshear import KForm, Vector, hodge_star_orthonormal, interior, pullback, wedge
from lieshear.exterior import form_matrix, indices_of, one_form


def mono(dim, idx, c=1):
    return KForm.monomial(dim, idx, c)


class TestKForm:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            KForm(15, 1)
        # Lambda^4 of a 3-dimensional frame is zero, not an error
        assert KForm(3, 4) == KForm.zero(3, 0)
        assert hash(KForm(3, 4)) == hash(KForm.zero(3, 0))
        with pytest.raises(ValueError, match=r"^degree must be nonnegative, got -1$"):
            KForm(3, -1)
        with pytest.raises(ValueError):
            KForm(3, 4, {0b1111: 1})  # e1234 does not fit dimension 3

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

    @settings(max_examples=200)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.permutations(range(1, n + 1)).flatmap(lambda p: st.integers(0, n).map(lambda k: p[:k])),
        st.fractions().filter(bool))))
    def test_coefficient_reads_back_the_monomial(self, case):
        n, idx, c = case
        assert KForm.monomial(n, idx, c).coefficient(idx) == c

    def test_index_order_signs_both_ways(self):
        f = mono(3, (2, 1), 5)
        assert (str(f), f.coefficient((2, 1)), f.coefficient((1, 2))) == ("-5*e12", 5, -5)
        for read in (lambda idx: mono(5, idx), KForm.zero(5, 2).coefficient):
            with pytest.raises(ValueError, match=r"^repeated index 4$"):
                read((4, 4))


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
        total += c * reference_det(rows)
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

    @settings(max_examples=150)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(*[st.lists(small_rationals, min_size=n, max_size=n)] * 2)))
    def test_one_form_is_the_pairing(self, case):
        # int and Fraction coefficients alike, on the one evaluation path
        coeffs, comps = case
        value = one_form(coeffs)(Vector(comps))
        assert type(value) is Fraction
        assert value == sum(c * x for c, x in zip(coeffs, comps))

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

    def test_beyond_the_dimension_is_zero(self):
        for a, b in [(mono(3, (1, 2)), mono(3, (1, 3))), (mono(3, (1, 2, 3)), mono(3, (2,), 5))]:
            w = wedge(a, b)
            assert w.is_zero() and w.degree == a.degree + b.degree

    def test_repeated_index_kills_term(self):
        assert wedge(mono(3, (1, 2)), mono(3, (2, 3))).is_zero()


two_forms = st.integers(2, 9).flatmap(lambda n: st.dictionaries(
    st.sets(st.integers(1, n), min_size=2, max_size=2).map(lambda idx: sum(1 << (i - 1) for i in idx)),
    small_rationals, max_size=8).map(lambda terms: KForm(n, 2, terms)))


class TestFormMatrix:
    @settings(max_examples=100)
    @given(two_forms)
    def test_entries_are_the_values_on_frame_pairs(self, f):
        # W[i][j] = f(E_i, E_j) by KForm.__call__, so W is antisymmetric, and
        # row i is E_i . f, read back by one_form
        n = f.dim
        w = form_matrix(f)
        frame = [Vector.basis(n, i) for i in range(1, n + 1)]
        assert w == [[f(a, b) for b in frame] for a in frame]
        assert all(w[i][j] == -w[j][i] for i in range(n) for j in range(n))
        assert [one_form(row) for row in w] == [interior(a, f) for a in frame]

    def test_examples(self):
        w = form_matrix(Fraction(2, 3) * mono(3, (1, 3)) - mono(3, (2, 3)))
        assert w == [[0, 0, Fraction(2, 3)], [0, 0, -1], [Fraction(-2, 3), 1, 0]]
        # a zero form of any degree is the zero two-form
        assert form_matrix(KForm.zero(3, 1)) == [[0] * 3] * 3


class TestOneFormRows:
    def test_rejects_higher_degree(self):
        # the rows of W are the one-forms E_i . f, so only a two-form has them
        with pytest.raises(ValueError, match="^expected a two-form, got degree 3$"):
            form_matrix(mono(3, (1, 2, 3)))


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

    def test_refuses_a_degree_above_the_dimension(self):
        with pytest.raises(ValueError, match=r"^Hodge star needs degree at most 3, got 4$"):
            hodge_star_orthonormal(KForm.zero(3, 4))


# Sums and equality as they were while a form's degree was part of its value:
# zero forms were returned as they were, and compared equal across degrees
# only by a special case.  Kept as the reference the term-map rules are
# compared against, on degrees 0..n, where the two models both apply.


def reference_add(a: KForm, b: KForm) -> KForm:
    if a.degree != b.degree:
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        raise ValueError(f"degree mismatch in sum: {a.degree} vs {b.degree}")
    terms = dict(a.terms)
    for m, c in b.terms.items():
        terms[m] = terms.get(m, 0) + c
    return KForm(a.dim, a.degree, terms)


def reference_eq(a: KForm, b: KForm) -> bool:
    return (a.dim == b.dim and (a.degree == b.degree or a.is_zero() and b.is_zero())
            and a.terms == b.terms)


@st.composite
def form_pairs(draw):
    n = draw(st.integers(1, 5))

    def form():
        k = draw(st.integers(0, n))
        masks = [m for m in range(1 << n) if m.bit_count() == k]
        return KForm(n, k, draw(st.dictionaries(st.sampled_from(masks), small_rationals, max_size=3)))

    a = form()
    # the same terms, their negation, or a zero of another degree make equal and cancelling pairs
    b = draw(st.sampled_from([form(), KForm(n, a.degree, a.terms), -a, KForm.zero(n, draw(st.integers(0, n)))]))
    return a, b


class TestTermMapModel:
    @settings(max_examples=500)
    @given(form_pairs())
    def test_sum_and_equality_keep_their_results(self, pair):
        a, b = pair
        for x, y in (pair, pair[::-1]):
            try:
                want = reference_add(x, y)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    x + y
            else:
                got = x + y
                assert (got.degree, got.terms) == (want.degree, want.terms)
        assert (a == b) == reference_eq(a, b)
        if a == b:
            assert hash(a) == hash(b)


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


E1_3, E1_4 = Vector.basis(3, 1), Vector.basis(4, 1)


def assign(value, name):
    setattr(value, name, None)


# every argument check of the module, by the call that trips it
REFUSALS = {
    "kform-dimension": (ValueError, lambda: KForm(0, 1), "dimension must be in 1..14, got 0"),
    "kform-mask": (ValueError, lambda: KForm(3, 1, {0b1000: 1}), "monomial (4,) does not fit dimension 3"),
    "kform-mask-degree": (ValueError, lambda: KForm(3, 1, {0b11: 1}), "monomial (1, 2) has degree 2, expected 1"),
    "kform-coefficient": (TypeError, lambda: KForm(3, 1, {1: 0.5}), "coefficients must be exact rationals, got float"),
    "index-above": (ValueError, lambda: mono(3, (4,)), "index 4 out of range 1..3"),
    "index-zero": (ValueError, lambda: mono(3, (0, 1)), "index 0 out of range 1..3"),
    "coefficient-index": (ValueError, lambda: mono(3, (1, 2)).coefficient((1, 5)), "index 5 out of range 1..3"),
    "sum-dimension": (ValueError, lambda: mono(3, (1,)) + mono(4, (1,)), "dimension mismatch: 3 vs 4"),
    "sum-degree": (ValueError, lambda: mono(3, (1,)) - mono(3, (1, 2)), "degree mismatch in sum: 1 vs 2"),
    "call-count": (ValueError, lambda: mono(3, (1, 2))(E1_3), "need 2 vectors, got 1"),
    "call-dimension": (ValueError, lambda: mono(3, (1,))(E1_4), "dimension mismatch: 3 vs 4"),
    "kform-assign": (AttributeError, lambda: assign(mono(3, (1,)), "dim"), "KForm is immutable"),
    "vector-dimension": (ValueError, lambda: Vector([]), "dimension must be in 1..14, got 0"),
    "vector-basis-above": (ValueError, lambda: Vector.basis(3, 4), "basis index 4 out of range 1..3"),
    "vector-basis-zero": (ValueError, lambda: Vector.basis(3, 0), "basis index 0 out of range 1..3"),
    "vector-sum": (ValueError, lambda: E1_3 - E1_4, "dimension mismatch: 3 vs 4"),
    "vector-assign": (AttributeError, lambda: assign(E1_3, "components"), "Vector is immutable"),
    "wedge-dimension": (ValueError, lambda: wedge(mono(3, (1,)), mono(4, (2,))), "dimension mismatch: 3 vs 4"),
    "interior-dimension": (ValueError, lambda: interior(E1_4, mono(3, (1,))), "dimension mismatch: 4 vs 3"),
    "form-matrix-degree": (ValueError, lambda: form_matrix(mono(3, (1,))), "expected a two-form, got degree 1"),
    "form-row-degree": (ValueError, lambda: form_matrix(mono(3, (1, 2, 3))), "expected a two-form, got degree 3"),
    "hodge-orientation": (ValueError, lambda: hodge_star_orthonormal(mono(3, (1,)), 2), "orientation must be +1 or -1"),
    "pullback-rows": (ValueError, lambda: pullback([[1, 0], [0, 1]], mono(3, (1,))), "matrix must be 3x3"),
    "pullback-ragged": (ValueError, lambda: pullback([[1, 0, 0], [0, 1], [0, 0, 1]], mono(3, (1,))),
                        "matrix must be 3x3"),
}


@pytest.mark.parametrize("error, call, message", REFUSALS.values(), ids=REFUSALS)
def test_malformed_arguments_are_refused(error, call, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("value", [mono(3, (1,)), E1_3], ids=["kform", "vector"])
def test_other_operands_are_not_implemented(value):
    # the reflected operation gets its turn, and with none a sum is a TypeError
    # and a comparison is False
    kind = type(value).__name__
    assert value.__add__(1) is value.__sub__(1) is value.__eq__(1) is NotImplemented
    assert value != 1 and not value == "e1"
    for op, symbol in ((lambda: value + 1, "+"), (lambda: value - 1, "-")):
        with pytest.raises(TypeError) as err:
            op()
        assert str(err.value) == f"unsupported operand type(s) for {symbol}: '{kind}' and 'int'"
