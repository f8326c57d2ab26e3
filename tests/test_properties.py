"""Property-based checks of the algebraic laws behind every construction."""
import warnings
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from operator import mul

import hypothesis.strategies as st
from hypothesis import given, settings

from corpus import frame_ideal_indices, paper_algebras, random_shears
from lieshear import (
    KForm,
    LieAlgebra,
    ShearBase,
    ShearData,
    ShearReport,
    Vector,
    hodge_star_orthonormal,
    interior,
    parse_salamon,
    print_salamon,
    linalg,
    shear_candidate,
    validate_shear,
    wedge,
)
from lieshear.exterior import form_row

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def forms(draw, dim=None, degree=None, max_terms=4):
    n = dim if dim is not None else draw(st.integers(2, 7))
    k = degree if degree is not None else draw(st.integers(0, n))
    monomials = list(combinations(range(1, n + 1), k))
    chosen = draw(
        st.lists(st.sampled_from(monomials), max_size=min(max_terms, len(monomials)))
        if monomials
        else st.just([])
    )
    out = KForm.zero(n, k)
    for idx in chosen:
        out = out + KForm.monomial(n, idx, draw(coeffs))
    return out


@st.composite
def form_pairs(draw, total_max=None):
    n = draw(st.integers(2, 7))
    ka = draw(st.integers(0, n))
    kb_cap = n - ka if total_max is None else min(total_max - ka, n - ka)
    kb = draw(st.integers(0, max(0, kb_cap)))
    return draw(forms(dim=n, degree=ka)), draw(forms(dim=n, degree=kb))


@st.composite
def vectors(draw, dim):
    return Vector([draw(coeffs) for _ in range(dim)])


@st.composite
def public_forms(draw, dim, degree, max_terms=4):
    """A form built by the public constructor from Fraction values, integral
    ones such as Fraction(4, 2) included."""
    monomials = list(combinations(range(1, dim + 1), degree))
    chosen = draw(st.lists(st.sampled_from(monomials), max_size=min(max_terms, len(monomials))))
    return KForm(dim, degree, {
        sum(1 << (i - 1) for i in idx): Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 4)))
        for idx in chosen
    })


def assert_canonical(form: KForm) -> None:
    """Stored coefficients are nonzero, int exactly when integral, and the
    public constructor fed Fraction values rebuilds the same form."""
    for c in form.terms.values():
        assert c != 0
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)
    rebuilt = KForm(form.dim, form.degree, {m: Fraction(c) for m, c in form.terms.items()})
    assert rebuilt == form and hash(rebuilt) == hash(form) and str(rebuilt) == str(form)
    assert [(m, type(c)) for m, c in rebuilt.terms.items()] == [
        (m, type(c)) for m, c in form.terms.items()
    ]


class TestCanonicalCoefficients:
    @given(st.data())
    def test_every_operation_stores_canonical_terms(self, data):
        g = data.draw(st.sampled_from(ALGEBRAS))
        n = g.dim
        ka = data.draw(st.integers(0, n))
        a = data.draw(public_forms(n, ka))
        b = data.draw(public_forms(n, ka))
        c = data.draw(public_forms(n, data.draw(st.integers(0, n - ka))))
        s = data.draw(coeffs)
        v = data.draw(vectors(n))
        for form in (a, b, c, a + b, a - b, -a, s * a, a * s, wedge(a, c), interior(v, a), g.d(a)):
            assert_canonical(form)


class TestOneFormEvaluation:
    @given(st.data())
    def test_pairing_equals_per_term_determinants(self, data):
        n = data.draw(st.integers(1, 7))
        alpha = data.draw(forms(dim=n, degree=1, max_terms=n))
        v = data.draw(vectors(n))
        by_det = Fraction(0)
        for (i,), c in alpha.sorted_terms():
            by_det += c * linalg.det([[v.components[i - 1]]])
        assert alpha(v) == by_det


class TestWedgeLaws:
    @given(form_pairs())
    def test_graded_anticommutativity(self, pair):
        a, b = pair
        sign = Fraction((-1) ** (a.degree * b.degree))
        assert wedge(a, b) == sign * wedge(b, a)

    @given(st.data())
    def test_associativity(self, data):
        n = data.draw(st.integers(2, 7))
        a = data.draw(forms(dim=n, max_terms=3))
        b = data.draw(forms(dim=n, max_terms=3))
        c = data.draw(forms(dim=n, max_terms=3))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    @given(form_pairs())
    def test_bilinearity_in_first_slot(self, pair):
        a, b = pair
        two_a = 2 * a
        assert wedge(two_a, b) == 2 * wedge(a, b)


class TestInteriorLaws:
    @given(st.data())
    def test_antiderivation(self, data):
        a, b = data.draw(form_pairs())
        v = data.draw(vectors(a.dim))
        sign = Fraction((-1) ** a.degree)
        assert interior(v, wedge(a, b)) == wedge(interior(v, a), b) + sign * wedge(a, interior(v, b))

    @given(st.data())
    def test_square_zero(self, data):
        f = data.draw(forms())
        v = data.draw(vectors(f.dim))
        assert interior(v, interior(v, f)).is_zero()

    @given(st.data())
    def test_linearity_in_vector(self, data):
        f = data.draw(forms())
        v = data.draw(vectors(f.dim))
        w = data.draw(vectors(f.dim))
        assert interior(v + w, f) == interior(v, f) + interior(w, f)


class TestStarLaws:
    @given(st.data())
    def test_double_star_sign(self, data):
        f = data.draw(forms())
        orientation = data.draw(st.sampled_from([1, -1]))
        twice = hodge_star_orthonormal(hodge_star_orthonormal(f, orientation), orientation)
        assert twice == Fraction((-1) ** (f.degree * (f.dim - f.degree))) * f

    @given(st.data())
    def test_star_is_linear(self, data):
        n = data.draw(st.integers(2, 7))
        k = data.draw(st.integers(0, n))
        a = data.draw(forms(dim=n, degree=k))
        b = data.draw(forms(dim=n, degree=k))
        assert hodge_star_orthonormal(a + b) == hodge_star_orthonormal(a) + hodge_star_orthonormal(b)


ALGEBRAS = paper_algebras()


class TestDifferentialLaws:
    @given(st.data())
    def test_d_antiderivation(self, data):
        g = data.draw(st.sampled_from(ALGEBRAS))
        a = data.draw(forms(dim=g.dim, max_terms=3))
        b = data.draw(forms(dim=g.dim, max_terms=3))
        sign = Fraction((-1) ** a.degree)
        assert g.d(wedge(a, b)) == wedge(g.d(a), b) + sign * wedge(a, g.d(b))

    @given(st.data())
    def test_d_squared_zero_on_corpus(self, data):
        g = data.draw(st.sampled_from(ALGEBRAS))
        f = data.draw(forms(dim=g.dim))
        assert g.d(g.d(f)).is_zero()

    @given(st.data())
    def test_cartan_formula_consistency(self, data):
        # L_v(a ^ b) = L_v a ^ b + a ^ L_v b
        g = data.draw(st.sampled_from(ALGEBRAS))
        a = data.draw(forms(dim=g.dim, max_terms=2))
        b = data.draw(forms(dim=g.dim, max_terms=2))
        v = data.draw(vectors(g.dim))
        lhs = g.lie_derivative(v, wedge(a, b))
        rhs = wedge(g.lie_derivative(v, a), b) + wedge(a, g.lie_derivative(v, b))
        assert lhs == rhs


@st.composite
def algebra_diffs(draw):
    n = draw(st.integers(2, 6))
    return [draw(forms(dim=n, degree=2, max_terms=2)) for _ in range(n)]


def bracket_jacobi_oracle(g: LieAlgebra) -> bool:
    """Direct structure-constant Jacobi test, independent of d."""
    n = g.dim
    basis = [Vector.basis(n, i) for i in range(1, n + 1)]
    table = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            comps = [-g.diffs[k](basis[i - 1], basis[j - 1]) for k in range(n)]
            table[(i, j)] = Vector(comps)
            table[(j, i)] = Vector([-x for x in comps])

    def br(v, w):
        out = [Fraction(0)] * n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                coeff = v.components[i - 1] * w.components[j - 1]
                if coeff and i != j:
                    cij = table[(i, j)]
                    for t in range(n):
                        out[t] += coeff * cij.components[t]
        return Vector(out)

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                total = (
                    br(br(basis[i - 1], basis[j - 1]), basis[k - 1])
                    + br(br(basis[j - 1], basis[k - 1]), basis[i - 1])
                    + br(br(basis[k - 1], basis[i - 1]), basis[j - 1])
                )
                if not total.is_zero():
                    return False
    return True


class TestJacobiEquivalence:
    @given(algebra_diffs())
    @settings(max_examples=40)
    def test_d_squared_iff_bracket_jacobi(self, diffs):
        g = LieAlgebra(diffs)
        assert g.jacobi_check().passed == bracket_jacobi_oracle(g)

    def test_on_corpus(self):
        for g in ALGEBRAS:
            assert bracket_jacobi_oracle(g)

    @given(st.data())
    def test_bracket_is_minus_d_on_the_pair(self, data):
        # [v, w]_k = -(d e_k)(v, w), the pairing evaluated by determinants
        g = LieAlgebra(data.draw(algebra_diffs()))
        v, w = data.draw(vectors(g.dim)), data.draw(vectors(g.dim))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "bracket on an algebra failing", RuntimeWarning)
            b = g.bracket(v, w)
        for k in range(g.dim):
            assert b.components[k] == -g.diffs[k](v, w)

    @given(st.data())
    def test_ad_rows_are_minus_v_into_each_d(self, data):
        # row k of ad(v) is the one-form -(v . d e_k), entry types included
        g = LieAlgebra(data.draw(algebra_diffs()))
        v = data.draw(vectors(g.dim))
        reference = [form_row(interior(-1 * v, f)) for f in g.diffs]
        ad = g._ad(v.components)
        assert ad == reference
        assert [list(map(type, row)) for row in ad] == [list(map(type, row)) for row in reference]


def reference_ad(g: LieAlgebra, v) -> list[list]:
    """ad(v) built entry by entry, as the package did before brackets were
    read off the terms of d e_k: a term c e_ij (i < j) of d e_k puts -c v_i in
    column j and +c v_j in column i of row k."""
    comps = [x.numerator if x.denominator == 1 else x for x in v]
    rows = []
    for f in g.diffs:
        row = [0] * g.dim
        for mask, c in f.terms.items():
            i = (mask & -mask).bit_length() - 1
            j = mask.bit_length() - 1
            row[j] -= c * comps[i]
            row[i] += c * comps[j]
        rows.append([x if type(x) is int or x.denominator != 1 else x.numerator for x in row])
    return rows


def reference_bracket_span(g: LieAlgebra, left, right):
    """The dense span of brackets: the primitive integer multiple of ad(u) for
    each left row u, applied to each primitive right row with n^2 products."""
    n = g.dim
    right_ints = [linalg.primitive(v) for v in right]
    vecs = []
    for u in left:
        flat = linalg.primitive([x for row in reference_ad(g, linalg.primitive(u)) for x in row])
        ad_u = [flat[k:k + n] for k in range(0, n * n, n)]
        for v in right_ints:
            b = [sum(map(mul, row, v)) for row in ad_u]
            if any(b):
                vecs.append(b)
    return linalg.span_rref(vecs)


structure_constants = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(1, 3), Fraction(-2, 5)])
row_entries = st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(-2, 5)])


@st.composite
def structure_diffs(draw):
    """d e_k with int and Fraction structure constants, Jacobi or not."""
    n = draw(st.integers(2, 6))
    pairs = [(1 << (i - 1)) | (1 << (j - 1)) for i, j in combinations(range(1, n + 1), 2)]
    return [
        KForm(n, 2, {mask: draw(structure_constants) for mask in draw(st.lists(st.sampled_from(pairs), max_size=5))})
        for _ in range(n)
    ]


@st.composite
def row_lists(draw, n):
    """Rows in no echelon form, with zero rows and duplicates among them."""
    rows = draw(st.lists(st.tuples(*[row_entries] * n), max_size=4))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (Fraction(0),) * n)
    return rows


class TestSparseBrackets:
    @given(st.data())
    @settings(max_examples=60)
    def test_bracket_span_matches_dense_reference(self, data):
        g = LieAlgebra(data.draw(structure_diffs()))
        left, right = data.draw(row_lists(g.dim)), data.draw(row_lists(g.dim))
        assert g._bracket_span(left, right) == reference_bracket_span(g, left, right)
        full = linalg.span_rref(linalg.identity(g.dim))  # a lower-central step
        assert g._bracket_span(full, right) == reference_bracket_span(g, full, right)
        assert g._bracket_span(left, left) == reference_bracket_span(g, left, left)

    @given(st.data())
    def test_bracket_is_ad_applied(self, data):
        g = LieAlgebra(data.draw(structure_diffs()))
        v, w = data.draw(vectors(g.dim)), data.draw(vectors(g.dim))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "bracket on an algebra failing", RuntimeWarning)
            b = g.bracket(v, w)
        assert b.components == tuple(linalg.mat_vec(g._ad(v.components), w.components))
        assert all(type(x) is Fraction for x in b.components)


class TestSalamonRoundtrip:
    @given(algebra_diffs())
    def test_parse_print_identity(self, diffs):
        g = LieAlgebra(diffs)
        assert parse_salamon(print_salamon(g)) == g


class TestShearLaws:
    @given(st.data())
    @settings(max_examples=40)
    def test_validity_iff_jacobi(self, data):
        g = data.draw(st.sampled_from([a for a in ALGEBRAS if frame_ideal_indices(a)]))
        k = data.draw(st.sampled_from(frame_ideal_indices(g)))
        f0 = data.draw(forms(dim=g.dim, degree=2, max_terms=3))
        a = data.draw(st.sampled_from([Fraction(-1), Fraction(1), Fraction(2), Fraction(-1, 2)]))
        shear_data = ShearData(X=Vector.basis(g.dim, k), alpha=KForm.monomial(g.dim, (k,)), F0=f0, a=a)
        rep = validate_shear(g, shear_data)
        assert rep.valid == shear_candidate(g, shear_data).jacobi_check().passed

    @given(st.data())
    def test_frame_preservation(self, data):
        g = data.draw(st.sampled_from([a for a in ALGEBRAS if frame_ideal_indices(a)]))
        k = data.draw(st.sampled_from(frame_ideal_indices(g)))
        f0 = data.draw(forms(dim=g.dim, degree=2, max_terms=2))
        shear_data = ShearData(X=Vector.basis(g.dim, k), alpha=KForm.monomial(g.dim, (k,)), F0=f0)
        out = shear_candidate(g, shear_data)
        assert out.dim == g.dim
        for j in range(g.dim):
            if j != k - 1:
                assert out.diffs[j] == g.diffs[j]


RANDOM_SHEARS = random_shears()


class TestDecomposition:
    def test_eta_bracket_matches_the_bracket(self):
        # eta_bracket(E_i) = alpha([E_i, X]), computed here from g.bracket
        for g, data in RANDOM_SHEARS:
            n = g.dim
            mus = [data.alpha(g.bracket(Vector.basis(n, i), data.X)) for i in range(1, n + 1)]
            by_bracket = KForm(n, 1, {1 << k: mu for k, mu in enumerate(mus)})
            assert validate_shear(g, data).decomp.eta_bracket == by_bracket


class TestPreparedShearBase:
    def test_eta0_vanishes_on_xi_identically(self):
        for g, data in RANDOM_SHEARS:
            rep = validate_shear(g, data)
            assert rep.eta_0(data.X) == 0
            assert rep.conditions["eta0_vanishes_on_xi"] is True

    def test_prepared_base_gives_the_same_report(self):
        valid = 0
        for g, data in RANDOM_SHEARS:
            base = ShearBase.prepare(g, data.X, data.alpha)
            prepared, fresh = validate_shear(g, data, base), validate_shear(g, data)
            for f in fields(ShearReport):
                assert getattr(prepared, f.name) == getattr(fresh, f.name), f.name
            valid += fresh.valid
        assert 10 < valid < len(RANDOM_SHEARS) - 10
