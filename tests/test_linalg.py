import random
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from corpus import reference_det
from lieshear import linalg


def F(x):
    return Fraction(x)


class TestRref:
    def test_echelon_canonical(self):
        rows, pivots = linalg.rref([[F(2), F(4)], [F(1), F(2)]])
        assert rows == ((F(1), F(2)),)
        assert pivots == (0,)

    def test_rank_and_span(self):
        basis = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
        assert len(linalg.span_rref(basis)) == 2
        assert len(linalg.span_rref(basis + [[F(1), F(1), F(2)]])) == 2
        assert len(linalg.span_rref(basis + [[F(0), F(0), F(1)]])) == 3

    def test_subspace_equality_is_representation_free(self):
        a = [[F(1), F(1)], [F(1), F(-1)]]
        b = [[F(1), F(0)], [F(0), F(1)]]
        assert linalg.span_rref(a) == linalg.span_rref(b)


def greedy_completion(basis, ncols):
    # the reference: add each unit vector outside the span so far, in index order
    picked, current = [], [list(row) for row in basis]
    for j in range(ncols):
        unit = [F(i == j) for i in range(ncols)]
        if len(linalg.span_rref(current + [unit])) > len(linalg.span_rref(current)):
            picked.append(j)
            current.append(unit)
    return tuple(picked)


@st.composite
def row_sets(draw):
    ncols = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=ncols + 1))
    if rows and draw(st.booleans()):  # a dependent row: a combination of the others
        coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(ncols)])
    return rows, ncols


class TestComplement:
    @given(row_sets())
    def test_matches_the_greedy_loop(self, case):
        rows, ncols = case
        picked = linalg.complement(rows, ncols)
        assert picked == greedy_completion(rows, ncols)
        assert len(picked) == ncols - len(linalg.span_rref(rows))

    def test_edge_cases(self):
        assert linalg.complement([], 3) == (0, 1, 2)
        assert linalg.complement([[F(0), F(0), F(0)]], 3) == (0, 1, 2)
        assert linalg.complement(linalg.identity(3), 3) == ()
        assert linalg.complement([[F(1), F(1), F(0)], [F(2), F(2), F(0)]], 3) == (0, 2)
        assert linalg.complement([[F(0), F(1), F(1)]], 3) == (0, 1)


class TestNullspaceSolve:
    def test_nullspace_of_rank_one(self):
        ns = linalg.nullspace([[F(1), F(2), F(3)]], ncols=3)
        assert len(ns) == 2
        for v in ns:
            assert sum(c * x for c, x in zip([F(1), F(2), F(3)], v)) == 0

    def test_nullspace_empty_matrix_is_everything(self):
        assert len(linalg.nullspace([], ncols=3)) == 3


class TestDeterminants:
    def test_positive_definite(self):
        assert linalg.is_positive_definite([[F(2), F(1)], [F(1), F(2)]])
        assert not linalg.is_positive_definite([[F(1), F(2)], [F(2), F(1)]])
        assert not linalg.is_positive_definite([[F(0), F(1)], [F(-1), F(0)]])  # not symmetric
        assert not linalg.is_positive_definite([[F(2), F(1)], [F(0), F(2)]])  # not symmetric
        assert linalg.is_positive_definite([])

    @given(st.data())
    @settings(max_examples=200)
    def test_positive_definite_matches_sylvester(self, data):
        # A = B^T D B is definite, semidefinite, singular or indefinite by the
        # signs on the diagonal D and the rank of B; one shifted entry breaks symmetry
        n = data.draw(st.integers(0, 5))
        b = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))
        negative = data.draw(st.integers(0, n))
        zero = data.draw(st.integers(0, n - negative))
        positive = data.draw(st.lists(st.sampled_from([1, Fraction(1, 3), 5]),
                                      min_size=n - negative - zero, max_size=n - negative - zero))
        diag = [-1] * negative + [0] * zero + positive
        a = [[sum((b[k][i] * diag[k] * b[k][j] for k in range(n)), F(0)) for j in range(n)] for i in range(n)]
        symmetric = n < 2 or data.draw(st.booleans())
        if not symmetric:
            a[0][1] += 1
        sylvester = all(reference_det([row[:k] for row in a[:k]]) > 0 for k in range(1, n + 1))
        assert linalg.is_positive_definite(a) == (symmetric and sylvester)


class TestCharpolyRoots:
    def test_charpoly_diagonal(self):
        # (x-1)(x-2) = x^2 - 3x + 2
        assert linalg.charpoly([[F(1), F(0)], [F(0), F(2)]]) == [F(2), F(-3), F(1)]

    def test_charpoly_matches_det_at_points(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            cp = linalg.charpoly(m)
            for x in (F(0), F(1), F(-2), Fraction(1, 2)):
                shifted = [[x * (i == j) - m[i][j] for j in range(n)] for i in range(n)]
                value = Fraction(0)
                for c in reversed(cp):
                    value = value * x + c
                assert value == reference_det(shifted)

    def test_rational_roots_with_multiplicity(self):
        # (x-1)^2 (x+3): x^3 + x^2 - 5x + 3
        roots, leftover = linalg.rational_roots([F(3), F(-5), F(1), F(1)])
        assert roots == [(F(-3), 1), (F(1), 2)]
        assert leftover == 0

    def test_rational_roots_fractional(self):
        # (2x-1)(x-2) = 2x^2 - 5x + 2
        roots, leftover = linalg.rational_roots([F(2), F(-5), F(2)])
        assert roots == [(Fraction(1, 2), 1), (F(2), 1)]
        assert leftover == 0

    def test_irrational_leftover(self):
        # x^2 - 2 has no rational roots
        roots, leftover = linalg.rational_roots([F(-2), F(0), F(1)])
        assert roots == []
        assert leftover == 2

    def test_zero_root_after_division(self):
        # x^2 (x - 1) presented as x^3 - x^2
        roots, leftover = linalg.rational_roots([F(0), F(0), F(-1), F(1)])
        assert roots == [(F(0), 2), (F(1), 1)]
        assert leftover == 0

    def test_restrict_operator(self):
        def restrict(op, basis):  # the operator given by the images of the basis
            return linalg.restrict_operator(basis, [linalg.mat_vec(op, b) for b in basis])

        op = [[F(2), F(0), F(0)], [F(0), F(3), F(0)], [F(0), F(0), F(5)]]
        basis = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
        assert restrict(op, basis) == [[F(2), F(0)], [F(0), F(3)]]
        tilted = [[F(0), F(1), F(1)]]  # not invariant under diag(2,3,5)
        assert restrict(op, tilted) is None
        # a tilted invariant plane of a non-diagonal operator: w1 -> 2 w1 + w2, w2 -> -w1 + 3 w2
        op = [[2, 0, 1], [0, 3, 1], [-3, 2, 5]]
        plane = [[F(1), F(1), F(0)], [F(0), F(1), F(-1)]]
        restricted = restrict(op, plane)
        assert restricted == [[F(2), F(-1)], [F(1), F(3)]]
        for j, b in enumerate(plane):  # column j's coordinates rebuild the image of b
            image = [sum(row[j] * w[k] for row, w in zip(restricted, plane)) for k in range(3)]
            assert image == linalg.mat_vec(op, b)
        # int images, as the bracket formula leaves them, give the same matrix
        int_images = [[2, 3, -1], [-1, 2, -3]]
        assert linalg.restrict_operator(plane, int_images) == restricted
        assert restrict(op, [[F(0), F(0), F(1)]]) is None
        assert linalg.restrict_operator([], []) == []  # the zero subspace

    def test_products_of_int_matrices_are_fractions(self):
        # the Fraction start keeps results Fractions: two ints would divide to a float
        a = [[1, 2], [0, -3]]
        v = linalg.mat_vec(a, [4, 5])
        m = linalg.mat_mul(a, a)
        assert v == [F(14), F(-15)] and m == [[F(1), F(-4)], [F(0), F(9)]]
        zero = linalg.mat_vec([[0, 0]], [4, 5])  # every entry of the row skipped
        assert all(type(x) is Fraction for x in [*v, *m[0], *m[1], *zero])


# -- Fraction reference implementations ----------------------------------------
# Gauss-Jordan, Gaussian elimination and Faddeev-LeVerrier on Fraction rows.
# The reduced echelon form, the determinant and the characteristic polynomial
# are unique, so the integer versions in linalg must agree with them exactly.


def reference_rref(vectors):
    m = [[Fraction(x) for x in row] for row in vectors]
    if not m:
        return (), ()
    pivots, r = [], 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def reference_charpoly(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*mk)] for row in m]
        ck = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = ck
        for i in range(n):
            mk[i][i] += ck
    return coeffs


entries = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


@st.composite
def matrices(draw, max_rows=40, max_cols=8, square=False):
    ncols = draw(st.integers(0, max_cols))
    nrows = ncols if square else draw(st.integers(0, max_rows))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        # zero rows, duplicates and negated copies, in place to keep the shape
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        kind = draw(st.sampled_from(["zero", "duplicate", "negated"]))
        rows[i] = [0] * ncols if kind == "zero" else [x if kind == "duplicate" else -x for x in rows[j]]
    return rows


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


class TestIntegerElimination:
    @given(matrices())
    def test_rref_matches_fraction_gauss_jordan(self, rows):
        got = linalg.rref(rows)
        assert got == reference_rref(rows)
        assert all_fractions(got[0])

    @given(matrices(max_cols=7, square=True))
    def test_charpoly_matches_fraction_faddeev_leverrier(self, a):
        got = linalg.charpoly(a)
        assert got == reference_charpoly(a)
        assert all(type(c) is Fraction for c in got)

    def test_empty_matrix(self):
        assert linalg.charpoly([]) == [Fraction(1)]
        assert linalg.rref([]) == ((), ())

    @given(st.integers(0, 8).flatmap(lambda n: st.lists(entries, min_size=n, max_size=n)))
    def test_primitive_keeps_the_span(self, row):
        p = linalg.primitive(row)
        assert all(type(x) is int for x in p)
        assert linalg.span_rref([p]) == linalg.span_rref([row])
        assert gcd(*p) == 1 if any(row) else p == [0] * len(row)

    def test_primitive_examples(self):
        assert linalg.primitive([Fraction(1, 2), Fraction(-1, 3), 0]) == [3, -2, 0]
        assert linalg.primitive([4, -6, Fraction(8)]) == [2, -3, 4]
        assert linalg.primitive([0, Fraction(0)]) == [0, 0]
        assert linalg.primitive([]) == []


# -- reference root finder and nullspace ---------------------------------------
# The rational root theorem by divisor search, and the nullspace by one
# elimination for the pivots and a second one to bring the basis built from
# them to echelon form.  Both are exact; the divisor search takes work that
# grows with the size of the coefficients, so it only sees small ones.


def reference_poly_eval(coeffs, x):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def reference_divide_out_root(coeffs, root):
    # synthetic division by (x - root); exact, remainder must vanish
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    acc = Fraction(0)
    for k in range(n, 0, -1):
        acc = coeffs[k] + acc * root
        out[k - 1] = acc
    remainder = coeffs[0] + acc * root
    if remainder:
        raise ArithmeticError(f"{root} is not a root: remainder {remainder}")
    return out


def reference_divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


def reference_rational_roots(coeffs):
    poly = [Fraction(c) for c in coeffs]
    while len(poly) > 1 and not poly[-1]:
        poly.pop()
    roots = {}
    while len(poly) > 1:
        if not poly[0]:
            roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
            poly = poly[1:]
            continue
        scale = 1
        for c in poly:
            scale = scale * c.denominator // gcd(scale, c.denominator)
        ints = [int(c * scale) for c in poly]
        content = 0
        for v in ints:
            content = gcd(content, v)
        ints = [v // content for v in ints]
        a0, an = abs(ints[0]), abs(ints[-1])
        found = None
        for p in sorted(reference_divisors(a0)):
            for q in sorted(reference_divisors(an)):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if reference_poly_eval(poly, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        poly = reference_divide_out_root(poly, found)
    return sorted(roots.items(), key=lambda t: t[0]), len(poly) - 1


def reference_nullspace(vectors, ncols=None):
    if not vectors:
        return tuple(tuple(row) for row in linalg.identity(ncols))
    n = len(vectors[0])
    red, pivots = linalg.rref(vectors)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return linalg.span_rref(basis)


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


IRREDUCIBLE = {"x^2 - 2": [-2, 0, 1], "x^2 + 1": [1, 0, 1], "3x^3 - x + 5": [5, -1, 0, 3]}


@st.composite
def polynomials(draw):
    """Small-coefficient polynomials: products of rational linear factors,
    powers of x and irreducible factors, scaled by a possibly negative
    rational, with random coefficients added or zero top coefficients appended."""
    poly = [Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 4))):
        root = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        poly = poly_mul(poly, [-root, 1])
    for name in draw(st.lists(st.sampled_from(sorted(IRREDUCIBLE)), max_size=2)):
        poly = poly_mul(poly, IRREDUCIBLE[name])
    if draw(st.booleans()):  # a perturbation, usually without rational roots
        i = draw(st.integers(0, len(poly) - 1))
        poly[i] += draw(st.integers(-3, 3))
    return poly + [Fraction(0)] * draw(st.integers(0, 2))


class TestRationalRoots:
    @given(polynomials())
    def test_matches_the_divisor_search(self, poly):
        got = linalg.rational_roots(poly)
        assert got == reference_rational_roots(poly)
        assert all(type(r) is Fraction for r, _ in got[0])

    @given(st.lists(st.integers(-4, 4), max_size=7))
    def test_matches_the_divisor_search_on_int_coefficients(self, poly):
        assert linalg.rational_roots(poly) == reference_rational_roots(poly)

    def test_large_linear_factors_with_repeats(self):
        rng = random.Random(11)
        for _ in range(30):
            roots = [Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**6))
                     for _ in range(rng.randint(1, 5))]
            roots += rng.sample(roots, rng.randint(0, len(roots)))  # repeated roots
            poly = [Fraction(rng.choice([-7, -1, 1, 3]))]
            for r in roots:
                poly = poly_mul(poly, [-r, 1])
            poly = poly_mul(poly, IRREDUCIBLE["x^2 + 1"])
            want = sorted((r, roots.count(r)) for r in set(roots))
            assert linalg.rational_roots(poly) == (want, 2)

    def test_disguised_triangular_matrix(self):
        # P T P^-1, T upper triangular with large rational diagonal entries and
        # P unimodular: the eigenvalues are the diagonal, with multiplicity
        rng = random.Random(5)
        n = 9
        diag = [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**4)) for _ in range(6)]
        diag += diag[:3]
        t = [[diag[i] if i == j else F(rng.randint(-3, 3) if j > i else 0) for j in range(n)]
             for i in range(n)]
        # each row operation r_i += c r_j on P is the column operation
        # c_j -= c c_i on P^-1, so the two are built side by side
        p, p_inv = linalg.identity(n), linalg.identity(n)
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-2, -1, 1, 2])
            p[i] = [a + c * b for a, b in zip(p[i], p[j])]
            for row in p_inv:
                row[j] -= c * row[i]
        assert linalg.mat_mul(p, p_inv) == linalg.identity(n)
        a = linalg.mat_mul(linalg.mat_mul(p, t), p_inv)
        want = sorted((r, diag.count(r)) for r in set(diag))
        assert linalg.rational_roots(linalg.charpoly(a)) == (want, 0)

    def test_large_prime_product_is_irreducible(self):
        # x^2 - 2 scaled by 1000000007 * 999999937: a divisor search over the
        # leading coefficient would not finish
        assert linalg.rational_roots([-2, 0, 1000000007 * 999999937]) == ([], 2)

    def test_edge_cases(self):
        assert linalg.rational_roots([F(0)]) == ([], 0)
        assert linalg.rational_roots([F(5)]) == ([], 0)
        assert linalg.rational_roots([F(0), F(0), F(0), F(0)]) == ([], 0)
        assert linalg.rational_roots([F(0), F(0), F(-4)]) == ([(F(0), 2)], 0)


class TestOneEliminationNullspace:
    @given(matrices(max_rows=8))
    def test_matches_the_two_elimination_nullspace(self, rows):
        ncols = len(rows[0]) if rows else 3
        got = linalg.nullspace(rows, ncols=ncols)
        assert got == reference_nullspace(rows, ncols)
        assert all(type(row) is tuple and all_fractions([row]) for row in got)

    @given(matrices(max_rows=8))
    def test_tuple_and_fraction_rows_give_the_same_basis(self, rows):
        as_tuples = [tuple(Fraction(x) for x in row) for row in rows]
        ncols = len(rows[0]) if rows else 3
        assert linalg.nullspace(as_tuples, ncols=ncols) == linalg.nullspace(rows, ncols=ncols)

    def test_one_elimination_per_call(self, monkeypatch):
        calls = []
        rref = linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(1) or rref(rows))
        monkeypatch.setattr(linalg, "span_rref", None)
        basis = linalg.nullspace([[F(1), F(2), F(3)], [F(0), F(1), F(1)]], ncols=3)
        assert basis == ((F(1), F(1), F(-1)),) and len(calls) == 1
