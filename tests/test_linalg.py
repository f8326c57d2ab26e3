import random
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given

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
        assert linalg.in_span(basis, [F(1), F(1), F(2)])
        assert not linalg.in_span(basis, [F(0), F(0), F(1)])

    def test_subspace_equality_is_representation_free(self):
        a = [[F(1), F(1)], [F(1), F(-1)]]
        b = [[F(1), F(0)], [F(0), F(1)]]
        assert linalg.span_rref(a) == linalg.span_rref(b)


def greedy_completion(basis, ncols):
    # the reference: add each unit vector outside the span so far, in index order
    picked, current = [], [list(row) for row in basis]
    for j in range(ncols):
        unit = [F(i == j) for i in range(ncols)]
        if not linalg.in_span(current, unit):
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
        ns = linalg.nullspace([[F(1), F(2), F(3)]])
        assert len(ns) == 2
        for v in ns:
            assert sum(c * x for c, x in zip([F(1), F(2), F(3)], v)) == 0

    def test_nullspace_empty_matrix_is_everything(self):
        assert len(linalg.nullspace([], ncols=3)) == 3

    def test_solve_unique(self):
        sol = linalg.solve([[F(2), F(0)], [F(0), F(4)]], [F(6), F(8)])
        assert sol == (F(3), F(2))

    def test_solve_inconsistent(self):
        assert linalg.solve([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)]) is None


class TestDeterminants:
    def test_det_exact(self):
        assert linalg.det([[F(1), F(2)], [F(3), F(4)]]) == F(-2)

    def test_positive_definite(self):
        assert linalg.is_positive_definite([[F(2), F(1)], [F(1), F(2)]])
        assert not linalg.is_positive_definite([[F(1), F(2)], [F(2), F(1)]])
        assert not linalg.is_positive_definite([[F(0), F(1)], [F(-1), F(0)]])  # not symmetric


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
                assert linalg.poly_eval(cp, x) == linalg.det(shifted)

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

    def test_divide_out_a_non_root_raises(self):
        # x^2 - 1 divided by x - 2 leaves remainder 3
        with pytest.raises(ArithmeticError):
            linalg._divide_out_root([F(-1), F(0), F(1)], F(2))
        assert linalg._divide_out_root([F(-1), F(0), F(1)], F(1)) == [F(1), F(1)]

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
        for j, b in enumerate(plane):
            coords = linalg.solve(linalg.transpose(plane), linalg.mat_vec(op, b))
            assert [row[j] for row in restricted] == list(coords)
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


def reference_det(a):
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


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

    @given(matrices(max_cols=7, square=True))
    def test_det_matches_fraction_elimination(self, a):
        got = linalg.det(a)
        assert got == reference_det(a) and type(got) is Fraction

    def test_empty_matrix(self):
        assert linalg.charpoly([]) == [Fraction(1)]
        assert linalg.det([]) == Fraction(1)
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
