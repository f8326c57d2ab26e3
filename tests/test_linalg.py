import random
from fractions import Fraction

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
        op = [[F(2), F(0), F(0)], [F(0), F(3), F(0)], [F(0), F(0), F(5)]]
        basis = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
        assert linalg.restrict_operator(op, basis) == [[F(2), F(0)], [F(0), F(3)]]
        tilted = [[F(0), F(1), F(1)]]  # not invariant under diag(2,3,5)
        assert linalg.restrict_operator(op, tilted) is None
        # a tilted invariant plane of a non-diagonal operator: w1 -> 2 w1 + w2, w2 -> -w1 + 3 w2
        op = [[2, 0, 1], [0, 3, 1], [-3, 2, 5]]
        plane = [[F(1), F(1), F(0)], [F(0), F(1), F(-1)]]
        restricted = linalg.restrict_operator(op, plane)
        assert restricted == [[F(2), F(-1)], [F(1), F(3)]]
        for j, b in enumerate(plane):
            coords = linalg.solve(linalg.transpose(plane), linalg.mat_vec(op, b))
            assert [row[j] for row in restricted] == list(coords)
        assert linalg.restrict_operator(op, [[F(0), F(0), F(1)]]) is None
        assert linalg.restrict_operator(op, []) == []  # the zero subspace

    def test_products_of_int_matrices_are_fractions(self):
        # charpoly divides traces of such products by k, which two ints would make a float
        a = [[1, 2], [0, -3]]
        v = linalg.mat_vec(a, [4, 5])
        m = linalg.mat_mul(a, a)
        assert v == [F(14), F(-15)] and m == [[F(1), F(-4)], [F(0), F(9)]]
        zero = linalg.mat_vec([[0, 0]], [4, 5])  # every entry of the row skipped
        assert all(type(x) is Fraction for x in [*v, *m[0], *m[1], *zero])
