import random
from fractions import Fraction

import pytest

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
        assert linalg.subspace_eq(a, b)


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
