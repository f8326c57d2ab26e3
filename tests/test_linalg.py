import random
from fractions import Fraction
from math import gcd
from operator import mul

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from corpus import (random_unimodular, reference_charpoly, reference_det, reference_nullspace,
                    reference_rational_roots, reference_rref)
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
        assert linalg.complement([[int(i == j) for j in range(3)] for i in range(3)], 3) == ()
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
        assert linalg.definiteness([[F(2), F(1)], [F(1), F(2)]]) == 1
        assert linalg.definiteness([[F(-2), F(1)], [F(1), F(-2)]]) == -1
        assert linalg.definiteness([[F(1), F(2)], [F(2), F(1)]]) == 0  # indefinite
        assert linalg.definiteness([[F(1), F(0)], [F(0), F(0)]]) == 0  # semidefinite
        assert linalg.definiteness([[F(0), F(1)], [F(-1), F(0)]]) == 0  # not symmetric
        assert linalg.definiteness([[F(2), F(1)], [F(0), F(2)]]) == 0  # not symmetric
        assert linalg.definiteness([[F(-2), F(1)], [F(0), F(-2)]]) == 0  # not symmetric
        assert linalg.definiteness([[F(0), F(1)], [F(1), F(0)]]) == 0  # first pivot zero
        assert linalg.definiteness([[F(-1), F(0)], [F(0), F(1)]]) == 0  # pivots of -A: 1, -1
        assert linalg.definiteness([]) == 1

    @staticmethod
    def _sylvester_case(data):
        # A = B^T D B is definite, semidefinite, singular or indefinite by the
        # signs on the diagonal D and the rank of B; one shifted entry breaks symmetry.
        # Returns A and whether it is symmetric
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
        return a, symmetric

    @staticmethod
    def _sylvester(a):
        return all(reference_det([row[:k] for row in a[:k]]) > 0 for k in range(1, len(a) + 1))

    @given(st.data())
    @settings(max_examples=200)
    def test_positive_definite_matches_sylvester(self, data):
        # A is negative definite exactly when -A passes Sylvester's criterion
        a, symmetric = self._sylvester_case(data)
        negated = [[-x for x in row] for row in a]
        want = 1 if self._sylvester(a) else -1 if a and self._sylvester(negated) else 0
        assert linalg.definiteness(a) == (want if symmetric else 0)

    @given(st.data())
    @settings(max_examples=200)
    def test_negation_is_negative_definite_exactly_when_positive_definite(self, data):
        a, symmetric = self._sylvester_case(data)
        negated = [[-x for x in row] for row in a]
        assert (linalg.definiteness(negated) == -1) == bool(a and symmetric and self._sylvester(a))
        if a:
            assert linalg.definiteness(negated) == -linalg.definiteness(a)

    @given(st.data(), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_congruence_keeps_the_definiteness(self, data, rng):
        # Sylvester's law of inertia: Q^T A Q has the inertia of A for invertible
        # Q, here a random unimodular one, which makes the diagonal cases dense;
        # a non-symmetric A stays non-symmetric
        a, _ = self._sylvester_case(data)
        n = len(a)
        q, _ = random_unimodular(rng, n, 3 * n if n > 1 else 0)
        congruent = [[sum(q[k][i] * a[k][l] * q[l][j] for k in range(n) for l in range(n)) for j in range(n)]
                     for i in range(n)]
        assert linalg.definiteness(congruent) == linalg.definiteness(a)


class TestCharpolyRoots:
    def test_charpoly_diagonal(self):
        # (x-1)(x-2) = x^2 - 3x + 2
        assert linalg.charpoly([[1, 0], [0, 2]]) == [2, -3, 1]

    def test_charpoly_matches_det_at_points(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            cp = linalg.charpoly(m)
            for x in (F(0), F(1), F(-2), Fraction(1, 2)):
                shifted = [[x * (i == j) - m[i][j] for j in range(n)] for i in range(n)]
                value = Fraction(0)
                for c in reversed(cp):
                    value = value * x + c
                assert value == reference_det(shifted)

    def test_rational_roots_with_multiplicity(self):
        # (x-1)^2 (x+3): x^3 + x^2 - 5x + 3
        roots, leftover = linalg.rational_roots([3, -5, 1, 1])
        assert roots == [(-3, 1), (1, 2)]
        assert all(type(r) is int for r, _ in roots)
        assert leftover == 0

    def test_irrational_leftover(self):
        # x^2 - 2 has no rational roots
        roots, leftover = linalg.rational_roots([-2, 0, 1])
        assert roots == []
        assert leftover == 2

    def test_zero_root_after_division(self):
        # x^2 (x - 1) presented as x^3 - x^2
        roots, leftover = linalg.rational_roots([0, 0, -1, 1])
        assert roots == [(0, 2), (1, 1)]
        assert leftover == 0

    def test_mat_mul_matches_the_dense_product(self):
        # sparse in the left factor: int factors stay int, and every row is a
        # new list, so a caller may update the product in place
        rng = random.Random(41)
        pool = [0, 0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-2, 3)]
        for _ in range(60):
            n, m, k = (rng.randint(1, 5) for _ in range(3))
            a = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
            b = [[rng.choice(pool) for _ in range(k)] for _ in range(m)]
            assert linalg.mat_mul(a, b) == [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        product = linalg.mat_mul([[1, 2], [0, 0], [0, 0]], [[0, -3], [4, 5]])
        assert product == [[8, 7], [0, 0], [0, 0]] and product[1] is not product[2]
        assert all(type(x) is int for row in product for x in row)


# -- Fraction reference implementations ----------------------------------------
# Gauss-Jordan (corpus.reference_rref), Gaussian elimination and
# Faddeev-LeVerrier (corpus.reference_charpoly) on Fraction rows.  The reduced
# echelon form, the determinant and the characteristic polynomial are unique,
# so the integer versions in linalg must agree with them exactly.


int_entries = st.integers(-6, 6)
entries = st.one_of(
    st.just(0),
    int_entries,
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


@st.composite
def matrices(draw, max_rows=40, max_cols=8, square=False, values=entries):
    ncols = draw(st.integers(0, max_cols))
    nrows = ncols if square else draw(st.integers(0, max_rows))
    rows = [draw(st.lists(values, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        # zero rows, duplicates and negated copies, in place to keep the shape
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        kind = draw(st.sampled_from(["zero", "duplicate", "negated"]))
        rows[i] = [0] * ncols if kind == "zero" else [x if kind == "duplicate" else -x for x in rows[j]]
    return rows


@st.composite
def sparse_square_matrices(draw, max_n=12):
    """Square integer matrices that are mostly zeros: a few entries anywhere,
    or a triangular matrix conjugated by a permutation, as the shear lines'
    actions on a frame are; then some rows and columns zeroed."""
    n = draw(st.integers(0, max_n))
    a = [[0] * n for _ in range(n)]
    if n and draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        above = [(i, j) for i in range(n) for j in range(i + 1, n)]
        cells = [(i, i) for i in range(n)] + (draw(st.lists(st.sampled_from(above), max_size=n)) if above else [])
        for i, j in cells:
            a[perm[i]][perm[j]] = draw(int_entries)
    elif n:
        cells = [(i, j) for i in range(n) for j in range(n)]
        for i, j in draw(st.lists(st.sampled_from(cells), max_size=2 * n)):
            a[i][j] = draw(int_entries)
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else []:
        a[k] = [0] * n
        for row in a:
            row[k] = 0
    return a


def assert_primitive_echelon(rows):
    """Every row a tuple of ints with gcd 1 and a positive leading entry."""
    for row in rows:
        assert type(row) is tuple and all(type(x) is int for x in row)
        assert gcd(*row) == 1 and next(x for x in row if x) > 0


nonzero_scales = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


class TestIntegerElimination:
    @given(matrices())
    def test_rref_matches_fraction_gauss_jordan(self, rows):
        # same span and pivots: dividing each row by its pivot gives the reference
        got, pivots = linalg.rref(rows)
        want, want_pivots = reference_rref(rows)
        assert pivots == want_pivots
        assert linalg.reduced(got) == want
        assert_primitive_echelon(got)
        assert all(row[c] > 0 for row, c in zip(got, pivots))

    @given(matrices(max_rows=8), st.data())
    def test_rref_is_blind_to_row_scale(self, rows, data):
        scales = data.draw(st.lists(nonzero_scales, min_size=len(rows), max_size=len(rows)))
        scaled = [[c * x for x in row] for c, row in zip(scales, rows)]
        assert linalg.rref(scaled) == linalg.rref(rows)

    @given(matrices(max_cols=7, square=True, values=int_entries))
    def test_charpoly_matches_fraction_faddeev_leverrier(self, a):
        got = linalg.charpoly(a)
        assert got == reference_charpoly(a)
        assert all(type(c) is int for c in got)

    @given(sparse_square_matrices())
    @settings(max_examples=60)
    def test_sparse_charpoly_matches_fraction_faddeev_leverrier(self, a):
        # the product skips the zero entries of each row, so zero rows and
        # columns and the zeros of a permuted triangle must change nothing
        got = linalg.charpoly(a)
        assert got == reference_charpoly(a)
        assert all(type(c) is int for c in got)

    def test_empty_matrix(self):
        assert linalg.charpoly([]) == [1]
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


# -- rational roots ------------------------------------------------------------
# Against corpus.reference_rational_roots, the rational root theorem by divisor
# search, on monic integer polynomials with small coefficients; and on planted
# large roots, which the divisor search could not find in time.


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


IRREDUCIBLE = {"x^2 - 2": [-2, 0, 1], "x^2 + 1": [1, 0, 1], "x^2 + x + 1": [1, 1, 1], "x^3 - x + 5": [5, -1, 0, 1]}


def int_mul(a, b):
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


@st.composite
def polynomials(draw):
    """Monic integer polynomials: products of planted integer linear factors,
    repeats among them, a power of x for zero roots and irreducible factors,
    sometimes with a coefficient below the leading one perturbed."""
    poly = [0] * draw(st.integers(0, 2)) + [1]
    for _ in range(draw(st.integers(0, 5))):
        poly = poly_mul(poly, [-draw(st.integers(-6, 6)), 1])
    for name in draw(st.lists(st.sampled_from(sorted(IRREDUCIBLE)), max_size=2)):
        poly = poly_mul(poly, IRREDUCIBLE[name])
    if len(poly) > 1 and draw(st.booleans()):  # a perturbation, usually without rational roots
        i = draw(st.integers(0, len(poly) - 2))
        poly[i] += draw(st.integers(-3, 3))
    return poly


class TestRationalRoots:
    @given(polynomials())
    def test_matches_the_divisor_search(self, poly):
        got = linalg.rational_roots(poly)
        assert got == reference_rational_roots(poly)
        assert all(type(r) is int for r, _ in got[0])

    @given(st.lists(st.integers(-4, 4), max_size=7))
    def test_matches_the_divisor_search_on_int_coefficients(self, poly):
        poly = poly + [1]
        assert linalg.rational_roots(poly) == reference_rational_roots(poly)

    def test_large_linear_factors_with_repeats(self):
        rng = random.Random(11)
        for _ in range(30):
            roots = [rng.randint(-10**15, 10**15) for _ in range(rng.randint(1, 5))]
            roots += rng.sample(roots, rng.randint(0, len(roots)))  # repeated roots
            roots += [0] * rng.randint(0, 2)
            poly = [1]
            for r in roots:
                poly = poly_mul(poly, [-r, 1])
            poly = poly_mul(poly, IRREDUCIBLE["x^2 + 1"])
            want = sorted((r, roots.count(r)) for r in set(roots))
            assert linalg.rational_roots(poly) == (want, 2)

    def test_disguised_triangular_matrix(self):
        # P T P^-1, T upper triangular with large integer diagonal entries and
        # P unimodular: the eigenvalues are the diagonal, with multiplicity
        rng = random.Random(5)
        n = 9
        diag = [rng.randint(-10**12, 10**12) for _ in range(6)]
        diag += diag[:3]
        t = [[diag[i] if i == j else rng.randint(-3, 3) if j > i else 0 for j in range(n)] for i in range(n)]
        p, p_inv = random_unimodular(rng, n, 3 * n)
        assert int_mul(p, p_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
        a = int_mul(int_mul(p, t), p_inv)
        want = sorted((r, diag.count(r)) for r in set(diag))
        assert linalg.rational_roots(linalg.charpoly(a)) == (want, 0)

    def test_large_prime_product_is_irreducible(self):
        # x^2 - 1000000007 * 999999937: a divisor search over the constant
        # coefficient would not finish
        assert linalg.rational_roots([-1000000007 * 999999937, 0, 1]) == ([], 2)

    def test_edge_cases(self):
        assert linalg.rational_roots([1]) == ([], 0)
        assert linalg.rational_roots([0, 1]) == ([(0, 1)], 0)
        assert linalg.rational_roots([0, 0, 0, 1]) == ([(0, 3)], 0)
        assert linalg.rational_roots([-4, 0, 1]) == ([(-2, 1), (2, 1)], 0)


@st.composite
def permuted_block_triangular(draw):
    """Integer matrices P T P^-1, T block upper triangular with random entries
    above its planted diagonal blocks: 1x1 blocks, Jordan shifts, companions
    of x^2 - c (irrational roots unless c is a square), dense 3x3 blocks and
    zero blocks; or a fully dense matrix with no planted structure."""
    small = st.integers(-4, 4)
    if draw(st.integers(0, 5)) == 0:
        n = draw(st.integers(0, 6))
        return [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(n)]
    blocks = []
    for kind in draw(st.lists(st.sampled_from(["1x1", "jordan", "companion", "dense", "zero"]),
                              min_size=1, max_size=5)):
        if kind == "1x1":
            blocks.append([[draw(small)]])
        elif kind == "jordan":
            size, a = draw(st.integers(2, 3)), draw(small)
            blocks.append([[a if i == j else int(j == i + 1) for j in range(size)] for i in range(size)])
        elif kind == "companion":
            blocks.append([[0, draw(st.sampled_from([2, 3, -1, 4, 9]))], [1, 0]])
        elif kind == "dense":
            blocks.append([draw(st.lists(small, min_size=3, max_size=3)) for _ in range(3)])
        else:
            size = draw(st.integers(1, 3))
            blocks.append([[0] * size for _ in range(size)])
    n = sum(map(len, blocks))
    t = [[0] * n for _ in range(n)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            t[start + i][start:start + len(row)] = row
            t[start + i][start + len(row):] = draw(st.lists(small, min_size=n - start - len(row),
                                                             max_size=n - start - len(row)))
        start += len(block)
    perm = draw(st.permutations(range(n)))
    return [[t[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


class TestRationalEigenvalues:
    @given(permuted_block_triangular())
    @settings(max_examples=150)
    def test_matches_the_roots_of_the_whole_char_poly(self, r):
        roots, leftover = linalg.rational_roots(linalg.charpoly(r))
        spaces, nonrational = linalg.rational_eigenspaces(r)
        assert ([mu for mu, _ in spaces], nonrational) == ([y for y, _ in roots], leftover > 0)

    @given(permuted_block_triangular())
    @settings(max_examples=150)
    def test_each_eigenspace_is_the_nullspace_of_the_whole_shift(self, r):
        for mu, kernel in linalg.rational_eigenspaces(r)[0]:
            shifted = [[x - mu if i == j else x for j, x in enumerate(row)] for i, row in enumerate(r)]
            assert kernel == linalg.nullspace(shifted, len(r))
            assert kernel

    def test_examples(self):
        assert linalg.rational_eigenspaces([]) == ([], False)
        assert linalg.rational_eigenspaces([[5]]) == ([(5, ((1,),))], False)
        # a 1x1 block (-1) and a 2x2 block with roots +-sqrt(2), as in (41,43,2.42,0)
        assert linalg.rational_eigenspaces([[-1, 0, 0], [0, 0, 2], [0, 1, 0]]) == ([(-1, ((1, 0, 0),))], True)
        # a 3-cycle: no two rows reach each other directly, yet it is one block, x^3 - 8
        assert linalg.rational_eigenspaces([[0, 2, 0], [0, 0, 2], [2, 0, 0]]) == ([(2, ((1, 1, 1),))], True)
        # (14,14+24,24+2.34,0)'s action: a Jordan block of root 1, and root 2,
        # whose row reaches the others but is reached by none, so U_2 = {E3}
        assert linalg.rational_eigenspaces([[1, 0, 0], [1, 1, 0], [0, 1, 2]]) == (
            [(1, ((0, 1, -1),)), (2, ((0, 0, 1),))], False)

    def test_each_kernel_sees_only_the_rows_reaching_its_root(self, monkeypatch):
        # a triangular action under a permutation: each row is its own block, and
        # root mu's kernel is taken on the rows from which mu's row is reachable
        rng = random.Random(12)
        n = 9
        diagonal = rng.sample(range(-9, 10), n)
        t = [[diagonal[i] if i == j else rng.choice([0, 0, 0, 1, -2]) if j > i else 0 for j in range(n)]
             for i in range(n)]
        perm = rng.sample(range(n), n)
        r = [[t[perm[i]][perm[j]] for j in range(n)] for i in range(n)]

        def reached_from(i):
            seen, todo = {i}, [i]
            while todo:
                for j, x in enumerate(r[todo.pop()]):
                    if x and j not in seen:
                        seen.add(j)
                        todo.append(j)
            return seen

        columns, nullspace = [], linalg.nullspace
        monkeypatch.setattr(linalg, "nullspace", lambda rows, ncols: columns.append(ncols) or nullspace(rows, ncols))
        spaces, nonrational = linalg.rational_eigenspaces(r)
        want = [sum(any(r[k][k] == mu for k in reached_from(i)) for i in range(n)) for mu in sorted(diagonal)]
        assert [mu for mu, _ in spaces] == sorted(diagonal) and not nonrational
        assert columns == want and min(want) == 1 and max(want) < n
        for mu, kernel in spaces:
            assert kernel == nullspace([[x - mu if i == j else x for j, x in enumerate(row)]
                                        for i, row in enumerate(r)], n)


class TestOneEliminationNullspace:
    @given(matrices(max_rows=8))
    def test_matches_the_two_elimination_nullspace(self, rows):
        ncols = len(rows[0]) if rows else 3
        got = linalg.nullspace(rows, ncols=ncols)
        assert linalg.reduced(got) == reference_nullspace(rows, ncols)
        assert_primitive_echelon(got)

    @given(matrices(max_rows=8))
    def test_rows_annihilate_the_matrix_by_rank_nullity(self, rows):
        ncols = len(rows[0]) if rows else 3
        got = linalg.nullspace(rows, ncols=ncols)
        assert all(sum(map(mul, row, v)) == 0 for row in rows for v in got)
        assert len(got) == ncols - len(reference_rref(rows)[1])

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


class TestRankAt:
    @given(matrices(max_rows=8), st.data())
    def test_is_the_rank_of_the_entries_at_the_columns(self, rows, data):
        ints = [linalg.primitive(row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        cols = data.draw(st.lists(st.integers(0, ncols - 1), unique=True)) if ncols else []
        assert linalg.rank_at(ints, cols) == len(linalg.span_rref([[row[c] for c in cols] for row in ints]))

    @given(matrices(max_rows=6, values=int_entries), st.data())
    def test_inside_a_span_it_is_the_rank_at_the_pivots(self, rows, data):
        # the entries at the pivots of the echelon basis are the coordinates,
        # so they rank combinations of the basis exactly
        basis = linalg.span_rref(rows)
        ncols = len(rows[0]) if rows else 0
        weights = data.draw(st.lists(st.lists(int_entries, min_size=len(basis), max_size=len(basis)), max_size=8))
        vectors = [[sum(w * b[k] for w, b in zip(ws, basis)) for k in range(ncols)] for ws in weights]
        pivots = [next(c for c, x in enumerate(b) if x) for b in basis]
        assert linalg.rank_at(vectors, pivots) == len(linalg.span_rref(vectors))

    def test_examples(self):
        # span{(1, 0, 2), (0, 1, 3)}: (2, 1, 7) = 2 b_1 + b_2 and (4, 2, 14) its double
        assert linalg.rank_at([(2, 1, 7), (4, 2, 14)], [0, 1]) == 1
        assert linalg.rank_at([(2, 1, 7), (4, 2, 14), (0, -1, -3)], [0, 1]) == 2
        assert linalg.rank_at([(0, 0, 5)], [0, 1]) == 0  # off the span, only its pivot entries count
        assert linalg.rank_at([], [0, 1]) == 0 and linalg.rank_at([(1, 2)], []) == 0

    def test_stops_reading_at_full_rank(self):
        # a repeating chain term ends its step at the first |s| independent brackets
        assert linalg.rank_at(iter([(0, 3, 1), (2, 1, 0), None]), [0, 1]) == 2
