"""Exact linear algebra over the rationals: RREF, subspaces, char polys, rational roots.

Matrices are lists of row tuples/lists whose entries are `int` or `Fraction`;
the entries of every matrix or vector returned are `Fraction`.  Subspaces are
represented by their reduced row echelon basis (zero rows dropped), which
makes every subspace computation deterministic and equality a tuple
comparison.  The subspace questions of the package are asked here:

- `span_rref(rows)`: the canonical basis of span(rows);
- `in_span(basis, v)`: is v in span(basis)?
- `nullspace(rows, ncols)`: the canonical basis of {x : M x = 0};
- `complement(basis, ncols)`: the column indices j whose unit vectors
  greedily complete span(basis) to the whole space;
- `solve(M, b)`: one solution of M x = b;
- `restrict_operator(op, basis)`: the matrix of op on an invariant subspace.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Row = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


def _rows(vectors: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in vectors]


def rref(vectors: Sequence[Sequence]) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    m = _rows(vectors)
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
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


def span_rref(vectors: Sequence[Sequence]) -> tuple[Row, ...]:
    """Canonical (echelon) basis of the span of the given vectors."""
    return rref(vectors)[0]


def in_span(basis: Sequence[Sequence], v: Sequence) -> bool:
    b = span_rref(basis)
    return len(span_rref(list(b) + [list(v)])) == len(b)


def nullspace(vectors: Sequence[Sequence], ncols: int | None = None) -> tuple[Row, ...]:
    """Echelon basis of {x : M x = 0} for the matrix with the given rows."""
    if not vectors:
        if ncols is None:
            raise ValueError("empty matrix needs explicit ncols")
        return tuple(tuple(row) for row in identity(ncols))  # already echelon
    n = len(vectors[0])
    red, pivots = rref(vectors)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return span_rref(basis)


def complement(basis: Sequence[Sequence], ncols: int) -> tuple[int, ...]:
    """Column indices j, increasing, whose unit vectors u_j greedily complete span(basis).

    Greedy takes u_j when it is outside span(basis, u_0, ..., u_{j-1}), that is
    when column j of Ann(basis) is independent of the columns before it: the
    leading columns of the annihilator's echelon basis.
    """
    return tuple(next(j for j, x in enumerate(row) if x) for row in nullspace(basis, ncols))


def _solve_columns(matrix: Sequence[Sequence], columns: Sequence[Sequence], n: int) -> Matrix | None:
    """X with M X = B for M with n columns and B = [b_1 ... b_k], or None if
    any b_j is out of reach; one elimination of [M | B] solves every column."""
    red, pivots = rref([list(row) + [b[i] for b in columns] for i, row in enumerate(matrix)])
    if pivots and pivots[-1] >= n:  # a pivot in the right-hand sides
        return None
    x = [[Fraction(0)] * len(columns) for _ in range(n)]
    for r, pc in enumerate(pivots):
        x[pc] = list(red[r][n:])
    return x


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution of M x = b, or None if inconsistent."""
    x = _solve_columns(matrix, [rhs], len(matrix[0]))
    return None if x is None else tuple(row[0] for row in x)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    return transpose([mat_vec(a, col) for col in zip(*b)])


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list[Fraction]:
    """A v for int or Fraction entries, skipping the zero entries of A.

    The Fraction start keeps every result entry a Fraction, never an int.
    """
    return [sum((x * y for x, y in zip(row, v) if x), Fraction(0)) for row in a]


def transpose(a: Sequence[Sequence]) -> Matrix:
    return [list(col) for col in zip(*a)]


def identity(n: int) -> Matrix:
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def is_symmetric(a: Sequence[Sequence]) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def leading_principal_minors(a: Sequence[Sequence]) -> list[Fraction]:
    n = len(a)
    return [det([row[: k + 1] for row in a[: k + 1]]) for k in range(n)]


def det(a: Sequence[Sequence]) -> Fraction:
    m = _rows(a)
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


def is_positive_definite(a: Sequence[Sequence]) -> bool:
    """Sylvester's criterion on a symmetric matrix (exact)."""
    return is_symmetric(a) and all(mi > 0 for mi in leading_principal_minors(a))


def restrict_operator(op: Sequence[Sequence], basis: Sequence[Sequence]) -> Matrix | None:
    """Matrix of the operator in the given subspace basis, or None if not invariant.

    Column j holds the coordinates of op(basis[j]).
    """
    return _solve_columns(transpose(basis), [mat_vec(op, b) for b in basis], len(basis))


def charpoly(a: Sequence[Sequence]) -> list[Fraction]:
    """Characteristic polynomial det(xI - A), coefficients ascending, monic.

    Faddeev-LeVerrier; exact over the rationals.
    """
    n = len(a)
    m = _rows(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        ck = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = ck
        for i in range(n):
            mk[i][i] += ck
    return coeffs


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _divide_out_root(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
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


def rational_roots(coeffs: Sequence[Fraction]) -> tuple[list[tuple[Fraction, int]], int]:
    """All rational roots with multiplicity, plus the degree left unfactored.

    The leftover degree is nonzero exactly when non-rational (real or complex)
    roots are present.
    """
    poly = [Fraction(c) for c in coeffs]
    while len(poly) > 1 and not poly[-1]:
        poly.pop()
    roots: dict[Fraction, int] = {}
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
        for p in sorted(_divisors(a0)):
            for q in sorted(_divisors(an)):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if poly_eval(poly, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        poly = _divide_out_root(poly, found)
    leftover = len(poly) - 1
    ordered = sorted(roots.items(), key=lambda t: t[0])
    return ordered, leftover


def _divisors(n: int) -> list[int]:
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out
