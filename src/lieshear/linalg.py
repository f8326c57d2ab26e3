"""Exact linear algebra over the rationals: RREF, subspaces, char polys, rational roots.

Matrices are lists of row tuples/lists whose entries are `int` or `Fraction`;
the entries of every matrix or vector returned are `Fraction`.  The arithmetic
inside runs on `int`s: `rref` eliminates on each row's primitive integer
multiple (`primitive`), which has the same span and leads to the same reduced
echelon form, `charpoly` works on the integer matrix L*A, and
`rational_roots` bisects integer polynomials; only the returned entries are
built as Fractions.  `rational_roots` neither factors nor searches divisors:
its work is polynomial in the bit length of the coefficients, so no input
makes it run unbounded.  Subspaces are represented by
their reduced row echelon basis (zero rows dropped), which makes every
subspace computation deterministic and equality a tuple comparison.  The
subspace questions of the package are asked here:

- `span_rref(rows)`: the canonical basis of span(rows);
- `nullspace(rows, ncols)`: the canonical basis of {x : M x = 0};
- `complement(basis, ncols)`: the column indices j whose unit vectors
  greedily complete span(basis) to the whole space;
- `restrict_operator(basis, images)`: the matrix on an invariant subspace of
  the operator given by the images of its basis.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

Row = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


def primitive(row: Sequence) -> list[int]:
    """The primitive integer multiple of a rational row: the lcm of the
    denominators clears them, then the gcd of the entries is divided out.

    Scaling a row keeps its span and the reduced echelon form it leads to, so
    elimination can run on these rows.  The zero row maps to the zero row.
    """
    dens = [x.denominator for x in row]
    scale = lcm(*dens)
    if scale == 1:
        ints = [x.numerator for x in row]
    else:
        ints = [x.numerator * (scale // d) for x, d in zip(row, dens)]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def rref(vectors: Sequence[Sequence]) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Fraction-free Gauss-Jordan on primitive integer rows: eliminating column c
    with pivot p from a row with entry f there is row <- p*row - f*pivot_row,
    kept primitive.  Only the output rows, divided by their pivots, are Fractions.
    """
    m = [primitive(row) for row in vectors]
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    zero = Fraction(0)
    return tuple(
        tuple(Fraction(x, row[c]) if x else zero for x in row) for row, c in zip(m, pivots)
    ), tuple(pivots)


def span_rref(vectors: Sequence[Sequence]) -> tuple[Row, ...]:
    """Canonical (echelon) basis of the span of the given vectors."""
    return rref(vectors)[0]


def nullspace(vectors: Sequence[Sequence], ncols: int) -> tuple[Row, ...]:
    """Echelon basis of {x : M x = 0} for the matrix with the given rows.

    One elimination of M with its columns reversed: in the reversed form, free
    column f gives the kernel vector that is 1 at f, 0 at the other free
    columns and nonzero only at pivot columns before f.  Reversed back and
    taken in descending f, these vectors are already the reduced echelon basis.
    """
    red, pivots = rref([row[::-1] for row in vectors])
    basis = []
    for fc in reversed(range(ncols)):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v[::-1]))
    return tuple(basis)


def complement(basis: Sequence[Sequence], ncols: int) -> tuple[int, ...]:
    """Column indices j, increasing, whose unit vectors u_j greedily complete span(basis).

    Greedy takes u_j when it is outside span(basis, u_0, ..., u_{j-1}), that is
    when column j of Ann(basis) is independent of the columns before it: the
    leading columns of the annihilator's echelon basis.
    """
    return tuple(next(j for j, x in enumerate(row) if x) for row in nullspace(basis, ncols))


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
    zero, one = Fraction(0), Fraction(1)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def is_symmetric(a: Sequence[Sequence]) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def is_positive_definite(a: Sequence[Sequence]) -> bool:
    """Is A symmetric and positive definite?  Exact, from `charpoly`.

    A real symmetric matrix has real eigenvalues, and they are all positive
    exactly when the coefficients of det(xI - A) strictly alternate in sign:
    the coefficient of x^k has the sign of (-1)^(n-k).
    """
    n = len(a)
    return is_symmetric(a) and all(c * (-1) ** (n - k) > 0 for k, c in enumerate(charpoly(a)))


def restrict_operator(basis: Sequence[Sequence], images: Sequence[Sequence]) -> Matrix | None:
    """Matrix in the given subspace basis of the operator with op(basis[j]) =
    images[j], or None if some image leaves the subspace.

    Column j holds the coordinates of images[j]: one elimination of
    [basis^T | images] solves for every column, and a pivot among the
    images' columns means some image is out of reach.
    """
    k = len(basis)
    red, pivots = rref([list(row) + [b[i] for b in images] for i, row in enumerate(zip(*basis))])
    if pivots and pivots[-1] >= k:
        return None
    out = [[Fraction(0)] * len(images) for _ in range(k)]
    for r, pc in enumerate(pivots):
        out[pc] = list(red[r][k:])
    return out


def charpoly(a: Sequence[Sequence]) -> list[Fraction]:
    """Characteristic polynomial det(xI - A), coefficients ascending, monic.

    Faddeev-LeVerrier on the integer matrix L*A, L the lcm of the entries'
    denominators: the coefficient of x^(n-k) of L*A is L^k times that of A,
    and each of its trace divisions by k is exact over the integers.
    """
    n = len(a)
    scale = lcm(*(x.denominator for row in a for x in row))
    b = [[x.numerator * (scale // x.denominator) for x in row] for row in a]
    coeffs = [0] * n + [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*mk))
        mk = [[sum(map(mul, row, col)) for col in cols] for row in b]
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise ArithmeticError(f"trace of step {k} is not divisible by {k}")
        coeffs[n - k] = ck
        for i in range(n):
            mk[i][i] += ck
    return [Fraction(c, scale ** (n - i)) for i, c in enumerate(coeffs)]


def _horner(q: Sequence[int], y: int) -> int:
    out = 0
    for c in reversed(q):
        out = out * y + c
    return out


def rational_roots(coeffs: Sequence[Fraction]) -> tuple[list[tuple[Fraction, int]], int]:
    """All rational roots with multiplicity, plus the degree left unfactored.

    The leftover degree is nonzero exactly when non-rational (real or complex)
    roots are present.  Nothing is factored and no divisor is searched.  With p
    the primitive integer polynomial, a its leading coefficient and d its
    degree, the rational roots of p are y/a for the integer roots y of the
    monic q(y) = a^(d-1) p(y/a), whose roots lie in [-B, B] for the Fujiwara
    bound B = 2 max_i 2^ceil(bits(q_i)/(d-i)).  Going up from the linear
    derivative of q to q itself, a set of cut points holds the floor of every
    real root of the polynomial last handled.  The cut points of r' split
    [-B, B] into stretches on which r is monotone, and each sign change of r
    on a stretch is bisected to a unit cell; the ends of those cells, every
    stretch end where r vanishes and the cut points of r' are the cut points
    of r.  That is O(d^2) cut points, O(d^3) stretch ends and at most d^2
    bisections of O(log B) integer evaluations: polynomial in the bit length
    of the coefficients.  Every integer root of q is a cut point, tested
    exactly; its multiplicity is the number of successive derivatives of q
    vanishing there.
    """
    p = primitive(coeffs)
    while len(p) > 1 and not p[-1]:
        p.pop()
    degree = len(p) - 1
    zeros = next((i for i, c in enumerate(p) if c), 0)
    roots = [(Fraction(0), zeros)] if zeros else []
    p = p[zeros:]
    d = len(p) - 1
    if d < 1:
        return roots, degree - zeros
    a = p[-1]
    ders = [[c * a ** (d - 1 - i) for i, c in enumerate(p[:-1])] + [1]]  # q, q', ..., q^(d)
    while len(ders[-1]) > 1:
        ders.append([i * c for i, c in enumerate(ders[-1])][1:])
    bound = 2 * max(1 << -(-abs(c).bit_length() // (d - i)) for i, c in enumerate(ders[0][:-1]))
    cuts: set[int] = set()  # the constant q^(d) has no roots
    for q in reversed(ders[:-1]):
        ends = sorted(cuts)
        for lo, hi in zip([-bound] + [f + 1 for f in ends], ends + [bound]):
            vlo, vhi = _horner(q, lo), _horner(q, hi)
            cuts.update(y for y, v in ((lo, vlo), (hi, vhi)) if not v)
            if (vlo < 0 < vhi) or (vhi < 0 < vlo):
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if (_horner(q, mid) < 0) == (vlo < 0):
                        lo = mid
                    else:
                        hi = mid
                cuts.update((lo, hi))
    for y in cuts:
        m = next(k for k, q in enumerate(ders) if _horner(q, y))
        if m:
            roots.append((Fraction(y, a), m))
    roots.sort()
    return roots, degree - sum(m for _, m in roots)
