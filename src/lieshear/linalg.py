"""Exact linear algebra over the rationals: RREF, subspaces, char polys, rational roots.

Matrices are lists of row tuples/lists whose entries are `int` or `Fraction`.
Inside the package a subspace is the tuple of its reduced row echelon rows
(zero rows dropped), each the primitive integer multiple with a positive
pivot: `rref`, `span_rref` and `nullspace` return these `int` rows.  The form
is canonical, so subspace equality is a tuple comparison; `reduced` gives the
`Fraction` rows with pivot 1 that the public reports hold.  `charpoly` works
on the integer matrix L*A, building each row of a product from the nonzero
entries of that row of L*A alone, and `rational_roots` bisects integer
polynomials; only their returned entries are Fractions.  `definiteness`
tells positive from negative definite by the signs of one `charpoly`.
`rational_eigenvalues` gives the integer eigenvalues of an integer matrix
from the strongly connected components of its nonzero pattern: a 1x1 block
is its own eigenvalue, so `charpoly` and `rational_roots` see only the
irreducible blocks of size 2 or more.  `rational_roots` neither factors nor
searches divisors: its work is polynomial in the bit length of the
coefficients, so no input makes it run unbounded.  The subspace questions of
the package are asked here:

- `span_rref(rows)`: the canonical basis of span(rows);
- `nullspace(rows, ncols)`: the canonical basis of {x : M x = 0};
- `complement(basis, ncols)`: the column indices j whose unit vectors
  greedily complete span(basis) to the whole space.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = tuple[int, ...]
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

    Fraction-free Gauss-Jordan on integer rows, a row with a Fraction entry
    made `primitive` first: eliminating column c with pivot p from a row with
    entry f there is row <- p*row - f*pivot_row, kept primitive.  Each output
    row is the primitive multiple, pivot positive, of the one with pivot 1.
    """
    m = [row if {*map(type, row)} == {int} else primitive(row) for row in vectors]
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
    signed = ((row, gcd(*row) if row[c] > 0 else -gcd(*row)) for row, c in zip(m, pivots))
    # tuples of lists: a tuple of a generator is resized from a guess, which fills free lists
    return tuple([tuple([x // g for x in row]) for row, g in signed]), tuple(pivots)


def span_rref(vectors: Sequence[Sequence]) -> tuple[Row, ...]:
    """Canonical (echelon) basis of the span of the given vectors."""
    return rref(vectors)[0]


def reduced(rows: Sequence[Row]) -> tuple[tuple[Fraction, ...], ...]:
    """The `Fraction` reduced echelon rows, each with pivot 1, of echelon `int` rows."""
    zero = Fraction(0)
    return tuple([tuple([Fraction(x, p) if x else zero for x in row])
                  for row in rows for p in (next(filter(None, row)),)])


def nullspace(vectors: Sequence[Sequence], ncols: int) -> tuple[Row, ...]:
    """Echelon basis of {x : M x = 0} for the matrix with the given rows.

    One elimination of M with its columns reversed: in the reversed form, free
    column f gives the kernel vector that is L at f, 0 at the other free
    columns and -row[f] L / row[pc] at each pivot column pc before f, L the lcm
    of those pivots.  Reversed back and taken in descending f, these vectors
    are already the reduced echelon basis, with the positive leading entry L.
    """
    red, pivots = rref([row[::-1] for row in vectors])
    basis = []
    for fc in reversed(range(ncols)):
        if fc in pivots:
            continue
        scale = lcm(*(row[pc] for row, pc in zip(red, pivots) if row[fc]))
        v = [0] * ncols
        v[fc] = scale
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] * (scale // row[pc])
        basis.append(tuple([x // g for g in (gcd(*v),) for x in reversed(v)]))
    return tuple(basis)


def complement(basis: Sequence[Sequence], ncols: int) -> tuple[int, ...]:
    """Column indices j, increasing, whose unit vectors u_j greedily complete span(basis).

    Greedy takes u_j when it is outside span(basis, u_0, ..., u_{j-1}), that is
    when column j of Ann(basis) is independent of the columns before it: the
    leading columns of the annihilator's echelon basis.
    """
    return tuple(next(j for j, x in enumerate(row) if x) for row in nullspace(basis, ncols))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    cols = [*zip(*b)]  # row i of A B is B^T applied to row i of A
    return [mat_vec(cols, row) for row in a]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list[Fraction]:
    """A v for int or Fraction entries, skipping the zero entries of A.

    The Fraction start keeps every result entry a Fraction, never an int.
    """
    return [sum((x * y for x, y in zip(row, v) if x), Fraction(0)) for row in a]


def identity(n: int) -> Matrix:
    zero, one = Fraction(0), Fraction(1)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def is_symmetric(a: Sequence[Sequence]) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def definiteness(a: Sequence[Sequence]) -> int:
    """1 if A is symmetric positive definite, -1 if symmetric negative definite, else 0.

    From one `charpoly`: the real eigenvalues of a symmetric A are all positive
    exactly when the coefficients of det(xI - A) strictly alternate in sign
    (that of x^k has the sign of (-1)^(n-k)), and all negative exactly when
    they are all positive.  The empty matrix counts as positive definite.
    """
    if not is_symmetric(a):
        return 0
    coeffs = charpoly(a)
    if all(c * (-1) ** (len(a) - k) > 0 for k, c in enumerate(coeffs)):
        return 1
    return -1 if all(c > 0 for c in coeffs) else 0


def charpoly(a: Sequence[Sequence]) -> list[Fraction]:
    """Characteristic polynomial det(xI - A), coefficients ascending, monic.

    Faddeev-LeVerrier on the integer matrix B = L*A, L the lcm of the entries'
    denominators: the coefficient of x^(n-k) of L*A is L^k times that of A,
    and each of its trace divisions by k is exact over the integers.  The
    product B M is sparse in B: its row i sums x * (row j of M) over the
    nonzero x = B[i][j] only, so a zero row of B costs nothing.  The first
    product B I is B itself, and of the last, B M_(n-1), only the trace is read.
    """
    n = len(a)
    scale = lcm(*(x.denominator for row in a for x in row))
    supports = [[(j, x.numerator * (scale // x.denominator)) for j, x in enumerate(row) if x] for row in a]
    coeffs = [0] * n + [1]
    mk = [[0] * n for _ in range(n)]  # the first product, B I = B
    for row, support in zip(mk, supports):
        for j, x in support:
            row[j] = x
    trace = sum(mk[i][i] for i in range(n))
    for k in range(1, n + 1):
        ck, rem = divmod(-trace, k)
        if rem:
            raise ArithmeticError(f"trace of step {k} is not divisible by {k}")
        coeffs[n - k] = ck
        for i in range(n):
            mk[i][i] += ck
        if k + 1 < n:
            product = []
            for support in supports:
                row = [0] * n
                for j, x in support:
                    row = [r + x * y for r, y in zip(row, mk[j])]
                product.append(row)
            mk = product
            trace = sum(mk[i][i] for i in range(n))
        elif k + 1 == n:  # the trace of the last product: sum_i B[i][j] M[j][i]
            trace = sum(x * mk[j][i] for i, support in enumerate(supports) for j, x in support)
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


def rational_eigenvalues(r: Sequence[Sequence[int]]) -> tuple[list[int], bool]:
    """The distinct integer roots of det(xI - R), ascending, for a square
    integer matrix R, and whether det(xI - R) has a root that is not rational.

    Listing the strongly connected components of R's nonzero pattern in
    topological order makes R block triangular under a permutation, so
    det(xI - R) is the product of the char polys of the components' diagonal
    blocks.  The components come from the reachability closure, Warshall's
    O(m^3) steps on int bitmasks: i and j share one when each reaches the
    other.  A 1x1 block contributes its entry as a root.  Only a block of size
    2 or more goes through `charpoly` and `rational_roots`; its char poly is
    monic over the integers, so its rational roots are integers.
    """
    m = len(r)
    reach = [sum(1 << j for j, x in enumerate(row) if x) | 1 << i for i, row in enumerate(r)]
    for k in range(m):
        for i in range(m):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    roots: set[int] = set()
    nonrational = False
    for i in range(m):
        block = [j for j in range(m) if reach[i] >> j & 1 and reach[j] >> i & 1]
        if block[0] < i:  # read at its first row
            continue
        if len(block) == 1:
            roots.add(r[i][i])
        else:
            found, leftover = rational_roots(charpoly([[r[a][b] for b in block] for a in block]))
            roots.update(y.numerator for y, _ in found)
            nonrational = nonrational or bool(leftover)
    return sorted(roots), nonrational
