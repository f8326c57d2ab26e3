"""Exact linear algebra over the rationals: RREF, subspaces, definiteness, char polys, integer roots.

The eliminations and polynomials here compute on `int` rows: `rref` and
`definiteness` make a `Fraction` row `primitive` first, and `reduced` gives
`Fraction` rows back.  `mat_mul`, the package's one matrix product, takes
either kind of entry and keeps int factors int; it is sparse in its left
factor, and the bracket, the bracket spans of the series and the shear
lines, `charpoly`, the shear lines' eigenvectors, their check that the
action keeps the target and the structure checks of `geometry` all go
through it.  That check is one product: with L the lcm of the pivot entries
of echelon rows B, a vector v lies in span(B) exactly when L v equals the
product of its pivot entries v[p_i], each scaled by L / b_i[p_i], with B.

Inside the package a subspace is the tuple of its reduced row echelon rows
(zero rows dropped), each the primitive integer multiple with a positive
pivot: `rref`, `span_rref` and `nullspace` return these `int` rows.  The form
is canonical, so subspace equality is a tuple comparison; `reduced` gives the
`Fraction` rows with pivot 1 that the public reports hold.  Every elimination
of the package takes one fraction-free step, `_eliminate`: row <- p*row -
f*pivot_row, kept primitive.  `rref` takes it, and so do `rank_at` and
`definiteness`, which is Sylvester's criterion: a symmetric matrix is
positive definite exactly when elimination without row swaps on its
`primitive` rows meets only positive pivots, in O(n^3) steps whose entries
stay bounded by minors of the row-scaled matrix.  `charpoly`
and `rational_roots` take and return integers only: `charpoly` works on an
integer matrix, and `rational_roots` bisects a monic integer polynomial,
whose rational roots are integers.  `rational_eigenspaces` gives the integer
eigenvalues of an integer matrix from the strongly connected components of
its nonzero pattern: a 1x1 block is its own eigenvalue, so `charpoly` and
`rational_roots` see only the irreducible blocks of size 2 or more.  It
takes each eigenspace as a `nullspace` on the rows that reach a block of
its eigenvalue only.
`rational_roots` neither factors nor searches divisors: its work is
polynomial in the bit length of the coefficients, so no input makes it run
unbounded.  The subspace questions of the package are asked here:

- `span_rref(rows)`: the canonical basis of span(rows);
- `rank_at(rows, pivots)`: the rank of rows inside the span of echelon rows
  with those pivot columns, read at the pivots alone.  Each step of a series
  chain lies inside the term before it, so its brackets span that term
  exactly when this rank is full, and a repeating term costs no `rref`.
  At every column it is the rank of the rows: a two-form is nondegenerate
  exactly when its matrix has full rank, which is all `symplectic_check`
  computes, with no Pfaffian beside it;
- `nullspace(rows, ncols)`: the canonical basis of {x : M x = 0};
- `complement(basis, ncols)`: the column indices j whose unit vectors
  greedily complete span(basis) to the whole space.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = tuple[int, ...]


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


def _eliminate(row: Sequence[int], prow: Sequence[int], c: int) -> list[int]:
    """The fraction-free step of every elimination in the package: row <-
    p*row - f*prow, p = prow[c] and f = row[c], kept primitive, so it
    vanishes at column c.  The gcd divided out is positive, so for p > 0 the
    row is scaled by a positive factor."""
    p, f = prow[c], row[c]
    row = [p * a - f * b for a, b in zip(row, prow)]
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def rref(vectors: Sequence[Sequence]) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Fraction-free Gauss-Jordan on integer rows, a row with a Fraction entry
    made `primitive` first: column c is eliminated from every other row by
    `_eliminate` with the pivot row.  Each output row is the primitive
    multiple, pivot positive, of the one with pivot 1.
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
        for i, row in enumerate(m):
            if row[c] and i != r:
                m[i] = _eliminate(row, prow, c)
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


def rank_at(vectors: Sequence[Sequence[int]], cols: Sequence[int]) -> int:
    """The rank of the integer vectors' entries at the columns `cols`, by
    forward `_eliminate` steps; it stops once the rank reaches len(cols).

    For vectors inside span(B), B echelon rows with the pivot columns `cols`,
    it is the rank of the vectors: at pivot p_i every row but b_i vanishes,
    so a vector v of span(B) is sum_i v[p_i] / b_i[p_i] b_i, and its entries
    at the pivots are its coordinates, each scaled by a nonzero factor.
    """
    found: list[tuple[list[int], int]] = []  # each kept row with its leading column
    for v in vectors:
        row = [v[c] for c in cols]
        # a kept row vanishes at the leading columns of the rows kept before it,
        # so eliminating in that order keeps the cleared entries zero
        for prow, c in found:
            if row[c]:
                row = _eliminate(row, prow, c)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            found.append((row, lead))
            if len(found) == len(cols):
                break
    return len(found)


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


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """A B for int or Fraction entries: row i sums x * (row j of B) over the
    nonzero x = A[i][j] only, so a zero entry of A costs nothing.  Int
    factors give int rows, and each row is a new list.  The package's one
    matrix product."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                acc = [r + x * y for r, y in zip(acc, brow)]
        out.append(acc)
    return out


def is_symmetric(a: Sequence[Sequence]) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def definiteness(a: Sequence[Sequence]) -> int:
    """1 if A is symmetric positive definite, -1 if symmetric negative definite, else 0.

    Sylvester's criterion by elimination: a symmetric A is positive definite
    exactly when Gaussian elimination without row swaps meets only positive
    pivots, and negative definite exactly when -A is positive definite, so the
    sign of A[0][0] picks which of A and -A is eliminated.  The rows are made
    `primitive` and each step is `_eliminate` with a positive pivot, which
    scales a row by a positive factor: every pivot keeps the sign of the
    ratio of consecutive leading principal minors.  That is O(n^3) steps,
    and each row stays the primitive part of a vector of minors of the
    row-scaled matrix, so its entries are bounded by those minors.  The empty
    matrix counts as positive definite.
    """
    if not is_symmetric(a):
        return 0
    sign = -1 if a and a[0][0] < 0 else 1
    m = [primitive([sign * x for x in row]) for row in a]
    for k in range(len(m)):
        if m[k][k] <= 0:
            return 0
        for i in range(k + 1, len(m)):
            if m[i][k]:
                m[i] = _eliminate(m[i], m[k], k)
    return sign


def charpoly(a: Sequence[Sequence[int]]) -> list[int]:
    """Characteristic polynomial det(xI - A) of an integer matrix, integer
    coefficients ascending, monic.

    Faddeev-LeVerrier, each of whose trace divisions by k is exact over the
    integers.  Each product A M is `mat_mul`, sparse in A.  The first product
    A I is A itself, and of the last, A M_(n-1), only the trace is read.
    """
    n = len(a)
    coeffs = [0] * n + [1]
    mk = [list(row) for row in a]  # the first product, A I = A
    trace = sum(mk[i][i] for i in range(n))
    for k in range(1, n + 1):
        # exact: with M_1 = I and M_(k+1) = A M_k + c_(n-k) I, the c_(n-k) =
        # -tr(A M_k) / k are det(xI - A)'s coefficients, sums of signed principal
        # minors of A, so integers.  By induction every M_k is an integer matrix,
        # and tr(A M_k) = -k c_(n-k) is a multiple of k
        ck = -trace // k
        coeffs[n - k] = ck
        for i in range(n):
            mk[i][i] += ck
        if k + 1 < n:
            mk = mat_mul(a, mk)
            trace = sum(mk[i][i] for i in range(n))
        elif k + 1 == n:  # the trace of the last product: sum_i A[i][j] M[j][i]
            trace = sum(x * mk[j][i] for i, row in enumerate(a) for j, x in enumerate(row) if x)
    return coeffs


def _horner(q: Sequence[int], y: int) -> int:
    out = 0
    for c in reversed(q):
        out = out * y + c
    return out


def rational_roots(q: Sequence[int]) -> tuple[list[tuple[int, int]], int]:
    """The rational roots of a monic integer polynomial q, ascending with
    multiplicity, plus the degree left unfactored.

    The rational roots of a monic integer polynomial are integers.  The
    leftover degree is nonzero exactly when non-rational (real or complex)
    roots are present.  Nothing is factored and no divisor is searched.  With
    d the degree of q, its roots lie in [-B, B] for the Fujiwara bound
    B = 2 max_i 2^ceil(bits(q_i)/(d-i)).  Going up from the linear
    derivative of q to q itself, a set of cut points holds the floor of every
    real root of the polynomial last handled.  The cut points of r' split
    [-B, B] into stretches on which r is monotone, and each sign change of r
    on a stretch is bisected to a unit cell; the ends of those cells, every
    stretch end where r vanishes and the cut points of r' are the cut points
    of r.  That is O(d^2) cut points, O(d^3) stretch ends and at most d^2
    bisections of O(log B) integer evaluations: polynomial in the bit length
    of the coefficients.  Every integer root of q, 0 among them, is a cut
    point, tested exactly; its multiplicity is the number of successive
    derivatives of q vanishing there.
    """
    d = len(q) - 1
    ders = [list(q)]  # q, q', ..., q^(d)
    while len(ders[-1]) > 1:
        ders.append([i * c for i, c in enumerate(ders[-1])][1:])
    bound = 2 * max((1 << -(-abs(c).bit_length() // (d - i)) for i, c in enumerate(q[:-1])), default=1)
    cuts: set[int] = set()  # the constant q^(d) has no roots
    for r in reversed(ders[:-1]):
        ends = sorted(cuts)
        for lo, hi in zip([-bound] + [f + 1 for f in ends], ends + [bound]):
            vlo, vhi = _horner(r, lo), _horner(r, hi)
            cuts.update(y for y, v in ((lo, vlo), (hi, vhi)) if not v)
            if (vlo < 0 < vhi) or (vhi < 0 < vlo):
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if (_horner(r, mid) < 0) == (vlo < 0):
                        lo = mid
                    else:
                        hi = mid
                cuts.update((lo, hi))
    roots = []
    for y in sorted(cuts):
        m = next(k for k, r in enumerate(ders) if _horner(r, y))
        if m:
            roots.append((y, m))
    return roots, d - sum(m for _, m in roots)


def rational_eigenspaces(r: Sequence[Sequence[int]]) -> tuple[list[tuple[int, tuple[Row, ...]]], bool]:
    """(mu, nullspace(R - mu I)) for each distinct integer root mu of
    det(xI - R), mu ascending, for a square integer matrix R, and whether
    det(xI - R) has a root that is not rational.

    Listing the strongly connected components of R's nonzero pattern in
    topological order makes R block triangular under a permutation, so
    det(xI - R) is the product of the char polys of the components' diagonal
    blocks.  The components come from the reachability closure, Warshall's
    O(m^3) steps on int bitmasks: i and j share one when each reaches the
    other.  A 1x1 block contributes its entry as a root.  Only a block of size
    2 or more goes through `charpoly` and `rational_roots`; its char poly is
    monic over the integers, so its rational roots are integers.

    Root mu's kernel is taken on U, the rows that reach a block with root mu,
    and padded with zeros.  A row outside U reaches only rows outside U, so it
    has no entry in U's columns, and the rows outside U are block triangular
    with no block of root mu: a kernel vector vanishes off U.  Zero columns
    added in column order keep the rows the canonical echelon basis.
    """
    m = len(r)
    reach = [sum(1 << j for j, x in enumerate(row) if x) | 1 << i for i, row in enumerate(r)]
    for k in range(m):
        for i in range(m):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    blocks: dict[int, int] = {}  # root -> bitmask of the rows of its blocks
    nonrational = False
    for i in range(m):
        block = [j for j in range(m) if reach[i] >> j & 1 and reach[j] >> i & 1]
        if block[0] < i:  # read at its first row
            continue
        if len(block) == 1:
            roots = [r[i][i]]
        else:
            found, leftover = rational_roots(charpoly([[r[a][b] for b in block] for a in block]))
            roots = [y for y, _ in found]
            nonrational = nonrational or bool(leftover)
        mask = sum(1 << j for j in block)
        for y in roots:
            blocks[y] = blocks.get(y, 0) | mask
    spaces = []
    for mu in sorted(blocks):
        rows = [i for i in range(m) if reach[i] & blocks[mu]]
        padded = []
        for v in nullspace([[r[i][j] - mu if i == j else r[i][j] for j in rows] for i in rows], len(rows)):
            full = [0] * m
            for j, x in zip(rows, v):
                full[j] = x
            padded.append(tuple(full))
        spaces.append((mu, tuple(padded)))
    return spaces, nonrational
