"""Lie algebras presented by the differential of each dual-basis generator.

The sign convention, fixed once for the whole package, is

    d(alpha)(X, Y) = -alpha([X, Y])

so the structure constants are c^k_ij = -(d e_k)(E_i, E_j).  The exterior
derivative of an arbitrary form is the antiderivation extension of the
generator differentials, and d∘d = 0 is exactly the Jacobi identity.
"""
from __future__ import annotations

import json
import re
import warnings
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Callable, Sequence

from . import linalg
from ._value import Value, slot_setters
from .exterior import Coeff, KForm, Vector, _make, interior

Subspace = tuple[tuple[Fraction, ...], ...]  # reduced echelon rows, pivots 1: the public form
Rows = tuple[linalg.Row, ...]  # primitive integer echelon rows (linalg): the form computed on


class SalamonError(ValueError):
    """Syntax error in shorthand algebra notation, with character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ShearLineError(ValueError):
    """The shear lines are undefined: the algebra is abelian or not solvable."""


class JacobiReport(Value):
    _fields = ("passed", "failures")  # bool, and (generator index, d(d e_k)) for each violation


_PASSED = JacobiReport(True, ())  # immutable, so every passing algebra shares it


class SeriesReport(Value):
    _fields = (
        "lower_central",   # tuple[Subspace, ...]: n^(1) >= n^(2) >= ... up to stabilization
        "derived",         # tuple[Subspace, ...]: g' >= g'' >= ...
        "is_abelian",      # bool
        "is_nilpotent",    # bool
        "is_solvable",     # bool
        "step_length",     # int | None: least r with n^(r) = 0, when nilpotent
        "derived_length",  # int | None: least k with k-th derived term = 0, when solvable
    )


class Filtration(Value):
    """Dual filtration V_0 > V_1 > ... > V_{r-1} with V_i = Ann(n^(r-i)).

    Each V_i satisfies d V_i in Lambda^2 V_{i+1}, by the proof in
    `LieAlgebra.twist_filtration` (the tests check it through `d`); chain
    entries are echelon covector bases.
    """

    _fields = ("chain",)  # tuple[Subspace, ...]


class EigenSpace(Value):
    _fields = (
        "eigenvalues",  # tuple[Fraction, ...]: one eigenvalue per acting generator
        "basis",        # Subspace
    )


class ShearLineReport(Value):
    """Invariant lines available for shearing: simultaneous rational eigenspaces
    of the outer action on the last nonzero lower-central term of g'."""

    _fields = (
        "derived_subalgebra",   # Subspace
        "target",               # Subspace: last nonzero term of the lower central series of g'
        "acting",               # tuple[Vector, ...]: first frame vectors completing g', in index order
        "eigenspaces",          # tuple[EigenSpace, ...]
        "nonrational_present",  # bool: char poly kept a nonconstant factor with no rational root
    )


class LieAlgebra(Value):
    """Lie algebra of dimension n >= 2 given by the two-forms d e_1, ..., d e_n.

    Only the Jacobi verdict is computed eagerly, as d(d e_k) = 0 for each k:
    each d(d e_k) is summed into a term dict by the rule of `d` and read
    there, and only a failing one is built as a form.  Every algebra that
    passes shares one immutable JacobiReport(True, ()).
    `_replacing` builds an algebra from a checked one with a few d e_k
    replaced, and checks only the generators `_recheck` names for them; the
    report is the full check's either way.  Brackets are
    read off the terms of the d e_k when asked for, by the one formula of
    `_columns`, and summed over a left factor by `linalg.mat_mul`: the
    bracket, the series, the centralizer, the shear lines,
    the ideal test of a shear and the Nijenhuis tensor of `geometry` all go
    through it, and no bracket table or ad matrix is ever built.  Only
    [g, g] skips it: its spanning brackets [E_i, E_j] are read off `diffs`,
    one index pair each, on that pair's own denominators.

    Two slots are filled on use: `_series` caches the series with the
    integral terms it bracketed by, which the shear lines read, and `_decomp`
    holds the `shear.ShearBase` of the last decomposition
    `shear.decompose_dalpha` made of this algebra, so a shear validated,
    applied and probed along one (X, alpha) splits d(alpha) once and fills
    the base's caches once.  An algebra built by `_replacing` starts with
    both empty.  Instances are safe to share between threads: each slot is
    only ever assigned a complete value, an atomic store, so a reader sees
    the old value or the new one.  The base's caches grow by such stores
    too, one complete entry at a time, and a race between two writers only
    costs one recomputation.  An algebra compares and hashes by its d e_k
    alone, never by what it has cached.
    """

    __slots__ = ("dim", "diffs", "_jacobi", "_series", "_decomp")
    _fields = ("diffs",)

    def __init__(self, diffs: list[KForm] | tuple[KForm, ...]):
        diffs = tuple(diffs)
        if len(diffs) < 2:  # a two-form needs two generators
            raise ValueError(f"need at least 2 generator differentials, got {len(diffs)}")
        n = diffs[0].dim
        for k, f in enumerate(diffs, start=1):
            if f.dim != n:
                raise ValueError(f"d e_{k} lives on dimension {f.dim}, expected {n}")
            if not (f.degree == 2 or f.is_zero()):
                raise ValueError(f"d e_{k} must be a two-form, got degree {f.degree}")
        if len(diffs) != n:
            raise ValueError(f"got {len(diffs)} differentials for dimension {n}")
        self._fill(diffs, range(n))

    @classmethod
    def _replacing(cls, base: LieAlgebra, replaced: Sequence[tuple[int, KForm]], check: Sequence[int]) -> LieAlgebra:
        """`base` with d e_k replaced by f for each (k, f) of `replaced` (k 0-based),
        its Jacobi report from d(d e_k) for the k of `check` only.

        Nothing of `base` is validated again.  The caller vouches that each
        f is a two-form on base.dim, and that `check` is base._recheck of the
        replaced mask, or every generator.
        """
        diffs = list(base.diffs)
        for k, f in replaced:
            diffs[k] = f
        g = object.__new__(cls)
        g._fill(tuple(diffs), check)
        return g

    def _fill(self, diffs: tuple[KForm, ...], check: Sequence[int]) -> None:
        failures = []
        for k in check:
            # d(d e_k) by the rule of `d`, read off its term dict: only a failure is built
            dd = _d_terms(diffs, diffs[k].terms.items(), {})
            if any(dd.values()):
                failures.append((k + 1, _make(len(diffs), 3, dd)))
        _set_dim(self, len(diffs))
        _set_diffs(self, diffs)
        _set_jacobi(self, JacobiReport(False, tuple(failures)) if failures else _PASSED)
        # filled on first use; assigning an immutable value is atomic, so
        # shared readers need no synchronization
        _set_series(self, None)
        _set_decomp(self, None)

    def _recheck(self, changed: int) -> tuple[int, ...]:
        """The generators whose d(d e_k) can change when the d e_i of the
        0-based indices in the mask `changed` are replaced: those and the k
        whose d e_k has a monomial on one of them, as d(d e_k) reads only d e_k
        and the d e_i of the indices i in its monomials.  Every other d(d e_k)
        is this algebra's, zero when it passes Jacobi; when it fails, every
        generator, so the report is the full check's."""
        if not self._jacobi.passed:
            return tuple(range(self.dim))
        return tuple([k for k, f in enumerate(self.diffs) if reduce(or_, f.terms, 1 << k) & changed])

    @classmethod
    def abelian(cls, dim: int) -> "LieAlgebra":
        return cls([KForm.zero(dim, 2)] * dim)

    def __repr__(self) -> str:
        if self.dim <= 9:
            return f"LieAlgebra({print_salamon(self)!r})"
        return f"LieAlgebra(dim={self.dim})"

    # -- differential and brackets ------------------------------------------

    def d(self, form: KForm) -> KForm:
        """Antiderivation extension of the generator differentials.

        Slot p of a monomial contributes (-1)^p d e_{i_p} ^ (the monomial
        without i_p), nothing when d e_{i_p} = 0.  A term e_lo ^ e_hi of the
        two-form d e_{i_p} merges into that rest with the parity of the
        rest's bits strictly between lo and hi, those under dmask - 2 lo.
        """
        if form.dim != self.dim:
            raise ValueError(f"dimension mismatch: {form.dim} vs {self.dim}")
        return _make(self.dim, form.degree + 1, _d_terms(self.diffs, form.terms.items(), {}))

    def bracket(self, v: Vector, w: Vector) -> Vector:
        """[v, w], component k equal to -(d e_k)(v, w)."""
        if v.dim != self.dim or w.dim != self.dim:
            raise ValueError("dimension mismatch in bracket")
        if not self._jacobi.passed:
            warnings.warn("bracket on an algebra failing the Jacobi identity", RuntimeWarning)
        # the columns are scale [E_i, w], summed over the nonzero v_i by the one
        # matrix product; an all-zero sum is the int 0, so Fraction divides
        scale, terms = self._int_terms()
        row = linalg.mat_mul([v.components], _columns(terms, w.components))[0]
        return Vector([Fraction(x, scale) for x in row])

    def _int_terms(self) -> tuple[int, list[tuple[int, int, int, int]]]:
        """(scale, terms): (i, j, k, scale*c) for each term c e_ij (0-based i < j)
        of d e_k, scale the lcm of the denominators of the c.

        The one scale serves `_columns`' sums, which add the terms of many
        d e_k; [g, g]'s rows each hold one index pair and are read off
        `diffs` on their own denominators (`series`)."""
        terms = [((mask & -mask).bit_length() - 1, mask.bit_length() - 1, k, c)
                 for k, f in enumerate(self.diffs) for mask, c in f.terms.items()]
        scale = lcm(*{c.denominator for _, _, _, c in terms})
        if scale != 1:
            terms = [(i, j, k, c.numerator * (scale // c.denominator)) for i, j, k, c in terms]
        return scale, terms

    def jacobi_check(self) -> JacobiReport:
        return self._jacobi

    def lie_derivative(self, v: Vector, form: KForm) -> KForm:
        """Cartan formula: L_v = i_v d + d i_v."""
        if not self._jacobi.passed:
            warnings.warn("Lie derivative on an algebra failing the Jacobi identity", RuntimeWarning)
        return interior(v, self.d(form)) + self.d(interior(v, form))

    # -- series and classification -------------------------------------------

    def series(self) -> SeriesReport:
        """The series report; `_series` caches it with its lower central and
        derived chains as `Rows`, and the `_int_terms` they were bracketed by.

        [g, g] is read off `diffs`: one row [E_i, E_j] per index pair i < j
        with a term, holding that pair's own coefficients, which `rref`
        makes primitive.  Each later step brackets into its predecessor s
        by `_brackets`, through the columns [E_i, v] of each row v of s, taken
        once per row in this call: the lower-central step [g, s] and the
        derived step [s, s] share them, and for g' = [g, g] both brackets of
        g' read the same columns.  `_chain` ranks a step's brackets at the
        pivots of s, so a term that repeats ends its chain without an
        elimination.
        """
        if not self._jacobi.passed:
            raise ValueError("series undefined: the Jacobi identity fails")
        if self._series is None:
            n = self.dim
            int_terms = self._int_terms()
            terms = int_terms[1]
            pairs: dict[int, list[Coeff]] = {}
            for k, f in enumerate(self.diffs):
                for mask, c in f.terms.items():
                    pairs.setdefault(mask, [0] * n)[k] = -c
            columns: dict[linalg.Row, list[list[int]]] = {}
            lower = _chain(linalg.span_rref(list(pairs.values())), lambda s: _brackets(None, s, terms, columns))
            derived = _chain(lower[0], lambda s: _brackets(s, s, terms, columns))
            is_nilpotent, is_solvable = not lower[-1], not derived[-1]
            first = linalg.reduced(lower[0])  # the derived chain starts at g' too
            report = SeriesReport(
                lower_central=(first, *map(linalg.reduced, lower[1:])),
                derived=(first, *map(linalg.reduced, derived[1:])),
                is_abelian=not lower[0],
                is_nilpotent=is_nilpotent,
                is_solvable=is_solvable,
                step_length=len(lower) if is_nilpotent else None,
                derived_length=len(derived) if is_solvable else None,
            )
            _set_series(self, (report, lower, derived, int_terms))
        return self._series[0]

    def twist_filtration(self) -> Filtration:
        """Dual filtration V_i = Ann(n^(r-i)) of a nilpotent algebra."""
        rep = self.series()
        _, lower, _, _ = self._series
        if not rep.is_nilpotent:
            raise ValueError("twist filtration requires a nilpotent algebra")
        # chain[i] = Ann(n^(r-i)), i = 0..r-1, from n^(r) = 0 up to n^(1).
        # d V_i in Lambda^2 V_{i+1} holds by construction, so it is not checked:
        # with k = r-i, V_{i+1} = Ann(n^(k-1)), and a two-form lies in
        # Lambda^2 V_{i+1} when X . d(phi) = 0 for every X in n^(k-1) (n^(0) = g).
        # For phi in V_i = Ann(n^(k)), (X . d(phi))(A) = -phi([X, A]) = 0, since
        # [X, A] lies in n^(k) = [g, n^(k-1)], which `_brackets` spans.
        chain = [linalg.reduced(linalg.nullspace(n_k, ncols=self.dim)) for n_k in reversed(lower)]
        return Filtration(chain=tuple(chain))

    def is_almost_abelian(self) -> tuple[bool | None, str]:
        """Does the algebra admit an abelian ideal of codimension one?

        Exact verdict except when the derived subalgebra is abelian of
        codimension >= 3, which is reported as undecided (None).
        """
        rep = self.series()
        _, _, derived, _ = self._series
        if rep.is_abelian:
            return True, "abelian"
        dsub = derived[0]
        if len(derived) == 1 or derived[1]:  # [g', g'] != 0
            return False, (
                "derived subalgebra is non-abelian and every codimension-one "
                "abelian ideal would have to contain it"
            )
        codim = self.dim - len(dsub)
        if codim == 1:
            return True, "derived subalgebra is an abelian ideal of codimension one"
        if codim == 2:
            cent = self._centralizer(dsub)
            if len(linalg.span_rref(dsub + cent)) > len(dsub):  # cent not inside g'
                return True, "derived subalgebra extends by a centralizing line to an abelian hyperplane"
            return False, "no centralizer of the derived subalgebra outside itself"
        return None, "undecided: abelian derived subalgebra of codimension >= 3"

    def _centralizer(self, rows: Rows) -> Rows:
        # {v : [v, u] = 0 for every row u}, [v, u] = sum_i v_i [E_i, u]: each u gives
        # the rows of the matrix whose columns are the [E_i, u], blind to their scale
        terms = self._int_terms()[1]
        stacked = [row for u in rows for row in zip(*_columns(terms, u))]
        return linalg.nullspace(stacked, ncols=self.dim)

    # -- shear line discovery --------------------------------------------------

    def find_shear_lines(self) -> ShearLineReport:
        """Simultaneous rational eigenspaces of the complement action on the
        last nonzero lower-central term of the derived subalgebra.

        The chain of g' brackets into each term s by `_brackets`, from the
        series' cached terms, with the columns of each row of s taken once;
        `_chain` ranks each step at the pivots of s.  That the action keeps
        the target is checked by one `linalg.mat_mul` per refined space, and
        each subspace is reduced to its public form once.
        """
        rep = self.series()
        _, _, derived, (scale, terms) = self._series
        if not rep.is_solvable:
            raise ShearLineError("shear lines require a solvable algebra")
        if rep.is_abelian:
            raise ShearLineError("abelian algebra has no canonical line")
        dsub, n = derived[0], self.dim
        # lower central series of n = g' (brackets taken inside n): [n, n] = g''.
        # It ends in zero, so lower[-2] exists: g is solvable, so g' is nilpotent
        # (Lie's theorem for g (x) C, whose derived algebra is g' (x) C), and
        # `_chain` stops at its first zero or at its first repeat, which for a
        # nonzero term would keep the series from ever reaching zero
        columns: dict[linalg.Row, list[list[int]]] = {}
        lower = [dsub, *_chain(derived[1], lambda s: _brackets(dsub, s, terms, columns))]
        target = lower[-2]  # last nonzero term (n itself when n is abelian)
        complement = linalg.complement(dsub, n)
        spaces: list[tuple[tuple[Fraction, ...], Rows]] = [((), target)]
        nonrational = False
        for gen in complement:
            # column gen of the brackets [E_i, b] reads only the terms with a leg on gen
            acting = [term for term in terms if gen in term[:2]]
            refined: list[tuple[tuple[Fraction, ...], Rows]] = []
            for eigs, basis in spaces:
                # the acting frame vector maps b_j to [E_gen, b_j] = images[j] / scale.  At
                # the pivot p_i of b_i the other rows vanish, so a vector v of the span is
                # sum_i v[p_i] / b_i[p_i] b_i: that reads the restricted matrix in the
                # basis b.  With L the lcm of the pivot entries, L v is the product of
                # its pivot entries, each scaled by L / b_i[p_i], with the basis; an
                # image off the span differs from that product
                images = [_columns(acting, b)[gen] for b in basis]
                pivots = [next(c for c, x in enumerate(b) if x) for b in basis]
                big = lcm(*(b[p] for b, p in zip(basis, pivots)))
                coords = [[im[p] * (big // b[p]) for b, p in zip(basis, pivots)] for im in images]
                if linalg.mat_mul(coords, basis) != [[big * x for x in im] for im in images]:
                    raise RuntimeError("complement action does not preserve the target subspace")
                # coords[j][i] = im_j[p_i] L / b_i[p_i] is scale L times the entry (i, j) of
                # the restricted matrix A, so R, coords transposed and divided by the gcd
                # of its entries (1 when all are 0), is the primitive integer multiple of A
                common = gcd(*(x for row in coords for x in row)) or 1
                restricted = [[x // common for x in col] for col in zip(*coords)]
                # det(xI - R) is monic over the integers, so its rational roots are
                # integers mu, read block by block off R's strongly connected
                # components (a 1x1 block is its own root, with no polynomial); the
                # eigenvalues of A are mu common / (scale L), with the eigenspaces of R, the
                # nullspaces of the integer rows R - mu I, each taken on the rows
                # that reach a block of root mu
                eigenspaces, nonrational_here = linalg.rational_eigenspaces(restricted)
                nonrational = nonrational or nonrational_here
                # roots ascend and each chain occurs once, so `refined` comes out
                # sorted.  A nullspace row y is reduced echelon with a positive pivot,
                # and so is sum_i y_i b_i, whose entry at p_i is y_i b_i[p_i]
                for mu, kernel in eigenspaces:
                    sums = linalg.mat_mul(kernel, basis)
                    eigvecs = tuple([tuple([x // g for x in v]) for v in sums for g in (gcd(*v),)])
                    refined.append((eigs + (Fraction(mu * common, scale * big),), eigvecs))
            spaces = refined
        public = {dsub: rep.derived[0]}  # each subspace reduced once: the target is often g'

        def reduced(rows: Rows) -> Subspace:
            return public.get(rows) or public.setdefault(rows, linalg.reduced(rows))

        return ShearLineReport(
            derived_subalgebra=rep.derived[0],
            target=reduced(target),
            acting=tuple(Vector.basis(n, j + 1) for j in complement),
            eigenspaces=tuple(EigenSpace(eigenvalues=e, basis=reduced(b)) for e, b in spaces),
            nonrational_present=nonrational,
        )


_set_dim, _set_diffs, _set_jacobi, _set_series, _set_decomp = slot_setters(LieAlgebra)


def _d_terms(diffs: Sequence[KForm], items, terms: dict[int, Coeff]) -> dict[int, Coeff]:
    """`terms` with d of each term (mask, c) of `items` added, by the rule of
    `LieAlgebra.d` on the generator differentials `diffs`."""
    for mask, c in items:
        rem = mask
        while rem:
            low = rem & -rem
            rem ^= low
            dterms = diffs[low.bit_length() - 1].terms
            if not dterms:
                continue
            rest = mask ^ low
            coeff = -c if (mask & (low - 1)).bit_count() & 1 else c
            for dmask, dc in dterms.items():
                if dmask & rest:
                    continue
                m = dmask | rest
                v = dc * coeff
                # the bits of rest strictly between the two of dmask
                if (rest & (dmask - 2 * (dmask & -dmask))).bit_count() & 1:
                    v = -v
                terms[m] = terms[m] + v if m in terms else v
    return terms


def _chain(first: Rows, brackets: Callable[[Rows], list[list[int]]]) -> list[Rows]:
    """first, then the span of brackets(s) after each nonzero term s, up to the
    first zero term or up to the term before the first repeat.

    The brackets of each step lie in span(s), [g, s], [s, s] or [g', s] of
    an ideal s, so their rank at the pivots of s (`linalg.rank_at`) is the
    rank of their span: at |s| the term repeats and the chain ends with no
    elimination, and only a term that shrinks goes through `span_rref`.
    """
    chain = [first]
    while s := chain[-1]:
        vecs = brackets(s)
        if linalg.rank_at(vecs, [next(c for c, x in enumerate(v) if x) for v in s]) == len(s):
            break
        chain.append(linalg.span_rref(vecs))
    return chain


def _brackets(left: Rows | None, right: Rows, terms, columns: dict) -> list[list[int]]:
    """The nonzero scale [u, v] for u in `left` and v in `right`, integer rows
    bracketed through the `_int_terms`, whose span is blind to the scale.

    `columns` keeps the columns scale [E_i, v] of each right row v, one pass of
    `_columns` over the terms per row for all the steps of one chain or two.
    With `left` None, a lower-central step [g, s], the brackets are those
    columns themselves; otherwise [u, v] = sum_i u_i [E_i, v] is the matrix
    product of the rows u with the columns.  A self-span, as each derived
    step, takes each unordered pair once: [u, v] = -[v, u] and [v, v] = 0 for
    any two-form structure constants.
    """
    same = left == right
    vecs = []
    for k, v in enumerate(right):
        if same and not k:
            continue
        cols = columns.get(v) or columns.setdefault(v, _columns(terms, v))
        products = cols if left is None else linalg.mat_mul(left[:k] if same else left, cols)
        vecs += [b for b in products if any(b)]
    return vecs


def _columns(terms: Sequence[tuple[int, int, int, int]], v: Sequence[Coeff]) -> list[list[Coeff]]:
    """The brackets [E_i, v], i = 1..len(v), from the (i, j, k, c) terms of `LieAlgebra._int_terms`.

    This is the package's one bracket formula: a term c e_ij of d e_k gives
    [u, v]_k the share -c (u_i v_j - u_j v_i), so [u, v] = sum_i u_i [E_i, v].
    """
    n = len(v)
    cols: list[list[Coeff]] = [[0] * n for _ in range(n)]
    # v's entry on the left: Fraction * int is Fraction's fast path, int * Fraction goes through __rmul__
    for i, j, k, c in terms:
        if v[j]:
            cols[i][k] -= v[j] * c
        if v[i]:
            cols[j][k] += v[i] * c
    return cols


# -- shorthand notation -------------------------------------------------------


# README's grammar, one pattern per piece, matched at a position: digits are
# ASCII only, and `\s` is the whitespace of str.isspace
_SPACE = re.compile(r"\s*")
_COMMA = re.compile(",")
_ZERO_ENTRY = re.compile(r"0(?![0-9]*[./])\s*")  # not the coefficient of "0.12"
_FIRST_SIGN = re.compile(r"[+-]?\s*")
_SIGNS = re.compile(r"[+-]\s*(?:[+-]\s*)?")  # substitution makes a second sign: "+-1.23"
# digits are a coefficient only before "." or "/"
_COEFF = re.compile(r"([0-9]+)(?:\.|/([0-9]*)(\.?))")
_PAIR = re.compile(r"[0-9]{2}")


def parse_salamon(text: str) -> LieAlgebra:
    """Parse shorthand like "(0,0,12)" or "(51,52,53,2.54,0)".

    Each entry is d e_k: "0", or signed terms "c.ab" meaning c * e_a ^ e_b
    (coefficient omitted when 1, rational coefficients as "p/q").
    """
    stripped = text.strip()
    start, end = text.find("("), text.rfind(")")
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise SalamonError("algebra must be wrapped in parentheses", max(start, 0))
    cuts = [start, *(m.start() for m in _COMMA.finditer(text, start + 1, end)), end]
    n = len(cuts) - 1
    if n == 1:  # a two-form needs two generators
        raise SalamonError("shorthand needs at least 2 generators, got 1", 0)
    if n > 9:
        raise SalamonError(f"shorthand supports at most 9 generators, got {n}", 0)
    return LieAlgebra([_parse_entry(text, a + 1, b, n) for a, b in zip(cuts, cuts[1:])])


def _parse_entry(text: str, i: int, end: int, dim: int) -> KForm:
    """d e_k from the entry text[i:end]; error positions index `text`."""
    i = _SPACE.match(text, i, end).end()
    if i == end:
        raise SalamonError("empty entry", i)
    if zero := _ZERO_ENTRY.match(text, i, end):
        if zero.end() < end:
            raise SalamonError(f"unexpected {text[zero.end()]!r} after zero entry", zero.end())
        return KForm.zero(dim, 2)
    terms: dict[int, Fraction] = {}
    signs = _FIRST_SIGN
    while i < end:
        if not (m := signs.match(text, i, end)):
            raise SalamonError(f"expected '+' or '-', got {text[i]!r}", i)
        coeff = Fraction(-1 if m[0].count("-") % 2 else 1)
        i = m.end()
        if c := _COEFF.match(text, i, end):
            num, den, dot = c.groups()
            if den == "":
                raise SalamonError("missing denominator", c.end(1))
            coeff *= int(num)
            if den is not None:
                if not int(den):
                    raise SalamonError("zero denominator", c.start(2))
                if not dot:
                    raise SalamonError("rational coefficient must be followed by '.'", c.end())
                coeff /= int(den)
            i = c.end()
        if not _PAIR.match(text, i, end):
            raise SalamonError("expected an index pair of two digits", i)
        a, b = int(text[i]), int(text[i + 1])
        for d, pos in ((a, i), (b, i + 1)):
            if d == 0:
                raise SalamonError("0 is not a valid index", pos)
            if d > dim:
                raise SalamonError(f"index {d} exceeds dimension {dim}", pos)
        if a == b:
            raise SalamonError(f"repeated index {a} in a pair", i)
        mask = (1 << a - 1) | (1 << b - 1)
        terms[mask] = terms.get(mask, 0) + (coeff if a < b else -coeff)
        i = _SPACE.match(text, i + 2, end).end()
        signs = _SIGNS
    return KForm(dim, 2, terms)


def print_salamon(g: LieAlgebra) -> str:
    """Shorthand string; inverse of parse_salamon up to algebra equality.

    Negative coefficients are absorbed by swapping the index pair, so
    -2*e45 prints as "2.54".  Dimensions above 9 fall back to a JSON document.
    """
    if g.dim > 9:
        return json.dumps(
            {"dim": g.dim, "d": {str(k): str(f) for k, f in enumerate(g.diffs, start=1)}},
            sort_keys=True,
        )
    entries = []
    for f in g.diffs:
        if f.is_zero():
            entries.append("0")
            continue
        parts = []
        for idx, c in f.sorted_terms():
            a, b = idx
            if c < 0:
                a, b, c = b, a, -c
            parts.append(f"{a}{b}" if c == 1 else f"{c}.{a}{b}")
        entries.append("+".join(parts))
    return "(" + ",".join(entries) + ")"
