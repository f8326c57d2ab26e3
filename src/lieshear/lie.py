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
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from . import linalg
from .exterior import Coeff, KForm, Vector, _make, interior, merge_sign

Subspace = tuple[tuple[Fraction, ...], ...]


class SalamonError(ValueError):
    """Syntax error in shorthand algebra notation, with character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class JacobiReport:
    passed: bool
    failures: tuple[tuple[int, KForm], ...]  # (generator index, d(d e_k)) for each violation


@dataclass(frozen=True)
class SeriesReport:
    lower_central: tuple[Subspace, ...]  # n^(1) >= n^(2) >= ... up to stabilization
    derived: tuple[Subspace, ...]        # g' >= g'' >= ...
    is_abelian: bool
    is_nilpotent: bool
    is_solvable: bool
    step_length: int | None              # least r with n^(r) = 0, when nilpotent
    derived_length: int | None           # least k with k-th derived term = 0, when solvable


@dataclass(frozen=True)
class Filtration:
    """Dual filtration V_0 > V_1 > ... > V_{r-1} with V_i = Ann(n^(r-i)).

    Each V_i satisfies d V_i in Lambda^2 V_{i+1}, by the proof in
    `LieAlgebra.twist_filtration` (the tests check it through `d`); chain
    entries are echelon covector bases.
    """

    chain: tuple[Subspace, ...]


@dataclass(frozen=True)
class EigenSpace:
    eigenvalues: tuple[Fraction, ...]  # one eigenvalue per acting generator
    basis: Subspace


@dataclass(frozen=True)
class ShearLineReport:
    """Invariant lines available for shearing: simultaneous rational eigenspaces
    of the outer action on the last nonzero lower-central term of g'."""

    derived_subalgebra: Subspace
    target: Subspace                 # last nonzero term of the lower central series of g'
    acting: tuple[Vector, ...]       # first frame vectors completing g', in index order
    eigenspaces: tuple[EigenSpace, ...]
    nonrational_present: bool        # char poly kept a nonconstant factor with no rational root


class LieAlgebra:
    """Lie algebra of dimension n given by the two-forms d e_1, ..., d e_n.

    Only the Jacobi verdict is computed eagerly.  Brackets are read off the
    terms of the d e_k when asked for, by the one formula of `_columns`: the
    bracket, the series, the centralizer, the shear lines and the ideal test
    of a shear all go through it, and no bracket table or ad matrix is ever
    built.  Instances are safe to share between threads.
    """

    __slots__ = ("dim", "diffs", "_jacobi", "_series")

    def __init__(self, diffs: list[KForm] | tuple[KForm, ...]):
        diffs = tuple(diffs)
        if not diffs:
            raise ValueError("need at least one generator differential")
        n = diffs[0].dim
        for k, f in enumerate(diffs, start=1):
            if f.dim != n:
                raise ValueError(f"d e_{k} lives on dimension {f.dim}, expected {n}")
            if not (f.degree == 2 or f.is_zero()):
                raise ValueError(f"d e_{k} must be a two-form, got degree {f.degree}")
        if len(diffs) != n:
            raise ValueError(f"got {len(diffs)} differentials for dimension {n}")
        diffs = tuple(f if f.degree == 2 else KForm.zero(n, 2) for f in diffs)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "diffs", diffs)
        failures = []
        for k, f in enumerate(diffs, start=1):
            dd = self.d(f)
            if not dd.is_zero():
                failures.append((k, dd))
        object.__setattr__(self, "_jacobi", JacobiReport(not failures, tuple(failures)))
        # series cache: filled on first use; assigning the immutable report is
        # atomic and idempotent, so shared readers need no synchronization
        object.__setattr__(self, "_series", None)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def abelian(cls, dim: int) -> "LieAlgebra":
        return cls([KForm.zero(dim, 2)] * dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.diffs == other.diffs

    def __hash__(self):
        return hash(self.diffs)

    def __repr__(self) -> str:
        if self.dim <= 9:
            return f"LieAlgebra({print_salamon(self)!r})"
        return f"LieAlgebra(dim={self.dim})"

    # -- differential and brackets ------------------------------------------

    def d(self, form: KForm) -> KForm:
        """Antiderivation extension of the generator differentials."""
        if form.dim != self.dim:
            raise ValueError(f"dimension mismatch: {form.dim} vs {self.dim}")
        # d(e_i ^ rest) = d e_i ^ rest - e_i ^ d(rest): slot p of a monomial
        # contributes (-1)^p d e_{i_p} ^ (the monomial without i_p)
        terms: dict[int, Coeff] = {}
        for mask, c in form.terms.items():
            rem = mask
            while rem:
                low = rem & -rem
                rem ^= low
                rest = mask ^ low
                coeff = c
                if (mask & (low - 1)).bit_count() & 1:
                    coeff = -c
                for dmask, dc in self.diffs[low.bit_length() - 1].terms.items():
                    if dmask & rest:
                        continue
                    m = dmask | rest
                    v = dc * coeff if merge_sign(dmask, rest) > 0 else -(dc * coeff)
                    terms[m] = terms[m] + v if m in terms else v
        return _make(self.dim, form.degree + 1 if form.degree < self.dim else self.dim, terms)

    def bracket(self, v: Vector, w: Vector) -> Vector:
        """[v, w], component k equal to -(d e_k)(v, w)."""
        if v.dim != self.dim or w.dim != self.dim:
            raise ValueError("dimension mismatch in bracket")
        if not self._jacobi.passed:
            warnings.warn("bracket on an algebra failing the Jacobi identity", RuntimeWarning)
        cols = _columns(self._terms(), w.components, self.dim)
        out = [Fraction(0)] * self.dim
        for x, col in zip(v.components, cols):
            if x:
                out = [o + x * c for o, c in zip(out, col)]
        return Vector(out)

    def _terms(self, integral: bool = False) -> list[tuple[int, int, int, Coeff]]:
        """(i, j, k, c) for each term c e_ij (0-based i < j) of d e_k.

        With `integral`, every c is scaled to an int by the lcm of all their
        denominators; a span of brackets is blind to that common factor.
        """
        terms = [
            ((mask & -mask).bit_length() - 1, mask.bit_length() - 1, k, c)
            for k, f in enumerate(self.diffs)
            for mask, c in f.terms.items()
        ]
        if integral:
            scale = lcm(*(c.denominator for *_, c in terms))
            if scale != 1:
                terms = [(i, j, k, c.numerator * (scale // c.denominator)) for i, j, k, c in terms]
        return terms

    def jacobi_check(self) -> JacobiReport:
        return self._jacobi

    def lie_derivative(self, v: Vector, form: KForm) -> KForm:
        """Cartan formula: L_v = i_v d + d i_v."""
        if not self._jacobi.passed:
            warnings.warn("Lie derivative on an algebra failing the Jacobi identity", RuntimeWarning)
        return interior(v, self.d(form)) + self.d(interior(v, form))

    # -- series and classification -------------------------------------------

    def _bracket_span(self, left: Subspace, right: Subspace) -> Subspace:
        # a span is blind to the scale of each bracket: bracket primitive integer
        # rows through the structure constants scaled to ints by one common lcm.
        # One pass over the terms per right row v gives the columns [E_i, v];
        # then [u, v] sums u_i [E_i, v] over the nonzero u_i only, a column
        # lookup for the unit rows of a lower-central step
        n = self.dim
        terms = self._terms(integral=True)
        supports = [[(i, x) for i, x in enumerate(linalg.primitive(u)) if x] for u in left]
        supports = [s for s in supports if s]
        vecs = []
        for v in right:
            cols = _columns(terms, linalg.primitive(v), n)
            for (i, x), *rest in supports:
                b = cols[i] if x == 1 else [x * c for c in cols[i]]
                for i, x in rest:
                    b = [p + x * c for p, c in zip(b, cols[i])]
                if any(b):
                    vecs.append(b)
        return linalg.span_rref(vecs)

    def _compute_series(self) -> SeriesReport:
        full = linalg.span_rref(linalg.identity(self.dim))
        lower = _chain(self._bracket_span(full, full), lambda s: self._bracket_span(full, s))
        derived = _chain(lower[0], lambda s: self._bracket_span(s, s))
        is_nilpotent = not lower[-1]
        is_solvable = not derived[-1]
        return SeriesReport(
            lower_central=tuple(lower),
            derived=tuple(derived),
            is_abelian=not lower[0],
            is_nilpotent=is_nilpotent,
            is_solvable=is_solvable,
            step_length=len(lower) if is_nilpotent else None,
            derived_length=len(derived) if is_solvable else None,
        )

    def series(self) -> SeriesReport:
        if not self._jacobi.passed:
            raise ValueError("series undefined: the Jacobi identity fails")
        if self._series is None:
            object.__setattr__(self, "_series", self._compute_series())
        return self._series

    def twist_filtration(self) -> Filtration:
        """Dual filtration V_i = Ann(n^(r-i)) of a nilpotent algebra."""
        rep = self.series()
        if not rep.is_nilpotent:
            raise ValueError("twist filtration requires a nilpotent algebra")
        # chain[i] = Ann(n^(r-i)), i = 0..r-1, from n^(r) = 0 up to n^(1).
        # d V_i in Lambda^2 V_{i+1} holds by construction, so it is not checked:
        # with k = r-i, V_{i+1} = Ann(n^(k-1)), and a two-form lies in
        # Lambda^2 V_{i+1} when X . d(phi) = 0 for every X in n^(k-1) (n^(0) = g).
        # For phi in V_i = Ann(n^(k)), (X . d(phi))(A) = -phi([X, A]) = 0, since
        # [X, A] lies in n^(k) = [g, n^(k-1)], which `_bracket_span` builds.
        chain = [linalg.nullspace(n_k, ncols=self.dim) for n_k in reversed(rep.lower_central)]
        return Filtration(chain=tuple(chain))

    def is_almost_abelian(self) -> tuple[bool | None, str]:
        """Does the algebra admit an abelian ideal of codimension one?

        Exact verdict except when the derived subalgebra is abelian of
        codimension >= 3, which is reported as undecided (None).
        """
        rep = self.series()
        if rep.is_abelian:
            return True, "abelian"
        dsub = rep.derived[0]
        if len(rep.derived) == 1 or rep.derived[1]:  # [g', g'] != 0
            return False, (
                "derived subalgebra is non-abelian and every codimension-one "
                "abelian ideal would have to contain it"
            )
        codim = self.dim - len(dsub)
        if codim == 1:
            return True, "derived subalgebra is an abelian ideal of codimension one"
        if codim == 2:
            cent = self._centralizer(dsub)
            if len(linalg.span_rref(list(dsub) + list(cent))) > len(dsub):  # cent not inside g'
                return True, "derived subalgebra extends by a centralizing line to an abelian hyperplane"
            return False, "no centralizer of the derived subalgebra outside itself"
        return None, "undecided: abelian derived subalgebra of codimension >= 3"

    def _centralizer(self, rows: Subspace) -> Subspace:
        # {v : [v, u] = 0 for every row u}, [v, u] = sum_i v_i [E_i, u]: each u gives
        # the rows of the matrix whose columns are the [E_i, u]
        terms = self._terms()
        stacked = [row for u in rows for row in zip(*_columns(terms, u, self.dim))]
        return linalg.nullspace(stacked, ncols=self.dim)

    # -- shear line discovery --------------------------------------------------

    def find_shear_lines(self) -> ShearLineReport:
        """Simultaneous rational eigenspaces of the complement action on the
        last nonzero lower-central term of the derived subalgebra."""
        rep = self.series()
        if not rep.is_solvable:
            raise ValueError("shear lines require a solvable algebra")
        if rep.is_abelian:
            raise ValueError("abelian algebra has no canonical line")
        dsub = rep.derived[0]
        # lower central series of n = g' (brackets taken inside n)
        lower = _chain(dsub, lambda s: self._bracket_span(dsub, s))
        if lower[-1]:
            raise RuntimeError("derived subalgebra of a solvable algebra must be nilpotent")
        target = lower[-2]  # last nonzero term (n itself when n is abelian)
        complement = linalg.complement(dsub, self.dim)
        terms = self._terms()
        spaces: list[tuple[tuple[Fraction, ...], Subspace]] = [((), target)]
        nonrational = False
        for gen in complement:
            refined: list[tuple[tuple[Fraction, ...], Subspace]] = []
            for eigs, basis in spaces:
                # the acting frame vector maps each basis row b to [E_gen, b],
                # column gen of the brackets [E_i, b]
                images = [_columns(terms, b, self.dim)[gen] for b in basis]
                restricted = linalg.restrict_operator(basis, images)
                if restricted is None:
                    raise RuntimeError("complement action does not preserve the target subspace")
                roots, leftover = linalg.rational_roots(linalg.charpoly(restricted))
                if leftover:
                    nonrational = True
                k = len(basis)
                to_ambient = linalg.transpose(basis)
                # each (chain, root) pair occurs once: roots are distinct
                for root, _mult in roots:
                    shifted = [list(row) for row in restricted]
                    for i in range(k):
                        shifted[i][i] -= root
                    eigvecs = [linalg.mat_vec(to_ambient, c) for c in linalg.nullspace(shifted, ncols=k)]
                    refined.append((eigs + (root,), linalg.span_rref(eigvecs)))
            spaces = sorted(refined)
        eig = tuple(EigenSpace(eigenvalues=e, basis=b) for e, b in spaces)
        return ShearLineReport(
            derived_subalgebra=dsub,
            target=target,
            acting=tuple(Vector.basis(self.dim, j + 1) for j in complement),
            eigenspaces=eig,
            nonrational_present=nonrational,
        )


def _chain(first: Subspace, step: Callable[[Subspace], Subspace]) -> list[Subspace]:
    """first, step(first), ... up to the first zero term, or up to the term
    before the first repeat."""
    chain = [first]
    while chain[-1] and (nxt := step(chain[-1])) != chain[-1]:
        chain.append(nxt)
    return chain


def _columns(terms: Sequence[tuple[int, int, int, Coeff]], v: Sequence[Coeff], n: int) -> list[list[Coeff]]:
    """The brackets [E_i, v], i = 1..n, from the (i, j, k, c) terms of `LieAlgebra._terms`.

    This is the package's one bracket formula: a term c e_ij of d e_k gives
    [u, v]_k the share -c (u_i v_j - u_j v_i), so [u, v] = sum_i u_i [E_i, v].
    """
    cols: list[list[Coeff]] = [[0] * n for _ in range(n)]
    for i, j, k, c in terms:
        if v[j]:
            cols[i][k] -= c * v[j]
        if v[i]:
            cols[j][k] += c * v[i]
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
