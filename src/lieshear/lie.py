"""Lie algebras presented by the differential of each dual-basis generator.

The sign convention, fixed once for the whole package, is

    d(alpha)(X, Y) = -alpha([X, Y])

so the structure constants are c^k_ij = -(d e_k)(E_i, E_j).  The exterior
derivative of an arbitrary form is the antiderivation extension of the
generator differentials, and d∘d = 0 is exactly the Jacobi identity.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import linalg
from .exterior import Coeff, KForm, Vector, _first_leg, _make, interior, merge_sign, one_form

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

    Each V_i satisfies d V_i in Lambda^2 V_{i+1} (verified on construction);
    chain entries are echelon covector bases.
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
    terms of the d e_k when asked for, by the one formula of `_columns`; no
    bracket table or ad matrix is kept.  Instances are safe to share between
    threads.
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

    def _ad(self, v: Sequence[Coeff]) -> list[list[Coeff]]:
        # ad(v), v given by its components: column j is [v, E_j] = -[E_j, v];
        # entries as interior leaves them, int when integral
        comps = [x.numerator if x.denominator == 1 else x for x in v]
        cols = _columns(self._terms(), comps, self.dim)
        return [
            [-x if type(x) is int or x.denominator != 1 else -x.numerator for x in row]
            for row in zip(*cols)
        ]

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
        lower: list[Subspace] = [self._bracket_span(full, full)]
        while lower[-1]:
            nxt = self._bracket_span(full, lower[-1])
            if nxt == lower[-1]:
                break
            lower.append(nxt)
        derived: list[Subspace] = [lower[0]]
        while derived[-1]:
            nxt = self._bracket_span(derived[-1], derived[-1])
            if nxt == derived[-1]:
                break
            derived.append(nxt)
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
        r = rep.step_length  # an int: the algebra is nilpotent
        terms = [linalg.span_rref(linalg.identity(self.dim))] + list(rep.lower_central)
        # terms[k] = n^(k) with n^(0) = g; chain[i] = Ann(n^(r-i)), i = 0..r-1
        chain = [linalg.nullspace(terms[r - i], ncols=self.dim) for i in range(r)]
        for i in range(r):
            # d V_i in Lambda^2 V_{i+1}: no d phi has a leg along the vectors
            # V_{i+1} = Ann(n^(r-i-1)) kills, which are n^(r-i-1) itself
            if any(_first_leg(self.d(one_form(row)), terms[r - i - 1]) for row in chain[i]):
                raise RuntimeError(f"filtration violated: d V_{i} leaves Lambda^2 V_{i + 1}")
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
        if self._bracket_span(dsub, dsub):
            return False, (
                "derived subalgebra is non-abelian and every codimension-one "
                "abelian ideal would have to contain it"
            )
        codim = self.dim - len(dsub)
        if codim == 1:
            return True, "derived subalgebra is an abelian ideal of codimension one"
        if codim == 2:
            stacked = []
            for u in dsub:
                stacked.extend(self._ad(u))
            cent = linalg.nullspace(stacked, ncols=self.dim)
            if len(linalg.span_rref(list(dsub) + list(cent))) > len(dsub):  # cent not inside g'
                return True, "derived subalgebra extends by a centralizing line to an abelian hyperplane"
            return False, "no centralizer of the derived subalgebra outside itself"
        return None, "undecided: abelian derived subalgebra of codimension >= 3"

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
        terms: list[Subspace] = [dsub]
        while terms[-1]:
            nxt = self._bracket_span(dsub, terms[-1])
            if nxt == terms[-1]:
                raise RuntimeError("derived subalgebra of a solvable algebra must be nilpotent")
            terms.append(nxt)
        target = terms[-2]  # last nonzero term (n itself when n is abelian)
        acting = [Vector.basis(self.dim, j + 1) for j in linalg.complement(dsub, self.dim)]
        spaces: list[tuple[tuple[Fraction, ...], Subspace]] = [((), target)]
        nonrational = False
        for a_vec in acting:
            ad = self._ad(a_vec.components)
            refined: list[tuple[tuple[Fraction, ...], Subspace]] = []
            for eigs, basis in spaces:
                restricted = linalg.restrict_operator(ad, basis)
                if restricted is None:
                    raise RuntimeError("complement action does not preserve the target subspace")
                roots, leftover = linalg.rational_roots(linalg.charpoly(restricted))
                if leftover:
                    nonrational = True
                k = len(basis)
                to_ambient = linalg.transpose(basis)
                # each (chain, root) pair occurs once: roots are distinct
                for root, _mult in roots:
                    shifted = [
                        [restricted[i][j] - (root if i == j else 0) for j in range(k)]
                        for i in range(k)
                    ]
                    eigvecs = [linalg.mat_vec(to_ambient, c) for c in linalg.nullspace(shifted, ncols=k)]
                    refined.append((eigs + (root,), linalg.span_rref(eigvecs)))
            spaces = sorted(refined)
        eig = tuple(EigenSpace(eigenvalues=e, basis=b) for e, b in spaces)
        return ShearLineReport(
            derived_subalgebra=dsub,
            target=target,
            acting=tuple(acting),
            eigenspaces=eig,
            nonrational_present=nonrational,
        )


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


def parse_salamon(text: str) -> LieAlgebra:
    """Parse shorthand like "(0,0,12)" or "(51,52,53,2.54,0)".

    Each entry is d e_k: "0", or signed terms "c.ab" meaning c * e_a ^ e_b
    (coefficient omitted when 1, rational coefficients as "p/q").
    """
    entries = _split_entries(text)
    n = len(entries)
    if n > 9:
        raise SalamonError(f"shorthand supports at most 9 generators, got {n}", 0)
    diffs = []
    for raw, offset in entries:
        diffs.append(_parse_entry(raw, offset, n))
    return LieAlgebra(diffs)


def _split_entries(text: str) -> list[tuple[str, int]]:
    stripped = text.strip()
    start = text.find("(")
    if not stripped.startswith("(") or not stripped.endswith(")"):
        raise SalamonError("algebra must be wrapped in parentheses", max(start, 0))
    inner_start = start + 1
    inner_end = text.rfind(")")
    inner = text[inner_start:inner_end]
    entries = []
    pos = inner_start
    for chunk in inner.split(","):
        entries.append((chunk, pos))
        pos += len(chunk) + 1
    return entries


def _parse_entry(raw: str, offset: int, dim: int) -> KForm:
    s = raw
    out = KForm.zero(dim, 2)
    i = 0

    def skip_ws():
        nonlocal i
        while i < len(s) and s[i].isspace():
            i += 1

    skip_ws()
    if i >= len(s):
        raise SalamonError("empty entry", offset + i)
    if s[i] == "0" and not _starts_term(s, i):
        i += 1
        skip_ws()
        if i != len(s):
            raise SalamonError(f"unexpected {s[i]!r} after zero entry", offset + i)
        return out
    first = True
    while True:
        skip_ws()
        sign = 1
        if first:
            if i < len(s) and s[i] in "+-":
                sign = -1 if s[i] == "-" else 1
                i += 1
        else:
            if i >= len(s):
                break
            if s[i] not in "+-":
                raise SalamonError(f"expected '+' or '-', got {s[i]!r}", offset + i)
            sign = -1 if s[i] == "-" else 1
            i += 1
            skip_ws()
            # tolerate a sign produced by textual substitution, e.g. "+-1.23"
            if i < len(s) and s[i] in "+-":
                sign *= -1 if s[i] == "-" else 1
                i += 1
        skip_ws()
        coeff, i = _parse_coeff(s, i, offset)
        a, b, i = _parse_index_pair(s, i, offset, dim)
        out = out + KForm.monomial(dim, (a, b), sign * coeff)
        first = False
        skip_ws()
        if i >= len(s):
            break
    return out


def _starts_term(s: str, i: int) -> bool:
    # "0" begins a term only as a coefficient like "0.17"
    j = i
    while j < len(s) and s[j].isdigit():
        j += 1
    return j < len(s) and s[j] in "./"


def _parse_coeff(s: str, i: int, offset: int) -> tuple[Fraction, int]:
    j = i
    while j < len(s) and s[j].isdigit():
        j += 1
    if j == i:
        return Fraction(1), i
    if j < len(s) and s[j] == "/":
        k = j + 1
        while k < len(s) and s[k].isdigit():
            k += 1
        if k == j + 1:
            raise SalamonError("missing denominator", offset + j)
        num, den = int(s[i:j]), int(s[j + 1:k])
        if den == 0:
            raise SalamonError("zero denominator", offset + j + 1)
        if k < len(s) and s[k] == ".":
            return Fraction(num, den), k + 1
        raise SalamonError("rational coefficient must be followed by '.'", offset + k)
    if j < len(s) and s[j] == ".":
        return Fraction(int(s[i:j])), j + 1
    return Fraction(1), i


def _parse_index_pair(s: str, i: int, offset: int, dim: int) -> tuple[int, int, int]:
    if i + 1 >= len(s) or not (s[i].isdigit() and s[i + 1].isdigit()):
        raise SalamonError("expected an index pair of two digits", offset + i)
    a, b = int(s[i]), int(s[i + 1])
    for d, pos in ((a, i), (b, i + 1)):
        if d == 0:
            raise SalamonError("0 is not a valid index", offset + pos)
        if d > dim:
            raise SalamonError(f"index {d} exceeds dimension {dim}", offset + pos)
    if a == b:
        raise SalamonError(f"repeated index {a} in a pair", offset + i)
    return a, b, i + 2


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
