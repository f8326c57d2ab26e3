"""Exact exterior algebra over the rationals on a fixed frame e_1, ..., e_n.

Monomials e_{i1...ik} (indices strictly increasing) are stored as bitmasks,
so wedge signs reduce to popcount parity.  Coefficients are exact
rationals, stored canonically: an `int` when integral, a `fractions.Fraction`
otherwise, never zero, so nothing is ever rounded and integer arithmetic runs
at `int` speed.  `int` and `Fraction` compare and hash alike, so the stored
type never shows in `==`, `hash` or `str`.  Vector components stay `Fraction`.
A form is its dimension and its term map: forms compare and sum by their terms,
so a zero form has a degree in name only, and Lambda^k is zero for k above the
dimension.
"""
from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, Mapping, Sequence

from ._value import Value, slot_setters

MAX_DIM = 14
# a search over more F0 candidates than this is refused, unless its spec sets its own cap
DEFAULT_CAP = 10**6

Coeff = Fraction | int


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, Rational):  # int, or a user-supplied rational type
        return Fraction(c)
    raise TypeError(f"coefficients must be exact rationals, got {type(c).__name__}")


def _as_coeff(c) -> Coeff:
    """Canonical stored coefficient: int when integral, else Fraction."""
    if type(c) is not int:
        c = _as_fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def merge_sign(a: int, b: int) -> int:
    """Parity sign of sorting the concatenation of index sets a then b."""
    sign = 1
    while b:
        low = b & -b
        if (a >> low.bit_length()).bit_count() & 1:
            sign = -sign
        b ^= low
    return sign


def _signed_mask(indices: Iterable[int], dim: int) -> tuple[int, int]:
    """(sign, mask) of e_{i1} ^ ... ^ e_{ik} for indices in any order: the
    bitmask of the index set and the sign of the permutation that sorts it."""
    sign, mask = 1, 0
    for i in indices:
        if not 1 <= i <= dim:
            raise ValueError(f"index {i} out of range 1..{dim}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated index {i}")
        sign *= merge_sign(mask, bit)
        mask |= bit
    return sign, mask


class KForm(Value):
    """Homogeneous exterior form of any degree k >= 0 on an n-dimensional frame.

    Immutable value: term map monomial-mask -> nonzero coefficient, an int
    when integral and a Fraction otherwise.  It compares by dimension and
    terms, as every mask has `degree` bits; its own hash reads the terms as
    a frozenset.  The constructor checks every mask and coefficient; the
    kernel's own results come from `_make`.
    """

    __slots__ = ("dim", "degree", "terms")
    _fields = ("dim", "terms")

    def __init__(self, dim: int, degree: int, terms: Mapping[int, Coeff] | None = None):
        if not 0 < dim <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {dim}")
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        clean: dict[int, Coeff] = {}
        if terms:
            for mask, c in terms.items():
                if mask >> dim:
                    raise ValueError(f"monomial {indices_of(mask)} does not fit dimension {dim}")
                if mask.bit_count() != degree:
                    raise ValueError(
                        f"monomial {indices_of(mask)} has degree {mask.bit_count()}, expected {degree}"
                    )
                c = _as_coeff(c)
                if c:
                    clean[mask] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int) -> "KForm":
        return cls(dim, degree, None)

    @classmethod
    def scalar(cls, dim: int, value) -> "KForm":
        return cls(dim, 0, {0: value})

    @classmethod
    def monomial(cls, dim: int, indices: Sequence[int], coeff=1) -> "KForm":
        """c * e_{i1} ^ ... ^ e_{ik}; indices may come in any order (sign applied)."""
        sign, mask = _signed_mask(indices, dim)
        return cls(dim, mask.bit_count(), {mask: sign * _as_coeff(coeff)})

    # -- predicates and canonical views ------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        """Terms sorted lexicographically on index sets (canonical public order)."""
        return sorted(((indices_of(m), c) for m, c in self.terms.items()), key=lambda t: t[0])

    def coefficient(self, indices: Sequence[int]) -> Fraction:
        """The coefficient of e_{i1} ^ ... ^ e_{ik}; indices in any order (sign applied)."""
        sign, mask = _signed_mask(indices, self.dim)
        return Fraction(sign * self.terms.get(mask, 0))

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "KForm") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "KForm") -> "KForm":
        if not isinstance(other, KForm):
            return NotImplemented
        self._check_compatible(other)
        # a zero form sums with a form of any degree; two nonzero forms must agree
        if self.degree != other.degree and self.terms and other.terms:
            raise ValueError(f"degree mismatch in sum: {self.degree} vs {other.degree}")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms[m] + c if m in terms else c
        return _make(self.dim, self.degree if self.terms else other.degree, terms)

    def __neg__(self) -> "KForm":
        return _make(self.dim, self.degree, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "KForm") -> "KForm":
        if not isinstance(other, KForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar) -> "KForm":
        c = _as_coeff(scalar)
        if c == 1:
            return self  # immutable, so the form itself is its own multiple
        return _make(self.dim, self.degree, {m: c * v for m, v in self.terms.items()})

    __rmul__ = __mul__

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __call__(self, *vectors: "Vector") -> Fraction:
        """Evaluate the k-form on k vectors (alternating multilinear pairing)."""
        if len(vectors) != self.degree:
            raise ValueError(f"need {self.degree} vectors, got {len(vectors)}")
        for v in vectors:
            if v.dim != self.dim:
                raise ValueError(f"dimension mismatch: {self.dim} vs {v.dim}")
        # alpha(v_1, ..., v_k) = i_{v_k} ... i_{v_1} alpha
        form = self
        for v in vectors:
            form = interior(v, form)
        return Fraction(form.terms.get(0, 0))

    def __repr__(self) -> str:
        return f"KForm({self.dim}, {self.degree}, {self!s})"

    def __str__(self) -> str:
        # indices above 9 need separators: e[1,10] rather than e110
        sep, left, right = (",", "e[", "]") if self.dim > 9 else ("", "e", "")
        return _signed_sum((c, f"{left}{sep.join(map(str, idx))}{right}" if idx else "1")
                           for idx, c in self.sorted_terms())


def _signed_sum(terms: Iterable[tuple[Coeff, str]]) -> str:
    """`a - 2*b + 1/2*c` from (nonzero coefficient, name) pairs; "0" when there are none."""
    out = ""
    for c, name in terms:
        term = name if c == 1 else f"-{name}" if c == -1 else f"{c}*{name}"
        if out:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        else:
            out = term
    return out or "0"


def _make(dim: int, degree: int, terms: dict[int, Coeff]) -> KForm:
    """KForm from a term dict the kernel built itself, without re-validation.

    The caller vouches that every mask fits `dim` and has `degree` bits and
    that every value is an int or a Fraction; this only drops zeros and
    demotes integral Fractions to int.
    """
    return _stored(dim, degree, {
        m: c if type(c) is int or c.denominator != 1 else c.numerator
        for m, c in terms.items() if c
    })


def _stored(dim: int, degree: int, terms: dict[int, Coeff]) -> KForm:
    """KForm whose term dict is `terms` itself, unchecked: the one place a
    KForm's slots are filled by hand.

    The caller vouches for what `_make` asks and also that every value is in
    stored form already: a nonzero int, or a Fraction that is not integral
    (`_as_coeff`).
    """
    form = object.__new__(KForm)
    _set_dim(form, dim)
    _set_degree(form, degree)
    _set_terms(form, terms)
    return form


_set_dim, _set_degree, _set_terms = slot_setters(KForm)


class Vector(Value):
    """Vector in the frame E_1, ..., E_n with exact rational components."""

    __slots__ = ("dim", "components")
    _fields = ("components",)

    def __init__(self, components: Sequence):
        comps = tuple(_as_fraction(c) for c in components)
        if not 0 < len(comps) <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {len(comps)}")
        object.__setattr__(self, "dim", len(comps))
        object.__setattr__(self, "components", comps)

    @classmethod
    def basis(cls, dim: int, k: int) -> "Vector":
        if not 1 <= k <= dim:
            raise ValueError(f"basis index {k} out of range 1..{dim}")
        return cls([Fraction(i == k - 1) for i in range(dim)])

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls([Fraction(0)] * dim)

    def is_zero(self) -> bool:
        return not any(self.components)

    def __add__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Vector([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, scalar) -> "Vector":
        c = _as_fraction(scalar)
        return Vector([c * v for v in self.components])

    __rmul__ = __mul__

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.components)

    def __repr__(self) -> str:
        return f"Vector({list(self.components)})"


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product; signs from permutation parity of the merged index sets."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    terms: dict[int, Coeff] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            m = ma | mb
            c = ca * cb if merge_sign(ma, mb) > 0 else -(ca * cb)
            terms[m] = terms[m] + c if m in terms else c
    return _make(a.dim, a.degree + b.degree, terms)


def interior(v: Vector, a: KForm) -> KForm:
    """Interior product v . a (antiderivation; degree drops by one)."""
    if v.dim != a.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {a.dim}")
    if a.degree == 0:
        return KForm.zero(a.dim, 0)
    comps = v.components
    terms: dict[int, Coeff] = {}
    for mask, c in a.terms.items():
        rem = mask
        while rem:
            low = rem & -rem
            rem ^= low
            comp = comps[low.bit_length() - 1]
            if comp:
                # stored-coefficient form, so an integral component multiplies as int
                if comp.denominator == 1:
                    comp = comp.numerator
                # slot position parity inside the monomial
                t = comp * c if not (mask & (low - 1)).bit_count() & 1 else -(comp * c)
                m2 = mask ^ low
                terms[m2] = terms[m2] + t if m2 in terms else t
    return _make(a.dim, a.degree - 1, terms)


def one_form(row: Sequence) -> KForm:
    """The one-form sum_k row[k] e_{k+1} of a coordinate row."""
    return KForm(len(row), 1, {1 << k: c for k, c in enumerate(row) if c})


def form_matrix(form: KForm) -> list[list[Coeff]]:
    """Coefficient matrix of a two-form: W[i][j] = f(E_i, E_j), so row i is
    the coordinate row of E_i . f and W is antisymmetric."""
    if form.degree != 2 and form.terms:
        raise ValueError(f"expected a two-form, got degree {form.degree}")
    w: list[list[Coeff]] = [[0] * form.dim for _ in range(form.dim)]
    for mask, c in form.terms.items():
        i, j = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
        w[i][j], w[j][i] = c, -c
    return w


def hodge_star_orthonormal(a: KForm, orientation: int = 1) -> KForm:
    """Hodge star for the frame declared orthonormal with volume e_1...e_n.

    *e_I = s * e_{I^c} with s the shuffle parity of (I, I^c) times orientation.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    if a.degree > a.dim:
        raise ValueError(f"Hodge star needs degree at most {a.dim}, got {a.degree}")
    full = (1 << a.dim) - 1
    terms = {}
    for mask, c in a.terms.items():
        comp = full ^ mask
        terms[comp] = c * merge_sign(mask, comp) * orientation
    return _make(a.dim, a.dim - a.degree, terms)


def pullback(matrix: Sequence[Sequence], a: KForm) -> KForm:
    """Pullback of a form along the endomorphism given in the frame.

    (P*a)(v_1, ..., v_k) = a(Pv_1, ..., Pv_k); covectors map by e_i -> sum_j M[i][j] e_j.
    """
    n = a.dim
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"matrix must be {n}x{n}")
    rows = [one_form(row) for row in matrix]
    out = KForm.zero(n, a.degree)
    for mask, c in a.terms.items():
        image = KForm.scalar(n, c)
        for i in indices_of(mask):
            image = wedge(image, rows[i - 1])
        out = out + image
    return out
