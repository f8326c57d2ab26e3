"""Text formats for forms, vectors, rationals and matrices used by the CLI.

Form literals are sums of terms `[rational "*"] "e" digits`, e.g.
"e1425 + e1436 - e4567" or "-1/2*e13"; indices above 9 use brackets,
"e[1,10,12]".  Vector literals use "E4" or combinations "E1 - 1/2*E3".
"0" denotes the zero form/vector.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator

from .exterior import KForm, Vector, _signed_mask, _signed_sum

# Fraction("1e30000000") expands 10**30000000 before it can fail, so exponents are
# bounded first, by CPython's default digit limit of int-string conversions
_EXPONENT = re.compile(r"[eE][+-]?(\d+(?:_\d+)*)")
# a sign separates two terms unless it is the sign of an exponent, as in "1e-3"
_SIGN = re.compile(r"(?<![0-9.][eE])([+-])")
_DIGITS = re.compile(r"[0-9]+")


class LiteralError(ValueError):
    """Malformed form/vector/matrix literal."""


def is_digit_limit(exc: Exception) -> bool:
    """Is `exc` CPython's refusal to convert an int of too many digits to or from text?"""
    return type(exc) is ValueError and str(exc).startswith("Exceeds the limit (")


def parse_rational(text: str) -> Fraction:
    s = text.strip()
    if not s.isascii():  # Fraction would read other scripts' digits
        raise LiteralError(f"bad rational {text!r}: digits must be ASCII")
    exp = _EXPONENT.search(s)
    if exp and (len(digits := exp[1].replace("_", "").lstrip("0")) > 4 or int(digits or 0) > 4300):
        raise LiteralError(f"bad rational {text!r}: exponent beyond +-4300")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise LiteralError(f"bad rational {text!r}: zero denominator") from None
    except ValueError as exc:
        if is_digit_limit(exc):
            raise  # `cli.main` reports it in one documented line, whichever reader met it
        raise LiteralError(f"bad rational {text!r}: expected an integer, p/q or a decimal") from None


def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    """(sign, term) pairs; the signs between two terms multiply, as in "e1 - -e2"."""
    parts = _SIGN.split(text)  # term, sign, term, ..., sign, term
    if not parts[-1].strip():
        raise LiteralError(f"malformed expression {text!r}")
    out, sign = [], 1
    for chunk, op in zip(parts[::2], parts[1::2] + [""]):
        if chunk := chunk.strip():
            out.append((sign, chunk))
            sign = 1
        sign = -sign if op == "-" else sign
    return out


def _terms(text: str) -> Iterator[tuple[Fraction, str]]:
    """(coefficient, body) of each signed term `[rational "*"] body` in turn."""
    for sign, term in _split_signed_terms(text):
        coeff = Fraction(sign)
        if "*" in term:
            coeff_text, term = term.split("*", 1)
            coeff *= parse_rational(coeff_text)
        yield coeff, term.strip()


def _parse_indices(body: str, dim: int) -> list[int]:
    if body.startswith("["):
        if not body.endswith("]"):
            raise LiteralError(f"unclosed index bracket in {body!r}")
        parts = [p.strip() for p in body[1:-1].split(",")]
        if not all(map(_DIGITS.fullmatch, parts)):
            raise LiteralError(f"bad index list {body!r}")
        idx = [int(p) for p in parts]
    else:
        if not _DIGITS.fullmatch(body):
            raise LiteralError(f"expected digit indices, got {body!r}")
        idx = [int(ch) for ch in body]
    for i in idx:
        if not 1 <= i <= dim:
            raise LiteralError(f"index {i} out of range 1..{dim}")
    return idx


def parse_form(text: str, dim: int, degree: int | None = None) -> KForm:
    """Parse a form literal; a bare "0" is the zero form of the expected degree,
    or of degree 0 when none is expected, which sums and compares as a zero
    of any degree.  The terms are summed in any order: a literal is refused
    when the terms left after cancelling mix degrees, and one whose terms all
    cancel is the zero form of the expected degree, like "0", or of the
    degree of its last term when none is expected."""
    s = text.strip()
    if s == "0":
        return KForm.zero(dim, degree or 0)
    terms: dict[int, Fraction] = {}
    for coeff, body in _terms(s):
        if body.startswith("e"):
            idx = _parse_indices(body[1:].strip(), dim)
            try:
                sign, mask = _signed_mask(idx, dim)
            except ValueError as exc:
                raise LiteralError(str(exc)) from None
            coeff *= sign
        elif degree in (0, None):
            # bare rational as a zero-degree form
            coeff, mask = coeff * parse_rational(body), 0
        else:
            raise LiteralError(f"expected a monomial like e13, got {body!r}")
        terms[mask] = terms.get(mask, 0) + coeff
    terms = {m: c for m, c in terms.items() if c}
    degrees = sorted({m.bit_count() for m in terms})
    if len(degrees) > 1:
        raise LiteralError(f"mixed degrees {', '.join(map(str, degrees))} in a form literal")
    total = KForm(dim, degrees[0] if degrees else mask.bit_count() if degree is None else degree, terms)
    if degree is not None and not total.is_zero() and total.degree != degree:
        raise LiteralError(f"expected a degree-{degree} form, got degree {total.degree}")
    return total


def parse_vector(text: str, dim: int) -> Vector:
    s = text.strip()
    if s == "0":
        return Vector.zero(dim)
    comps = [Fraction(0)] * dim
    for coeff, body in _terms(s):
        if not body.startswith("E"):
            raise LiteralError(f"expected a frame vector like E4, got {body!r}")
        idx_text = body[1:].strip()
        if not _DIGITS.fullmatch(idx_text):
            raise LiteralError(f"bad frame index in {body!r}")
        i = int(idx_text)
        if not 1 <= i <= dim:
            raise LiteralError(f"index {i} out of range 1..{dim}")
        comps[i - 1] += coeff
    return Vector(comps)


def format_vector(v: Vector) -> str:
    return _signed_sum((c, f"E{i}") for i, c in enumerate(v.components, start=1) if c)


def parse_matrix(text: str, dim: int) -> list[list[Fraction]]:
    """Rows separated by ';', entries by ','."""
    rows = []
    for row_text in text.strip().split(";"):
        entries = [parse_rational(e) for e in row_text.split(",")]
        if len(entries) != dim:
            raise LiteralError(f"expected {dim} entries per row, got {len(entries)}")
        rows.append(entries)
    if len(rows) != dim:
        raise LiteralError(f"expected {dim} rows, got {len(rows)}")
    return rows
