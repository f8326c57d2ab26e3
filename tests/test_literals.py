import re
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from corpus import mono, psi4
from lieshear import KForm, Vector
from lieshear.literals import (
    LiteralError,
    _split_signed_terms,
    format_vector,
    parse_form,
    parse_matrix,
    parse_rational,
    parse_vector,
)


class TestParseForm:
    def test_plain_monomial(self):
        assert parse_form("e13", 5) == mono(5, (1, 3))

    def test_coefficient_and_signs(self):
        assert parse_form("-2*e54", 5) == mono(5, (5, 4), -2)
        assert parse_form("3/2*e12 - e45", 5) == mono(5, (1, 2), Fraction(3, 2)) + mono(5, (4, 5), -1)

    def test_psi_literal(self):
        text = "e1425 + e1436 + e2536 - e4567 + e4237 + e1267 + e1537"
        assert parse_form(text, 7) == psi4()

    def test_bare_zero(self):
        assert parse_form("0", 6, degree=2) == KForm.zero(6, 2)
        assert parse_form("0", 6, degree=2).degree == 2
        # with no expected degree it is the degree-0 zero, a zero of any degree
        zero = parse_form("0", 7)
        assert zero.degree == 0 and zero == KForm.zero(7, 3)
        assert zero + psi4() == psi4()

    def test_degree_enforced(self):
        with pytest.raises(LiteralError):
            parse_form("e123", 5, degree=2)

    def test_repeated_index_rejected(self):
        with pytest.raises(LiteralError):
            parse_form("e11", 3)

    def test_out_of_range_index(self):
        with pytest.raises(LiteralError):
            parse_form("e14", 3)

    def test_bracket_indices_above_nine(self):
        f = parse_form("2*e[1,10]", 12, degree=2)
        assert f == KForm.monomial(12, (1, 10), 2)
        assert str(f) == "2*e[1,10]"

    def test_roundtrip_via_str(self):
        for f in [psi4(), mono(5, (5, 4), -2), KForm.zero(4, 2),
                  mono(6, (1, 2), Fraction(-3, 7)) + mono(6, (3, 4))]:
            assert parse_form(str(f), f.dim, degree=f.degree) == f

    def test_double_sign_tolerated(self):
        assert parse_form("e12 + -e34", 4) == mono(4, (1, 2)) - mono(4, (3, 4))


class TestParseVector:
    def test_frame_vector(self):
        assert parse_vector("E4", 5) == Vector.basis(5, 4)

    def test_combination(self):
        v = parse_vector("E1 - 1/2*E3", 4)
        assert v.components == (Fraction(1), Fraction(0), Fraction(-1, 2), Fraction(0))

    def test_roundtrip(self):
        for v in [Vector.basis(3, 2), Vector([1, Fraction(-1, 2), 0, 3])]:
            assert parse_vector(format_vector(v), v.dim) == v

    def test_rejects_forms(self):
        with pytest.raises(LiteralError):
            parse_vector("e1", 3)


class TestParseRational:
    def test_values(self):
        assert parse_rational("3") == 3
        assert parse_rational("-3/4") == Fraction(-3, 4)

    def test_rejects_garbage(self):
        with pytest.raises(LiteralError):
            parse_rational("x")
        with pytest.raises(LiteralError):
            parse_rational("1/0")

    def test_exponents_up_to_the_bound_expand(self):
        assert parse_rational("2.5e-3") == Fraction(1, 400)
        assert parse_rational("1E+0004300") == 10**4300
        assert parse_rational("-1e-4300") == Fraction(-1, 10**4300)
        assert parse_rational("1e1_0") == 10**10

    def test_whitespace_may_surround_but_not_split(self):
        assert parse_rational(" 1/2\t") == Fraction(1, 2)

    @pytest.mark.parametrize("text", ["1 2", "1 / 2", "1 e3"])
    def test_whitespace_inside_is_refused(self, text):
        with pytest.raises(LiteralError, match=re.escape(f"bad rational {text!r}")):
            parse_rational(text)
        with pytest.raises(LiteralError, match=re.escape(f"bad rational {text!r}")):
            parse_form(f"{text}*e12", 3)

    @pytest.mark.parametrize("text", ["1e4301", "1E+0004301", "1e-4301", "0e5000", "1e4_301",
                                      "1e30000000", "1e" + "9" * 5000])
    def test_exponents_beyond_the_bound_are_refused_unexpanded(self, text):
        with pytest.raises(LiteralError, match="exponent beyond"):
            parse_rational(text)


class TestParseMatrix:
    def test_square(self):
        m = parse_matrix("1,0;0,1", 2)
        assert m == [[1, 0], [0, 1]]

    def test_shape_enforced(self):
        with pytest.raises(LiteralError):
            parse_matrix("1,0;0", 2)
        with pytest.raises(LiteralError):
            parse_matrix("1,0", 2)


# The printers as they were written before KForm.__str__ and format_vector
# shared one signed-sum rule, kept as the reference for the shared one.
def reference_form_str(form: KForm) -> str:
    if form.is_zero():
        return "0"
    parts = []
    for idx, c in form.sorted_terms():
        if not idx:
            mono = "1"
        elif form.dim > 9:
            mono = "e[" + ",".join(str(i) for i in idx) + "]"
        else:
            mono = "e" + "".join(str(i) for i in idx)
        if c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def reference_format_vector(v: Vector) -> str:
    parts = []
    for i, c in enumerate(v.components, start=1):
        if not c:
            continue
        if c == 1:
            parts.append(f"E{i}")
        elif c == -1:
            parts.append(f"-E{i}")
        else:
            parts.append(f"{c}*E{i}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


coefficients = (
    st.sampled_from([1, -1])
    | st.integers(-30, 30)
    | st.fractions(min_value=-5, max_value=5, max_denominator=12)
)


@st.composite
def forms(draw):
    dim = draw(st.integers(1, 14))
    degree = draw(st.integers(0, dim))
    index_sets = draw(st.lists(st.sets(st.integers(1, dim), min_size=degree, max_size=degree),
                               max_size=5))
    terms = {sum(1 << (i - 1) for i in idx): draw(coefficients) for idx in index_sets}
    return KForm(dim, degree, terms)


vectors = st.integers(1, 14).flatmap(
    lambda dim: st.lists(st.just(0) | coefficients, min_size=dim, max_size=dim)
).map(Vector)


class TestPrinters:
    @settings(max_examples=300)
    @given(forms())
    def test_form_str_matches_reference(self, form):
        text = str(form)
        assert text == reference_form_str(form)
        assert parse_form(text, form.dim, degree=form.degree) == form

    @settings(max_examples=300)
    @given(vectors)
    def test_format_vector_matches_reference(self, v):
        text = format_vector(v)
        assert text == reference_format_vector(v)
        assert parse_vector(text, v.dim) == v

    def test_edge_cases(self):
        assert str(KForm.zero(3, 2)) == reference_form_str(KForm.zero(3, 2)) == "0"
        assert str(KForm.scalar(2, -1)) == "-1"
        assert str(KForm.scalar(2, Fraction(-3, 2))) == "-3/2*1"
        assert str(mono(12, (10, 1), 2) - mono(12, (2, 11))) == "-2*e[1,10] - e[2,11]"
        assert format_vector(Vector.zero(4)) == "0"
        assert format_vector(Vector([0, Fraction(-1, 2), 1, -1])) == "-1/2*E2 + E3 - E4"


class TestAsciiDigits:
    @pytest.mark.parametrize("text", ["e\u00b9\u00b2", "e\u0661\u0662", "e\uff11\uff12", "e[1,\u0661\u0660]",
                                      "e[1,1_0]", "2*e1\u00b2"])
    def test_form_indices(self, text):
        with pytest.raises(LiteralError):
            parse_form(text, 12)

    @pytest.mark.parametrize("text", ["E\u00b9", "E\u0661", "E1_0", "2*E\u00b2"])
    def test_vector_indices(self, text):
        with pytest.raises(LiteralError):
            parse_vector(text, 12)

    @pytest.mark.parametrize("text", ["\u0661\u0662", "1/\u0662", "\uff11"])
    def test_rationals(self, text):
        with pytest.raises(LiteralError, match="digits must be ASCII"):
            parse_rational(text)

    def test_bracket_indices_may_carry_spaces(self):
        assert parse_form("e[1, 10]", 12) == KForm.monomial(12, (1, 10))


class TestDigitLimit:
    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4400,
                        reason="needs CPython's int-string digit limit")
    @pytest.mark.parametrize("text", ["1" * 4400, "1/" + "7" * 4400, "0." + "3" * 4400],
                             ids=["integer", "denominator", "decimal"])
    def test_passes_through_as_cpythons_error(self, text):
        # the CLI turns this one ValueError into its documented digit-limit line
        with pytest.raises(ValueError, match=r"^Exceeds the limit \(") as err:
            parse_rational(text)
        assert not isinstance(err.value, LiteralError)


# The term splitter as it was before one `re.split` replaced its per-character
# loop, kept as the reference the split is compared against.


def reference_split_signed_terms(text: str) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    sign, chunk = 1, []
    started = False
    for ch in text:
        if ch in "+-" and started and chunk:
            out.append((sign, "".join(chunk).strip()))
            sign, chunk = (1 if ch == "+" else -1), []
        elif ch in "+-" and not chunk:
            sign *= 1 if ch == "+" else -1
            started = True
        else:
            if ch.isspace() and not chunk:
                continue
            chunk.append(ch)
            started = True
    if chunk:
        out.append((sign, "".join(chunk).strip()))
    if not out or any(not c for _, c in out):
        raise LiteralError(f"malformed expression {text!r}")
    return out


EXPONENT_SIGN = re.compile(r"(?<=[0-9.][eE])[+-]")
HIDDEN_SIGN = {"-": "\x01", "+": "\x02"}


def expected_split(text: str):
    """The reference's terms or error, with the two intended changes: the sign
    of an exponent ("1e-3") stays in its term, and a trailing sign is an error."""
    hidden = EXPONENT_SIGN.sub(lambda m: HIDDEN_SIGN[m[0]], text)
    malformed = (LiteralError, f"malformed expression {text!r}")
    if hidden.rstrip()[-1:] in ("+", "-"):
        return malformed
    try:
        terms = reference_split_signed_terms(hidden)
    except LiteralError:
        return malformed
    return [(sign, chunk.replace("\x01", "-").replace("\x02", "+")) for sign, chunk in terms]


def split_outcome(text: str):
    try:
        return _split_signed_terms(text)
    except LiteralError as exc:
        return LiteralError, str(exc)


class TestSplitMatchesReference:
    @settings(max_examples=1000)
    @given(st.text("0123456789+-/.*eE[], \t\u00a0x", max_size=14))
    def test_same_terms_or_same_error(self, text):
        assert split_outcome(text) == expected_split(text)

    @pytest.mark.parametrize("text", ["e12 + -e34", "- e12", "--e12", "e1 - - e2", "1/2*e12-e13",
                                      "", "  ", "+", "e12 +", "e12 -", "e12-\t", "1e-3*e12",
                                      "2.5E+2*E1 - 1.e-1*E2", "e1e-2", "3 - 1e+", "1.e2-e1"])
    def test_pinned_cases(self, text):
        assert split_outcome(text) == expected_split(text)

    def test_intended_changes(self):
        assert parse_form("1e-3*e12", 3) == mono(3, (1, 2), Fraction(1, 1000))
        assert parse_vector("E1 - 2.5E-1*E2", 2) == Vector([1, Fraction(-1, 4)])
        assert reference_split_signed_terms("e12 -") == [(1, "e12")]
        with pytest.raises(LiteralError, match=re.escape("malformed expression 'e12 -'")):
            parse_form("e12 -", 3)
