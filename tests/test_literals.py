from fractions import Fraction

import pytest

from corpus import mono, psi4
from lieshear import KForm, Vector
from lieshear.literals import (
    LiteralError,
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

    def test_zero_needs_degree(self):
        assert parse_form("0", 6, degree=2).is_zero()
        with pytest.raises(LiteralError):
            parse_form("0", 6)

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
