import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from corpus import g_lm, h_lm, mono, paper_algebras, psi4, random_almost_abelian
from lieshear import (
    KForm,
    LieAlgebra,
    SalamonError,
    Vector,
    interior,
    linalg,
    parse_salamon,
    print_salamon,
    pullback,
)
from lieshear.exterior import one_form


class TestParseSalamon:
    def test_heisenberg(self):
        g = parse_salamon("(0,0,12)")
        assert g.dim == 3
        assert g.diffs[0].is_zero() and g.diffs[1].is_zero()
        assert g.diffs[2] == mono(3, (1, 2))

    def test_coefficient_and_decreasing_pair(self):
        g = parse_salamon("(51,52,53,2.54,0)")
        assert g.diffs[0] == mono(5, (5, 1))
        assert g.diffs[3] == mono(5, (5, 4), 2)

    def test_sums_and_rational_coefficients(self):
        g = parse_salamon("(0,0,12+3/2.13)")
        assert g.diffs[2] == mono(3, (1, 2)) + mono(3, (1, 3), Fraction(3, 2))

    def test_whitespace_ignored(self):
        assert parse_salamon(" ( 0 , 0 , 12 ) ") == parse_salamon("(0,0,12)")

    def test_leading_minus(self):
        g = parse_salamon("(0,0,-12)")
        assert g.diffs[2] == mono(3, (1, 2), -1)

    def test_zero_coefficient_term(self):
        # textual substitution can produce 0-coefficient terms
        g = parse_salamon("(0.12+13,0,0)")
        assert g.diffs[0] == mono(3, (1, 3))

    def test_abelian(self):
        g = parse_salamon("(0,0,0)")
        assert all(f.is_zero() for f in g.diffs)

    def test_index_out_of_range(self):
        with pytest.raises(SalamonError) as err:
            parse_salamon("(13,0)")
        assert "exceeds dimension" in str(err.value)

    def test_repeated_index(self):
        with pytest.raises(SalamonError):
            parse_salamon("(11,0)")

    def test_error_carries_position(self):
        with pytest.raises(SalamonError) as err:
            parse_salamon("(0,0,1)")
        assert err.value.position == 5

    def test_garbage_after_zero(self):
        with pytest.raises(SalamonError):
            parse_salamon("(0 12,0,0)")

    def test_one_generator_is_refused(self):
        # a two-form needs two generators; KForm.zero(1, 2) used to raise its own ValueError
        for text in ["(0)", "()", "(12)"]:
            with pytest.raises(SalamonError) as err:
                parse_salamon(text)
            assert err.value.args[0] == "shorthand needs at least 2 generators, got 1 (at position 0)"

    @pytest.mark.parametrize("text, position", [
        ("(0,0,\u00b9\u00b2)", 5),                 # superscript one, two
        ("(0,0,\u0661\u0662)", 5),                 # Arabic-Indic one, two
        ("(0,0,\u00b2/3.12)", 5),
        ("(0,0,2/\u0663.12)", 6),
        ("(0,0,\uff11\uff12)", 5),                 # fullwidth one, two
    ])
    def test_only_ascii_digits(self, text, position):
        with pytest.raises(SalamonError) as err:
            parse_salamon(text)
        assert err.value.position == position

    def test_terms_of_one_pair_are_summed(self):
        g = parse_salamon("(0,0,12+21+2.12-1/2.21)")
        assert g.diffs[2] == mono(3, (1, 2), Fraction(5, 2))
        assert parse_salamon("(0,0,12+21)").diffs[2].is_zero()


# The shorthand reader as it was before one scanner of `re` matches replaced
# its five helpers, kept as the reference the scanner is compared against.


def reference_parse_salamon(text: str) -> LieAlgebra:
    entries = reference_split_entries(text)
    n = len(entries)
    if n > 9:
        raise SalamonError(f"shorthand supports at most 9 generators, got {n}", 0)
    diffs = []
    for raw, offset in entries:
        diffs.append(reference_parse_entry(raw, offset, n))
    return LieAlgebra(diffs)


def reference_split_entries(text: str) -> list[tuple[str, int]]:
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


def reference_parse_entry(raw: str, offset: int, dim: int) -> KForm:
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
    if s[i] == "0" and not reference_starts_term(s, i):
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
        coeff, i = reference_parse_coeff(s, i, offset)
        a, b, i = reference_parse_index_pair(s, i, offset, dim)
        out = out + KForm.monomial(dim, (a, b), sign * coeff)
        first = False
        skip_ws()
        if i >= len(s):
            break
    return out


def reference_starts_term(s: str, i: int) -> bool:
    # "0" begins a term only as a coefficient like "0.17"
    j = i
    while j < len(s) and s[j].isdigit():
        j += 1
    return j < len(s) and s[j] in "./"


def reference_parse_coeff(s: str, i: int, offset: int) -> tuple[Fraction, int]:
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


def reference_parse_index_pair(s: str, i: int, offset: int, dim: int) -> tuple[int, int, int]:
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


def salamon_outcome(parse, text):
    """The algebra, or the error's type, message and position."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


SHORTHAND_CHARS = "0123456789+-/.,() \t\u00a0"
# entries built from grammar pieces, so that many drawn strings reach the
# entry scanner and many of those are algebras; noise in every piece
shorthand_terms = st.builds(
    "".join,
    st.tuples(st.sampled_from(["", "+", "-", " - ", "+-", "--"]),
              st.sampled_from(["", "2.", "1/2.", "0.", "10/3.", "007.", "1/0.", "3/", "4/."]),
              st.sampled_from(["12", "21", "13", "31", "23", "32", "14", "45", "11", "10", "1"])),
)
shorthand_entries = st.one_of(
    st.sampled_from(["0", " 0 ", "", " "]),
    st.lists(shorthand_terms, min_size=1, max_size=3).map("+".join),
    st.lists(shorthand_terms | st.text(SHORTHAND_CHARS.replace(",", ""), max_size=3),
             min_size=1, max_size=3).map("".join),
)
# well formed: signs, coefficients and pairs that any algebra of dimension >= 3 accepts
algebra_terms = st.builds(
    "".join,
    st.tuples(st.sampled_from(["", "+", "-", " - ", "+-"]),
              st.sampled_from(["", "2.", "1/2.", "0.", "0/3.", "10/3.", "007."]),
              st.sampled_from(["12", "21", "13", "31", "23", "32"])),
)
shorthand_texts = st.one_of(
    st.text(SHORTHAND_CHARS, max_size=16),
    st.lists(st.just("0") | st.lists(algebra_terms, min_size=1, max_size=3).map("+".join),
             min_size=3, max_size=9).map(lambda entries: f"({','.join(entries)})"),
    st.builds(lambda pre, entries, post: f"{pre}({','.join(entries)}){post}",
              st.sampled_from(["", " ", "\u00a0", "\t"]),
              st.lists(shorthand_entries, min_size=1, max_size=10),
              st.sampled_from(["", " ", "\t", ")"])),
)


class TestShorthandMatchesReference:
    @settings(max_examples=1000)
    @given(shorthand_texts)
    def test_same_algebra_or_same_error(self, text):
        want = salamon_outcome(reference_parse_salamon, text)
        got = salamon_outcome(parse_salamon, text)
        if isinstance(want, tuple) and want[0] is ValueError:
            # one generator: KForm.zero(1, 2) raised before any entry was read
            assert want[1] == "degree must be in 0..1, got 2"
            assert got == (SalamonError, "shorthand needs at least 2 generators, got 1 (at position 0)", 0)
        else:
            assert got == want

    @pytest.mark.parametrize("text", [
        "(51,52,53,2.54,0)", "( 0 , 0 , 12 )", "(0,0,12+3/2.13)", "(0.12+13,0,0)",
        "(0,0,12 + -1/2.13)", "(0,0,12+-+1.13)", "(0,0,- 12)", "(0,0,1 2)", "(0,0,12 2.)",
        "(0,0,1/.12)", "(0,0,1/0.12)", "(0,0,1/2 .12)", "(0,0,2. 12)", "(012,0,0)",
        "(0 12,0,0)", "(00.12,0,0)", "(0,0,12,)", "((0,0,12))", "(0,0,12", "0,0,12)",
        "(0,0,0,0,0,0,0,0,0,0)", "(0,0,12+)", "(0,0,++12)", "(0,0,12 13)", "(0,0,11)",
        "(0,0,14)", "(0,0,10)", "(0,0,01)", "(0,0,1)", "(,0,0)", "(0,0,\u00a0)",
        "(0/2.12,0,0)", "(00/2.12,0,0)", "(0/0.12,0,0)",
    ])
    def test_pinned_cases(self, text):
        assert salamon_outcome(parse_salamon, text) == salamon_outcome(reference_parse_salamon, text)


class TestPrintSalamon:
    def test_golden_strings(self):
        for s in ["(0,0,12)", "(0,0,0)", "(51,52,53,2.54,0)", "(51,52,53,13+2.54,0)",
                  "(51,52,53,0,0)", "(12,0,0,0,0,0)"]:
            assert print_salamon(parse_salamon(s)) == s

    def test_roundtrip_on_paper_algebras(self):
        for g in paper_algebras():
            if g.dim <= 9:
                assert parse_salamon(print_salamon(g)) == g

    def test_negative_coefficient_absorbed_by_swap(self):
        g = LieAlgebra([KForm.zero(3, 2), KForm.zero(3, 2), mono(3, (1, 2), -3)])
        assert print_salamon(g) == "(0,0,3.21)"
        assert parse_salamon(print_salamon(g)) == g

    def test_json_fallback_above_dim9(self):
        g = LieAlgebra.abelian(10)
        out = print_salamon(g)
        assert out.startswith("{") and '"dim": 10' in out


class TestDifferential:
    def test_extension_on_solvable_example(self):
        g = parse_salamon("(51,52,53,2.54,0)")
        assert g.d(mono(5, (1, 3))) == mono(5, (1, 3, 5), 2)  # 2 e513

    def test_psi_is_closed(self):
        assert g_lm(1, 2).d(psi4()).is_zero()

    def test_constant_form(self):
        g = parse_salamon("(0,0,12)")
        assert g.d(KForm.scalar(3, 7)).is_zero()

    def test_antiderivation_rule(self):
        rng = random.Random(11)
        from corpus import random_form

        for g in [parse_salamon("(51,52,53,2.54,0)"), g_lm(1, 2)]:
            for _ in range(30):
                a = random_form(rng, g.dim, rng.randint(0, 3))
                b = random_form(rng, g.dim, rng.randint(0, 3))
                sign = Fraction((-1) ** a.degree)
                from lieshear import wedge

                assert g.d(wedge(a, b)) == wedge(g.d(a), b) + sign * wedge(a, g.d(b))


class TestJacobi:
    def test_paper_algebras_pass(self):
        for g in paper_algebras():
            assert g.jacobi_check().passed

    def test_failure_reports_offender(self):
        g = parse_salamon("(0,12,0,23)")
        rep = g.jacobi_check()
        assert not rep.passed
        assert rep.failures == ((4, mono(4, (1, 2, 3))),)


class TestBracket:
    def test_heisenberg_convention(self):
        g = parse_salamon("(0,0,12)")
        assert g.bracket(Vector.basis(3, 1), Vector.basis(3, 2)) == -1 * Vector.basis(3, 3)

    def test_solvable_weight(self):
        g = parse_salamon("(51,52,53,2.54,0)")
        assert g.bracket(Vector.basis(5, 5), Vector.basis(5, 4)) == -2 * Vector.basis(5, 4)

    def test_alternating(self):
        g = parse_salamon("(51,52,53,2.54,0)")
        v = Vector([1, 2, 3, 4, 5])
        assert g.bracket(v, v).is_zero()


class TestSeries:
    def test_heisenberg(self):
        rep = parse_salamon("(0,0,12)").series()
        assert rep.is_nilpotent and rep.step_length == 2
        assert rep.lower_central[0] == ((Fraction(0), Fraction(0), Fraction(1)),)
        assert rep.lower_central[1] == ()

    def test_solvable_not_nilpotent(self):
        rep = parse_salamon("(51,52,53,2.54,0)").series()
        assert rep.is_solvable and not rep.is_nilpotent
        assert rep.derived_length == 2
        assert len(rep.derived[0]) == 4  # span{E1..E4}
        assert rep.derived[1] == ()

    def test_abelian(self):
        rep = LieAlgebra.abelian(6).series()
        assert rep.is_abelian and rep.is_nilpotent and rep.step_length == 1

    def test_monotone_decreasing(self):
        from lieshear import linalg

        for g in paper_algebras():
            rep = g.series()
            for chain in (rep.lower_central, rep.derived):
                for big, small in zip(chain, chain[1:]):
                    assert len(linalg.span_rref([*big, *small])) == len(big)
            if rep.is_nilpotent:
                assert rep.is_solvable

    def test_series_requires_jacobi(self):
        with pytest.raises(ValueError):
            parse_salamon("(0,12,0,23)").series()


def subspace_text(basis):
    return "; ".join(" ".join(str(x) for x in row) for row in basis)


# structure constants 1/2 and 1/3 (with the sums and multiples the Jacobi
# identity forces): brackets of scaled integer rows must span the same
# subspaces; the expected strings are those of Fraction-row elimination
NON_INTEGRAL = [
    (
        "(1/2.15,1/3.25,1/2.12+5/6.35,1/3.12+5/6.45,0)",
        ["1 0 0 0 0; 0 1 0 0 0; 0 0 1 0 0; 0 0 0 1 0", "0 0 1 2/3 0", ""],
        ["1 0 0 0 0; 0 1 0 0 0; 0 0 1 0 0; 0 0 0 1 0"],
        [(("5/6",), "0 0 1 2/3 0")],
    ),
    (
        "(1/2.14,1/3.24+2/3.14,1/6.34+1/2.24,0)",
        ["1 0 0 0; 0 1 0 0; 0 0 1 0", ""],
        ["1 0 0 0; 0 1 0 0; 0 0 1 0"],
        [(("1/6",), "0 0 1 0"), (("1/3",), "0 1 3 0"), (("1/2",), "1 4 6 0")],
    ),
    (
        "(1/2.16,1/3.26,2/3.21+5/6.36,3/2.23+7/6.46,1/2.12+5/6.56,0)",
        [
            "1 0 0 0 0 0; 0 1 0 0 0 0; 0 0 1 0 0 0; 0 0 0 1 0 0; 0 0 0 0 1 0",
            "0 0 1 0 -3/4 0; 0 0 0 1 0 0",
            "",
        ],
        ["1 0 0 0 0 0; 0 1 0 0 0 0; 0 0 1 0 0 0; 0 0 0 1 0 0; 0 0 0 0 1 0"],
        [(("7/6",), "0 0 0 1 0 0")],
    ),
]


@pytest.mark.parametrize("text, derived, lower, eigenspaces", NON_INTEGRAL)
def test_non_integral_structure_constants(text, derived, lower, eigenspaces):
    g = parse_salamon(text)
    rep = g.series()
    assert [subspace_text(t) for t in rep.derived] == derived
    assert [subspace_text(t) for t in rep.lower_central] == lower
    lines = g.find_shear_lines()
    assert [(tuple(map(str, e.eigenvalues)), subspace_text(e.basis)) for e in lines.eigenspaces] == eigenspaces
    assert not lines.nonrational_present

def change_basis(g: LieAlgebra, seed: int, steps: int) -> LieAlgebra:
    """g in the coframe f = P e for a random unimodular integer P made of
    `steps` elementary row operations: d f_i = P_i . (d e) with e = P^-1 f,
    so nearly every d f_k has nearly every term."""
    rng = random.Random(seed)
    n = g.dim
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [[int(i == j) for j in range(n)] for i in range(n)]  # P^-1
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    zero = KForm.zero(n, 2)
    return LieAlgebra([pullback(q, sum((c * f for c, f in zip(row, g.diffs) if c), zero)) for row in p])


# dense-basis algebras: a dim-8 nilpotent algebra (216 terms) and g_lm(1,2)
# (121 terms); the expected strings are those of the dense ad-matrix brackets
DENSE_BASIS = [
    (
        lambda: change_basis(parse_salamon("(0,0,0,12,13,14+23,15+24,16+25)"), 8, 20),
        [
            "1 0 0 -1 0 0 0 0; 0 1 0 0 0 0 -1 -5; 0 0 1 0 0 0 1/2 3; 0 0 0 0 1 0 1 -4; 0 0 0 0 0 1 0 -3",
            "1 0 0 -1 -3/7 -1/28 -3/7 51/28; 0 1 0 0 0 -5/2 -1 5/2; 0 0 1 0 3/7 1/28 13/14 33/28",
            "1 -1/6 -4/3 -1 -1 1/3 -3/2 -1/6",
            "",
        ],
        ["1 0 0 -1 0 0 0 0; 0 1 0 0 0 0 -1 -5; 0 0 1 0 0 0 1/2 3; 0 0 0 0 1 0 1 -4; 0 0 0 0 0 1 0 -3", ""],
        "1 0 0 -1 0 0 0 0; 0 1 0 0 0 0 -1 -5; 0 0 1 0 0 0 1/2 3; 0 0 0 0 1 0 1 -4; 0 0 0 0 0 1 0 -3",
        "1 0 0 0 0 0 0 0; 0 1 0 0 0 0 0 0; 0 0 1 0 0 0 0 0",
        [(("0", "0", "0"), "1 0 1 -1 0 0 1/2 3; 0 1 14 0 6 -2 12 19")],
    ),
    (
        lambda: change_basis(g_lm(1, 2), 8, 16),
        ["1 0 0 0 0 0 2; 0 1 0 0 0 0 -4/5; 0 0 1 0 0 0 0; 0 0 0 1 0 0 -4/5; 0 0 0 0 1 0 -1/5; 0 0 0 0 0 1 -8/5"],
        [
            "1 0 0 0 0 0 2; 0 1 0 0 0 0 -4/5; 0 0 1 0 0 0 0; 0 0 0 1 0 0 -4/5; 0 0 0 0 1 0 -1/5; 0 0 0 0 0 1 -8/5",
            "",
        ],
        "1 0 0 0 0 0 2; 0 1 0 0 0 0 -4/5; 0 0 1 0 0 0 0; 0 0 0 1 0 0 -4/5; 0 0 0 0 1 0 -1/5; 0 0 0 0 0 1 -8/5",
        "1 0 0 0 0 0 0",
        [
            (("-30",), "1 -2 0 0 0 1 2"),
            (("-20",), "1 -3 -1/2 2 -4 1 2"),
            (("-10",), "1 -3 0 2 -4 1 2"),
            (("10",), "0 0 0 1 -7/3 0 -1/3"),
            (("20",), "0 1 0 5 -10 -1/2 -2"),
            (("30",), "0 0 0 1 -2 0 -2/5"),
        ],
    ),
]


@pytest.mark.parametrize("make, lower, derived, target, acting, eigenspaces", DENSE_BASIS)
def test_dense_basis_series_and_shear_lines(make, lower, derived, target, acting, eigenspaces):
    g = make()
    assert g.jacobi_check().passed
    rep = g.series()
    assert [subspace_text(t) for t in rep.lower_central] == lower
    assert [subspace_text(t) for t in rep.derived] == derived
    lines = g.find_shear_lines()
    assert subspace_text(lines.target) == target
    assert subspace_text([v.components for v in lines.acting]) == acting
    assert [(tuple(map(str, e.eigenvalues)), subspace_text(e.basis)) for e in lines.eigenspaces] == eigenspaces
    assert not lines.nonrational_present


class TestFiltration:
    def test_heisenberg(self):
        chain = parse_salamon("(0,0,12)").twist_filtration().chain
        assert len(chain) == 2
        assert chain[0] == tuple(tuple(Fraction(i == j) for j in range(3)) for i in range(3))
        assert chain[1] == ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0)))

    def test_abelian_single_step(self):
        chain = LieAlgebra.abelian(4).twist_filtration().chain
        assert len(chain) == 1
        assert len(chain[0]) == 4

    def test_step_three_chain(self):
        # (0,0,12,13): n^(1) = span{E3,E4}, n^(2) = span{E4}
        chain = parse_salamon("(0,0,12,13)").twist_filtration().chain
        assert len(chain) == 3
        assert len(chain[0]) == 4
        assert chain[1] == tuple(
            tuple(Fraction(i == j) for j in range(4)) for i in range(3)
        )  # Ann(n^(2)) = span{e1,e2,e3}
        assert chain[2] == tuple(
            tuple(Fraction(i == j) for j in range(4)) for i in range(2)
        )  # Ann(n^(1)) = span{e1,e2}

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            parse_salamon("(51,52,53,2.54,0)").twist_filtration()

    def test_inclusion_property_on_corpus(self):
        nilpotents = [parse_salamon(s) for s in ["(0,0,12)", "(0,0,12,13)", "(0,0,0,12)", "(0,0,12,13,14+23)",
                                                 "(0,0,12,13,14+23,34-25)", "(0,0,0,12,13,14+23)"]]
        nilpotents += [g for g in paper_algebras() if g.series().is_nilpotent]
        for g in nilpotents:
            assert g.jacobi_check().passed
            chain = g.twist_filtration().chain
            for i, v_i in enumerate(chain):
                # d V_i in Lambda^2 V_{i+1}: no d(phi) has a leg along the
                # vectors V_{i+1} kills (every vector when V_{i+1} = V_r = 0)
                v_next = chain[i + 1] if i + 1 < len(chain) else ()
                killed = linalg.nullspace(v_next, ncols=g.dim)
                for row in v_i:
                    dphi = g.d(one_form(row))
                    assert all(interior(Vector(v), dphi).is_zero() for v in killed), (i, row)


class TestLieDerivative:
    def test_weighted_generator(self):
        g = g_lm(1, 2)
        out = g.lie_derivative(Vector.basis(7, 1), mono(7, (1,)))
        assert out == mono(7, (7,), 3)

    def test_invariant_generators(self):
        g = g_lm(2, 5)
        for i in range(2, 8):
            assert g.lie_derivative(Vector.basis(7, 1), mono(7, (i,))).is_zero()

    def test_closed_and_contracted_to_zero(self):
        g = parse_salamon("(0,0,12)")
        v = Vector.basis(3, 3)
        form = mono(3, (1,))  # closed, i_v form = 0
        assert g.lie_derivative(v, form).is_zero()


class TestShearLines:
    def test_solvable_example(self):
        rep = parse_salamon("(51,52,53,2.54,0)").find_shear_lines()
        assert [v.components for v in rep.acting] == [Vector.basis(5, 5).components]
        spaces = {es.eigenvalues: es.basis for es in rep.eigenspaces}
        assert set(spaces) == {(Fraction(-1),), (Fraction(-2),)}
        assert len(spaces[(Fraction(-1),)]) == 3
        assert spaces[(Fraction(-2),)] == ((Fraction(0),) * 3 + (Fraction(1), Fraction(0)),)
        assert not rep.nonrational_present

    def test_heisenberg_center_line(self):
        rep = parse_salamon("(0,0,12)").find_shear_lines()
        assert rep.target == ((Fraction(0), Fraction(0), Fraction(1)),)
        assert len(rep.eigenspaces) == 1
        assert rep.eigenspaces[0].eigenvalues == (Fraction(0), Fraction(0))

    def test_abelian_rejected(self):
        with pytest.raises(ValueError):
            LieAlgebra.abelian(4).find_shear_lines()

    def test_irrational_eigenvalues_flagged(self):
        # E3 acts on span{E1,E2} by [[0,2],[1,0]]: eigenvalues +-sqrt(2)
        g = LieAlgebra([
            mono(3, (2, 3), -1),
            mono(3, (1, 3), -2),
            KForm.zero(3, 2),
        ])
        assert g.jacobi_check().passed
        rep = g.find_shear_lines()
        assert rep.nonrational_present
        assert rep.eigenspaces == ()

    def test_random_almost_abelian_lines_are_ideals(self):
        rng = random.Random(13)
        for _ in range(10):
            g = random_almost_abelian(rng, rng.randint(4, 6))
            srep = g.series()
            if srep.is_abelian:
                continue
            rep = g.find_shear_lines()
            for es in rep.eigenspaces:
                for row in es.basis:
                    x = Vector(row)
                    for i in range(1, g.dim + 1):
                        b = g.bracket(Vector.basis(g.dim, i), x)
                        # bracket must stay on the line spanned by x
                        from lieshear import linalg

                        assert len(linalg.span_rref([row, b.components])) == 1
                    # and each acting vector scales x by its eigenvalue in the chain
                    for a, lam in zip(rep.acting, es.eigenvalues, strict=True):
                        assert g.bracket(a, x) == lam * x


class TestAlmostAbelian:
    def test_family_is_almost_abelian(self):
        verdict, _ = g_lm(1, 2).is_almost_abelian()
        assert verdict is True

    def test_sheared_family_is_not(self):
        for pair in [(1, 2), (1, -1)]:
            verdict, _ = h_lm(*pair).is_almost_abelian()
            assert verdict is False

    def test_abelian(self):
        assert LieAlgebra.abelian(3).is_almost_abelian()[0] is True

    def test_non_abelian_derived_subalgebra(self):
        non_abelian = (False, "derived subalgebra is non-abelian and every codimension-one "
                              "abelian ideal would have to contain it")
        so3 = parse_salamon("(23,31,12)")
        assert len(so3.series().derived) == 1  # perfect: g' = g, the series stops at once
        assert so3.is_almost_abelian() == non_abelian
        assert h_lm(1, 2).is_almost_abelian() == non_abelian

    def test_codim_two_centralizer_case(self):
        # (0,0,12): derived = span{E3}, codim 2; E3 is central -> almost abelian
        verdict, _ = parse_salamon("(0,0,12)").is_almost_abelian()
        assert verdict is True
        # r2 + r2: derived = span{E2, E4}, codim 2, and only g' itself centralizes it
        verdict, reason = parse_salamon("(0,12,0,34)").is_almost_abelian()
        assert verdict is False and "no centralizer" in reason


class TestBracketWarning:
    def test_bracket_warns_without_jacobi(self):
        import warnings

        g = parse_salamon("(0,12,0,23)")
        with pytest.warns(RuntimeWarning):
            g.bracket(Vector.basis(4, 1), Vector.basis(4, 2))
