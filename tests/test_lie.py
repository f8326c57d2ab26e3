import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from corpus import (change_basis, g_lm, h_lm, incremental_bases, mono, paper_algebras, permutation_frame, psi4,
                    random_almost_abelian, random_frame, random_nilpotent, random_solvable_extension,
                    random_unimodular, reference_bracket_span, reference_chain, reference_d, reference_shear_lines)
from lieshear import (
    EigenSpace,
    JacobiReport,
    KForm,
    LieAlgebra,
    SalamonError,
    ShearLineReport,
    Vector,
    interior,
    lie,
    linalg,
    parse_salamon,
    print_salamon,
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
    if n < 2:
        raise SalamonError(f"shorthand needs at least 2 generators, got {n}", 0)
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
        assert salamon_outcome(parse_salamon, text) == salamon_outcome(reference_parse_salamon, text)

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

    def test_repr_names_only_the_dimension_above_dim9(self):
        assert repr(LieAlgebra.abelian(10)) == "LieAlgebra(dim=10)"
        assert repr(parse_salamon("(0,0,12)")) == "LieAlgebra('(0,0,12)')"


class TestDifferential:
    def test_refuses_a_form_of_another_dimension(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 4$"):
            parse_salamon("(0,0,12,13)").d(mono(3, (1,)))

    def test_extension_on_solvable_example(self):
        g = parse_salamon("(51,52,53,2.54,0)")
        assert g.d(mono(5, (1, 3))) == mono(5, (1, 3, 5), 2)  # 2 e513

    def test_psi_is_closed(self):
        assert g_lm(1, 2).d(psi4()).is_zero()

    def test_constant_form(self):
        g = parse_salamon("(0,0,12)")
        assert g.d(KForm.scalar(3, 7)).is_zero()

    def test_top_degree_form_goes_to_the_next_degree(self):
        g = parse_salamon("(51,52,53,2.54,0)")
        ds = g.d(mono(5, (1, 2, 3, 4, 5), 3))
        assert ds.is_zero() and ds.degree == 6

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


small_fractions = st.integers(-3, 3).map(Fraction) | st.fractions(min_value=-3, max_value=3, max_denominator=5)


def forms_of(dim: int, degree: int):
    """Forms of one degree with up to 4 terms, Fraction coefficients."""
    monomials = [sum(1 << i for i in idx) for idx in combinations(range(dim), degree)]
    terms = st.dictionaries(st.sampled_from(monomials), small_fractions, max_size=4)
    return terms.map(lambda t: KForm(dim, degree, t))


@st.composite
def algebras_and_forms(draw):
    """Any generator differentials, Jacobi or not, and a form of any degree."""
    n = draw(st.integers(2, 8))
    g = LieAlgebra(draw(st.lists(forms_of(n, 2), min_size=n, max_size=n)))
    return g, draw(forms_of(n, draw(st.integers(0, n))))


class TestDifferentialOracle:
    @settings(max_examples=150)
    @given(algebras_and_forms())
    def test_d_matches_the_koszul_formula(self, case):
        # the antiderivation law and d^2 = 0 hold for d with any consistent
        # sign slip; the Koszul formula on the structure constants does not
        g, form = case
        assert g.d(form) == reference_d(g, form)

    @settings(max_examples=150)
    @given(algebras_and_forms())
    def test_the_jacobi_report_is_the_koszul_d_of_each_d_e_k(self, case):
        # the check sums d(d e_k) as a term dict and builds only a failure:
        # a sum that cancels to zero must not count, a nonzero one must
        g, _ = case
        failures = tuple((k, dd) for k, f in enumerate(g.diffs, start=1) if not (dd := reference_d(g, f)).is_zero())
        assert g.jacobi_check() == JacobiReport(not failures, failures)

    def test_the_oracle_reads_the_bracket_convention(self):
        # d e_3 = e12 on the Heisenberg algebra: [E1, E2] = -E3 and d e_3 = e12 back
        g = parse_salamon("(0,0,12)")
        assert reference_d(g, mono(3, (3,))) == mono(3, (1, 2))
        assert reference_d(g, mono(3, (1, 3))).is_zero()
        assert reference_d(g, KForm.scalar(3, 5)).is_zero()

    def test_covers_non_jacobi_algebras_and_every_degree(self):
        g = parse_salamon("(12,34,0,0)")  # d(d e_1) = -e134
        assert not g.jacobi_check().passed
        for k in range(5):
            for idx in combinations(range(1, 5), k):
                form = mono(4, idx, Fraction(-3, 2)) if idx else KForm.scalar(4, Fraction(2, 3))
                assert g.d(form) == reference_d(g, form)


class TestConstruction:
    @pytest.mark.parametrize("make, count", [
        (lambda: LieAlgebra.abelian(1), 1),
        (lambda: LieAlgebra([KForm.zero(1, 2)]), 1),
        (lambda: LieAlgebra([]), 0),
    ], ids=["abelian-1", "one-zero-form", "none"])
    def test_fewer_than_two_generators_are_refused(self, make, count):
        # the bound of parse_salamon and of a document's "dim", so every
        # algebra prints as shorthand that parses back (TestSalamonRoundtrip)
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == f"need at least 2 generator differentials, got {count}"

    @pytest.mark.parametrize("diffs, message", [
        ([KForm.zero(3, 2), KForm.zero(4, 2), KForm.zero(3, 2)], "d e_2 lives on dimension 4, expected 3"),
        ([KForm.zero(3, 2), mono(3, (1,)), KForm.zero(3, 2)], "d e_2 must be a two-form, got degree 1"),
        ([KForm.zero(3, 2)] * 2, "got 2 differentials for dimension 3"),
    ], ids=["dimension", "degree", "count"])
    def test_malformed_differentials_are_refused(self, diffs, message):
        with pytest.raises(ValueError) as err:
            LieAlgebra(diffs)
        assert str(err.value) == message


    def test_an_algebra_is_immutable_and_equal_only_to_algebras(self):
        # the kept series and decomposition are set by their owners alone
        g = parse_salamon("(0,0,12)")
        for name in ("diffs", "_decomp"):
            with pytest.raises(AttributeError) as err:
                setattr(g, name, None)
            assert str(err.value) == "LieAlgebra is immutable"
        assert g.__eq__("(0,0,12)") is NotImplemented and g != "(0,0,12)"


class TestJacobi:
    def test_paper_algebras_pass(self):
        for g in paper_algebras():
            assert g.jacobi_check().passed

    def test_failure_reports_offender(self):
        g = parse_salamon("(0,12,0,23)")
        rep = g.jacobi_check()
        assert not rep.passed
        assert rep.failures == ((4, mono(4, (1, 2, 3))),)


S5 = "(51,52,53,2.54,0)"


def replacing(g, diffs):
    """The algebra of `diffs`, built from g by replacing the d e_k that differ
    from g's by object and re-checking the generators g._recheck names."""
    replaced = [(k, f) for k, (f, old) in enumerate(zip(diffs, g.diffs)) if f is not old]
    return LieAlgebra._replacing(g, replaced, g._recheck(sum(1 << k for k, _ in replaced)))


def incremental_report(g, x, f):
    """The Jacobi report of d e_j + x_j F checked from the base g, after
    asserting that it is the full check's."""
    diffs = [diff + c * f if c else diff for diff, c in zip(g.diffs, x)]
    sheared = replacing(g, diffs)
    assert sheared.diffs == tuple(diffs)
    report = sheared.jacobi_check()
    assert report == LieAlgebra(list(diffs)).jacobi_check()
    return report


@st.composite
def shear_changes(draw):
    g = draw(st.sampled_from(incremental_bases()))
    x = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=g.dim, max_size=g.dim))
    # frame monomials off X's support: on the abelian base such an F always passes
    leg_free = draw(st.booleans())
    masks = [(1 << i) | (1 << j) for i, j in combinations(range(g.dim), 2)
             if not (leg_free and (x[i] or x[j]))]
    coeffs = st.sampled_from([Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2)])
    terms = draw(st.dictionaries(st.sampled_from(masks), coeffs, max_size=3)) if masks else {}
    return g, x, KForm(g.dim, 2, terms)


class TestIncrementalJacobi:
    @settings(max_examples=300, deadline=None)
    @given(shear_changes())
    def test_report_equals_the_full_check(self, change):
        incremental_report(*change)

    @pytest.mark.parametrize("algebra, x, f, failures", [
        # valid and invalid shears along one and along several frame vectors
        (S5, (0, 0, 0, 1, 0), mono(5, (1, 2)), ()),
        (S5, (1, 1, 0, 0, 0), mono(5, (3, 5)), ()),
        (S5, (1, 1, 0, 0, 0), mono(5, (2, 3)), ((1, mono(5, (2, 3, 5))), (2, mono(5, (2, 3, 5))))),
        # only d e_3 = e12 fails: unchanged, but its monomial touches the changed e_1
        ("(0,0,12)", (1, 0, 0), mono(3, (1, 3)), ((3, mono(3, (1, 2, 3), -1)),)),
        # the base fails Jacobi at e_1, which neither changed nor touches e_3
        ("(12,34,0,0)", (0, 0, 1, 0), mono(4, (1, 2)),
         ((1, mono(4, (1, 3, 4), -1)), (2, mono(4, (1, 2, 4))), (3, mono(4, (1, 3, 4), -1)))),
    ], ids=["valid-basis-x", "valid-two-component-x", "invalid-two-component-x", "touching-only",
            "failing-base"])
    def test_pinned_changes(self, algebra, x, f, failures):
        report = incremental_report(parse_salamon(algebra), x, f)
        assert report == JacobiReport(not failures, failures)

    def test_checks_only_the_changed_and_touching_generators(self, monkeypatch):
        # S5 = (51,52,53,2.54,0): changing d e_4 leaves d e_1, d e_2, d e_3 and
        # d e_5 alone, and only d e_4 has a monomial on e_4.  Each check is one
        # sum of d(d e_k) on the built algebra's own d e_k, read as a term dict
        g = parse_salamon(S5)
        diffs = [*g.diffs[:3], g.diffs[3] + mono(5, (1, 2)), g.diffs[4]]
        checked = []
        real = lie._d_terms
        monkeypatch.setattr(lie, "_d_terms",
                            lambda ds, items, terms: checked.append((ds, dict(items))) or real(ds, items, terms))

        def reads(algebra, ks):
            return [(algebra.diffs, algebra.diffs[k].terms) for k in ks]

        sheared = replacing(g, diffs)
        assert checked == reads(sheared, [3]) and checked[0][0] is sheared.diffs
        checked.clear()
        full = LieAlgebra(diffs)
        assert checked == reads(full, range(5)) and all(ds is full.diffs for ds, _ in checked)
        # a base failing Jacobi gets the full check, whatever changed
        g = parse_salamon("(12,34,0,0)")
        diffs = [*g.diffs[:3], g.diffs[3] + mono(4, (1, 2))]
        checked.clear()
        sheared = replacing(g, diffs)
        assert checked == reads(sheared, range(4)) and all(ds is sheared.diffs for ds, _ in checked)
        assert not sheared.jacobi_check().passed


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

    def test_refuses_a_vector_of_another_dimension(self):
        g = parse_salamon("(0,0,12)")
        for v, w in ((Vector.basis(4, 1), Vector.basis(3, 2)), (Vector.basis(3, 1), Vector.basis(2, 2))):
            with pytest.raises(ValueError, match="^dimension mismatch in bracket$"):
                g.bracket(v, w)


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

    @pytest.mark.parametrize("text", [
        "(21+13,3.21+23,3.31+23)",  # (13,23,0) in a tilted frame: g' repeats
        "(2.41+51,2.21+2.42+52,2.31+2.43+53,4.41+2.54,4.14+2.51+4.45)",  # (51,52,53,2.54,0), tilted
        "(2.12+2.31+23,2.12+9.31+2.23,5.12+2.31+2.23,4.21+10.31)",  # so(3) + R, tilted: both chains repeat
        "(0,0,12,13,14,15)",  # filiform: the lower central chain shrinks to zero
    ])
    def test_a_chain_brackets_at_most_dim_plus_one_times(self, monkeypatch, text):
        # each bracketing step shrinks its term or ends the chain, so a chain
        # brackets at most dim + 1 times: a fault that keeps a repeating term
        # going (pivots read off the wrong columns, say) fails at that bound,
        # not at a time or memory limit
        chain = lie._chain

        def bounded(first, brackets):
            steps = 0

            def counted(s):
                nonlocal steps
                steps += 1
                if steps > len(s[0]) + 1:
                    pytest.fail(f"a chain asked for {steps} bracket steps in dimension {len(s[0])}")
                return brackets(s)

            return chain(first, counted)

        monkeypatch.setattr(lie, "_chain", bounded)
        g = parse_salamon(text)
        rep = g.series()
        if rep.is_solvable and not rep.is_abelian:
            g.find_shear_lines()

    @given(st.randoms(use_true_random=False), st.sampled_from(["shrinks", "repeats", "both"]))
    @settings(max_examples=40)
    def test_chains_match_the_dense_reference(self, rng, kind):
        # each chain term against the span of the dense brackets, in a tilted
        # frame: a nilpotent algebra's chains shrink to zero, a solvable
        # extension's lower central chain repeats at a nonzero term, and so(3)
        # plus a nilpotent algebra shrinks both chains onto so(3), which repeats
        if kind == "repeats":
            g = random_solvable_extension(rng, "identity")
        else:
            g = random_nilpotent(rng, rng.randint(3, 6))
            if kind == "both":
                g = direct_sum(parse_salamon("(23,31,12)"), g)
        g = change_basis(g, frame=random_unimodular(rng, g.dim, 2 * g.dim))
        rep = g.series()
        assume(kind != "repeats" or not rep.is_nilpotent)  # every action nilpotent: no repeat
        assert (rep.is_nilpotent, rep.is_solvable) == {"shrinks": (True, True), "repeats": (False, True),
                                                       "both": (False, False)}[kind]
        assert_chains_match_the_dense_reference(g)

    @pytest.mark.parametrize("text", [
        "(0,0,12,13,14,15)",  # filiform: E1 alone brackets each lower-central term into the next
        "(0,12,13)",  # E1 alone acts, on g' = span{E2, E3}, so [g, g'] = g' repeats
    ])
    def test_chains_match_the_dense_reference_when_e1_alone_acts(self, text):
        # a lower-central step [g, s] that drops [E1, s] would end both chains at g'
        assert_chains_match_the_dense_reference(parse_salamon(text))


def assert_chains_match_the_dense_reference(g):
    rep = g.series()
    units = [[int(i == j) for j in range(g.dim)] for i in range(g.dim)]
    lower = reference_chain(reference_bracket_span(g, units, units), lambda s: reference_bracket_span(g, units, s))
    derived = reference_chain(lower[0], lambda s: reference_bracket_span(g, s, s))
    assert rep.lower_central == tuple(lower)
    assert rep.derived == tuple(derived)


def direct_sum(g, h):
    """g + h, the generators of h numbered after those of g."""
    n = g.dim + h.dim
    shifted = [KForm(n, 2, {mask << g.dim: c for mask, c in f.terms.items()}) for f in h.diffs]
    return LieAlgebra([KForm(n, 2, dict(f.terms)) for f in g.diffs] + shifted)


def moved(subspace, frame):
    """The subspace of the vectors P v, v in `subspace`, as reduced rows."""
    p, _ = frame
    return linalg.reduced(linalg.span_rref([[sum(a * x for a, x in zip(row, v)) for row in p] for v in subspace]))


class TestFrameChange:
    """The series and the shear lines in change_basis's coframe f = P e,
    where a vector v goes to P v: each subspace must be the moved original.
    P is unimodular, or U D with D a positive rational diagonal, so pivots
    move and rescale, and the moved algebra's terms get a new scale."""

    @given(st.randoms(use_true_random=False), st.booleans(),
           st.sampled_from(["nilpotent", "extension", "almost abelian"]))
    @settings(max_examples=40)
    def test_the_series_moves_with_the_frame(self, rng, rational, family):
        if family == "nilpotent":
            g = random_nilpotent(rng, rng.randint(3, 6))
        elif family == "extension":
            g = random_solvable_extension(rng, "identity")
        else:
            g = random_almost_abelian(rng, rng.randint(3, 6))
        frame = random_frame(rng, g.dim, rational)
        rep, got = g.series(), change_basis(g, frame=frame).series()
        for chain, moved_chain in ((rep.lower_central, got.lower_central), (rep.derived, got.derived)):
            assert [len(t) for t in moved_chain] == [len(t) for t in chain]
            assert moved_chain == tuple(moved(t, frame) for t in chain)
        assert (got.is_abelian, got.is_nilpotent, got.is_solvable, got.step_length, got.derived_length) == (
            rep.is_abelian, rep.is_nilpotent, rep.is_solvable, rep.step_length, rep.derived_length)

    @given(st.randoms(use_true_random=False), st.booleans(), st.sampled_from(["nilpotent", "extension"]))
    @settings(max_examples=40)
    def test_the_shear_line_eigenspaces_move_with_the_frame(self, rng, rational, family):
        # the acting vectors are frame vectors completing g', so they and their
        # eigenvalues depend on the frame; the eigenspaces, as a set, do not:
        # the action on the target is trivial on g', so any completion spans
        # the same commuting operators
        if family == "nilpotent":
            g = random_nilpotent(rng, rng.randint(3, 6))
        else:
            g = random_solvable_extension(rng, "identity")
        assume(not g.series().is_abelian)
        frame = random_frame(rng, g.dim, rational)
        rep, got = g.find_shear_lines(), change_basis(g, frame=frame).find_shear_lines()
        assert got.derived_subalgebra == moved(rep.derived_subalgebra, frame)
        assert got.target == moved(rep.target, frame)
        assert {es.basis for es in got.eigenspaces} == {moved(es.basis, frame) for es in rep.eigenspaces}
        assert len(got.eigenspaces) == len(rep.eigenspaces)
        # measured frame-free on 786 moved extensions before it was asserted
        assert got.nonrational_present == rep.nonrational_present


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
    def test_starts_from_the_series_second_derived_term(self, monkeypatch):
        # the lower central series of g' begins g', [g', g'], and [g', g'] is the
        # series' own second derived term: no bracketing recomputes it
        g = h_lm(1, 2)
        g.series()
        _, _, derived, _ = g._series
        rights = []
        brackets = lie._brackets

        def recorded(left, right, terms, columns):
            rights.append(right)
            return brackets(left, right, terms, columns)

        monkeypatch.setattr(lie, "_brackets", recorded)
        g.find_shear_lines()
        assert len(derived) == 3 and rights == [derived[1]]

    def test_reads_the_integral_terms_once_per_algebra(self, monkeypatch):
        calls = []
        int_terms = LieAlgebra._int_terms
        monkeypatch.setattr(LieAlgebra, "_int_terms", lambda self: calls.append(1) or int_terms(self))
        g = h_lm(1, 2)  # the series takes three bracketing steps, find_shear_lines one
        g.series()
        assert len(calls) == 1
        g.find_shear_lines()  # from the terms the series cached
        assert len(calls) == 1

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

    def test_fractional_eigenvalues_in_a_tilted_frame(self):
        # E5 acts on R^4 by diag(1/2, -3/4) and [[0, 2], [1, 0]] (eigenvalues +-sqrt(2)).
        # In this frame every echelon row of the target has pivot 3, and the
        # restricted matrix has fractional entries: the eigen step scales its roots
        # back by scale L / gcd > 1
        action = [[Fraction(1, 2), 0, 0, 0], [0, Fraction(-3, 4), 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]
        diffs = [sum((mono(5, (j + 1, 5), c) for j, c in enumerate(row) if c), KForm.zero(5, 2)) for row in action]
        g = change_basis(LieAlgebra(diffs + [KForm.zero(5, 2)]), 55, 12)
        rep = g.find_shear_lines()
        assert [next(filter(None, row)) for row in linalg.span_rref(rep.target)] == [3, 3, 3, 3]
        assert rep == reference_shear_lines(g)
        assert [es.eigenvalues for es in rep.eigenspaces] == [(Fraction(-3, 4),), (Fraction(1, 2),)]
        assert rep.nonrational_present

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

    def test_matches_the_elimination_reference(self):
        # R^k x| R^m with 1-3 commuting actions (Jordan blocks, repeated and
        # irrational roots), every tenth a nilpotent algebra, all in tilted
        # frames; so(3) and an abelian algebra for the refusals
        def outcome(find, g):
            try:
                return find(g)
            except (ValueError, RuntimeError) as exc:
                return type(exc), str(exc)

        algebras = [parse_salamon("(23,-13,12)"), LieAlgebra.abelian(4)]
        for seed in range(300):
            rng = random.Random(seed)
            if seed % 10:
                algebras.append(random_solvable_extension(rng))
            else:
                algebras.append(change_basis(random_nilpotent(rng, rng.randint(3, 6)), seed, 12))
        seen = Counter()
        for g in algebras:
            got = outcome(LieAlgebra.find_shear_lines, g)
            assert got == outcome(reference_shear_lines, g), g
            if not isinstance(got, ShearLineReport):
                seen["refused"] += 1
                continue
            eigenvalues = [es.eigenvalues for es in got.eigenspaces]
            assert eigenvalues == sorted(set(eigenvalues))
            for es in got.eigenspaces:
                assert es.basis == linalg.reduced(linalg.span_rref(es.basis))
            seen["three acting"] += len(got.acting) >= 3
            seen["plane"] += any(len(es.basis) > 1 for es in got.eigenspaces)
            seen["tilted"] += any(sum(map(bool, row)) > 1 for row in got.target)
            seen["nonrational"] += got.nonrational_present
        assert min(seen[key] for key in ("refused", "three acting", "plane", "tilted", "nonrational")) >= 2, seen

    def test_an_action_with_a_common_factor(self, monkeypatch):
        # on g' = span{E1}, E2 acts by 0 and E3 by -2: the eigen step takes the
        # primitive multiples [[0]] and [[-1]] and scales the root -1 back by 2
        restricted = []
        eigenspaces = linalg.rational_eigenspaces
        monkeypatch.setattr(linalg, "rational_eigenspaces", lambda r: restricted.append(r) or eigenspaces(r))
        rep = parse_salamon("(2.31,0,0)").find_shear_lines()
        assert restricted == [[[0]], [[-1]]]
        assert rep.eigenspaces == (EigenSpace(eigenvalues=(Fraction(0), Fraction(-2)), basis=((Fraction(1), 0, 0),)),)
        assert rep == reference_shear_lines(parse_salamon("(2.31,0,0)"))

    @pytest.mark.parametrize("frame", ["identity", "permutation"])
    def test_frame_aligned_extensions_match_the_elimination_reference(self, monkeypatch, frame):
        # untilted, each action is triangular up to a permutation except for its
        # companion blocks, so the restricted matrices split into 1x1 blocks and
        # 2x2 ones with irrational roots; the reference takes one whole char poly each
        inside, records = [], []
        charpoly, eigenspaces = linalg.charpoly, linalg.rational_eigenspaces

        def recorded_charpoly(a):
            if inside:
                inside[-1].append(len(a))
            return charpoly(a)

        def recorded_eigenspaces(r):
            inside.append([])
            try:
                return eigenspaces(r)
            finally:
                records.append((len(r), inside.pop()))

        monkeypatch.setattr(linalg, "charpoly", recorded_charpoly)
        monkeypatch.setattr(linalg, "rational_eigenspaces", recorded_eigenspaces)
        seen = Counter()
        for seed in range(100):
            g = random_solvable_extension(random.Random(seed), frame)
            if g.series().is_abelian:  # every action vanished: no line to find
                continue
            records.clear()
            got = g.find_shear_lines()
            assert got == reference_shear_lines(g), g
            # some restricted matrix splits into 1x1 blocks beside a larger one
            seen["mixed"] += any(blocks and sum(blocks) < size for size, blocks in records)
            seen["nonrational"] += got.nonrational_present
        assert min(seen["mixed"], seen["nonrational"]) >= 2, seen

    @staticmethod
    def _triangular_extension(diagonal, rng):
        # R^k x| R, E_(k+1) acting by an upper triangular matrix with the given
        # diagonal and small random entries above it
        k = len(diagonal)
        action = [[diagonal[i] if i == j else Fraction(rng.randint(-3, 3)) if j > i else 0 for j in range(k)]
                  for i in range(k)]
        n = k + 1
        diffs = [sum((mono(n, (j + 1, n), x) for j, x in enumerate(row) if x), KForm.zero(n, 2)) for row in action]
        return LieAlgebra(diffs + [KForm.zero(n, 2)])

    def test_a_frame_aligned_action_takes_no_char_poly(self, monkeypatch):
        # triangular up to a permutation, every restricted matrix splits into 1x1
        # blocks; tilted by a unimodular P it is one irreducible block per eigen step
        calls = Counter()

        def counted(name):
            f = getattr(linalg, name)
            return lambda *args: calls.update([name]) or f(*args)

        for name in ("charpoly", "rational_roots", "rational_eigenspaces"):
            monkeypatch.setattr(linalg, name, counted(name))
        diagonal = [Fraction(3), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-5, 3)]
        g = self._triangular_extension(diagonal, random.Random(4))
        permuted = change_basis(g, frame=permutation_frame([3, 5, 0, 2, 4, 1]))
        want = [(x,) for x in sorted(diagonal)]
        for h in (g, permuted):
            calls.clear()
            assert [es.eigenvalues for es in h.find_shear_lines().eigenspaces] == want
            assert calls == {"rational_eigenspaces": 1}
        # the tilted frame's acting vector is another one, with other eigenvalues
        tilted = change_basis(g, 5, 12)
        want = reference_shear_lines(tilted)
        calls.clear()
        assert tilted.find_shear_lines() == want
        assert calls == {"rational_eigenspaces": 1, "charpoly": 1, "rational_roots": 1}

    def test_eighty_digit_eigenvalues_of_a_permuted_triangular_action(self):
        # the root search on the whole char poly bisects to the bits of the
        # product of the denominators; the 1x1 blocks need no polynomial at all
        rng = random.Random(80)
        diagonal = [Fraction(rng.choice((-1, 1)) * rng.randrange(10**79, 10**80), rng.randrange(10**79, 10**80))
                    for _ in range(6)]
        g = self._triangular_extension(diagonal, rng)
        g = change_basis(g, frame=permutation_frame(random.Random(7).sample(range(7), 7)))
        rep = g.find_shear_lines()
        assert [es.eigenvalues for es in rep.eigenspaces] == [(x,) for x in sorted(diagonal)]
        assert not rep.nonrational_present
        for es in rep.eigenspaces:
            x = Vector(es.basis[0])
            assert g.bracket(rep.acting[0], x) == es.eigenvalues[0] * x

    @pytest.mark.parametrize("text, term", [
        # E5 acts on the target span{E1, ..., E4}; the stray term puts an E5 into
        # [E5, E1], the first row's image, or into [E5, E4], the last row's
        ("(51,52,53,2.54,0)", (0, 4, 4, 1)),
        ("(51,52,53,2.54,0)", (3, 4, 4, 1)),
        # the target is span{E1 + E2}; the stray term makes [E1, E1 + E2] = E1, whose
        # one nonzero entry sits on the pivot, so only the entry off it gives it away
        ("(13+23,13+23,0)", (0, 1, 0, -1)),
    ])
    def test_an_image_off_the_target_is_refused(self, text, term):
        g = parse_salamon(text)
        assert g.find_shear_lines() == reference_shear_lines(g)
        # the shear lines read the terms the series cached, and g' is abelian,
        # so no bracketing step reads them: only the refinement sees the stray
        # (i, j, k, c) term
        report, lower, derived, (scale, terms) = g._series
        object.__setattr__(g, "_series", (report, lower, derived, (scale, terms + [term])))
        with pytest.raises(RuntimeError, match="^complement action does not preserve the target subspace$"):
            g.find_shear_lines()


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

    def test_lie_derivative_warns_without_jacobi(self):
        g = parse_salamon("(0,12,0,23)")
        with pytest.warns(RuntimeWarning, match="^Lie derivative on an algebra failing the Jacobi identity$"):
            g.lie_derivative(Vector.basis(4, 1), mono(4, (2,)))
