import random
from fractions import Fraction

import pytest

from corpus import g_lm, h_lm, mono, paper_algebras, psi4, random_almost_abelian
from lieshear import (
    KForm,
    LieAlgebra,
    SalamonError,
    Vector,
    parse_salamon,
    print_salamon,
    pullback,
)


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
                    assert all(linalg.in_span(big, row) for row in small)
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
        rng = random.Random(12)
        nilpotents = [parse_salamon(s) for s in ["(0,0,12)", "(0,0,12,13)", "(0,0,0,12)", "(0,0,12,13,14+23)"]]
        for g in nilpotents:
            assert g.jacobi_check().passed
            g.twist_filtration()  # raises internally if d V_i leaves Lambda^2 V_{i+1}


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

                        assert linalg.in_span([row], b.components) or b.is_zero()
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
