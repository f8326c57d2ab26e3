"""Checked-in mutants: small faults in src/lieshear that named tests must catch.

Each entry of MUTANTS is one fault: a source file under src/lieshear, an
exact snippet of it, the snippet's replacement, and the ids of the tests
that must fail once the replacement is made.  tests/test_mutants.py checks,
in the tier-1 suite, that each snippet occurs exactly once in its file, so
a refactor that moves the code updates the table in the same change.
A test is listed as a killer only when it fails with the mutant applied
when run alone, so no entry leans on state that other tests leave behind
(a base the memo of shear.py keeps, say); a fault no test kills alone
is left out of the table.

Run as a script, it applies each mutant in turn to a copy of src/ in a
temporary directory and runs the mutant's tests against that copy in a
child pytest, with the `mutants` hypothesis profile of tests/conftest.py
(no shrink phase), a time limit and an address-space limit set on the
child alone; a child still running at the time limit is stopped and
counts as killed.  It exits 1 unless every listed test of every mutant
fails:

    python tests/mutants.py [name ...]
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "lieshear"
TIME_LIMIT_S = 300
ADDRESS_SPACE_LIMIT = 2 << 30  # bytes; a chain that never ends grew past 2.9 GB


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/lieshear
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant(
        "nijenhuis-power-of-s", "geometry.py",
        "Fraction(y + s2 * z - x, den)",
        "Fraction(s * y + s2 * z - x, den)",
        ("tests/test_geometry.py::TestNijenhuisDenseReference"
         "::test_matches_the_dense_reference_on_conjugated_structures",),
    ),
    Mutant(
        "rank-at-full", "linalg.py",
        "    return len(found)\n",
        "    return len(cols)\n",
        ("tests/test_linalg.py::TestRankAt::test_is_the_rank_of_the_entries_at_the_columns",
         "tests/test_linalg.py::TestRankAt::test_examples",
         "tests/test_lie.py::TestSeries::test_chains_match_the_dense_reference"),
    ),
    Mutant(
        "derived-sign-of-e1", "lie.py",
        "pairs.setdefault(mask, [0] * n)[k] = -c",
        "pairs.setdefault(mask, [0] * n)[k] = -c if k else c",
        ("tests/test_lie.py::TestSeries::test_chains_match_the_dense_reference",
         "tests/test_lie.py::TestFrameChange::test_the_series_moves_with_the_frame",
         "tests/test_shear.py::TestFrameChange::test_the_twist_moves_with_the_frame"),
    ),
    Mutant(
        "invariance-without-lcm", "lie.py",
        "coords = [[im[p] * (big // b[p]) for b, p in zip(basis, pivots)] for im in images]\n"
        "                if linalg.mat_mul(coords, basis) != [[big * x for x in im] for im in images]:",
        "coords = [[im[p] for b, p in zip(basis, pivots)] for im in images]\n"
        "                if linalg.mat_mul(coords, basis) != images:",
        ("tests/test_lie.py::TestFrameChange::test_the_shear_line_eigenspaces_move_with_the_frame",
         "tests/test_lie.py::TestShearLines::test_fractional_eigenvalues_in_a_tilted_frame"),
    ),
    Mutant(
        "eigenspace-on-its-own-block", "linalg.py",
        "rows = [i for i in range(m) if reach[i] & blocks[mu]]",
        "rows = [i for i in range(m) if blocks[mu] >> i & 1]",
        ("tests/test_linalg.py::TestRationalEigenvalues::test_each_kernel_sees_only_the_rows_reaching_its_root",
         "tests/test_linalg.py::TestRationalEigenvalues::test_each_eigenspace_is_the_nullspace_of_the_whole_shift"),
    ),
    Mutant(
        "eigenspace-unpadded", "linalg.py",
        "padded.append(tuple(full))",
        "padded.append(tuple(v))",
        ("tests/test_linalg.py::TestRationalEigenvalues::test_each_kernel_sees_only_the_rows_reaching_its_root",
         "tests/test_linalg.py::TestRationalEigenvalues::test_each_eigenspace_is_the_nullspace_of_the_whole_shift",
         "tests/test_lie.py::TestShearLines::test_solvable_example"),
    ),
    Mutant(
        "memo-compares-x-only", "shear.py",
        "(base.X, base.alpha) == (X, alpha)",
        "base.X == X",
        ("tests/test_shear.py::TestDecompose::test_a_kept_decomposition_equals_a_fresh_one",),
    ),
    Mutant(
        "memo-compares-alpha-only", "shear.py",
        "(base.X, base.alpha) == (X, alpha)",
        "base.alpha == alpha",
        ("tests/test_shear.py::TestDecompose::test_interleaved_calls_match_the_reference_on_a_fresh_algebra",
         "tests/test_shear.py::TestDecompose::test_a_kept_decomposition_equals_a_fresh_one",
         "tests/test_shear.py::TestFrameChange::test_the_twist_moves_with_the_frame"),
    ),
    Mutant(
        "memo-returns-a-new-base", "shear.py",
        "            return base\n    if X.dim != g.dim:",
        "            return ShearBase(g=g, X=X, alpha=alpha, eta=base.eta, f=base.f)\n    if X.dim != g.dim:",
        ("tests/test_shear.py::TestDecompose::test_only_a_new_pair_is_checked_and_split",
         "tests/test_shear.py::TestDecompose::test_one_plan_and_one_d_eta_per_pair",
         "tests/test_search.py::TestEnumerate::test_decomposes_dalpha_once_per_search"),
    ),
    Mutant(
        # a base found for an equal algebra: the sheared algebra would read the base of the one it came from
        "sheared-algebra-keeps-the-base", "shear.py",
        "base.g is g and (base.X, base.alpha) == (X, alpha)",
        "(base.X, base.alpha) == (X, alpha)",
        ("tests/test_shear.py::TestDecompose::test_a_sheared_algebra_is_decomposed_afresh",
         "tests/test_shear.py::TestInvert::test_roundtrip_over_corpus"),
    ),
    Mutant(
        "failing-pair-kept", "shear.py",
        "    if bad is not None:\n        raise ShearDataError",
        "    if bad is not None:\n"
        "        _BASES = (ShearBase(g=g, X=X, alpha=alpha, eta=alpha, f=alpha), *_BASES[:1])\n"
        "        raise ShearDataError",
        ("tests/test_shear.py::TestDecompose::test_only_a_new_pair_is_checked_and_split",
         "tests/test_shear.py::TestDecompose::test_interleaved_calls_match_the_reference_on_a_fresh_algebra",
         "tests/test_shear.py::TestDecompose::test_a_kept_decomposition_equals_a_fresh_one",
         "tests/test_shear.py::TestDecompose::test_a_failing_pair_neither_enters_nor_trims_the_memo[ideal]"),
    ),
    Mutant(
        # a pair failing alpha(X) = 1 stored before the raise: the next call returns it
        "failing-pairing-stored-before-the-raise", "shear.py",
        "    if alpha(X) != 1:\n        raise",
        "    if alpha(X) != 1:\n"
        "        _BASES = (ShearBase(g=g, X=X, alpha=alpha, eta=alpha, f=alpha), *_BASES[:1])\n"
        "        raise",
        ("tests/test_shear.py::TestDecompose::test_rejects_unnormalized_alpha",
         "tests/test_shear.py::TestDecompose::test_a_failing_pair_neither_enters_nor_trims_the_memo[pairing]"),
    ),
    Mutant(
        # every base ever built stays reachable, with its algebra
        "memo-never-trimmed", "shear.py",
        "_BASES = (base, *_BASES[:1])",
        "_BASES = (base, *_BASES)",
        ("tests/test_shear.py::TestDecompose::test_a_third_algebra_evicts_the_oldest_base",
         "tests/test_shear.py::TestDecompose::test_a_dropped_algebra_is_freed_without_a_collection",
         "tests/test_shear.py::TestDecompose::test_validating_fresh_algebras_keeps_at_most_two_bases"),
    ),
    Mutant(
        # the first base built is kept for good, and every later one evicts its predecessor
        "memo-new-base-put-last", "shear.py",
        "_BASES = (base, *_BASES[:1])",
        "_BASES = (*_BASES[:1], base)",
        ("tests/test_shear.py::TestDecompose::test_only_a_new_pair_is_checked_and_split",
         "tests/test_shear.py::TestDecompose::test_a_third_algebra_evicts_the_oldest_base"),
    ),
    Mutant(
        "plan-per-call", "shear.py",
        "    support, recheck = base.plan\n",
        "    support, recheck = ShearBase.plan.func(base)\n",
        ("tests/test_shear.py::TestDecompose::test_one_plan_and_one_d_eta_per_pair",),
    ),
    Mutant(
        "guard-removed", "shear.py",
        "    if not sheared.jacobi_check().passed:",
        "    if False:",
        ("tests/test_search.py::TestEnumerate::test_jacobi_guard_catches_a_hit_validation_let_through",
         "tests/test_shear.py::TestApplyShear::test_jacobi_recheck_survives_python_O"),
    ),
    Mutant(
        "support-first-component", "shear.py",
        "for k, x in enumerate(X.components) if x])",
        "for k, x in enumerate(X.components) if x][:1])",
        ("tests/test_shear.py::TestFrameChange::test_validity_and_the_sheared_algebra_move_with_the_frame",
         "tests/test_shear.py::TestFrameChange::test_the_twist_moves_with_the_frame",
         "tests/test_search.py::TestEnumerate::test_hits_equal_the_unguarded_shear_and_the_full_check"),
    ),
    Mutant(
        "eta0-closed-taken-true", "shear.py",
        "\"eta0_closed\": eta0_closed,",
        "\"eta0_closed\": True,",
        ("tests/test_shear.py::TestValidate::test_golden_invalid",
         "tests/test_shear.py::TestShearBase::test_linear_form_decides_leg_free_deformations",
         "tests/test_search.py::TestEnumerate::test_search_on_a_base_with_eta_not_closed"),
    ),
    Mutant(
        "recheck-without-touching", "lie.py",
        "reduce(or_, f.terms, 1 << k) & changed",
        "(1 << k) & changed",
        ("tests/test_lie.py::TestIncrementalJacobi::test_report_equals_the_full_check",
         "tests/test_lie.py::TestIncrementalJacobi::test_pinned_changes[touching-only]"),
    ),
    Mutant(
        "recheck-without-fallback", "lie.py",
        "        if not self._jacobi.passed:\n            return tuple(range(self.dim))\n",
        "",
        ("tests/test_lie.py::TestIncrementalJacobi::test_report_equals_the_full_check",
         "tests/test_lie.py::TestIncrementalJacobi::test_pinned_changes[failing-base]",
         "tests/test_lie.py::TestIncrementalJacobi::test_checks_only_the_changed_and_touching_generators"),
    ),
    Mutant(
        "bracket-unscaled", "lie.py",
        "Fraction(x, scale)",
        "Fraction(x)",
        ("tests/test_properties.py::TestJacobiEquivalence::test_bracket_is_minus_d_on_the_pair",
         "tests/test_properties.py::TestSparseBrackets::test_bracket_is_ad_applied"),
    ),
    Mutant(
        "self-span-always", "lie.py",
        "    same = left == right",
        "    same = True",
        ("tests/test_lie.py::TestSeries::test_chains_match_the_dense_reference",
         "tests/test_properties.py::TestSparseBrackets::test_bracket_span_matches_dense_reference"),
    ),
    Mutant(
        "self-span-never", "lie.py",
        "    same = left == right",
        "    same = False",
        ("tests/test_properties.py::TestSparseBrackets::test_a_self_span_brackets_each_unordered_pair_once",),
    ),
    Mutant(
        # the eigenvalue mu common / (scale L) with the gcd common left out
        "shear-line-den-one", "lie.py",
        "Fraction(mu * common, scale * big)",
        "Fraction(mu, scale * big)",
        ("tests/test_lie.py::TestShearLines::test_matches_the_elimination_reference",
         "tests/test_lie.py::TestShearLines::test_an_action_with_a_common_factor"),
    ),
    Mutant(
        "lower-central-step-drops-e1", "lie.py",
        "products = cols if left is None",
        "products = cols[1:] if left is None",
        ("tests/test_lie.py::TestSeries::test_chains_match_the_dense_reference_when_e1_alone_acts[(0,0,12,13,14,15)]",
         "tests/test_lie.py::TestSeries::test_chains_match_the_dense_reference_when_e1_alone_acts[(0,12,13)]"),
    ),
    Mutant(
        "rref-without-pivot-sign", "linalg.py",
        "gcd(*row) if row[c] > 0 else -gcd(*row)",
        "gcd(*row)",
        ("tests/test_linalg.py::TestIntegerElimination::test_rref_is_blind_to_row_scale",
         "tests/test_linalg.py::TestIntegerElimination::test_rref_matches_fraction_gauss_jordan",
         "tests/test_linalg.py::TestRref::test_subspace_equality_is_representation_free"),
    ),
    Mutant(
        "nullspace-without-gcd", "linalg.py",
        "for g in (gcd(*v),)",
        "for g in (1,)",
        ("tests/test_linalg.py::TestOneEliminationNullspace::test_matches_the_two_elimination_nullspace",),
    ),
    Mutant(
        "definiteness-zero-pivot", "linalg.py",
        "        if m[k][k] <= 0:",
        "        if m[k][k] < 0:",
        ("tests/test_linalg.py::TestDeterminants::test_positive_definite",
         "tests/test_geometry.py::TestPhiStability::test_decomposable_form_unstable"),
    ),
    Mutant(
        "definiteness-sign-fixed", "linalg.py",
        "    sign = -1 if a and a[0][0] < 0 else 1",
        "    sign = 1",
        ("tests/test_linalg.py::TestDeterminants::test_negation_is_negative_definite_exactly_when_positive_definite",
         "tests/test_geometry.py::TestPhiStability::test_negation_flips_sign"),
    ),
    Mutant(
        "metric-j-invariant-always", "geometry.py",
        "    invariant = all(m[i][j] == -m[j][i] for i in range(n) for j in range(i, n))",
        "    invariant = True",
        ("tests/test_geometry.py::TestFrameChange::test_kahler_verdicts",
         "tests/test_geometry.py::TestKahlerDenseReference::test_matches_the_dense_reference_on_conjugated_structures"),
    ),
    Mutant(
        "recheck-set-emptied", "shear.py",
        "sheared = _shear_by(base.g, support, report.f_eff, recheck)",
        "sheared = _shear_by(base.g, support, report.f_eff, ())",
        ("tests/test_search.py::TestEnumerate::test_jacobi_guard_catches_a_hit_validation_let_through",
         "tests/test_shear.py::TestApplyShear::test_jacobi_recheck_survives_python_O"),
    ),
    Mutant(
        "leg-free-defect-taken-zero", "shear.py",
        "df_ok = not any(base._leg_free_terms(f0).values())",
        "df_ok = True",
        ("tests/test_shear.py::TestEquivalence::test_validity_iff_jacobi_on_random_data",
         "tests/test_shear.py::TestShearBase::test_leg_free_branch_matches_the_general_formulas",
         "tests/test_search.py::TestEnumerate::test_matches_the_reference_on_random_specs"),
    ),
    Mutant(
        "screen-column-of-e1j-doubled", "search.py",
        "tuple([image.get(r, 0) for r in rows]) for image in images]",
        "tuple([(1 + (mask & 1)) * image.get(r, 0) for r in rows]) for image, mask in zip(images, masks)]",
        ("tests/test_search.py::TestEnumerate::test_completeness_against_brute_force_oracle",
         "tests/test_search.py::TestEnumerate::test_condition_columns_are_the_defects_and_the_wedges_with_the_legs"),
    ),
    Mutant(
        # a bracket column zero at q alone is not zero: x_q b = b_q x then asks b = 0
        "xi-ideal-skips-a-column-zero-at-q", "shear.py",
        "not any(b) or",
        "not b[q] or",
        ("tests/test_properties.py::TestSparseBrackets::test_xi_ideal_matches_the_d_based_reference",
         "tests/test_properties.py::TestSparseBrackets::test_xi_ideal_pinned_cases[(13,23,0)-x4-e1]"),
    ),
    Mutant(
        # right when the leg is a one-form; a 3-form's leg is a two-form
        "leg-sign-by-one-bit-parity", "search.py",
        "c if merge_sign(mask, m) > 0 else -c",
        "c if not (mask >> m.bit_length()).bit_count() & 1 else -c",
        ("tests/test_search.py::TestEnumerate::test_completeness_against_brute_force_oracle",
         "tests/test_search.py::TestEnumerate::test_condition_columns_are_the_defects_and_the_wedges_with_the_legs"),
    ),
    Mutant(
        "single-monomial-skip-on-a-zero-column", "search.py",
        "t == 1 and any(cols[0])",
        "t == 1",
        ("tests/test_search.py::TestEnumerate::test_finds_paper_deformation",
         "tests/test_search.py::TestEnumerate::test_per_hit_work_on_the_s5_reference_search",
         "tests/test_cli.py::TestSearchCommand::test_the_reference_box_is_all_hits"),
    ),
    Mutant(
        "count-on-a-support-with-x-legs", "search.py",
        "self.count = _box_count(spec, len(support))",
        "self.count = _box_count(spec, len(spec.support or tuple(combinations(range(1, spec.base.dim + 1), 2))))",
        ("tests/test_search.py::TestEnumerate::test_one_support_scan_and_one_defect_per_monomial_per_search[s5]",
         "tests/test_cli.py::TestSearchCommand::test_max_terms_reaches_the_search",
         "tests/test_cli.py::TestSearchCommand::test_cap_exit_4"),
    ),
    Mutant(
        "invariance-check-deleted", "lie.py",
        "if linalg.mat_mul(coords, basis) != [[big * x for x in im] for im in images]:",
        "if False:",
        ("tests/test_lie.py::TestShearLines::test_an_image_off_the_target_is_refused[(51,52,53,2.54,0)-term0]",
         "tests/test_lie.py::TestShearLines::test_an_image_off_the_target_is_refused[(13+23,13+23,0)-term2]"),
    ),
    Mutant(
        "rref-without-gcd", "linalg.py",
        "signed = ((row, gcd(*row) if row[c] > 0 else -gcd(*row)) for row, c in zip(m, pivots))",
        "signed = ((row, 1 if row[c] > 0 else -1) for row, c in zip(m, pivots))",
        ("tests/test_linalg.py::TestIntegerElimination::test_rref_is_blind_to_row_scale",
         "tests/test_linalg.py::TestIntegerElimination::test_primitive_keeps_the_span"),
    ),
    Mutant(
        "omega-read-off-m-ij", "geometry.py",
        "form_matrix(omega) == [[*col] for col in zip(*m)]",
        "form_matrix(omega) == m",
        ("tests/test_geometry.py::TestKahler::test_kahler_shear",
         "tests/test_geometry.py::TestKahlerDenseReference::test_matches_the_dense_reference_on_conjugated_structures"),
    ),
    Mutant(
        # an antisymmetric matrix has even rank, so a rank of n - 1 never occurs:
        # the smallest shortfall a wrong bound can let through is two
        "symplectic-rank-short-by-two", "geometry.py",
        "range(g.dim)) == g.dim",
        "range(g.dim)) >= g.dim - 2",
        ("tests/test_geometry.py::TestSymplectic::test_degenerate",
         "tests/test_geometry.py::TestSymplectic::test_nondegeneracy_is_the_wedge_power_verdict",
         "tests/test_cli.py::TestCheckStructure::test_a_dense_omega_with_100_digit_parts_finishes[rank-12]"),
    ),
    Mutant(
        "form-matrix-symmetric", "exterior.py",
        "w[i][j], w[j][i] = c, -c",
        "w[i][j], w[j][i] = c, c",
        ("tests/test_exterior.py::TestFormMatrix::test_entries_are_the_values_on_frame_pairs",
         "tests/test_exterior.py::TestFormMatrix::test_examples"),
    ),
    Mutant(
        "basis-index-unchecked", "exterior.py",
        "        if not 1 <= k <= dim:",
        "        if not 1 <= k:",
        ("tests/test_exterior.py::test_malformed_arguments_are_refused[vector-basis-above]",),
    ),
    Mutant(
        "decompose-any-dimension", "shear.py",
        "    if X.dim != g.dim:",
        "    if False:",
        ("tests/test_shear.py::test_malformed_arguments_are_refused[decompose-dimension]",),
    ),
    Mutant(
        "d-parity-over-wrong-range", "lie.py",
        "(rest & (dmask - 2 * (dmask & -dmask)))",
        "(rest & (dmask - (dmask & -dmask)))",
        ("tests/test_lie.py::TestDifferentialOracle::test_d_matches_the_koszul_formula",
         "tests/test_lie.py::TestDifferential::test_extension_on_solvable_example",
         "tests/test_lie.py::TestDifferential::test_antiderivation_rule",
         "tests/test_lie.py::TestJacobi::test_paper_algebras_pass",
         "tests/test_lie.py::TestIncrementalJacobi::test_pinned_changes[valid-basis-x]",
         "tests/test_search.py::TestEnumerate::test_finds_paper_deformation",
         "tests/test_search.py::TestEnumerate::test_hits_equal_the_unguarded_shear_and_the_full_check",
         "tests/test_search.py::TestEnumerate::test_matches_the_reference_on_random_specs",
         "tests/test_shear.py::TestDerivedForms::test_derived_forms_match_their_formulas",
         "tests/test_shear.py::TestValidate::test_golden_valid",
         "tests/test_properties.py::TestDecomposition::test_eta_bracket_matches_the_bracket",
         "tests/test_acceptance.py::test_criterion_2_shear_golden_triple"),
    ),
    Mutant(
        "nu-shortcut-without-mask", "shear.py",
        "        if m & xmask:\n",
        "        if False:\n",
        ("tests/test_shear.py::TestShearBase::test_nu_is_computed_only_for_an_f0_on_the_support_of_x[x-leg-2]",
         "tests/test_shear.py::TestValidate::test_golden_invalid",
         "tests/test_search.py::TestEnumerate::test_matches_the_reference_on_random_specs"),
    ),
    Mutant(
        "fill-shares-the-passing-report-on-failures", "lie.py",
        "JacobiReport(False, tuple(failures)) if failures else _PASSED",
        "_PASSED",
        ("tests/test_lie.py::TestJacobi::test_failure_reports_offender",
         "tests/test_lie.py::TestDifferentialOracle::test_covers_non_jacobi_algebras_and_every_degree",
         "tests/test_search.py::TestEnumerate::test_jacobi_guard_catches_a_hit_validation_let_through"),
    ),
    Mutant(
        "f-eff-is-f0-for-every-a", "search.py",
        "f0 if unit else f0 * neg_inv_a)",
        "f0)",
        ("tests/test_search.py::TestEnumerate::test_per_search_constants_give_the_reference_hits[2]",
         "tests/test_search.py::TestEnumerate::test_hits_equal_the_unguarded_shear_and_the_full_check"),
    ),
    Mutant(
        # a repeating term's brackets have full rank at its pivots, but not at
        # each row's last nonzero column: the chain would append the term forever
        "chain-pivots-at-last-nonzero-column", "lie.py",
        "linalg.rank_at(vecs, [next(c for c, x in enumerate(v) if x) for v in s])",
        "linalg.rank_at(vecs, [max(c for c, x in enumerate(v) if x) for v in s])",
        ("tests/test_lie.py::TestSeries::test_a_chain_brackets_at_most_dim_plus_one_times[(21+13,3.21+23,3.31+23)]",
         "tests/test_lie.py::TestSeries::test_a_chain_brackets_at_most_dim_plus_one_times"
         "[(2.41+51,2.21+2.42+52,2.31+2.43+53,4.41+2.54,4.14+2.51+4.45)]",
         "tests/test_lie.py::TestSeries::test_a_chain_brackets_at_most_dim_plus_one_times"
         "[(2.12+2.31+23,2.12+9.31+2.23,5.12+2.31+2.23,4.21+10.31)]"),
    ),
    Mutant(
        "kahler-degree-unchecked", "geometry.py",
        "    if not (omega.degree == 2 or omega.is_zero()):\n",
        "    if False:\n",
        ("tests/test_geometry.py::test_malformed_arguments_are_refused[kahler-degree]",),
    ),
    Mutant(
        "value-slots-dropped", "_value.py",
        "    __slots__ = ()\n",
        "",
        ("tests/test_value.py::test_kernel_values_have_no_instance_dict[KForm]",
         "tests/test_value.py::test_kernel_values_have_no_instance_dict[Vector]",
         "tests/test_value.py::test_kernel_values_have_no_instance_dict[LieAlgebra]",
         "tests/test_value.py::test_kernel_values_have_no_instance_dict[ShearReport]",
         "tests/test_value.py::test_kernel_values_have_no_instance_dict[SearchHit]"),
    ),
    Mutant(
        "kform-equality-reads-degree", "exterior.py",
        '    _fields = ("dim", "terms")\n',
        '    _fields = ("dim", "degree", "terms")\n',
        ("tests/test_acceptance.py::test_criterion_7_exterior_property_suite",
         "tests/test_value.py::test_zero_forms_of_different_degrees_are_equal"),
    ),
    Mutant(
        "setstate-drops-slots", "_value.py",
        "        for name, value in {**(attrs or {}), **(slots or {})}.items():\n",
        "        for name, value in (attrs or {}).items():\n",
        ("tests/test_value.py::test_value_semantics[KForm]",
         "tests/test_value.py::test_value_semantics[Vector]",
         "tests/test_value.py::test_value_semantics[LieAlgebra]",
         "tests/test_value.py::test_a_round_trip_of_an_algebra_carries_no_shear_cache"),
    ),
    Mutant(
        # a d(d e_k) whose sums cancel leaves zeros in its term dict: read as
        # keys, they would fail an algebra that satisfies Jacobi
        "guard-reads-cancelled-zeros", "lie.py",
        "            if any(dd.values()):\n",
        "            if dd:\n",
        ("tests/test_lie.py::TestDifferentialOracle::test_the_jacobi_report_is_the_koszul_d_of_each_d_e_k",
         "tests/test_lie.py::TestJacobi::test_paper_algebras_pass",
         "tests/test_lie.py::TestIncrementalJacobi::test_pinned_changes[valid-basis-x]",
         "tests/test_search.py::TestEnumerate::test_finds_paper_deformation"),
    ),
    Mutant(
        # slot_setters returns the setters in __slots__ order: two names bound
        # out of that order fill each other's slot
        "report-setters-swapped", "shear.py",
        "(_set_valid, _set_decomp, _set_eta_prime, _set_eta_0,",
        "(_set_valid, _set_decomp, _set_eta_0, _set_eta_prime,",
        ("tests/test_shear.py::TestValidate::test_golden_valid",
         "tests/test_shear.py::TestValidate::test_golden_invalid",
         "tests/test_value.py::test_value_semantics[ShearReport]",
         "tests/test_cli.py::TestGoldenText::test_text_report[shear]"),
    ),
    Mutant(
        "render-yes-no", "cli.py",
        'else ("yes" if value else "no")',
        'else ("no" if value else "no")',
        ("tests/test_cli.py::TestShearLines::test_an_irrational_leftover",),
    ),
    Mutant(
        "jacobi-gate-exit", "cli.py",
        "            return EXIT_JACOBI\n",
        "            return EXIT_INVALID_DATA\n",
        ("tests/test_cli.py::TestJacobiGate::test_jacobi_gate[shear]",
         "tests/test_cli.py::TestJacobiGate::test_jacobi_gate[shear-lines]"),
    ),
    Mutant(
        "shear-without-x-k", "shear.py",
        "            v = x * c\n",
        "            v = c\n",
        ("tests/test_shear.py::TestFrameChange::test_validity_and_the_sheared_algebra_move_with_the_frame",
         "tests/test_shear.py::TestFrameChange::test_the_twist_moves_with_the_frame",
         "tests/test_shear.py::TestApplyTwist::test_matches_the_splitting_construction"),
    ),
    Mutant(
        # d e_k's term on a mask F_eff shares is overwritten, not summed
        "shear-merges-overlapping-masks", "shear.py",
        "if x == 1 and dk.keys().isdisjoint(fterms):",
        "if x == 1:",
        ("tests/test_shear.py::TestShearBy::test_is_the_public_sum_with_canonical_coefficients",
         "tests/test_shear.py::TestApplyShear::test_golden_triple",
         "tests/test_search.py::TestEnumerate::test_completeness_against_brute_force_oracle"),
    ),
    Mutant(
        # F_eff is merged in unscaled when x_k != 1
        "shear-merges-for-every-x-k", "shear.py",
        "if x == 1 and dk.keys().isdisjoint(fterms):",
        "if dk.keys().isdisjoint(fterms):",
        ("tests/test_shear.py::TestShearBy::test_is_the_public_sum_with_canonical_coefficients",
         "tests/test_shear.py::TestFrameChange::test_validity_and_the_sheared_algebra_move_with_the_frame"),
    ),
    Mutant(
        "namespace-home-imports-the-name", "__init__.py",
        '"interior": "exterior",',
        '"interior": "lie",',
        ("tests/test_source.py::test_each_public_name_is_the_object_its_home_module_defines",),
    ),
    Mutant(
        "namespace-eager-geometry", "__init__.py",
        "import importlib\n",
        "import importlib\n\nfrom . import geometry\n",
        ("tests/test_source.py::test_package_import_loads_a_submodule_only_on_first_use",
         "tests/test_source.py::test_every_module_level_import_is_used"),
    ),
    Mutant(
        # the command would run with the collector off, so a long search never
        # frees its own cycles
        "entry-leaves-the-collector-off", "__main__.py",
        "    gc.enable()\n",
        "",
        ("tests/test_cli.py::TestReports"
         "::test_the_process_entry_freezes_start_up_and_runs_the_command_with_the_collector_on",),
    ),
    Mutant(
        # every collection of the command, and the one at exit, would trace the start-up heap again
        "entry-freezes-nothing", "__main__.py",
        "    gc.freeze()\n",
        "",
        ("tests/test_cli.py::TestReports"
         "::test_the_process_entry_freezes_start_up_and_runs_the_command_with_the_collector_on",),
    ),
    Mutant(
        # every process would run all three layers' module code, whatever its command
        "cli-eager-layers", "cli.py",
        'geometry, search, shear = _layer("geometry"), _layer("search"), _layer("shear")',
        "from . import geometry, search, shear",
        ("tests/test_source.py::test_each_command_runs_only_the_layers_it_uses",),
    ),
    Mutant(
        # an import inside a function, on each read: the commands still run, but a
        # layer is in sys.modules only once a command reads it, so bench/tracing.py's
        # lookup right after `import lieshear.cli` would fail
        "cli-layer-left-out-of-sys-modules", "cli.py",
        "    fullname = f\"{__package__}.{name}\"\n"
        "    if fullname in sys.modules:\n"
        "        return sys.modules[fullname]\n"
        "    spec = importlib.util.find_spec(fullname)\n"
        "    spec.loader = importlib.util.LazyLoader(spec.loader)\n"
        "    module = sys.modules[fullname] = importlib.util.module_from_spec(spec)\n"
        "    setattr(sys.modules[__package__], name, module)\n"
        "    spec.loader.exec_module(module)\n"
        "    return module\n",
        "    class Layer:\n"
        "        def __getattr__(self, attr):\n"
        "            from importlib import import_module\n"
        "            return getattr(import_module(f\"{__package__}.{name}\"), attr)\n"
        "    return Layer()\n",
        ("tests/test_source.py::test_each_command_runs_only_the_layers_it_uses",),
    ),
]


def apply(mutant: Mutant, source: Path) -> None:
    """Make the mutant's one replacement in the copy of src/lieshear at `source`."""
    path = source / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet occurs {text.count(mutant.snippet)} times in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def _limit_child() -> None:
    import resource  # POSIX only, so test_mutants.py can import this module anywhere

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run(mutant: Mutant) -> tuple[bool, str]:
    """(every killer failed, a one-line account) for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SOURCE.parent, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply(mutant, src / "lieshear")
        argv = [sys.executable, *(["-O"] if sys.flags.optimize else []), "-m", "pytest", "-q", "-rfE",
                "-p", "no:cacheprovider", "--hypothesis-profile=mutants", *mutant.killers]
        started = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
                                  capture_output=True, text=True, timeout=TIME_LIMIT_S, preexec_fn=_limit_child)
        except subprocess.TimeoutExpired:
            return True, f"killed: timed out after {TIME_LIMIT_S} s"
        took = time.monotonic() - started
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, flags=re.MULTILINE))
    alive = [node for node in mutant.killers if node not in failed]
    if proc.returncode != 1 or alive:
        tail = proc.stdout.strip().splitlines()[-1:] or proc.stderr.strip().splitlines()[-1:]
        return False, f"ALIVE after {took:.1f} s (exit {proc.returncode}): {', '.join(alive)} {tail}"
    return True, f"killed in {took:.1f} s by {len(failed)} failing tests"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    ok = True
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        killed, account = run(mutant)
        ok = ok and killed
        print(f"{mutant.name}: {account}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
