"""The CLI's cases, one row each: a document, an argv and what the run must give.

The argv is a shell line in which {doc} stands for the document's path.  The run
must exit with the row's code, print the row's lines as adjacent whole lines of
stdout, and print on stderr exactly the row's one `error: ` line ({doc} again for
the path) beside an empty stdout, or nothing.  A row marked `optimized` also
runs under `python -O`.  tests/test_cli.py runs each row in process through
lieshear.cli.main, under the test id the row's name gives.  As a script, this
runs each row through the command its arguments name, and each optimized row
also through `python -O -m lieshear`; it exits 1 if any run fails:

    python tests/cli_cases.py lieshear
"""
from __future__ import annotations

import io
import json
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

# the documents that rows and tests/test_cli.py name; README names s5, h3, glm and kahler6
DOCUMENTS = {
    "s5": "(51,52,53,2.54,0)",
    "h3": "(0,0,12)",
    "h3a": "(0,0,a.12)",
    "ab2": "(0,0)",
    "ab3": "(0,0,0)",
    "ab6": "(0,0,0,0,0,0)",
    "ab7": "(0,0,0,0,0,0,0)",
    "kahler6": "(12,0,0,0,0,0)",
    "bad": "(0,12,0,23)",
    "broken": "(13,0)",
    "glm": json.dumps({"salamon": "(s.17, l.27, m.37, 0.47+s.74, 0.57+l.75, 0.67+m.76, 0)",
                       "substitutions": {"l": "1", "m": "2", "s": "3"}}),
    "json_doc": json.dumps({"dim": 4, "d": {"3": "e12", "4": "c*e13"}, "substitutions": {"c": "2"}}),
}

PSI_LITERAL = "e1425 + e1436 + e2536 - e4567 + e4237 + e1267 + e1537"
PHI_LITERAL = "e123+e145+e167+e246-e257-e347-e356"
IDENTITY6 = ";".join(",".join("1" if i == j else "0" for j in range(6)) for i in range(6))
J6 = "0,-1,0,0,0,0;1,0,0,0,0,0;0,0,0,-1,0,0;0,0,1,0,0,0;0,0,0,0,0,-1;0,0,0,0,1,0"
# a fractional J (J E1 = 2 E2, J E2 = -1/2 E1) with its invariant metric
FRACTIONAL_KAHLER = ("--type kahler"
                     " --metric '1,0,0,0,0,0;0,1/4,0,0,0,0;0,0,1,0,0,0;0,0,0,1,0,0;0,0,0,0,1,0;0,0,0,0,0,1'"
                     " --j '0,-1/2,0,0,0,0;2,0,0,0,0,0;0,0,0,-1,0,0;0,0,1,0,0,0;0,0,0,0,0,-1;0,0,0,0,1,0'"
                     " --omega '1/2*e12 + e34 + e56'")
# every command but algebra-check refuses a document failing Jacobi; valid flags for each
GATED_COMMANDS = {
    "shear": "--x E4 --alpha e4 --f0 e12",
    "twist": "--alpha e4 --f e12",
    "form-ds": "--x E4 --alpha e4 --f0 e12 --form e1",
    "check-structure": "--type symplectic --omega e12+e34",
    "search": "--x E4 --alpha e4",
    "shear-lines": "",
}


class Text(NamedTuple):
    """A row's own document, written out where a row would otherwise name one of DOCUMENTS."""
    text: str


class Case(NamedTuple):
    name: str  # the test id under tests/test_cli.py: Class::test or Class::test[parameter id]
    document: str | Text | None  # a name in DOCUMENTS, the row's own Text, or None for a path with no file
    argv: str
    code: int = 0
    lines: tuple[str, ...] = ()
    error: str = ""  # the stderr line without its "error: " and newline
    optimized: bool = False


CASES = [
    # the docstring's last paragraph, about the module, is left out of the description
    Case("TestArgv::test_help", None, "--help",
         lines=("3 invalid construction data, 4 search-space cap exceeded.", "", "positional arguments:")),
    Case("TestAlgebraCheck::test_pass", "s5", "algebra-check {doc}",
         lines=("jacobi: pass", "classification: solvable; derived length 2")),
    Case("TestAlgebraCheck::test_jacobi_failure_exit_2", "bad", "algebra-check {doc}", 2,
         ("jacobi: FAIL", "  d2(e4) = e123")),
    # the guard's failure path: d(d e_4) = e124 is the one failure
    Case("TestAlgebraCheck::test_jacobi_guard_names_the_one_failure", Text("(0,0,12,34)"), "algebra-check {doc}", 2,
         ("  d2(e4) = e124",)),
    Case("TestAlgebraCheck::test_parse_error_exit_1", "broken", "algebra-check {doc}", 1,
         error="index 3 exceeds dimension 2 (at position 2)"),
    Case("TestAlgebraCheck::test_missing_file_exit_1", None, "algebra-check {doc}", 1,
         error="[Errno 2] No such file or directory: '{doc}'"),
    Case("TestAlgebraCheck::test_nilpotent_classification", "h3", "algebra-check {doc}",
         lines=("classification: nilpotent, solvable; step 2; derived length 2",)),
    # the series chains: one that shrinks to 0, and one that stops on its first
    # repeat, found by the rank of its brackets at the term's pivots
    Case("TestAlgebraCheck::test_a_lower_central_series_that_reaches_0", Text("(0,0,12,13,14)"), "algebra-check {doc}",
         lines=("lower-central: span{E3, E4, E5} > span{E4, E5} > span{E5} > 0",)),
    Case("TestAlgebraCheck::test_a_lower_central_series_that_stops_on_a_repeat", Text("(41,43,2.42,0)"),
         "algebra-check {doc}", lines=("lower-central: span{E1, E2, E3}",)),
    Case("TestHighDimensionDocuments::test_dim_ten_json_document",
         Text(json.dumps({"dim": 10, "d": {"3": "e[1,2]", "10": "2*e[1,9]"}})), "algebra-check {doc}",
         # shorthand falls back to the JSON form
         lines=('algebra: {"d": {"1": "0", "10": "2*e[1,9]", "2": "0", "3": "e[1,2]", "4": "0", "5": "0", '
                '"6": "0", "7": "0", "8": "0", "9": "0"}, "dim": 10}', "jacobi: pass")),
    Case("TestSubstitutions::test_document_substitutions", "glm", "algebra-check {doc}",
         lines=("algebra: (3.17,27,2.37,3.74,75,2.76,0)",)),
    Case("TestSubstitutions::test_cli_override", "glm", "algebra-check {doc} --set l=1 --set m=-1 --set s=0",
         lines=("algebra: (0,27,73,0,75,67,0)",)),
    Case("TestSubstitutions::test_json_document_with_form_literals", "json_doc", "algebra-check {doc}",
         lines=("algebra: (0,0,12,2.13)",)),
    *(Case(f"TestDocumentShape::test_wrong_shape_is_a_usage_error[{doc}]", Text(doc), "algebra-check {doc} --json", 1,
           error=message) for doc, message in {
        '{"dim":3,"d":[1,2]}': '"d" must be an object',
        '{"salamon":5}': '"salamon" must be a string',
        '{"salamon":"(0,0,12)","substitutions":[1]}': '"substitutions" must be an object of strings',
        '{"dim":3.9,"d":{"3":"e12"}}': '"dim" must be an integer',
        '{"dim":"3","d":{"3":"e12"}}': '"dim" must be an integer',
        '{"dim":true,"d":{}}': '"dim" must be an integer',
        '{"dim":3,"d":{"03":"e12"}}': 'bad generator key \'03\' in "d"',
        '{"dim":3,"d":{"\\u0663":"e12"}}': 'bad generator key \'\u0663\' in "d"',
        '{"dim":3,"d":{"4":"e12"}}': 'bad generator key \'4\' in "d"',
        '{"dim":1,"d":{}}': '"dim" must be in 2..14, got 1',
        '{"dim":15,"d":{}}': '"dim" must be in 2..14, got 15',
        '{"dim":0,"d":{}}': '"dim" must be in 2..14, got 0',
        '{"dim":-2,"d":{}}': '"dim" must be in 2..14, got -2',
        '{"dim":3,"d":{"3":["e12"]}}': '"d" must be an object of strings',
        '{"dim":3,"d":{"3":true}}': '"d" must be an object of strings',
        '{"dim":3,"d":{"3":12}}': '"d" must be an object of strings',
        '{"dim":3,"d":{"3":"e12","4":{}}}': '"d" must be an object of strings',
    }.items()),
    # a substitution name that is a monomial or a frame vector, from a document or from --set
    *(Case(f"TestDocumentShape::test_input_error_is_one_line[{name}]", doc, f"algebra-check {{doc}} {flags}", 1,
           error=message) for name, doc, flags, message in [
        ("substitution-name", "h3", "--set 1x=2", "bad substitution name '1x'"),
        ("monomial-name",
         Text(json.dumps({"dim": 4, "d": {"3": "e12", "4": "c*e13"}, "substitutions": {"c": "2", "e12": "5"}})), "",
         "bad substitution name 'e12'"),
        ("frame-vector-name", "json_doc", "--set E1=5", "bad substitution name 'E1'"),
        ("deep-nesting", Text('{"salamon": ' + "[" * 100_000 + "]" * 100_000 + "}"), "", "document nests too deeply"),
    ]),
    Case("TestShearCommand::test_golden", "s5", "shear {doc} --x E4 --alpha e4 --f0 e13 --a -1",
         lines=("sheared: (51,52,53,13+2.54,0)",)),
    Case("TestShearCommand::test_golden", "s5", "shear {doc} --x E4 --alpha e4 --f0 e13",
         lines=("sheared: (51,52,53,13+2.54,0)",)),
    # the JSON report, whose values TestReports::test_json_mode reads
    Case("TestShearCommand::test_json_report", "s5", "shear {doc} --x E4 --alpha e4 --f0 e13 --json"),
    Case("TestShearCommand::test_decomposable_deformation", "s5", "shear {doc} --x E4 --alpha e4 --f0 -2*e54",
         lines=("sheared: (51,52,53,0,0)",)),
    Case("TestShearCommand::test_bad_alpha_exit_3", "s5", "shear {doc} --x E4 --alpha e5 --f0 e13", 3,
         error="alpha(X) must be 1, got 0"),
    # a form literal whose terms cancel is the zero form of the expected degree, as 0 is
    *(Case(f"TestShearCommand::test_a_cancelled_alpha_is_the_zero_one_form[{alpha}-command{k}]", "s5",
           f"{command} {{doc}} --x E4 --alpha {shlex.quote(alpha)} {flags}", 3, error="alpha(X) must be 1, got 0")
      for alpha in ["0", "e12-e12", "e12 - e12 + 0*e3"]
      for k, (command, flags) in enumerate([("shear", "--f0 e13"), ("search", "")])),
    *(Case(f"TestJacobiGate::test_jacobi_gate[{command}]", "bad", f"{command} {{doc}} --json {flags}", 2,
           error="input algebra fails the Jacobi identity") for command, flags in GATED_COMMANDS.items()),
    Case("TestTwistCommand::test_golden_pair", "h3", "twist {doc} --alpha e3 --f -e12", lines=("twisted: (0,0,0)",)),
    Case("TestTwistCommand::test_golden_pair", "ab3", "twist {doc} --alpha e3 --f e12", lines=("twisted: (0,0,12)",)),
    Case("TestTwistCommand::test_v1_violation_exit_3", "h3", "twist {doc} --alpha e3 --f e13", 3,
         error="F is not in Lambda^2 V1: i_v F = -e1 for v = E3"),
    Case("TestTwistCommand::test_alpha_inside_v1_exit_3", "h3", "twist {doc} --alpha e1 --f e12", 3,
         error="alpha must lie outside V1"),
    Case("TestFormDs::test_psi_transfer", "glm", f"form-ds {{doc}} --x E1 --alpha e1 --f0 e23 --a -1 "
         f"--form '{PSI_LITERAL}'", lines=("ds: 0",)),
    Case("TestFormDs::test_omega_transfer", "ab6", "form-ds {doc} --x E1 --alpha e1 --f0 e12 --form e12+e34+e56",
         lines=("ds: 0",)),
    # d(e15) = e51 ^ e5 = 0
    Case("TestFormDs::test_no_x_leg_gives_plain_d", "s5", "form-ds {doc} --x E4 --alpha e4 --f0 e13 --form e15",
         lines=("ds: 0",)),
    Case("TestFormDs::test_zero_form", "s5", "form-ds {doc} --x E4 --alpha e4 --f0 e13 --form 0",
         lines=("form: 0", "ds: 0")),
    Case("TestCheckStructure::test_g2_cocal", "glm", f"check-structure {{doc}} --type g2-cocal --psi '{PSI_LITERAL}'",
         lines=("passed: pass",)),
    Case("TestCheckStructure::test_kahler_standard", "kahler6", "check-structure {doc} --type kahler --standard",
         lines=("passed: pass",)),
    # symplectic nondegeneracy, read off the rank of omega's matrix: e12+e34 is
    # degenerate on dimension 6, and the standard omega is not
    Case("TestCheckStructure::test_symplectic_fail_is_exit_0", "ab6",
         "check-structure {doc} --type symplectic --omega e12+e34", lines=("passed: FAIL",)),
    Case("TestCheckStructure::test_symplectic_standard", "ab6", "check-structure {doc} --type symplectic --standard",
         lines=("passed: pass",)),
    # N of the fractional J vanishes on (0,0,0,0,12,34), where omega is not closed, and not on (0,0,0,0,13,24)
    Case("TestCheckStructure::test_a_fractional_j", Text("(0,0,0,0,12,34)"),
         f"check-structure {{doc}} {FRACTIONAL_KAHLER}",
         lines=("  omega_closed: FAIL", "  nijenhuis_vanishes: pass")),
    Case("TestCheckStructure::test_a_fractional_j", Text("(0,0,0,0,13,24)"),
         f"check-structure {{doc}} {FRACTIONAL_KAHLER}",
         lines=("  nijenhuis_vanishes: FAIL",)),
    Case("TestCheckStructure::test_g2_phi", "glm", f"check-structure {{doc}} --type g2-phi --phi {PHI_LITERAL}",
         lines=("definiteness: positive",)),
    # definiteness by Sylvester's pivots, both signs: B of -phi, cubic in phi, is negative definite
    Case("TestCheckStructure::test_definiteness_of_both_signs", "ab7",
         f"check-structure {{doc}} --type g2-phi --phi {PHI_LITERAL}", lines=("definiteness: positive",)),
    Case("TestCheckStructure::test_definiteness_of_both_signs", "ab7",
         "check-structure {doc} --type g2-phi --phi='-e123-e145-e167-e246+e257+e347+e356'",
         lines=("definiteness: negative",)),
    Case("TestCheckStructure::test_half_flat", "ab6",
         "check-structure {doc} --type half-flat --omega e12+e34+e56 --rho-minus e235+e145+e136-e246",
         lines=("passed: pass",)),
    *(Case(f"TestCheckStructure::test_usage_error[{doc}-flags{k}-{message}]", doc,
           f"check-structure {{doc}} {flags}", 1, error=message) for k, (doc, flags, message) in enumerate([
        ("ab6", "--type symplectic", "symplectic structure needs forms: omega"),
        ("ab6", "--type kahler", "kahler structure needs forms: omega"),
        ("ab6", "--type half-flat", "half-flat structure needs forms: omega, rho_minus"),
        ("ab6", "--type half-flat --omega e12", "half-flat structure needs forms: rho_minus"),
        ("ab6", "--type half-flat --rho-minus e123", "half-flat structure needs forms: omega"),
        ("glm", "--type g2-cocal", "g2-cocal structure needs forms: psi"),
        ("glm", "--type g2-phi", "g2-phi structure needs forms: phi"),
        ("ab6", "--type kahler --omega e12", "kahler structure needs a metric and a complex structure"),
        ("ab6", f"--type kahler --omega e12 --metric '{IDENTITY6}'",
         "kahler structure needs a metric and a complex structure"),
        ("ab6", f"--type kahler --omega e12 --j '{J6}'", "kahler structure needs a metric and a complex structure"),
        ("ab6", "--type g2-phi --phi e123", "g2-phi check needs a dimension-7 algebra"),
        ("ab3", "--type kahler --standard", "--standard needs an even dimension"),
        ("ab3", "--type symplectic --standard", "--standard needs an even dimension"),
        # a zero four-form exists on any frame, so the dimension gate is what refuses it
        ("ab2", "--type g2-cocal --psi 0", "co-calibrated structures live in dimension 7"),
    ])),
    Case("TestSearchCommand::test_reproduces_deformation", "s5",
         "search {doc} --x E4 --alpha e4 --support e12,e13,e15,e23,e25,e35 --max-terms 1",
         lines=("  F0 = e13 -> (51,52,53,13+2.54,0)",)),
    Case("TestSearchCommand::test_psi_preserving", "glm",
         f"search {{doc}} --x E1 --alpha e1 --preserve '{PSI_LITERAL}'",
         lines=("  F0 = e23 -> (3.17+23,27,2.37,3.74,75,2.76,0)",)),
    # the X-leg preservation test of the search
    Case("TestSearchCommand::test_x_legs_and_a_preserved_form", "s5",
         "search {doc} --x E4 --alpha e4 --support e12,e14,e45 --preserve e1245 --max-terms 2",
         lines=("hits: 5", "  F0 = 0 -> (51,52,53,2.54,0)", "  F0 = -e12 -> (51,52,53,21+2.54,0)",
                "  F0 = e12 -> (51,52,53,12+2.54,0)", "  F0 = -e45 -> (51,52,53,3.54,0)",
                "  F0 = e45 -> (51,52,53,54,0)")),
    # the reference search: every candidate of the box is a leg-free hit.  Under
    # python -O each hit's algebra is still built behind the Jacobi guard, which
    # raises rather than asserts
    Case("TestSearchCommand::test_the_reference_box_is_all_hits", "s5",
         "search {doc} --x E4 --alpha e4 --max-terms 3 --coeffs=-2,-1,0,1,2",
         lines=("candidates: 1545", "hits: 1545"), optimized=True),
    Case("TestSearchCommand::test_cap_exit_4", "ab6", "search {doc} --x E1 --alpha e1 --max-terms 6 --cap 10", 4,
         error="search space has 26025 candidates, cap is 10"),
    *(Case(f"TestSearchCommand::test_zero_constant_exit_3[{doc}-{x}]", doc,
           f"search {{doc}} --x {x} --alpha {x.lower()} --a 0", 3, error="transfer constant a must be nonzero")
      for doc, x in [("s5", "E4"), ("h3", "E3")]),
    *(Case(f"TestSearchCommand::test_usage_error[flags{k}-{message}]", "h3",
           f"search {{doc}} --x E3 --alpha e3 {flags}", 1, error=message) for k, (flags, message) in enumerate([
        ("--cap -1", "cap must be nonnegative"),
        ("--coeffs 0,1/0", "bad rational '1/0': zero denominator"),
        ("--support e33", "repeated index 3"),
        ("--support 2*e12", "support entries must be bare monomials, got '2*e12'"),
    ])),
    Case("TestShearLines::test_solvable", "s5", "shear-lines {doc}",
         lines=("  eigenvalues (-2): span{E4}", "  eigenvalues (-1): span{E1, E2, E3}")),
    # E4 acts on the frame by a 1x1 block (-1) and a 2x2 block with roots +-sqrt(2),
    # so one rational line and an irrational leftover
    Case("TestShearLines::test_an_irrational_leftover", Text("(41,43,2.42,0)"), "shear-lines {doc}",
         lines=("  eigenvalues (-1): span{E1}", "nonrational_present: yes")),
    # a doubled root 1 with a Jordan block, and a root 2 reached from no other
    # row, whose eigenspace is taken on that one row, U_2 = {E3}
    Case("TestShearLines::test_a_jordan_block_and_a_lone_root", Text("(14,14+24,24+2.34,0)"), "shear-lines {doc}",
         lines=("  eigenvalues (1): span{E2 - E3}", "  eigenvalues (2): span{E3}")),
    # E3 acts on span{E1} by -2, whose primitive multiple -1 the eigen step scales back, and E2 by 0
    Case("TestShearLines::test_an_action_with_a_common_factor", Text("(2.31,0,0)"), "shear-lines {doc}",
         lines=("  eigenvalues (0, -2): span{E1}",)),
    *(Case("TestShearLines::test_abelian_exit_3", doc, "shear-lines {doc}", 3,
           error="abelian algebra has no canonical line") for doc in ["ab3", "ab6"]),
    Case("TestShearLines::test_non_solvable_exit_3", Text("(23,-13,12)"), "shear-lines {doc}", 3,
         error="shear lines require a solvable algebra"),
    Case("TestReports::test_space_inside_a_rational_is_refused", "h3",
         "shear {doc} --x E3 --alpha e3 --f0 e12 --a '1 2'", 1,
         error="bad rational '1 2': expected an integer, p/q or a decimal"),
    Case("TestReports::test_usage_error_exit_1", None, "shear", 1,
         error="the following arguments are required: file, --x, --alpha, --f0"),
    # digits are ASCII [0-9]: other scripts' digits are refused, never read as
    # numbers and never passed to int()
    *(Case(f"TestNonAsciiDigits::test_refused_in_one_error_line[{doc}-flags{k}-{message}]", Text(doc), argv, 1,
           error=message) for k, (doc, argv, message) in enumerate([
        ("(0,0,\u00b9\u00b2)", "algebra-check {doc}", "expected an index pair of two digits (at position 5)"),
        ("(0,0,\u0661\u0662)", "algebra-check {doc}", "expected an index pair of two digits (at position 5)"),
        ("(0,0,\u00b2/3.12)", "algebra-check {doc}", "expected an index pair of two digits (at position 5)"),
        (json.dumps({"dim": 3, "d": {"3": "e\u00b9\u00b2"}}), "algebra-check {doc}",
         "expected digit indices, got '\u00b9\u00b2'"),
        (json.dumps({"dim": 3, "d": {"3": "e\u0661\u0662"}}), "algebra-check {doc}",
         "expected digit indices, got '\u0661\u0662'"),
        ("(0,0,12)", "shear {doc} --x E\u00b9 --alpha e3 --f0 e12", "bad frame index in 'E\u00b9'"),
        ("(0,0,12)", "shear {doc} --x E3 --alpha e3 --f0 e\u00b9\u00b2", "expected digit indices, got '\u00b9\u00b2'"),
        ("(0,0,12)", "shear {doc} --x E3 --alpha e3 --f0 e12 --a \u0662",
         "bad rational '\u0662': digits must be ASCII"),
        ("(0,0,12)", "shear {doc} --x E3 --alpha e3 --f0 'e12 -'", "malformed expression 'e12 -'"),
        ("(0,0,12)", "shear {doc} --x E3 --alpha e3 --f0 e12 --a 1/0", "bad rational '1/0': zero denominator"),
        ("(0,0,12)", "shear {doc} --x E3 --alpha e3 --f0 1/0*e12", "bad rational '1/0': zero denominator"),
        ("(0,0,12)", "search {doc} --x E3 --alpha e3 --coeffs ,",
         "bad rational '': expected an integer, p/q or a decimal"),
        ("(0,0,12)", "search {doc} --x E3 --alpha e3 --coeffs 0,,1",
         "bad rational '': expected an integer, p/q or a decimal"),
        ("(0,0,12)", "shear {doc} --x E3 --alpha e3 --f0 'e13 + 1'", "expected a monomial like e13, got '1'"),
    ])),
]


def _prepare(case: Case, directory: Path) -> tuple[str, list[str]]:
    """The document's path, its file written unless the row has none, and the argv naming it."""
    path = directory / ("doc.alg" if case.document is not None else "missing.alg")
    if case.document is not None:
        text = case.document.text if isinstance(case.document, Text) else DOCUMENTS[case.document]
        path.write_text(text, encoding="utf-8")
    return str(path), [str(path) if arg == "{doc}" else arg for arg in shlex.split(case.argv)]


def mismatches(case: Case, path: str, code: int, out: str, err: str) -> list[str]:
    """How one run of the row differs from what the row expects; empty when it passes."""
    expected_err = f"error: {case.error}\n".replace("{doc}", path) if case.error else ""
    found = [] if code == case.code else [f"exit {code}, expected {case.code}"]
    if case.lines and "\n".join(["", *case.lines, ""]) not in f"\n{out}":
        found.append(f"stdout lacks the adjacent lines {case.lines!r}")
    if err != expected_err:
        found.append(f"stderr {err!r}, expected {expected_err!r}")
    if case.error and out:
        found.append(f"stdout {out[:200]!r} beside the error line")
    return found


def run_in_process(case: Case, directory: Path) -> list[str]:
    """Run the row through lieshear.cli.main in this interpreter."""
    from lieshear.cli import main

    path, argv = _prepare(case, directory)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends --help with SystemExit
            code = exc.code
    return mismatches(case, path, code, out.getvalue(), err.getvalue())


def run_commands(cases: list[Case], prefix: list[str]) -> list[str]:
    """Run each row through `prefix` and each optimized row also through python -O -m lieshear;
    one line for each failing run."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            for command in [prefix, *([[sys.executable, "-O", "-m", "lieshear"]] if case.optimized else [])]:
                path, argv = _prepare(case, Path(tmp))
                proc = subprocess.run([*command, *argv], capture_output=True, encoding="utf-8")
                found = mismatches(case, path, proc.returncode, proc.stdout, proc.stderr)
                if found:
                    failures.append(f"FAIL {case.name} ({shlex.join(command)} {case.argv}): {'; '.join(found)}")
    return failures


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/cli_cases.py COMMAND [ARGUMENT ...]")
    failures = run_commands(CASES, sys.argv[1:])
    print(*failures, f"{len(failures)} failing runs of {len(CASES)} rows", sep="\n")
    sys.exit(1 if failures else 0)
