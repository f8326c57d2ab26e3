import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from corpus import mono, reference_det, reference_enumerate_f0, replaced, two_step_document
from lieshear import KForm, SearchSpec, Vector, cli, linalg, parse_salamon
from lieshear.cli import _VALUE_FLAGS, UsageError, _normalize_argv, build_parser, main

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

PSI_LITERAL = "e1425 + e1436 + e2536 - e4567 + e4237 + e1267 + e1537"
PHI_LITERAL = "e123+e145+e167+e246-e257-e347-e356"
IDENTITY6 = ";".join(",".join("1" if i == j else "0" for j in range(6)) for i in range(6))
J6 = "0,-1,0,0,0,0;1,0,0,0,0,0;0,0,0,-1,0,0;0,0,1,0,0,0;0,0,0,0,0,-1;0,0,0,0,1,0"
MINUS_J6 = ";".join(",".join(str(-int(v)) for v in row.split(",")) for row in J6.split(";"))

# text reports pinned byte for byte, one file each in tests/golden/
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_TEXT = {
    "algebra-check": ["algebra-check", "glm.alg"],
    "shear": ["shear", "s5.alg", "--x", "E4", "--alpha", "e4", "--f0", "1/3*e13", "--a", "2/7",
              "--eta-g", "e5"],
    "shear-invalid": ["shear", "s5.alg", "--x", "E4", "--alpha", "e4", "--f0", "e14"],
    "twist": ["twist", "h3.alg", "--alpha", "e3", "--f", "-e12"],
    "form-ds": ["form-ds", "s5.alg", "--x", "E4", "--alpha", "e4", "--f0", "e13",
                "--form", "e15 - 2/3*e24"],
    "check-structure-kahler": ["check-structure", "kahler6.alg", "--type", "kahler", "--standard"],
    "check-structure-half-flat": ["check-structure", "ab6.alg", "--type", "half-flat",
                                  "--omega", "e12+e34+e56", "--rho-minus", "e235+e145+e136-e246"],
    "check-structure-g2-phi": ["check-structure", "glm.alg", "--type", "g2-phi", "--phi", PHI_LITERAL],
    "search": ["search", "s5.alg", "--x", "E4", "--alpha", "e4", "--max-terms", "2",
               "--coeffs", "-1,0,1/2", "--support", "e12,e13,e15"],
    "shear-lines": ["shear-lines", "glm.alg"],
    # X-leg monomials e14, e45 beside leg-free ones, a != -1 and a preserved form
    "search-preserve-legs": ["search", "s5.alg", "--x", "E4", "--alpha", "e4", "--support",
                             "e12,e23,e14,e45,e15", "--a", "2", "--preserve", "e145",
                             "--max-terms", "2"],
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "s5": "(51,52,53,2.54,0)",
        "h3": "(0,0,12)",
        "h3a": "(0,0,a.12)",
        "ab2": "(0,0)",
        "ab3": "(0,0,0)",
        "ab6": "(0,0,0,0,0,0)",
        "kahler6": "(12,0,0,0,0,0)",
        "bad": "(0,12,0,23)",
        "broken": "(13,0)",
        "glm": json.dumps({
            "salamon": "(s.17, l.27, m.37, 0.47+s.74, 0.57+l.75, 0.67+m.76, 0)",
            "substitutions": {"l": "1", "m": "2", "s": "3"},
        }),
        "json_doc": json.dumps({
            "dim": 4,
            "d": {"3": "e12", "4": "c*e13"},
            "substitutions": {"c": "2"},
        }),
    }.items():
        p = tmp_path / f"{name}.alg"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def subparsers(parser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def subcommands(parser) -> dict[str, argparse.ArgumentParser]:
    return subparsers(parser).choices


def parser_surface(parser) -> dict:
    """Each subcommand's help and every action's argparse fields, as JSON values.

    The raw --help text wraps differently across Python versions; this does not."""
    def actions(p):
        return [{"option_strings": a.option_strings, "dest": a.dest, "required": a.required,
                 "default": a.default, "choices": None if a.choices is None else list(a.choices),
                 "help": a.help, "takes_value": a.nargs != 0, "metavar": a.metavar,
                 "type": getattr(a.type, "__name__", None)} for a in p._actions]
    sub = subparsers(parser)
    helps = {pseudo.dest: pseudo.help for pseudo in sub._get_subactions()}
    return {"actions": actions(parser),
            "commands": {name: {"help": helps[name], "actions": actions(p)}
                         for name, p in sub.choices.items()}}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAlgebraCheck:
    def test_pass(self, capsys, files):
        code, out, _ = run(capsys, "algebra-check", files["s5"])
        assert code == 0
        assert "jacobi: pass" in out
        assert "solvable" in out and "derived length 2" in out

    def test_jacobi_failure_exit_2(self, capsys, files):
        code, out, _ = run(capsys, "algebra-check", files["bad"])
        assert code == 2
        assert "jacobi: FAIL" in out
        assert "d2(e4) = e123" in out

    def test_parse_error_exit_1(self, capsys, files):
        code, _, err = run(capsys, "algebra-check", files["broken"])
        assert code == 1
        assert "exceeds dimension" in err

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "algebra-check", str(tmp_path / "nope.alg"))
        assert code == 1

    def test_nilpotent_classification(self, capsys, files):
        code, out, _ = run(capsys, "algebra-check", files["h3"])
        assert code == 0
        assert "nilpotent" in out and "step 2" in out

    def test_400_digit_brackets_finish_with_the_recorded_result(self, tmp_path):
        # the 21 rows spanning [g, g] each hold one index pair's 400-digit
        # coefficients; scaled by the lcm of all 147 denominators, about 58k
        # digits, one elimination of them took 8 s.  The digest was recorded
        # while the rows carried that scale: their own denominators must give
        # the same result
        doc = tmp_path / "two_step.json"
        doc.write_text(json.dumps(two_step_document(random.Random(400), 400)))
        proc = subprocess.run([sys.executable, "-m", "lieshear", "algebra-check", str(doc), "--json"],
                              capture_output=True, text=True, timeout=5)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)["result"]
        assert result["classification"]["nilpotent"] and len(result["lower_central"]) == 2
        digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
        assert digest == "ae91db104d6a310817bd5bf0c86cf49f84ef82af983914898bf68163c3c8fcdb"


class TestSubstitutions:
    def test_document_substitutions(self, capsys, files):
        code, out, _ = run(capsys, "algebra-check", files["glm"])
        assert code == 0
        assert "algebra: (3.17,27,2.37,3.74,75,2.76,0)" in out

    def test_cli_override(self, capsys, files):
        code, out, _ = run(capsys, "algebra-check", files["glm"],
                           "--set", "l=1", "--set", "m=-1", "--set", "s=0")
        assert code == 0
        assert "algebra: (0,27,73,0,75,67,0)" in out

    def test_json_document_with_form_literals(self, capsys, files):
        code, out, _ = run(capsys, "algebra-check", files["json_doc"])
        assert code == 0
        assert "algebra: (0,0,12,2.13)" in out

    @pytest.mark.parametrize("name", ["e", "c"])
    def test_a_name_before_a_bracket_is_left_to_the_monomial(self, capsys, tmp_path, name):
        # the e of e[1,2] is not the parameter e, which replaces only the bare name
        p = tmp_path / "d10.alg"
        p.write_text(json.dumps({"dim": 10, "d": {"10": f"{name} * e[1,2]"}, "substitutions": {name: "2"}}))
        code, out, err = run(capsys, "algebra-check", str(p), "--json")
        assert (code, err) == (0, "")
        assert json.loads(json.loads(out)["result"]["algebra"])["d"]["10"] == "2*e[1,2]"


WRONG_SHAPE_DOCUMENTS = {
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
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 20) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
documents = st.fixed_dictionaries({}, optional={
    "salamon": st.sampled_from(["(0,0,12)", "(0,0,a)", "(13,0)", ""]) | json_values,
    "dim": st.integers(-1, 15) | json_values,
    "d": st.dictionaries(st.sampled_from(["1", "2", "3", "0", "x"]),
                         st.sampled_from(["e12", "a*e12", "0", "", "e1"]) | json_values,
                         max_size=3) | json_values,
    "substitutions": st.dictionaries(st.sampled_from(["a", "b", "1x"]),
                                     st.sampled_from(["1", "1/2", "x"]) | json_values,
                                     max_size=2) | json_values,
})


class TestDocumentShape:
    @pytest.mark.parametrize("text", list(WRONG_SHAPE_DOCUMENTS))
    def test_wrong_shape_is_a_usage_error(self, capsys, tmp_path, text):
        p = tmp_path / "doc.alg"
        p.write_text(text)
        code, out, err = run(capsys, "algebra-check", str(p), "--json")
        assert (code, out) == (1, "")
        assert err == f"error: {WRONG_SHAPE_DOCUMENTS[text]}\n"

    @pytest.mark.parametrize("doc, flags, message", [
        ("(0,0,12)", ["--set", "1x=2"], "bad substitution name '1x'"),
        # a name that is a monomial or a frame vector, from a document or from --set
        (json.dumps({"dim": 4, "d": {"3": "e12", "4": "c*e13"}, "substitutions": {"c": "2", "e12": "5"}}), [],
         "bad substitution name 'e12'"),
        (json.dumps({"dim": 4, "d": {"3": "e12", "4": "c*e13"}, "substitutions": {"c": "2"}}), ["--set", "E1=5"],
         "bad substitution name 'E1'"),
        ('{"salamon": ' + "[" * 100_000 + "]" * 100_000 + "}", [], "document nests too deeply"),
    ], ids=["substitution-name", "monomial-name", "frame-vector-name", "deep-nesting"])
    def test_input_error_is_one_line(self, capsys, tmp_path, doc, flags, message):
        p = tmp_path / "doc.alg"
        p.write_text(doc)
        code, out, err = run(capsys, "algebra-check", str(p), *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @given(documents, st.sampled_from(["algebra-check", "shear-lines"]),
           st.lists(st.sampled_from(["a=2", "b=1/2", "a", "1x=3", "a=x"]), max_size=2))
    def test_any_document_ends_in_a_documented_exit_code(self, doc, command, sets):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.alg"
            path.write_text(json.dumps(doc))
            argv = [command, str(path), "--json"] + [f"--set={s}" for s in sets]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        assert code in range(5)
        assert "Traceback" not in err.getvalue()


class TestShearCommand:
    def test_golden(self, capsys, files):
        code, out, _ = run(capsys, "shear", files["s5"],
                           "--x", "E4", "--alpha", "e4", "--f0", "e13", "--a", "-1")
        assert code == 0
        assert "sheared: (51,52,53,13+2.54,0)" in out

    def test_decomposable_deformation(self, capsys, files):
        code, out, _ = run(capsys, "shear", files["s5"],
                           "--x", "E4", "--alpha", "e4", "--f0", "-2*e54")
        assert code == 0
        assert "sheared: (51,52,53,0,0)" in out

    def test_invalid_exit_3_with_table(self, capsys, files):
        code, out, _ = run(capsys, "shear", files["s5"],
                           "--x", "E4", "--alpha", "e4", "--f0", "e14")
        assert code == 3
        assert "eta0_closed: FAIL" in out
        assert "valid: FAIL" in out
        assert "sheared:" not in out

    def test_validate_only(self, capsys, files):
        code, out, _ = run(capsys, "shear", files["s5"], "--validate-only",
                           "--x", "E4", "--alpha", "e4", "--f0", "e13")
        assert code == 0
        assert "valid: pass" in out
        assert "sheared:" not in out

    def test_bad_alpha_exit_3(self, capsys, files):
        code, _, err = run(capsys, "shear", files["s5"],
                           "--x", "E4", "--alpha", "e5", "--f0", "e13")
        assert code == 3
        assert "alpha(X)" in err

    @pytest.mark.parametrize("command", [["shear", "--f0", "e13"], ["search"]])
    @pytest.mark.parametrize("alpha", ["0", "e12-e12", "e12 - e12 + 0*e3"])
    def test_a_cancelled_alpha_is_the_zero_one_form(self, capsys, files, command, alpha):
        code, out, err = run(capsys, command[0], files["s5"], "--x", "E4", "--alpha", alpha, *command[1:])
        assert (code, out, err) == (3, "", "error: alpha(X) must be 1, got 0\n")


GATED_COMMANDS = {
    "shear": ["--x", "E4", "--alpha", "e4", "--f0", "e12"],
    "twist": ["--alpha", "e4", "--f", "e12"],
    "form-ds": ["--x", "E4", "--alpha", "e4", "--f0", "e12", "--form", "e1"],
    "check-structure": ["--type", "symplectic", "--omega", "e12+e34"],
    "search": ["--x", "E4", "--alpha", "e4"],
    "shear-lines": [],
}


class TestJacobiGate:
    @pytest.mark.parametrize("command", list(GATED_COMMANDS))
    def test_jacobi_gate(self, capsys, files, command):
        code, out, err = run(capsys, command, files["bad"], "--json", *GATED_COMMANDS[command])
        assert (code, out) == (2, "")
        assert err == "error: input algebra fails the Jacobi identity\n"

    def test_every_other_command_is_gated(self):
        assert set(subcommands(build_parser())) == {"algebra-check", *GATED_COMMANDS}


class TestTwistCommand:
    def test_golden_pair(self, capsys, files):
        code, out, _ = run(capsys, "twist", files["h3"], "--alpha", "e3", "--f", "-e12")
        assert code == 0 and "twisted: (0,0,0)" in out
        code, out, _ = run(capsys, "twist", files["ab3"], "--alpha", "e3", "--f", "e12")
        assert code == 0 and "twisted: (0,0,12)" in out

    def test_v1_violation_exit_3(self, capsys, files):
        code, out, err = run(capsys, "twist", files["h3"], "--alpha", "e3", "--f", "e13")
        assert (code, out) == (3, "")
        assert err == "error: F is not in Lambda^2 V1: i_v F = -e1 for v = E3\n"

    def test_alpha_inside_v1_exit_3(self, capsys, files):
        code, out, err = run(capsys, "twist", files["h3"], "--alpha", "e1", "--f", "e12")
        assert (code, out, err) == (3, "", "error: alpha must lie outside V1\n")

    def test_invalid_shear_report_names_command_and_input(self, capsys, files, monkeypatch):
        from lieshear import shear

        validate = shear.validate_shear
        monkeypatch.setattr(shear, "validate_shear",
                            lambda *a, **k: replaced(validate(*a, **k), valid=False))
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if file == files["h3"]:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        code, out, _ = run(capsys, "twist", files["h3"], "--alpha", "e3", "--f", "-e12", "--json")
        assert code == 3
        assert opened == [files["h3"]]  # the report reuses the one read
        report = json.loads(out)
        assert report["command"] == "twist"
        assert report["input"] == {
            "path": files["h3"],
            "sha256": hashlib.sha256(Path(files["h3"]).read_bytes()).hexdigest(),
        }
        assert report["exit_status"] == 3 and report["result"]["report"]["valid"] is False


class TestFormDs:
    def test_psi_transfer(self, capsys, files):
        code, out, _ = run(capsys, "form-ds", files["glm"],
                           "--x", "E1", "--alpha", "e1", "--f0", "e23", "--a", "-1",
                           "--form", PSI_LITERAL)
        assert code == 0
        assert "ds: 0" in out

    def test_omega_transfer(self, capsys, files):
        code, out, _ = run(capsys, "form-ds", files["ab6"],
                           "--x", "E1", "--alpha", "e1", "--f0", "e12",
                           "--form", "e12+e34+e56")
        assert code == 0
        assert "ds: 0" in out

    def test_no_x_leg_gives_plain_d(self, capsys, files):
        code, out, _ = run(capsys, "form-ds", files["s5"],
                           "--x", "E4", "--alpha", "e4", "--f0", "e13",
                           "--form", "e15")
        assert code == 0
        assert "ds: 0" in out  # d(e15) = e51 ^ e5 = 0

    def test_zero_form(self, capsys, files):
        code, out, _ = run(capsys, "form-ds", files["s5"],
                           "--x", "E4", "--alpha", "e4", "--f0", "e13", "--form", "0")
        assert code == 0
        assert "form: 0\nds: 0\n" in out


class TestCheckStructure:
    def test_g2_cocal(self, capsys, files):
        code, out, _ = run(capsys, "check-structure", files["glm"],
                           "--type", "g2-cocal", "--psi", PSI_LITERAL)
        assert code == 0
        assert "passed: pass" in out

    def test_kahler_standard(self, capsys, files):
        code, out, _ = run(capsys, "check-structure", files["kahler6"],
                           "--type", "kahler", "--standard")
        assert code == 0
        assert "passed: pass" in out

    def test_a_metric_with_120_digit_entries_finishes(self, tmp_path):
        # a 12x12 diagonally dominant metric whose numerators and denominators
        # all have 120 digits, about 35 KB of literal: its pivots stay bounded by
        # minors of the row-scaled matrix, where a char poly of the matrix
        # cleared by the lcm of all its denominators took minutes
        rng = random.Random(120)
        n = 12
        gram = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            # below 1.35 off the diagonal of a row in all, above 2.5 on it
            gram[i][i] = Fraction(rng.randrange(5 * 10**119, 10**120), rng.randrange(10**119, 2 * 10**119))
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = Fraction(rng.choice((-1, 1)) * rng.randrange(10**119, 11 * 10**118),
                                                   rng.randrange(9 * 10**119, 10**120))
        doc = tmp_path / "flat12.json"
        doc.write_text(json.dumps({"dim": n, "d": {}}))
        literal = ";".join(",".join(map(str, row)) for row in gram)
        proc = subprocess.run(
            [sys.executable, "-m", "lieshear", "check-structure", str(doc), "--type", "kahler", "--standard",
             "--metric", literal],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert "  metric_positive_definite: pass" in proc.stdout.splitlines()

    @pytest.mark.parametrize("flag, value, failed", [
        # diag(2, 1, ..., 1): metric(J., .) is not a two-form, so omega cannot equal it
        ("--metric", IDENTITY6.replace("1", "2", 1), ["metric_j_invariant", "omega_equals_metric_j"]),
        ("--j", MINUS_J6, ["omega_equals_metric_j"]),
    ], ids=["metric", "j"])
    def test_an_explicit_part_replaces_the_standard_one(self, capsys, files, flag, value, failed):
        # README: --metric and --j each replace their part of --standard, and
        # each of these fails the checks named
        code, out, _ = run(capsys, "check-structure", files["kahler6"], "--type", "kahler", "--standard",
                           flag, value, "--json")
        result = json.loads(out)["result"]
        assert (code, result["passed"]) == (0, False)
        assert [name for name, ok in result["checks"].items() if not ok] == failed

    @pytest.mark.parametrize("rank, verdict", [(14, "pass"), (12, "FAIL")], ids=["nondegenerate", "rank-12"])
    def test_a_dense_omega_with_100_digit_parts_finishes(self, tmp_path, rank, verdict):
        # all 91 terms of a dim-14 omega are p/q with 100-digit p and q, about
        # 19 KB of literal; the rank of omega's matrix decides the check, where
        # the wedge powers up to omega^7 took over a minute.  The rank-12 form
        # repeats E_13 . omega as E_14 . omega, so E_13 - E_14 is in its kernel
        rng = random.Random(14)
        n = 14
        w = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w[i][j] = Fraction(rng.choice((-1, 1)) * rng.randrange(10**99, 10**100),
                                   rng.randrange(10**99, 10**100))
                w[j][i] = -w[i][j]
        if rank == 12:
            for i in range(n - 2):
                w[i][n - 1], w[n - 1][i] = w[i][n - 2], w[n - 2][i]
            w[n - 2][n - 1] = w[n - 1][n - 2] = Fraction(0)
        assert (reference_det(w) != 0) == (rank == n) and reference_det([row[:12] for row in w[:12]]) != 0
        omega = KForm(n, 2, {(1 << i) | (1 << j): w[i][j] for i in range(n) for j in range(i + 1, n)})
        doc = tmp_path / "flat14.json"
        doc.write_text(json.dumps({"dim": n, "d": {}}))
        proc = subprocess.run(
            [sys.executable, "-m", "lieshear", "check-structure", str(doc), "--type", "symplectic",
             "--omega", str(omega)],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert f"passed: {verdict}" in proc.stdout.splitlines()

    def test_symplectic_fail_is_exit_0(self, capsys, files):
        code, out, _ = run(capsys, "check-structure", files["ab6"],
                           "--type", "symplectic", "--omega", "e12+e34")
        assert code == 0
        assert "passed: FAIL" in out

    def test_g2_phi(self, capsys, files):
        code, out, _ = run(capsys, "check-structure", files["glm"],
                           "--type", "g2-phi", "--phi", PHI_LITERAL)
        assert code == 0
        assert "definiteness: positive" in out

    def test_half_flat(self, capsys, files):
        code, out, _ = run(capsys, "check-structure", files["ab6"],
                           "--type", "half-flat", "--omega", "e12+e34+e56",
                           "--rho-minus", "e235+e145+e136-e246")
        assert code == 0
        assert "passed: pass" in out

    @pytest.mark.parametrize("doc, flags, message", [
        ("ab6", ["--type", "symplectic"], "symplectic structure needs forms: omega"),
        ("ab6", ["--type", "kahler"], "kahler structure needs forms: omega"),
        ("ab6", ["--type", "half-flat"], "half-flat structure needs forms: omega, rho_minus"),
        ("ab6", ["--type", "half-flat", "--omega", "e12"], "half-flat structure needs forms: rho_minus"),
        ("ab6", ["--type", "half-flat", "--rho-minus", "e123"], "half-flat structure needs forms: omega"),
        ("glm", ["--type", "g2-cocal"], "g2-cocal structure needs forms: psi"),
        ("glm", ["--type", "g2-phi"], "g2-phi structure needs forms: phi"),
        ("ab6", ["--type", "kahler", "--omega", "e12"],
         "kahler structure needs a metric and a complex structure"),
        ("ab6", ["--type", "kahler", "--omega", "e12", "--metric", IDENTITY6],
         "kahler structure needs a metric and a complex structure"),
        ("ab6", ["--type", "kahler", "--omega", "e12", "--j", J6],
         "kahler structure needs a metric and a complex structure"),
        ("ab6", ["--type", "g2-phi", "--phi", "e123"], "g2-phi check needs a dimension-7 algebra"),
        ("ab3", ["--type", "kahler", "--standard"], "--standard needs an even dimension"),
        ("ab3", ["--type", "symplectic", "--standard"], "--standard needs an even dimension"),
        # a zero four-form exists on any frame, so the dimension gate is what refuses it
        ("ab2", ["--type", "g2-cocal", "--psi", "0"], "co-calibrated structures live in dimension 7"),
    ])
    def test_usage_error(self, capsys, files, doc, flags, message):
        code, out, err = run(capsys, "check-structure", files[doc], *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_unknown_type(self, capsys, files):
        code, out, err = run(capsys, "check-structure", files["ab6"], "--type", "hyperkahler")
        kinds = ["symplectic", "kahler", "half-flat", "g2-cocal", "g2-phi"]
        # argparse quotes the choices in some Python versions and not in others
        assert (code, out) == (1, "")
        assert err in {
            f"error: argument --type: invalid choice: 'hyperkahler' (choose from {choices})\n"
            for choices in (", ".join(map(repr, kinds)), ", ".join(kinds))
        }


class TestSearchCommand:
    def test_reproduces_deformation(self, capsys, files):
        code, out, _ = run(capsys, "search", files["s5"],
                           "--x", "E4", "--alpha", "e4",
                           "--support", "e12,e13,e15,e23,e25,e35", "--max-terms", "1")
        assert code == 0
        assert "F0 = e13 -> (51,52,53,13+2.54,0)" in out

    def test_psi_preserving(self, capsys, files):
        code, out, _ = run(capsys, "search", files["glm"],
                           "--x", "E1", "--alpha", "e1", "--preserve", PSI_LITERAL)
        assert code == 0
        assert "F0 = e23 ->" in out

    def test_zero_form_preserves_everything(self, capsys, files):
        argv = ["search", files["s5"], "--x", "E4", "--alpha", "e4", "--max-terms", "1",
                "--coeffs", "-1,0,1", "--json"]
        code, plain, _ = run(capsys, *argv)
        assert code == 0 and json.loads(plain)["result"]["hits"]
        code, preserving, _ = run(capsys, *argv, "--preserve", "0")
        assert code == 0 and preserving == plain

    def test_max_terms_reaches_the_search(self, capsys, files):
        # the default support of Ann(E4) has 6 monomials: 233 candidates with
        # up to three terms, 73 with up to two
        code, out, _ = run(capsys, "search", files["s5"], "--x", "E4", "--alpha", "e4", "--max-terms", "3",
                           "--json")
        result = json.loads(out)["result"]
        spec = SearchSpec(base=parse_salamon("(51,52,53,2.54,0)"), X=Vector.basis(5, 4), alpha=mono(5, (4,)),
                          max_terms=3)
        assert (code, result["candidates"]) == (0, 233)
        assert [h["f0"] for h in result["hits"]] == [str(h.f0) for h in reference_enumerate_f0(spec)]

    def test_cap_exit_4(self, capsys, files):
        code, _, err = run(capsys, "search", files["ab6"],
                           "--x", "E1", "--alpha", "e1", "--max-terms", "6", "--cap", "10")
        assert code == 4
        assert "cap" in err

    @pytest.mark.parametrize("doc, x", [("s5", "E4"), ("h3", "E3")])
    def test_zero_constant_exit_3(self, capsys, files, doc, x):
        code, out, err = run(capsys, "search", files[doc], "--x", x, "--alpha", x.lower(), "--a", "0")
        assert (code, out, err) == (3, "", "error: transfer constant a must be nonzero\n")

    @pytest.mark.parametrize("flags, message", [
        (["--cap", "-1"], "cap must be nonnegative"),
        (["--coeffs", "0,1/0"], "bad rational '1/0': zero denominator"),
        (["--support", "e33"], "repeated index 3"),
        (["--support", "2*e12"], "support entries must be bare monomials, got '2*e12'"),
    ])
    def test_usage_error(self, capsys, files, flags, message):
        code, out, err = run(capsys, "search", files["h3"], "--x", "E3", "--alpha", "e3", *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestShearLines:
    def test_solvable(self, capsys, files):
        code, out, _ = run(capsys, "shear-lines", files["s5"])
        assert code == 0
        assert "eigenvalues (-2): span{E4}" in out
        assert "eigenvalues (-1): span{E1, E2, E3}" in out

    def test_large_prime_eigenvalues_finish(self, tmp_path):
        # the action has char poly (x - 1000000007)(x - 999999937); a divisor
        # search over its constant term would run for minutes
        doc = tmp_path / "primes.alg"
        doc.write_text("(1000000007.13,999999937.23,0)")
        proc = subprocess.run(
            [sys.executable, "-m", "lieshear", "shear-lines", str(doc), "--json"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0
        spaces = json.loads(proc.stdout)["result"]["eigenspaces"]
        assert [s["eigenvalues"] for s in spaces] == [["999999937"], ["1000000007"]]

    def test_abelian_exit_3(self, capsys, files):
        code, _, err = run(capsys, "shear-lines", files["ab6"])
        assert code == 3
        assert "no canonical line" in err

    def test_non_solvable_exit_3(self, capsys, tmp_path):
        doc = tmp_path / "so3.alg"
        doc.write_text("(23,-13,12)")
        code, out, err = run(capsys, "shear-lines", str(doc))
        assert (code, out, err) == (3, "", "error: shear lines require a solvable algebra\n")

    def test_an_internal_value_error_is_not_invalid_data(self, capsys, files, monkeypatch):
        # only the two documented refusals (ShearLineError) read as invalid
        # construction data; any other ValueError of find_shear_lines is a fault
        def broken(r):
            raise ValueError("internal fault")

        monkeypatch.setattr(linalg, "rational_eigenspaces", broken)
        code, _, err = run(capsys, "shear-lines", files["s5"])
        assert code != cli.EXIT_INVALID_DATA and "internal fault" in err


class TestReports:
    def test_json_mode(self, capsys, files):
        code, out, _ = run(capsys, "shear", files["s5"], "--json",
                           "--x", "E4", "--alpha", "e4", "--f0", "e13")
        assert code == 0
        doc = json.loads(out)
        assert doc["exit_status"] == 0
        assert doc["result"]["sheared"] == "(51,52,53,13+2.54,0)"
        assert doc["result"]["report"]["valid"] is True
        assert doc["result"]["report"]["eta_0"] == "2*e5"
        assert doc["input"]["sha256"]

    def test_byte_identical_runs(self, capsys, files):
        argv = ["search", files["s5"], "--json", "--x", "E4", "--alpha", "e4",
                "--max-terms", "2"]
        outputs = []
        for _ in range(2):
            code = main(list(argv))
            outputs.append(capsys.readouterr().out)
            assert code == 0
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", [
        ["algebra-check", "s5"],
        ["shear-lines", "s5"],
        ["search", "s5", "--x", "E4", "--alpha", "e4", "--max-terms", "2"],
        ["check-structure", "kahler6", "--type", "kahler", "--standard"],
        ["twist", "h3", "--alpha", "e3", "--f", "-e12"],
    ])
    def test_report_bytes_do_not_depend_on_the_hash_seed(self, files, argv):
        # set and dict-of-str orders change with PYTHONHASHSEED; report bytes must not
        command = [sys.executable, *(["-O"] if sys.flags.optimize else []), "-m", "lieshear",
                   argv[0], files[argv[1]], *argv[2:], "--json"]
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(command, capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
            assert (proc.returncode, proc.stderr) == (0, b"")
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_no_color_when_piped(self, capsys, files):
        code, out, _ = run(capsys, "algebra-check", files["s5"])
        assert "\x1b[" not in out

    def test_console_script_subprocess(self, files):
        proc = subprocess.run(
            [sys.executable, "-m", "lieshear", "algebra-check", files["s5"]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "jacobi: pass" in proc.stdout

    @pytest.mark.parametrize("argv, code", [
        (["algebra-check", "s5", "--json"], 0),
        (["algebra-check", "s5"], 0),
        (["shear", "s5", "--x", "E4", "--alpha", "e4", "--f0", "e14", "--json"], 3),
    ])
    def test_a_closed_stdout_ends_without_a_traceback(self, files, argv, code):
        # what `| head` leaves behind: a pipe whose read end is already closed
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "lieshear", argv[0], files[argv[1]], *argv[2:]],
                                  stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (code, b"")

    def test_huge_exponent_is_refused_at_once(self, capsys, files):
        # Fraction alone would expand 10**30000000 for about a minute, then fail
        start = time.perf_counter()
        code, out, err = run(capsys, "shear", files["h3"], "--x", "E3", "--alpha", "e3",
                             "--f0", "e12", "--a", "1e30000000")
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err == "error: bad rational '1e30000000': exponent beyond +-4300\n"

    @pytest.mark.skipif(not 0 < DIGIT_LIMIT <= 4300, reason="needs CPython's int-string digit limit")
    @pytest.mark.parametrize("argv", [
        ["shear", "h3", "--x", "E3", "--alpha", "e3", "--f0", "e12", "--a", "1e4300"],
        ["shear", "h3", "--x", "E3", "--alpha", "e3", "--f0", "e12", "--a", "1e4300", "--json"],
        ["algebra-check", "h3a", "--set", "a=1e4300"],
    ])
    def test_digit_limit_is_one_error_line(self, capsys, files, argv):
        # 10**4300 passes the exponent bound but has one digit too many to print
        code, out, err = run(capsys, argv[0], files[argv[1]], *argv[2:])
        assert (code, out) == (1, "")
        assert err == (f"error: a number exceeds CPython's limit of {DIGIT_LIMIT} digits "
                       "for integer string conversion\n")

    @pytest.mark.skipif(not 0 < DIGIT_LIMIT <= 4300, reason="needs CPython's int-string digit limit")
    @pytest.mark.parametrize("doc, flags", [
        (json.dumps({"dim": 3, "d": {"3": "1" * 4400 + "*e12"}}), []),
        (json.dumps({"dim": 12, "d": {"3": "e[1," + "1" * 4400 + "]"}}), []),
        ("(0,0," + "1" * 4400 + ".12)", []),
        ("(0,0,12)", ["--a", "1" * 4400]),
        ("(0,0,12)", ["--a", "1/" + "3" * 4400]),
        ("(0,0,12)", ["--x", "E" + "3" * 4400]),
    ], ids=["json-coefficient", "json-bracket-index", "shorthand-coefficient", "a", "a-denominator",
            "x-index"])
    def test_a_literal_beyond_the_digit_limit_is_one_error_line(self, capsys, tmp_path, doc, flags):
        # whichever reader meets the long literal, CPython's limit is named in one short line
        path = tmp_path / "doc.alg"
        path.write_text(doc)
        command = ["shear", "--x", "E3", "--alpha", "e3", "--f0", "e12"] if flags else ["algebra-check"]
        code, out, err = run(capsys, command[0], str(path), *command[1:], *flags)
        assert (code, out) == (1, "")
        assert err == (f"error: a number exceeds CPython's limit of {DIGIT_LIMIT} digits "
                       "for integer string conversion\n")

    def test_unused_substitution_is_not_converted(self, capsys, files):
        # (0,0,12) has no "a", so the value, which no report could print, is never read
        plain = run(capsys, "algebra-check", files["h3"])
        assert plain[0] == 0
        assert run(capsys, "algebra-check", files["h3"], "--set", "a=1e4300") == plain
        assert run(capsys, "algebra-check", files["h3"], "--set", "a=x") == plain

    def test_space_inside_a_rational_is_refused(self, capsys, files):
        code, out, err = run(capsys, "shear", files["h3"], "--x", "E3", "--alpha", "e3",
                             "--f0", "e12", "--a", "1 2")
        assert (code, out) == (1, "")
        assert err.startswith("error: bad rational '1 2'") and err.count("\n") == 1

    def test_usage_error_exit_1(self, capsys):
        code = main(["shear"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err


class TestArgv:
    def test_parser_surface_is_pinned(self):
        # every subcommand's help and every flag's argparse fields, as tests/golden records them
        golden = json.loads((GOLDEN / "argparse-surface.json").read_text())
        assert parser_surface(build_parser()) == golden

    def test_a_rebound_handler_is_the_one_that_runs(self, capsys, files, monkeypatch):
        # bench/tracing.py times each command by rebinding cli.cmd_* before main runs
        original, seen = cli.cmd_shear_lines, []

        def recording(g, args):
            seen.append(args.cmd)
            return original(g, args)

        monkeypatch.setattr(cli, "cmd_shear_lines", recording)
        code, out, _ = run(capsys, "shear-lines", files["s5"])
        assert (code, seen) == (0, ["shear-lines"])
        assert "eigenvalues (-2): span{E4}" in out

    def test_value_flags_are_the_parsers_value_options(self):
        parser = build_parser()
        taking = {
            (command, flag, action)
            for command, sub in subcommands(parser).items()
            for action in sub._actions if action.nargs != 0
            for flag in action.option_strings
        }
        assert {flag for _, flag, _ in taking} == _VALUE_FLAGS
        for command, flag, action in sorted(taking, key=lambda t: t[:2]):
            # the other required options get a valid value, this one "-e1"
            argv = [command, "doc.alg"]
            for other in subcommands(parser)[command]._actions:
                if other.required and other.option_strings and other is not action:
                    argv += [other.option_strings[0], (other.choices or ["x"])[0]]
            argv += [flag, "-e1"]
            try:
                args = parser.parse_args(_normalize_argv(argv))
            except UsageError as exc:  # the value reached the option: int or choice check
                assert "'-e1'" in str(exc), (flag, str(exc))
            else:
                assert getattr(args, action.dest) in ("-e1", ["-e1"]), flag


class TestGoldenText:
    @pytest.mark.parametrize("name", list(GOLDEN_TEXT))
    def test_text_report(self, capsys, files, monkeypatch, name):
        monkeypatch.chdir(Path(files["s5"]).parent)  # the report names the document's path
        main(GOLDEN_TEXT[name])
        assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


class TestHighDimensionDocuments:
    def test_dim_ten_json_document(self, capsys, tmp_path):
        doc = {"dim": 10, "d": {"3": "e[1,2]", "10": "2*e[1,9]"}}
        p = tmp_path / "big.alg"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "algebra-check", str(p))
        assert code == 0
        assert '"dim": 10' in out  # shorthand falls back to the JSON form
        assert "jacobi: pass" in out


class TestNonAsciiDigits:
    # digits are ASCII [0-9]: other scripts' digits are refused, never read as
    # numbers and never passed to int()
    @pytest.mark.parametrize("doc, flags, message", [
        ("(0,0,\u00b9\u00b2)", [], "expected an index pair of two digits (at position 5)"),
        ("(0,0,\u0661\u0662)", [], "expected an index pair of two digits (at position 5)"),
        ("(0,0,\u00b2/3.12)", [], "expected an index pair of two digits (at position 5)"),
        (json.dumps({"dim": 3, "d": {"3": "e\u00b9\u00b2"}}), [], "expected digit indices, got '\u00b9\u00b2'"),
        (json.dumps({"dim": 3, "d": {"3": "e\u0661\u0662"}}), [], "expected digit indices, got '\u0661\u0662'"),
        ("(0,0,12)", ["--x", "E\u00b9"], "bad frame index in 'E\u00b9'"),
        ("(0,0,12)", ["--f0", "e\u00b9\u00b2"], "expected digit indices, got '\u00b9\u00b2'"),
        ("(0,0,12)", ["--a", "\u0662"], "bad rational '\u0662': digits must be ASCII"),
        ("(0,0,12)", ["--f0", "e12 -"], "malformed expression 'e12 -'"),
        ("(0,0,12)", ["--a", "1/0"], "bad rational '1/0': zero denominator"),
        ("(0,0,12)", ["--f0", "1/0*e12"], "bad rational '1/0': zero denominator"),
        ("(0,0,12)", ["--coeffs", ","], "bad rational '': expected an integer, p/q or a decimal"),
        ("(0,0,12)", ["--coeffs", "0,,1"], "bad rational '': expected an integer, p/q or a decimal"),
        ("(0,0,12)", ["--f0", "e13 + 1"], "expected a monomial like e13, got '1'"),
    ])
    def test_refused_in_one_error_line(self, capsys, tmp_path, doc, flags, message):
        path = tmp_path / "doc.alg"
        path.write_text(doc, encoding="utf-8")
        name = "search" if "--coeffs" in flags else "shear"  # --coeffs is a search option
        argv = {"--x": "E3", "--alpha": "e3"} | ({} if name == "search" else {"--f0": "e12"})
        argv.update(zip(flags[::2], flags[1::2]))
        command = [name, *(x for kv in argv.items() for x in kv)] if flags else ["algebra-check"]
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
        assert "invalid literal for int()" not in err

    def test_exponent_coefficient(self, capsys, files):
        code, out, _ = run(capsys, "twist", files["h3"], "--alpha", "e3", "--f", "-1e-3*e12", "--json")
        assert code == 0
        assert json.loads(out)["result"]["twisted"] == "(0,0,999/1000.12)"
