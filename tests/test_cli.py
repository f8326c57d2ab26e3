import argparse
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from lieshear.cli import _VALUE_FLAGS, UsageError, _normalize_argv, build_parser, main

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

PSI_LITERAL = "e1425 + e1436 + e2536 - e4567 + e4237 + e1267 + e1537"
PHI_LITERAL = "e123+e145+e167+e246-e257-e347-e356"
IDENTITY6 = ";".join(",".join("1" if i == j else "0" for j in range(6)) for i in range(6))
J6 = "0,-1,0,0,0,0;1,0,0,0,0,0;0,0,0,-1,0,0;0,0,1,0,0,0;0,0,0,0,0,-1;0,0,0,0,1,0"

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


def subcommands(parser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


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
                            lambda *a, **k: dataclasses.replace(validate(*a, **k), valid=False))
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

    def test_cap_exit_4(self, capsys, files):
        code, _, err = run(capsys, "search", files["ab6"],
                           "--x", "E1", "--alpha", "e1", "--max-terms", "6", "--cap", "10")
        assert code == 4
        assert "cap" in err


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
    ])
    def test_refused_in_one_error_line(self, capsys, tmp_path, doc, flags, message):
        path = tmp_path / "doc.alg"
        path.write_text(doc, encoding="utf-8")
        argv = {"--x": "E3", "--alpha": "e3", "--f0": "e12"}
        argv.update(zip(flags[::2], flags[1::2]))
        command = ["shear", *(x for kv in argv.items() for x in kv)] if flags else ["algebra-check"]
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
        assert "invalid literal for int()" not in err

    def test_exponent_coefficient(self, capsys, files):
        code, out, _ = run(capsys, "twist", files["h3"], "--alpha", "e3", "--f", "-1e-3*e12", "--json")
        assert code == 0
        assert json.loads(out)["result"]["twisted"] == "(0,0,999/1000.12)"
