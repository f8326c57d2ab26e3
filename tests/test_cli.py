import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from lieshear.cli import main

PSI_LITERAL = "e1425 + e1436 + e2536 - e4567 + e4237 + e1267 + e1537"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "s5": "(51,52,53,2.54,0)",
        "h3": "(0,0,12)",
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

    def test_jacobi_gate(self, capsys, files):
        code, _, err = run(capsys, "shear", files["bad"],
                           "--x", "E4", "--alpha", "e4", "--f0", "e12")
        assert code == 2

    def test_bad_alpha_exit_3(self, capsys, files):
        code, _, err = run(capsys, "shear", files["s5"],
                           "--x", "E4", "--alpha", "e5", "--f0", "e13")
        assert code == 3
        assert "alpha(X)" in err


class TestTwistCommand:
    def test_golden_pair(self, capsys, files):
        code, out, _ = run(capsys, "twist", files["h3"], "--alpha", "e3", "--f", "-e12")
        assert code == 0 and "twisted: (0,0,0)" in out
        code, out, _ = run(capsys, "twist", files["ab3"], "--alpha", "e3", "--f", "e12")
        assert code == 0 and "twisted: (0,0,12)" in out

    def test_v1_violation_exit_3(self, capsys, files):
        code, _, err = run(capsys, "twist", files["h3"], "--alpha", "e3", "--f", "e13")
        assert code == 3
        assert "V1" in err

    def test_invalid_shear_report_names_command_and_input(self, capsys, files, monkeypatch):
        from lieshear import shear

        validate = shear.validate_shear
        monkeypatch.setattr(shear, "validate_shear",
                            lambda *a, **k: dataclasses.replace(validate(*a, **k), valid=False))
        code, out, _ = run(capsys, "twist", files["h3"], "--alpha", "e3", "--f", "-e12", "--json")
        assert code == 3
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
                           "--type", "g2-phi",
                           "--phi", "e123+e145+e167+e246-e257-e347-e356")
        assert code == 0
        assert "definiteness: positive" in out

    def test_half_flat(self, capsys, files):
        code, out, _ = run(capsys, "check-structure", files["ab6"],
                           "--type", "half-flat", "--omega", "e12+e34+e56",
                           "--rho-minus", "e235+e145+e136-e246")
        assert code == 0
        assert "passed: pass" in out


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

    def test_usage_error_exit_1(self, capsys):
        code = main(["shear"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err


class TestHighDimensionDocuments:
    def test_dim_ten_json_document(self, capsys, tmp_path):
        doc = {"dim": 10, "d": {"3": "e[1,2]", "10": "2*e[1,9]"}}
        p = tmp_path / "big.alg"
        p.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "algebra-check", str(p))
        assert code == 0
        assert '"dim": 10' in out  # shorthand falls back to the JSON form
        assert "jacobi: pass" in out
