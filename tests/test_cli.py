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

from cli_cases import CASES, DOCUMENTS, GATED_COMMANDS, IDENTITY6, J6, PHI_LITERAL, run_commands, run_in_process
from corpus import mono, reference_det, reference_enumerate_f0, replaced, two_step_document
from lieshear import KForm, SearchSpec, Vector, cli, linalg, parse_salamon
from lieshear.cli import _VALUE_FLAGS, UsageError, _normalize_argv, build_parser, main

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
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
    for name, text in DOCUMENTS.items():
        (tmp_path / f"{name}.alg").write_text(text)
    return {name: str(tmp_path / f"{name}.alg") for name in DOCUMENTS}


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
    @pytest.mark.parametrize("name", ["e", "c"])
    def test_a_name_before_a_bracket_is_left_to_the_monomial(self, capsys, tmp_path, name):
        # the e of e[1,2] is not the parameter e, which replaces only the bare name
        p = tmp_path / "d10.alg"
        p.write_text(json.dumps({"dim": 10, "d": {"10": f"{name} * e[1,2]"}, "substitutions": {name: "2"}}))
        code, out, err = run(capsys, "algebra-check", str(p), "--json")
        assert (code, err) == (0, "")
        assert json.loads(json.loads(out)["result"]["algebra"])["d"]["10"] == "2*e[1,2]"


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


class TestJacobiGate:
    def test_every_other_command_is_gated(self):
        assert set(subcommands(build_parser())) == {"algebra-check", *GATED_COMMANDS}


class TestTwistCommand:
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


class TestCheckStructure:
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


class TestShearLines:
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
        assert doc["input"]["sha256"] == hashlib.sha256(Path(files["s5"]).read_bytes()).hexdigest()
        # the report's derived entries beside its validity
        report = doc["result"]["report"]
        assert report["valid"] is True and report["eta_0"] == report["eta_tilde"] == "2*e5"
        assert (report["eta_bracket"], report["f_tilde"]) == ("-2*e5", "e13")

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

    def test_console_script_subprocess(self):
        # the rows' command mode, which CI runs on every row against the installed
        # script: a refusal, a plain pass, and a row that also runs under python -O
        row = {case.name: case for case in CASES}
        refusal, plain, optimized = (row["TestShearLines::test_non_solvable_exit_3"],
                                     row["TestShearLines::test_an_irrational_leftover"],
                                     row["TestSearchCommand::test_the_reference_box_is_all_hits"])
        command = [sys.executable, "-m", "lieshear"]
        assert optimized.optimized and run_commands([refusal, plain, optimized], command) == []
        # and a row the run does not meet is reported
        [failure] = run_commands([refusal._replace(code=0)], command)
        assert failure.startswith(f"FAIL {refusal.name} (") and "exit 3, expected 0" in failure

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


class TestNonAsciiDigits:
    def test_exponent_coefficient(self, capsys, files):
        code, out, _ = run(capsys, "twist", files["h3"], "--alpha", "e3", "--f", "-1e-3*e12", "--json")
        assert code == 0
        assert json.loads(out)["result"]["twisted"] == "(0,0,999/1000.12)"


class TestGoldenText:
    @pytest.mark.parametrize("name", list(GOLDEN_TEXT))
    def test_text_report(self, capsys, files, monkeypatch, name):
        monkeypatch.chdir(Path(files["s5"]).parent)  # the report names the document's path
        main(GOLDEN_TEXT[name])
        assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def _row_test(rows_by_id: dict):
    """A test method running in process the rows of each parameter id (None: the test has no parameter)."""
    def test(self, tmp_path, rows):
        assert [(case.argv, found) for case in rows if (found := run_in_process(case, tmp_path))] == []

    if list(rows_by_id) == [None]:
        return lambda self, tmp_path: test(self, tmp_path, rows_by_id[None])
    return pytest.mark.parametrize("rows", list(rows_by_id.values()), ids=list(rows_by_id))(test)


def _collect_rows() -> None:
    """Put each row of tests/cli_cases.py under the test id its name gives, in the class it names."""
    tests: dict[str, dict] = {}
    for case in CASES:
        test, _, parameter = case.name.partition("[")
        tests.setdefault(test, {}).setdefault(parameter[:-1] or None, []).append(case)
    for test, rows_by_id in tests.items():
        class_name, function = test.split("::")
        cls = globals().setdefault(class_name, type(class_name, (), {}))
        assert not hasattr(cls, function), f"the row {test} would replace the test of that name"
        setattr(cls, function, _row_test(rows_by_id))


_collect_rows()
