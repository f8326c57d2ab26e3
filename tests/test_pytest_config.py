"""The repository's pytest configuration, exercised in a child pytest."""
import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_fails_alone(tmp_path):
    # warnings are errors, and hypothesis's failure report warns inside a
    # pytest hook: unfiltered, that aborts the whole run with exit 3
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            raise ValueError(x)  # not assert: it must fail under -O too

        def test_passes():
            pass
    """))
    flags = ["-O"] if sys.flags.optimize else []
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
