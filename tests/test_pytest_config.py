"""The repository's pytest configuration, as a test session sees it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    """With every warning an error, Hypothesis's report of a failure imports
    libcst, which raises a DeprecationWarning of mypy_extensions; unfiltered,
    that ended the session with INTERNALERROR (exit 3) before the example was
    printed. Where libcst is not installed, nothing imports it and this test
    passes either way."""
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
