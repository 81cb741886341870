"""The repository's pytest configuration, as a test session sees it."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
CONFTEST = Path(__file__).with_name("conftest.py")

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def run_failing_property(tmp_path, *options):
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", *options, "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)


def test_a_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    """With every warning an error, Hypothesis's report of a failure imports
    libcst, which raises a DeprecationWarning of mypy_extensions; unfiltered,
    that ended the session with INTERNALERROR (exit 3) before the example was
    printed. Where libcst is not installed, nothing imports it and this test
    passes either way."""
    proc = run_failing_property(tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout


def test_the_ci_profile_prints_the_blob_that_replays_a_failure(tmp_path):
    """CI selects the ``ci`` profile that conftest.py registers; a failure
    drawn there prints its @reproduce_failure decorator. The default profile,
    which a local run uses, prints none (selected here by name, because
    Hypothesis loads its own ci profile where it detects CI)."""
    shutil.copy(CONFTEST, tmp_path)
    ci = run_failing_property(tmp_path, "--hypothesis-profile=ci")
    assert ci.returncode == 1, ci.stdout + ci.stderr
    assert "@reproduce_failure(" in ci.stdout
    local = run_failing_property(tmp_path, "--hypothesis-profile=default")
    assert local.returncode == 1, local.stdout + local.stderr
    assert "@reproduce_failure(" not in local.stdout
