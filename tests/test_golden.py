"""The fixed command set writes the recorded bytes.

``golden/SHA256SUMS`` holds the digest of every file that
``golden/fixed_commands.py`` writes, recorded in the environment that
``golden/FINGERPRINT`` names. Float results depend on the interpreter, numpy
and the BLAS kernels, so the digests are compared only where the fingerprint
matches; elsewhere the test skips and names the field that differs.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")
FIXED_COMMANDS = GOLDEN / "fixed_commands.py"


def load_fixed_commands():
    spec = importlib.util.spec_from_file_location("fixed_commands", FIXED_COMMANDS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_fingerprint(path: Path) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split("=", 1) for line in lines if line)


def digest_by_path(lines: list[str]) -> dict[str, str]:
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_fixed_commands_write_the_recorded_bytes():
    recorded = read_fingerprint(GOLDEN / "FINGERPRINT")
    here = load_fixed_commands().fingerprint()
    for key, value in recorded.items():
        if here.get(key) != value:
            pytest.skip(f"digests were recorded with {key}={value}; "
                        f"this environment has {key}={here.get(key)}")
    proc = subprocess.run([sys.executable, str(FIXED_COMMANDS)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    expected = digest_by_path((GOLDEN / "SHA256SUMS").read_text(encoding="ascii").splitlines())
    written = digest_by_path(proc.stdout.splitlines())
    assert sorted(written) == sorted(expected), "the fixed command set wrote another file set"
    changed = [path for path in expected if written[path] != expected[path]]
    assert not changed, f"{len(changed)} of {len(expected)} files changed: {changed}"
