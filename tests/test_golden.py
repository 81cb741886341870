"""The fixed command set keeps its contract and writes the recorded bytes.

``golden/fixed_commands.py`` is run once, into one work directory, and two
kinds of check read what it wrote:

- In every environment: the set of files written is the one that
  ``golden/SHA256SUMS`` lists, and ``fixed_commands.check`` finds nothing:
  each command gave its exit code (1 usage, 2 data, 3 numeric), no failed
  command left its ``--out`` path, the pairs of ``SAME_BYTES`` hold equal
  bytes, and the manifest of the piped forecast records the piped bytes'
  sha256. None of these depends on floating point.
- Where the environment matches ``golden/FINGERPRINT``: every file holds the
  recorded digest. Float results depend on the interpreter, numpy and the
  BLAS kernels, so elsewhere this test skips and names the field that
  differs.
"""

import importlib.util
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


@pytest.fixture(scope="module")
def fixed_run(tmp_path_factory):
    """The fixed_commands module, and the digests of what its run wrote."""
    fixed = load_fixed_commands()
    work = tmp_path_factory.mktemp("golden") / "work"
    fixed.run(fixed.ROOT / "src", work)
    return fixed, work, digest_by_path(fixed.digests(work))


@pytest.fixture(scope="module")
def recorded():
    return digest_by_path((GOLDEN / "SHA256SUMS").read_text(encoding="ascii").splitlines())


def test_fixed_commands_write_the_recorded_file_set(fixed_run, recorded):
    _, _, written = fixed_run
    assert sorted(written) == sorted(recorded), "the fixed command set wrote another file set"


def test_fixed_commands_keep_the_exit_codes_outputs_and_equal_bytes(fixed_run):
    fixed, work, _ = fixed_run
    problems = fixed.check(work)
    assert not problems, "\n".join(problems)


def test_fixed_commands_write_the_recorded_bytes(fixed_run, recorded):
    fixed, _, written = fixed_run
    here = fixed.fingerprint()
    for key, value in read_fingerprint(GOLDEN / "FINGERPRINT").items():
        if here.get(key) != value:
            pytest.skip(f"digests were recorded with {key}={value}; "
                        f"this environment has {key}={here.get(key)}")
    changed = [path for path in recorded if written.get(path) != recorded[path]]
    assert not changed, f"{len(changed)} of {len(recorded)} files changed: {changed}"
