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

The tests of ``fixed_commands.py --compare``, the stated tolerance under
which a change may move output bits, build small fake trees and run no
command: each change inside the tolerance passes, and each outside it is
named as a breach.
"""

import math
import struct
from pathlib import Path

import pytest

from conftest import GOLDEN, fingerprint_difference, load_fixed_commands


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
    _, _, written = fixed_run
    difference = fingerprint_difference()
    if difference:
        pytest.skip(f"digests were {difference}")
    changed = [path for path in recorded if written.get(path) != recorded[path]]
    assert not changed, f"{len(changed)} of {len(recorded)} files changed: {changed}"


# -- --compare: the stated tolerance, on small fake trees -------------------------

J = 0.29927275977467382
WEIGHTS = [0.21189941198285014, -0.35499256268288515, 0.0, 1.5]


def _hex(values) -> str:
    return b"".join(struct.pack("<d", v) for v in values).hex()


def fake_tree() -> dict[str, str]:
    """A kept run in miniature: each file type that --compare treats apart."""
    return {
        "train/train_report.tsv": f"epoch\tj\n1\t{J:.17g}\n2\t{J / 2:.17g}\n",
        "train/manifest.txt": "run.command=train\nseed=1\nrun.digest.data=ab12\n",
        "train/checkpoint.txt": ("format=3 model=crnn seed=1\n"
                                 f"conv0.w 2x2 {_hex(WEIGHTS)}\nconv0.b 2 {_hex([0.5, -0.25])}\n"),
        "forecast/manifest.txt": "run.command=forecast\nrun.digest.checkpoint=e092af\n",
        "eval/report.tsv": "method\tmape_mean\ncrnn\t26.2185\n",
        "logs/train.stdout": f"best_epoch=2 best_val_j1={J:.17g} epochs_run=2 reason=max-epochs\n",
        "logs/train.code": "0\n",
        "logs/gradcheck_crnn.stdout": "PASS max_rel_error=7.753e-09 worst=conv0.w[10] checked=48\n",
    }


def write_tree(top: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        (top / rel).parent.mkdir(parents=True, exist_ok=True)
        (top / rel).write_text(text, encoding="utf-8")
    return top


def _replace(rel: str, old: str, new: str):
    def edit(files):
        assert old in files[rel]
        files[rel] = files[rel].replace(old, new)
    return edit


ACCEPTED = {
    "one_ulp_in_a_17g_field": _replace("train/train_report.tsv", f"{J:.17g}",
                                       f"{math.nextafter(J, 1.0):.17g}"),
    "one_ulp_in_a_hex_tensor_value": _replace("train/checkpoint.txt", _hex(WEIGHTS),
                                              _hex([math.nextafter(WEIGHTS[0], 1.0),
                                                    *WEIGHTS[1:]])),
    "one_unit_in_a_6g_field": _replace("eval/report.tsv", "26.2185", "26.2186"),
    "another_checkpoint_digest": _replace("forecast/manifest.txt", "e092af", "77aa01"),
    "gradcheck_noise": _replace("logs/gradcheck_crnn.stdout", "7.753e-09 worst=conv0.w[10]",
                                "1.2e-08 worst=conv0.b[1]"),
}
REFUSED = {
    "another_epoch_count": _replace("logs/train.stdout", "epochs_run=2", "epochs_run=3"),
    "a_17g_field_reprinted_as_6g": _replace("train/train_report.tsv", f"{J:.17g}", f"{J:.6g}"),
    "a_value_moved_1e-9_relative": _replace("train/train_report.tsv", f"{J:.17g}",
                                            f"{J * (1 + 1e-9):.17g}"),
    "a_dropped_manifest_line": _replace("train/manifest.txt", "seed=1\n", ""),
    "a_renamed_tensor": _replace("train/checkpoint.txt", "conv0.b 2", "conv0.c 2"),
    "an_extra_file": lambda files: files.update({"eval/extra.tsv": "x\n"}),
    "two_units_in_a_6g_field": _replace("eval/report.tsv", "26.2185", "26.2187"),
    "another_gradcheck_verdict": _replace("logs/gradcheck_crnn.stdout", "PASS", "FAIL"),
    "a_nan_for_a_value": _replace("train/checkpoint.txt", _hex([0.5, -0.25]),
                                  _hex([math.nan, -0.25])),
}


def _compare(tmp_path, edit):
    fixed = load_fixed_commands()
    base = write_tree(tmp_path / "base", fake_tree())
    files = fake_tree()
    edit(files)
    return fixed.compare(base, write_tree(tmp_path / "change", files))


@pytest.mark.parametrize("edit", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_compare_accepts_a_change_inside_the_tolerance(tmp_path, edit):
    files, breaches, moved = _compare(tmp_path, edit)
    assert breaches == []
    assert sum(files.values()) == len(fake_tree())
    assert len(moved) == 1


@pytest.mark.parametrize("edit", REFUSED.values(), ids=REFUSED.keys())
def test_compare_refuses_a_change_outside_the_tolerance(tmp_path, edit):
    _, breaches, _ = _compare(tmp_path, edit)
    assert len(breaches) == 1


def test_compare_exits_1_and_names_the_first_breach(tmp_path, capsys):
    fixed = load_fixed_commands()
    base = write_tree(tmp_path / "base", fake_tree())
    files = fake_tree()
    REFUSED["a_value_moved_1e-9_relative"](files)
    change = write_tree(tmp_path / "change", files)
    assert fixed.main(["--compare", str(base), str(base)]) == 0
    assert fixed.main(["--compare", str(base), str(change)]) == 1
    out, err = capsys.readouterr()
    assert "train_report.tsv" in out
    assert "train/train_report.tsv:2:" in err


def test_compare_names_each_file_that_differs_with_its_deviations(tmp_path, capsys):
    fixed = load_fixed_commands()
    base = write_tree(tmp_path / "base", fake_tree())
    files = fake_tree()
    ACCEPTED["one_ulp_in_a_17g_field"](files)
    ACCEPTED["one_unit_in_a_6g_field"](files)
    change = write_tree(tmp_path / "change", files)
    _, _, moved = fixed.compare(base, change)
    ulp = math.nextafter(J, 1.0) - J
    assert moved == [("eval/report.tsv", pytest.approx(1e-4 / 26.2186), pytest.approx(1e-4)),
                     ("train/train_report.tsv", ulp / math.nextafter(J, 1.0), ulp)]
    assert fixed.main(["--compare", str(base), str(change)]) == 0
    listed = capsys.readouterr().out.split("file that differs")[1].splitlines()[1:]
    assert [line.split() for line in listed] == [
        ["eval/report.tsv", "3.81e-06", "0.0001"],
        ["train/train_report.tsv", f"{ulp / J:.3g}", f"{ulp:.3g}"]]
