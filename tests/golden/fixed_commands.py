"""Run the fixed command set and print one sha256 per output file.

The set covers every command: generate of both kinds and of a long series;
evaluate for all six methods on a generated CSV and on synthetic data, and
with ``--eval-stride 3``; gridsearch with one and two workers, with an LSTM
cell, with a failing cell and for a baseline; train plus forecast (last
window and ``--offset 5``) for every model kind and variant; forecast from a
format-2 checkpoint, from a quoted CSV, from a loose one (a byte-order mark,
bare \\r line ends, a blank line and a line of commas), from a pipe and from
its own manifest; robustness on the CSV and on synthetic data; ``gradcheck --small``
for every kind; ``-h``; and the inputs that each exit code (1 usage, 2 data,
3 numeric) answers. Each command runs in its own process, in one work
directory and with relative paths, so that two checkouts write the same
bytes, manifests included. The stdout, stderr and exit code of each command
are kept as files under ``logs/`` and hashed with the rest.

The commands run in four stages, grouped by what they read: commands that
read no output (generate, gradcheck, the parser), then those that read the
generated inputs (train, evaluate, gridsearch, robustness), then those that
read trained checkpoints (forecast), then those that read manifests. Between
stages the runner writes the inputs it derives: a quoted, a loose and a
30-row copy of the generated CSV, and a copy of a checkpoint whose readout
bias is NaN.
Within a stage the commands run in parallel, one process per core.
``COLUMNS`` is set for every command, so that the bytes of ``-h`` do not
depend on the caller's terminal.

Each command carries the exit code it must give. Besides the digests, whose
bytes depend on the interpreter, numpy and BLAS, these facts hold in every
environment and ``check`` reports each one that does not:

- every command exits with its code;
- no command that exits non-zero leaves its ``--out`` path behind;
- each pair in ``SAME_BYTES`` holds equal bytes;
- the manifest of the command fed ``--data /dev/stdin`` through a pipe
  records the sha256 of the piped bytes.

Usage::

    python tests/golden/fixed_commands.py [--src SRC] [--keep DIR]
    python tests/golden/fixed_commands.py --fingerprint
    python tests/golden/fixed_commands.py --compare BASE CHANGE

``--src`` names the package source to run (default: this checkout's
``src``); ``--keep`` writes into DIR, which must not exist, instead of a
temporary directory. The exit status is 1 when a fact above does not hold;
each is named on stderr. ``--fingerprint`` runs nothing and prints the
environment that the digests depend on, as ``key=value`` lines.

``--compare`` runs nothing either. It reads two ``--keep`` directories, a
run of the parent's source (``git archive HEAD src`` unpacked elsewhere and
given as ``--src``) and a run of the change's, and checks them against the
stated tolerance under which a change may move output bits:

- both hold the same file set, and each file the same number of lines;
- lines are split into tokens at tabs, spaces, commas and ``=``; a token
  that is not a float, or that is an integer on both sides, matches
  exactly, separators included;
- floats, and the values of checkpoint tensors written in hex, satisfy
  ``|a - b| <= 1e-12 * max(|a|, |b|) + 1e-15``; a NaN matches only a NaN,
  and an infinity only itself;
- in ``report.tsv``, ``robustness.tsv`` and standard output, a float
  printed with at most 6 significant digits on both sides may differ by
  one unit in its 6th digit;
- checkpoint headers, tensor names and tensor shapes match exactly;
- manifests match line for line, except for the value of
  ``run.digest.checkpoint``;
- in gradcheck's standard output only ``PASS``/``FAIL`` and ``checked=``
  are compared: ``max_rel_error`` and ``worst`` are finite-difference
  noise.

It prints, per file type, how many files differ and their largest relative
and absolute deviation, then each file that differs with its own; on a
breach it exits 1 and names the first one on stderr.

A change can move output bits without changing any formula, and this
tolerance covers such moves too. A matmul's bits depend on its operands'
roles and memory layout, not only on their values. ``W @ h.T`` and
``(h @ W.T).T`` round otherwise with scipy-openblas 0.3.31 at batches above
192 that are not a multiple of 8, and so do a weight's rows in another
order. The same steps as a strided view and as a contiguous copy give other
forecasts, as numpy's matmul runs its own loop on strides BLAS cannot take.
So swapping a product's operands, copying or transposing an operand, or
reordering a weight's rows is such a change; only the digests show it, and
only where the environment matches ``FINGERPRINT``.

The digests recorded in ``SHA256SUMS`` next to this file were written in the
environment recorded in ``FINGERPRINT``; ``tests/test_golden.py`` compares
them when the environment is the same, and checks the facts above in every
environment.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
FORMAT2 = ROOT / "tests" / "data" / "checkpoint_format2_aecrnn_trained.txt"

DATA = "gen/data.csv"
GEOMETRY = ["--l", "8", "--p", "2", "--epochs", "3"]
METHODS = ("yesterday", "ewma", "crnn", "aecrnn", "rnn", "lstm")
TRAIN_SPECS = {
    "crnn": ["--model", "crnn"],
    "aecrnn": ["--model", "aecrnn"],
    "aecrnn_lstm": ["--model", "aecrnn", "--cell", "lstm"],
    "crnn_lstm_single": ["--model", "crnn", "--cell", "lstm", "--layout", "single-step"],
    "aecrnn_lstm_l16": ["--model", "aecrnn", "--cell", "lstm", "--stages", "2", "--l", "16"],
    "rnn": ["--model", "rnn"],
    "lstm": ["--model", "lstm"],
    "lstm_target": ["--model", "lstm", "--features", "target"],
    "rnn_target": ["--model", "rnn", "--features", "target"],
    "crnn_target_driver": ["--model", "crnn"],
    "crnn_columns": ["--model", "crnn"],
}
# CSV layout flags, given to both the train and the forecast commands
LAYOUTS = {
    "crnn_target_driver": ["--target", "driver"],
    "crnn_columns": ["--columns", "driver,target"],
}
# key=value inputs, written before the first stage
INPUTS = {
    "grid.txt": "stages=1\nfilters=2,3\nfilter-size=3\nhidden=4\n",
    "grid_failing.txt": "stages=1,4\nfilters=2\nfilter-size=3\nhidden=3\n",
    "grid_hidden.txt": "hidden=3,4\n",
    "grid_empty.txt": "stages=\nfilters=8\n",
    "grid_bad_value.txt": "stages=1\nfilters=x\n",
    "grid_repeated_value.txt": "stages=1,1\nfilters=2\n",
    "grid_repeated_axis.txt": "filters=2\nfilters=3\n",
    "config_repeated.txt": "lr=0.1\nlr=0.5\n",
}
# Files the runner derives from what the first two stages write
QUOTED = "quoted.csv"         # the generated CSV with every cell quoted
LOOSE = "loose.csv"           # it behind a BOM, \r line ends, a blank and a comma line
SHORT = "short.csv"           # its header and first 30 rows
NAN_READOUT = "nan_readout.txt"  # train_crnn's checkpoint with a NaN readout bias

# The stages, in the order they run, named by what their commands read
GENERATE, INPUT_DATA, CHECKPOINTS, MANIFESTS = range(4)


class Command(NamedTuple):
    stage: int
    name: str
    argv: list[str]
    code: int = 0              # the exit code the command must give
    stdin: str | None = None   # a work file piped to the command's standard input


# Files that must hold equal bytes: a forecast rerun from its own manifest,
# read from quoted cells, from a loose file and from a pipe; a second
# training of a recurrent model; and a grid run on one and on two workers.
SAME_BYTES = [
    ("forecast_crnn/predictions.tsv", "forecast_crnn_config/predictions.tsv"),
    ("forecast_crnn/predictions.tsv", "forecast_quoted/predictions.tsv"),
    ("forecast_crnn/predictions.tsv", "forecast_loose/predictions.tsv"),
    ("forecast_crnn/predictions.tsv", "forecast_pipe/predictions.tsv"),
    ("train_aecrnn_lstm/checkpoint.txt", "train_aecrnn_lstm_again/checkpoint.txt"),
    ("grid_jobs1/grid_report.tsv", "grid_jobs2/grid_report.tsv"),
    ("grid_jobs1/best_checkpoint.txt", "grid_jobs2/best_checkpoint.txt"),
]
PIPED = "forecast_pipe"  # its manifest's run.digest.data is that of the piped bytes


def _generate_stage() -> list[Command]:
    cmds = [("generate", ["generate", "--len", "300", "--seed", "3", "--out", "gen"]),
            ("generate_independent", ["generate", "--kind", "independent", "--len", "300",
                                      "--seed", "4", "--out", "gen_independent"]),
            # 9000 rows cross two of write_csv's blocks
            ("generate_long", ["generate", "--len", "9000", "--lag", "0", "--ar", "-0.95",
                               "--seed", "5", "--out", "gen_long"])]
    cmds = [Command(GENERATE, name, argv) for name, argv in cmds]
    for kind in ("crnn", "aecrnn", "rnn", "lstm"):
        cmds.append(Command(GENERATE, f"gradcheck_{kind}",
                            ["gradcheck", "--small", "--model", kind]))
    cmds.append(Command(GENERATE, "help", ["-h"]))
    # Usage errors: flags that no run can use, each named by its field. A
    # negative number in exponent form, -inf and -nan are option values.
    for name, flags in [("period0", ["--period", "0"]),
                        ("noise_nan", ["--len", "50", "--noise", "nan"]),
                        ("noise_negative", ["--len", "50", "--noise", "-1e-2"]),
                        ("base_inf", ["--len", "50", "--base", "inf"]),
                        ("stoch_amp_negative_inf", ["--len", "50", "--stoch-amp", "-inf"]),
                        ("ar_diverges", ["--ar", "5"]),  # a bad flag, not bad data
                        ("seed_negative", ["--seed", "-1"])]:
        cmds.append(Command(GENERATE, f"generate_{name}",
                            ["generate", *flags, "--out", f"generate_{name}"], 1))
    cmds += [Command(GENERATE, "gradcheck_tolerance_nan",
                     ["gradcheck", "--small", "--tolerance", "nan"], 1),
             # --small sets --l and --hidden
             Command(GENERATE, "gradcheck_small_l16",
                     ["gradcheck", "--small", "--l", "16", "--hidden", "5"], 1),
             # gradcheck writes no file
             Command(GENERATE, "gradcheck_out", ["gradcheck", "--small", "--out", "gc"], 1),
             # a baseline refuses a geometry of no series, window or horizon, as crnn does
             Command(GENERATE, "gradcheck_rnn_x0", ["gradcheck", "--model", "rnn", "--x", "0"], 1),
             Command(GENERATE, "gradcheck_lstm_l0",
                     ["gradcheck", "--model", "lstm", "--l", "0"], 1),
             Command(GENERATE, "gradcheck_rnn_p0", ["gradcheck", "--model", "rnn", "--p", "0"], 1),
             Command(GENERATE, "unknown_command", ["frobnicate"], 1)]
    return cmds


def _input_data_stage() -> list[Command]:
    cmds = []
    for method in METHODS:
        cmds.append((f"eval_csv_{method}",
                     ["evaluate", "--method", method, "--data", DATA, *GEOMETRY,
                      "--seeds", "0,1", "--out", f"eval_csv_{method}"]))
        cmds.append((f"eval_syn_{method}",
                     ["evaluate", "--method", method, "--len", "400", *GEOMETRY,
                      "--seeds", "0,1", "--out", f"eval_syn_{method}"]))
    cmds.append(("eval_stride3", ["evaluate", "--method", "crnn", "--data", DATA, *GEOMETRY,
                                  "--eval-stride", "3", "--out", "eval_stride3"]))
    cmds.append(("eval_target", ["evaluate", "--method", "aecrnn", "--data", DATA, *GEOMETRY,
                                 "--target", "driver", "--out", "eval_target"]))
    grid = ["gridsearch", "--data", DATA, *GEOMETRY, "--seed", "1"]
    for jobs in ("1", "2"):
        cmds.append((f"grid_jobs{jobs}", [*grid, "--grid", "grid.txt", "--jobs", jobs,
                                          "--out", f"grid_jobs{jobs}"]))
    cmds.append(("grid_lstm", [*grid, "--model", "aecrnn", "--cell", "lstm",
                               "--grid", "grid.txt", "--out", "grid_lstm"]))
    cmds.append(("grid_failing", [*grid, "--grid", "grid_failing.txt", "--out", "grid_failing"]))
    # a baseline reads only the hidden axis; the other columns keep their flags' values
    cmds.append(("grid_rnn", [*grid, "--model", "rnn", "--grid", "grid_hidden.txt",
                              "--out", "grid_rnn"]))
    for name, spec in TRAIN_SPECS.items():
        layout = LAYOUTS.get(name, [])
        cmds.append((f"train_{name}", ["train", "--data", DATA, *layout, *GEOMETRY,
                                       "--seed", "1", *spec, "--out", f"train_{name}"]))
    cmds.append(("train_aecrnn_lstm_again",
                 ["train", "--data", DATA, *GEOMETRY, "--seed", "1",
                  *TRAIN_SPECS["aecrnn_lstm"], "--out", "train_aecrnn_lstm_again"]))
    cmds.append(("forecast_format2", ["forecast", "--data", DATA, "--checkpoint", "format2.txt",
                                      "--out", "forecast_format2"]))
    cmds.append(("robustness_csv", ["robustness", "--data", DATA, *GEOMETRY, "--seeds", "0,1",
                                    "--out", "robustness_csv"]))
    cmds.append(("robustness_syn", ["robustness", "--len", "400", *GEOMETRY,
                                    "--out", "robustness_syn"]))
    cmds = [Command(INPUT_DATA, name, argv) for name, argv in cmds]

    # Usage and data errors, each found before a model is trained
    quick = ["--l", "8", "--p", "2", "--epochs", "1"]
    grid = ["gridsearch", "--data", DATA, *quick]
    evaluate = ["evaluate", "--method", "yesterday", "--data", DATA, "--l", "8", "--p", "2"]
    train = ["train", "--data", DATA, *quick]
    failing = [
        ("eval_stride0", [*evaluate, "--eval-stride", "0"], 1),
        ("eval_x0", [*evaluate, "--x", "0"], 1),
        ("eval_seeds_repeated", [*evaluate, "--seeds", "0,0"], 1),
        ("eval_seeds_negative", [*evaluate, "--seeds", "-1"], 1),
        ("robustness_seeds_repeated",
         ["robustness", "--data", DATA, *quick, "--seeds", "0,0"], 1),
        ("grid_empty", [*grid, "--grid", "grid_empty.txt"], 1),
        ("grid_jobs0", [*grid, "--grid", "grid.txt", "--jobs", "0"], 1),
        ("grid_train_frac", [*grid, "--grid", "grid.txt", "--train-frac", "1.5"], 1),
        ("grid_bad_value", [*grid, "--grid", "grid_bad_value.txt"], 1),
        ("grid_repeated_value", [*grid, "--grid", "grid_repeated_value.txt"], 1),
        ("grid_repeated_axis", [*grid, "--grid", "grid_repeated_axis.txt"], 1),
        ("grid_rnn_conv_axis", [*grid, "--model", "rnn", "--grid", "grid.txt"], 1),
        # gridsearch prepares the data before any cell: too few windows fail the run
        ("grid_short", ["gridsearch", "--data", SHORT, "--l", "16", "--p", "4", "--epochs", "1",
                        "--grid", "grid.txt"], 2),
        ("train_lr_nan", [*train, "--model", "crnn", "--lr", "nan"], 1),
        # a model size below one is refused by name, --allow-off-grid or not
        ("train_hidden0", [*train, "--model", "rnn", "--hidden", "0"], 1),
        ("train_filters0", [*train, "--model", "crnn", "--filters", "0", "--allow-off-grid"], 1),
        ("train_config_repeated", [*train, "--model", "crnn", "--config",
                                   "config_repeated.txt"], 1),
        ("train_columns_repeated", [*train, "--model", "crnn", "--columns", "1,driver"], 2),
    ]
    cmds += [Command(INPUT_DATA, name, [*argv, "--out", name], code)
             for name, argv, code in failing]
    return cmds


def _checkpoints_stage() -> list[Command]:
    cmds = []
    for name in TRAIN_SPECS:
        layout = LAYOUTS.get(name, [])
        ckpt = f"train_{name}/checkpoint.txt"
        cmds.append((f"forecast_{name}", ["forecast", "--data", DATA, "--checkpoint", ckpt,
                                          *layout, "--out", f"forecast_{name}"]))
        cmds.append((f"forecast_{name}_offset5",
                     ["forecast", "--data", DATA, "--checkpoint", ckpt, *layout,
                      "--offset", "5", "--out", f"forecast_{name}_offset5"]))
    cmds.append(("forecast_quoted", ["forecast", "--data", QUOTED, "--checkpoint",
                                     "train_crnn/checkpoint.txt", "--out", "forecast_quoted"]))
    cmds.append(("forecast_loose", ["forecast", "--data", LOOSE, "--checkpoint",
                                    "train_crnn/checkpoint.txt", "--out", "forecast_loose"]))
    cmds = [Command(CHECKPOINTS, name, argv) for name, argv in cmds]
    cmds += [Command(CHECKPOINTS, PIPED, ["forecast", "--data", "/dev/stdin", "--checkpoint",
                                          "train_crnn/checkpoint.txt", "--out", PIPED],
                     stdin=DATA),
             Command(CHECKPOINTS, "forecast_missing_data",
                     ["forecast", "--data", "gen/missing.csv", "--checkpoint",
                      "train_crnn/checkpoint.txt", "--out", "forecast_missing_data"], 2),
             Command(CHECKPOINTS, "forecast_nan_readout",
                     ["forecast", "--data", DATA, "--checkpoint", NAN_READOUT,
                      "--out", "forecast_nan_readout"], 3)]
    return cmds


def commands() -> list[Command]:
    """Every command, stage by stage."""
    return [*_generate_stage(), *_input_data_stage(), *_checkpoints_stage(),
            Command(MANIFESTS, "forecast_crnn_config",
                    ["forecast", "--config", "forecast_crnn/manifest.txt",
                     "--out", "forecast_crnn_config"])]


def _write_quoted(src: Path, dst: Path) -> None:
    with open(src, newline="", encoding="utf-8") as fin, \
            open(dst, "w", newline="", encoding="utf-8") as fout:
        csv.writer(fout, quoting=csv.QUOTE_ALL).writerows(csv.reader(fin))


def _write_loose(src: Path, dst: Path) -> None:
    """Copy a CSV behind a UTF-8 byte-order mark, every line ended by a bare
    \\r, with a blank line after the header and a line of commas half way."""
    lines = src.read_text(encoding="utf-8").splitlines()
    lines.insert(len(lines) // 2, ",")
    lines.insert(1, "")
    dst.write_text("\ufeff" + "\r".join(lines) + "\r", encoding="utf-8", newline="")


def _write_nan_readout(src: Path, dst: Path) -> None:
    """Copy a format-3 checkpoint with every readout bias value NaN."""
    lines = src.read_text(encoding="ascii").splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("readout.b "):
            name, shape, values = line.split()
            lines[i] = f"{name} {shape} {'000000000000f87f' * (len(values) // 16)}\n"
    dst.write_text("".join(lines), encoding="ascii")


def _derive_inputs(work: Path, stage: int) -> None:
    """Write the inputs that ``stage`` reads and earlier stages' outputs make."""
    if stage == INPUT_DATA:
        _write_quoted(work / DATA, work / QUOTED)
        _write_loose(work / DATA, work / LOOSE)
        with open(work / DATA, "rb") as fh:
            (work / SHORT).write_bytes(b"".join(fh.readline() for _ in range(31)))
    elif stage == CHECKPOINTS:
        _write_nan_readout(work / "train_crnn/checkpoint.txt", work / NAN_READOUT)


def _run_one(cmd: Command, work: Path, env: dict[str, str]) -> None:
    piped = (work / cmd.stdin).read_bytes() if cmd.stdin is not None else None
    proc = subprocess.run([sys.executable, "-m", "crnn_forecast.cli", *cmd.argv],
                          cwd=work, env=env, input=piped, capture_output=True)
    logs = work / "logs"
    (logs / f"{cmd.name}.stdout").write_bytes(proc.stdout)
    (logs / f"{cmd.name}.stderr").write_bytes(proc.stderr)
    (logs / f"{cmd.name}.code").write_text(f"{proc.returncode}\n", encoding="ascii")


def run(src: Path, work: Path) -> None:
    """Run every command in ``work``, stage by stage, the commands of a stage
    on one process per core."""
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    work.mkdir(parents=True)
    (work / "logs").mkdir()
    for name, text in INPUTS.items():
        (work / name).write_text(text, encoding="ascii")
    shutil.copyfile(FORMAT2, work / "format2.txt")
    cmds = commands()
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        for stage in range(MANIFESTS + 1):
            _derive_inputs(work, stage)
            # list() waits for the stage and raises what a worker raised
            list(pool.map(lambda cmd: _run_one(cmd, work, env),
                          [cmd for cmd in cmds if cmd.stage == stage]))


def _out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _manifest_value(path: Path, key: str) -> str | None:
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith(f"{key}="):
            return line.partition("=")[2]
    return None


def check(work: Path) -> list[str]:
    """The environment-independent facts that the run in ``work`` breaks,
    one line each: exit codes, leftover outputs, equal bytes, piped digest."""
    problems = []
    for cmd in commands():
        code = int((work / "logs" / f"{cmd.name}.code").read_text(encoding="ascii"))
        if code != cmd.code:
            problems.append(f"{cmd.name}: exit {code}, expected {cmd.code}; "
                            f"see logs/{cmd.name}.stderr")
        out = _out_path(cmd.argv)
        if code != 0 and out is not None and (work / out).exists():
            problems.append(f"{cmd.name}: exit {code}, but {out} was left behind")
    for first, second in SAME_BYTES:
        if not ((work / first).is_file() and (work / second).is_file()
                and (work / first).read_bytes() == (work / second).read_bytes()):
            problems.append(f"{first} and {second} do not hold the same bytes")
    manifest = work / PIPED / "manifest.txt"
    piped = hashlib.sha256((work / DATA).read_bytes()).hexdigest()
    recorded = _manifest_value(manifest, "run.digest.data") if manifest.is_file() else None
    if recorded != piped:
        problems.append(f"{PIPED}: manifest digest of the piped data is {recorded}, "
                        f"the piped bytes' sha256 is {piped}")
    return problems


def digests(work: Path) -> list[str]:
    """``sha256  path`` for every file under ``work``, sorted by path."""
    lines = []
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(work).as_posix()}")
    return lines


# The stated tolerance of --compare
REL_TOL = 1e-12
ABS_TOL = 1e-15
SHORT_DIGITS = 6  # significant digits of the fields that reports print
SHORT_FILES = ("report.tsv", "robustness.tsv")  # and every standard output
FREE_MANIFEST_KEY = "run.digest.checkpoint"
GRADCHECK_NOISE = ("max_rel_error=", "worst=")

_SEPARATORS = re.compile(r"([\t ,=])")
_INT = re.compile(r"[+-]?\d+")
_FLOAT = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|nan|inf)")
_HEX = re.compile(r"(?:[0-9a-f]{16})+")


def _kind(rel: str) -> str:
    """The file type a path is tallied under: a log's suffix, the inputs
    that the runner writes, or else the file's name with its numbers starred."""
    if rel.startswith("logs/"):
        return "logs/*" + rel[rel.rindex("."):]
    if "/" not in rel:
        return "inputs"
    return re.sub(r"\d+", "*", rel.rsplit("/", 1)[-1])


def _sig_digits(token: str) -> int:
    mantissa = re.split("[eE]", token.lstrip("+-"))[0].replace(".", "")
    return len(mantissa.lstrip("0"))


def _last_unit(value: float) -> float:
    """One unit in the last place of ``value`` printed at SHORT_DIGITS digits."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - SHORT_DIGITS + 1) if value else 0.0


def _value_breach(a: float, b: float, dev: list[float], unit: float | None = None) -> str | None:
    """Why b may not stand for a, or None; records |a - b| and its relative
    size in ``dev``. Within ``unit`` when given, else within the relative
    bound."""
    if math.isnan(a) or math.isnan(b):
        return None if math.isnan(a) and math.isnan(b) else "a NaN matches only a NaN"
    if a == b:
        return None
    if math.isinf(a) or math.isinf(b):
        return "an infinity matches only itself"
    diff, size = abs(a - b), max(abs(a), abs(b))
    dev[0], dev[1] = max(dev[0], diff / size), max(dev[1], diff)
    if unit is not None:
        return None if diff <= unit * (1 + 1e-9) else (
            f"more than one unit in the last of {SHORT_DIGITS} digits")
    if diff <= REL_TOL * size + ABS_TOL:
        return None
    return f"|a - b| = {diff:.3g} exceeds {REL_TOL:g} * {size:.17g} + {ABS_TOL:g}"


def _line_breach(a: str, b: str, short: bool, dev: list[float]) -> str | None:
    """Why line b may not stand for line a, token by token, or None."""
    ta, tb = _SEPARATORS.split(a), _SEPARATORS.split(b)
    if len(ta) != len(tb):
        return "the lines hold different numbers of tokens"
    for x, y in zip(ta, tb):
        if x == y:
            continue
        if (_INT.fullmatch(x) and _INT.fullmatch(y)
                or not (_FLOAT.fullmatch(x) and _FLOAT.fullmatch(y))):
            return f"{x!r} against {y!r}"
        fx, fy = float(x), float(y)
        unit = None
        if short and max(_sig_digits(x), _sig_digits(y)) <= SHORT_DIGITS:
            unit = max(_last_unit(fx), _last_unit(fy))
        reason = _value_breach(fx, fy, dev, unit)
        if reason is not None:
            return f"{x} against {y}: {reason}"
    return None


def _tensor_breach(a: str, b: str, dev: list[float]) -> str | None:
    """Why checkpoint line b may not stand for line a, or None. A tensor
    written in hex keeps its name and shape and moves its values within the
    relative bound; any other line is compared token by token."""
    fa, fb = a.split(" "), b.split(" ")
    if not (len(fa) == len(fb) == 3 and _HEX.fullmatch(fa[2]) and _HEX.fullmatch(fb[2])):
        return _line_breach(a, b, False, dev)
    if fa[:2] != fb[:2]:
        return f"tensor {' '.join(fa[:2])} against {' '.join(fb[:2])}"
    if len(fa[2]) != len(fb[2]):
        return "the tensors hold different numbers of values"
    values = (np.frombuffer(bytes.fromhex(f[2]), dtype="<f8") for f in (fa, fb))
    for i, (x, y) in enumerate(zip(*values)):
        reason = _value_breach(float(x), float(y), dev)
        if reason is not None:
            return f"{fa[0]}[{i}] {float(x)!r} against {float(y)!r}: {reason}"
    return None


def _file_breach(rel: str, a: bytes, b: bytes, dev: list[float]) -> str | None:
    """Why file b may not stand for file a, both at path ``rel``, or None."""
    lines_a = a.decode("utf-8", "replace").split("\n")
    lines_b = b.decode("utf-8", "replace").split("\n")
    if len(lines_a) != len(lines_b):
        return f"{rel}: {len(lines_a)} lines against {len(lines_b)}"
    name = rel.rsplit("/", 1)[-1]
    checkpoint = lines_a[0].startswith("format=")
    gradcheck = rel.startswith("logs/gradcheck_") and rel.endswith(".stdout")
    short = name in SHORT_FILES or rel.endswith(".stdout")
    for number, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x == y:
            continue
        if name == "manifest.txt":
            free = x.partition("=")[0] == y.partition("=")[0] == FREE_MANIFEST_KEY
            reason = None if free else "manifest lines differ"
        elif gradcheck:
            x, y = ([t for t in line.split(" ") if not t.startswith(GRADCHECK_NOISE)]
                    for line in (x, y))
            reason = None if x == y else "gradcheck verdicts differ"
        elif checkpoint:
            reason = "checkpoint headers differ" if number == 1 else _tensor_breach(x, y, dev)
        else:
            reason = _line_breach(x, y, short, dev)
        if reason is not None:
            return f"{rel}:{number}: {reason}"
    return None


def compare(base: Path, change: Path) -> tuple[dict[str, int], list[str], list[tuple]]:
    """(the number of files of each file type, every breach of the tolerance,
    and each file that differs as (path, largest relative deviation, largest
    absolute deviation) in path order) for the run in ``change`` against the
    run in ``base``."""
    trees = [{p.relative_to(top).as_posix() for p in top.rglob("*") if p.is_file()}
             for top in (base, change)]
    breaches = [f"{rel}: only in {top}" for rel, top in
                sorted([(rel, base) for rel in trees[0] - trees[1]]
                       + [(rel, change) for rel in trees[1] - trees[0]])]
    files: dict[str, int] = {}
    moved: list[tuple] = []
    for rel in sorted(trees[0] & trees[1]):
        files[_kind(rel)] = files.get(_kind(rel), 0) + 1
        a, b = (base / rel).read_bytes(), (change / rel).read_bytes()
        if a == b:
            continue
        dev = [0.0, 0.0]
        reason = _file_breach(rel, a, b, dev)
        moved.append((rel, *dev))
        if reason is not None:
            breaches.append(reason)
    return files, breaches, moved


def _compare_main(base: Path, change: Path) -> int:
    files, breaches, moved = compare(base, change)
    print(f"{'file type':<24}{'files':>6}{'differ':>8}{'max rel dev':>13}{'max abs dev':>13}")
    for kind, count in sorted(files.items()):
        devs = [(r, a) for path, r, a in moved if _kind(path) == kind]
        rel = max((r for r, _ in devs), default=0.0)
        diff = max((a for _, a in devs), default=0.0)
        print(f"{kind:<24}{count:>6}{len(devs):>8}{rel:>13.3g}{diff:>13.3g}")
    if moved:
        width = max(len("file that differs"), *(len(rel) for rel, _, _ in moved))
        print(f"\n{'file that differs':<{width}}{'max rel dev':>13}{'max abs dev':>13}")
        for rel, rel_dev, abs_dev in moved:
            print(f"{rel:<{width}}{rel_dev:>13.3g}{abs_dev:>13.3g}")
    if breaches:
        print(f"{len(breaches)} breach(es) of the tolerance; the first: {breaches[0]}",
              file=sys.stderr)
    return 1 if breaches else 0


def _openblas_core() -> str:
    """The kernel core the loaded OpenBLAS runs, or "unknown". A build for
    several cores (DYNAMIC_ARCH) picks it for the CPU at load time, so it
    can differ from the core that the build configuration names."""
    libs = [*Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"),
            *Path(np.__file__).parent.glob(".dylibs/*openblas*")]
    for lib in sorted(libs):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(handle, symbol, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode("ascii", "replace")
    return "unknown"


def fingerprint() -> dict[str, str]:
    """The environment that the output bytes depend on: the interpreter, the
    numpy build and its BLAS, and the machine."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 prints its configuration only
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas.name": str(blas.get("name", "unknown")),
        "blas.version": str(blas.get("version", "unknown")),
        "blas.config": str(blas.get("openblas configuration", "unknown")),
        "blas.core": _openblas_core(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="package source directory to run")
    parser.add_argument("--keep", type=Path, help="work directory to create and keep")
    parser.add_argument("--fingerprint", action="store_true",
                        help="print the environment's fingerprint and run nothing")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "CHANGE"),
                        help="check two kept runs against the stated tolerance; run nothing")
    args = parser.parse_args(argv)
    if args.compare:
        for top in args.compare:
            if not top.is_dir():
                parser.error(f"--compare: {top} is not a directory")
        return _compare_main(*args.compare)
    if args.fingerprint:
        print("\n".join(f"{key}={value}" for key, value in fingerprint().items()))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        work = args.keep if args.keep is not None else Path(tmp) / "work"
        run(args.src.resolve(), work)
        problems = check(work)
        print("\n".join(digests(work)))
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
