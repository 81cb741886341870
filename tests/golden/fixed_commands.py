"""Run the fixed command set and print one sha256 per output file.

The set covers every command: generate of both kinds and of a long series;
evaluate for all six methods on a generated CSV and on synthetic data, and
with ``--eval-stride 3``; gridsearch with one and two workers, with an LSTM
cell and with a failing cell; train plus forecast (last window and
``--offset 5``) for every model kind and variant; forecast from a format-2
checkpoint and from a quoted CSV; robustness on the CSV and on synthetic
data; and ``gradcheck --small`` for every kind. Each command runs in its own
process, in one work directory and with relative paths, so that two checkouts
write the same bytes, manifests included. The stdout, stderr and exit code of
each command are kept as files under ``logs/`` and hashed with the rest.

Usage::

    python tests/golden/fixed_commands.py [--src SRC] [--keep DIR]

``--src`` names the package source to run (default: this checkout's
``src``); ``--keep`` writes into DIR, which must not exist, instead of a
temporary directory. The exit status is 1 when a command did not exit 0.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

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
GRIDS = {
    "grid.txt": "stages=1\nfilters=2,3\nfilter-size=3\nhidden=4\n",
    "grid_failing.txt": "stages=1,4\nfilters=2\nfilter-size=3\nhidden=3\n",
}


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of each command, in the order they run."""
    cmds = [("generate", ["generate", "--len", "300", "--seed", "3", "--out", "gen"]),
            ("generate_independent", ["generate", "--kind", "independent", "--len", "300",
                                      "--seed", "4", "--out", "gen_independent"]),
            # 9000 rows cross two of write_csv's blocks
            ("generate_long", ["generate", "--len", "9000", "--lag", "0", "--ar", "-0.95",
                               "--seed", "5", "--out", "gen_long"])]
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
    for name, spec in TRAIN_SPECS.items():
        layout = LAYOUTS.get(name, [])
        cmds.append((f"train_{name}", ["train", "--data", DATA, *layout, *GEOMETRY,
                                       "--seed", "1", *spec, "--out", f"train_{name}"]))
        ckpt = f"train_{name}/checkpoint.txt"
        cmds.append((f"forecast_{name}", ["forecast", "--data", DATA, "--checkpoint", ckpt,
                                          *layout, "--out", f"forecast_{name}"]))
        cmds.append((f"forecast_{name}_offset5",
                     ["forecast", "--data", DATA, "--checkpoint", ckpt, *layout,
                      "--offset", "5", "--out", f"forecast_{name}_offset5"]))
    cmds.append(("forecast_format2", ["forecast", "--data", DATA, "--checkpoint", "format2.txt",
                                      "--out", "forecast_format2"]))
    cmds.append(("forecast_quoted", ["forecast", "--data", "quoted.csv", "--checkpoint",
                                     "train_crnn/checkpoint.txt", "--out", "forecast_quoted"]))
    cmds.append(("robustness_csv", ["robustness", "--data", DATA, *GEOMETRY, "--seeds", "0,1",
                                    "--out", "robustness_csv"]))
    cmds.append(("robustness_syn", ["robustness", "--len", "400", *GEOMETRY,
                                    "--out", "robustness_syn"]))
    for kind in ("crnn", "aecrnn", "rnn", "lstm"):
        cmds.append((f"gradcheck_{kind}", ["gradcheck", "--small", "--model", kind]))
    return cmds


def _write_quoted(src: Path, dst: Path) -> None:
    with open(src, newline="", encoding="utf-8") as fin, \
            open(dst, "w", newline="", encoding="utf-8") as fout:
        csv.writer(fout, quoting=csv.QUOTE_ALL).writerows(csv.reader(fin))


def run(src: Path, work: Path) -> list[str]:
    """Run every command in ``work``; returns the names of those that did not
    exit 0."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    work.mkdir(parents=True)
    logs = work / "logs"
    logs.mkdir()
    for name, text in GRIDS.items():
        (work / name).write_text(text, encoding="ascii")
    shutil.copyfile(FORMAT2, work / "format2.txt")
    failed = []
    for name, argv in commands():
        if name == "forecast_quoted":
            _write_quoted(work / DATA, work / "quoted.csv")
        proc = subprocess.run([sys.executable, "-m", "crnn_forecast.cli", *argv],
                              cwd=work, env=env, capture_output=True)
        (logs / f"{name}.stdout").write_bytes(proc.stdout)
        (logs / f"{name}.stderr").write_bytes(proc.stderr)
        (logs / f"{name}.code").write_text(f"{proc.returncode}\n", encoding="ascii")
        if proc.returncode != 0:
            failed.append(name)
    return failed


def digests(work: Path) -> list[str]:
    """``sha256  path`` for every file under ``work``, sorted by path."""
    lines = []
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(work).as_posix()}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="package source directory to run")
    parser.add_argument("--keep", type=Path, help="work directory to create and keep")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.keep if args.keep is not None else Path(tmp) / "work"
        failed = run(args.src.resolve(), work)
        print("\n".join(digests(work)))
    for name in failed:
        print(f"{name}: exited non-zero; see logs/{name}.stderr", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
