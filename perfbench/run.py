"""Benchmark entry point.

    python3 perfbench/run.py --workload pair --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. With ``--trace 0`` the last line of standard output is a
JSON object carrying every end-to-end metric; with ``--trace 1`` it carries
every per-layer metric from a traced pass. Lines before it record the
environment, describe each metric with its sample count and, on a measured
run, give the unscaled value of each timed metric (``raw``); the reported
values scale wall times to the reference machine speed (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("pair", "wide", "forecast")
# End-to-end metrics, each reported on every workload.
END_TO_END = ("setup_s", "main_win_per_s", "infer_win_per_s", "forecast_ms_p50",
              "forecast_ms_p99", "test_rmse", "peak_rss_mb")


def environment(root: Path) -> dict:
    """Everything that identifies where the numbers came from."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                                    "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "load_1min": os.getloadavg()[0],
        **git_state(root),
    }


def git_state(root: Path) -> dict:
    """Revision and dirty flag, or None outside a git checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {"git_rev": rev, "git_dirty": None if status is None else bool(status)}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "crnn_forecast" / "__init__.py").is_file():
        print(f"error: no crnn_forecast package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import spans
    import workloads
    from stats import check_metric_name

    print("env " + json.dumps(environment(ROOT), sort_keys=True), flush=True)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)

    wanted = ([name for name, _ in spans.per_layer_metrics()] if args.trace
              else list(END_TO_END))
    if sorted(result.metrics) != sorted(wanted):
        raise RuntimeError(f"workload reported {sorted(result.metrics)}, expected {wanted}")
    tally = result.tally
    for note in result.notes:
        print(f"note {note}")
    for name in wanted:
        value, unit = result.metrics[name]
        print(f"metric {check_metric_name(name):40s} {value:>16.6g} {unit}")
    print(f"metric {'fail_ratio':40s} {tally.failed / max(tally.attempted, 1):>16.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    if result.raw:
        print("raw " + json.dumps({name: {"value": v, "unit": u}
                                   for name, (v, u) in result.raw.items()}))
    for problem in tally.problems:
        print(f"problem {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
