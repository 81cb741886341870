"""Record test_rmse per workload and seed into expected.json.

    python3 perfbench/record_expected.py --first 0 --count 32

Run from the root of a source checkout, at the commit whose accuracy the
benchmark should hold later commits to. Existing entries for other seeds are
kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import HERE, ROOT, WORKLOAD_NAMES

# A recorded seed must reproduce its value within REL_TOL; any other seed
# must land inside the recorded range widened by BAND_MARGIN.
REL_TOL = 1e-6
BAND_MARGIN = 0.25


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first", type=int, default=0)
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    expected = workloads.load_expected() or {"test_rmse": {}}
    expected["rel_tol"] = REL_TOL
    expected["band_margin"] = BAND_MARGIN
    workdir = ROOT / ".perfbench_work" / "record"
    try:
        for name in args.workload or WORKLOAD_NAMES:
            table = expected["test_rmse"].setdefault(name, {})
            for seed in range(args.first, args.first + args.count):
                table[str(seed)] = workloads.recorded_rmse(name, seed, workdir)
                print(f"{name} seed {seed}: {table[str(seed)]!r}", flush=True)
            expected["test_rmse"][name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
