"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workload pair --seeds 1-10 --out results.json

Each run is a fresh process of ``run.py`` with the settings in
BENCHMARK.json. The summary gives, per workload and metric, the median,
the quartiles, and the quartile spread (distance between the quartiles as a
share of the median), next to the metric's bound; and the same for the raw
wall value of each timed metric. Runs are sequential so
they do not contend for the cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from run import ROOT
from stats import quartile_spread


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable if bench["command"][0] == "python3" else bench["command"][0],
           *bench["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    run_s = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[0][len("env "):])
    result["run_s"] = run_s
    result["notes"] = [ln[len("note "):] for ln in lines if ln.startswith("note ")]
    result["raw"] = next((json.loads(ln[len("raw "):]) for ln in lines
                          if ln.startswith("raw ")), {})
    return result


def summarize_raw(runs: list[dict]) -> dict:
    """Raw wall values of the timed metrics, per run, with their spreads."""
    out = {}
    for name, first in runs[0]["raw"].items():
        values = [r["raw"][name]["value"] for r in runs]
        out[name] = {"unit": first["unit"], "median": statistics.median(values),
                     "values": values}
        if len(values) > 1:
            out[name]["spread"] = quartile_spread(values)
    return out


def summarize(bench: dict, runs: list[dict], trace: int) -> dict:
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    targets = spans.per_layer_targets() if trace else {}
    out = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        entry = {"unit": spec["unit"], "better": spec["better"],
                 "median": statistics.median(values), "values": values}
        if len(values) > 1:
            entry["q1"], _, entry["q3"] = statistics.quantiles(values, n=4)
            if "bound" in spec:
                entry["spread"] = quartile_spread(values)
                entry["bound"] = spec["bound"]
        if spec["name"] in targets:
            entry["target"] = targets[spec["name"]]
        out[spec["name"]] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {"seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(bench, name, seed, args.trace))
            print(f"{name} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        metrics = summarize(bench, runs, args.trace)
        summary["workloads"][name] = {
            "all_correct": all(r["correct"] for r in runs),
            "run_s": [r["run_s"] for r in runs],
            "notes_of_first_run": runs[0]["notes"],
            "env": runs[0]["env"],
            "metrics": metrics,
            "raw": summarize_raw(runs),
        }
        for metric, m in metrics.items():
            spread = (f" spread {m['spread']:.3f} of bound {m['bound']}"
                      if "spread" in m else "")
            print(f"{name:9s} {metric:40s} median {m['median']:.6g} {m['unit']}{spread}",
                  flush=True)
        for metric, m in summary["workloads"][name]["raw"].items():
            spread = f" spread {m['spread']:.3f}" if "spread" in m else ""
            print(f"{name:9s} raw {metric:36s} median {m['median']:.6g} {m['unit']}{spread}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
