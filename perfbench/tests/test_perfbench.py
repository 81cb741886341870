"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from stats import check_metric_name, percentile, quartile_spread  # noqa: E402

from crnn_forecast import cli, data, models  # noqa: E402


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans_ = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("leaf", 1.5, 2.0, 1),
        ("b", 2.0, 5.0, 0),       # overlaps a: [1, 5] is covered once
        ("c", 8.0, 12.0, 0),      # runs past its parent: only [8, 10] counts
        ("other", 20.0, 21.0, -1),
    ]
    assert spans.self_times(spans_) == pytest.approx([4.0, 1.5, 0.5, 3.0, 4.0, 1.0])


def test_subtree_self_sums_only_inside_the_named_root():
    spans_ = [
        ("train", 0.0, 10.0, -1),
        ("conv", 1.0, 4.0, 0),
        ("step", 5.0, 6.0, 0),
        ("conv", 20.0, 30.0, -1),     # outside any train span
    ]
    assert spans.subtree_self(spans_, "train") == pytest.approx(
        {"train": 6.0, "conv": 3.0, "step": 1.0})


def test_tracer_records_parents_and_closes_spans_on_error():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)

    def fail():
        raise KeyError("boom")

    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    failing = tracer.wrap("failing", fail)
    assert outer() == 5
    with pytest.raises(KeyError):
        failing()
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "failing"]
    assert parents == [-1, 0, 0, -1]
    assert all(end >= start > 0 for _, start, end, _ in tracer.spans)
    summary = tracer.summary()
    assert summary["inner"][0] == 2 and summary["outer"][0] == 1


def test_installed_patches_where_callers_look_up_and_restores():
    originals = (cli.ingest_csv, data.ingest_csv, models.load_checkpoint,
                 cli.load_checkpoint, models.AECRNN.forward)
    assert "batch_forecast" not in vars(models.AECRNN)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert cli.ingest_csv is data.ingest_csv is not originals[0]
        assert cli.load_checkpoint is models.load_checkpoint is not originals[2]
        assert "batch_forecast" in vars(models.AECRNN)
    assert (cli.ingest_csv, data.ingest_csv, models.load_checkpoint,
            cli.load_checkpoint, models.AECRNN.forward) == originals
    assert "batch_forecast" not in vars(models.AECRNN)


def test_every_listed_span_resolves():
    tracer = spans.Tracer()
    with spans.installed(tracer) as t:
        assert t is tracer
    names = [s.name for s in spans.SPANS]
    assert len(names) == len(set(names))
    for spec in spans.SPANS:
        assert set(spec.fires_on) <= set(spans.ALL) and spec.fires_on


# -- statistics and names ----------------------------------------------------------


def test_percentile_reports_counts():
    samples = list(range(1, 1001))
    assert percentile(samples, 99) == (990, 1000, 10)
    assert percentile(samples, 50, min_beyond=0) == (500, 1000, 500)
    assert percentile([3.0], 50, min_beyond=0) == (3.0, 1, 0)


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError, match="need 10"):
        percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        percentile([], 50, min_beyond=0)
    with pytest.raises(ValueError):
        percentile([1.0], 100, min_beyond=0)


def test_stopwatch_scales_each_block_by_the_kernel_around_it(monkeypatch):
    clock = iter([0.0, 1.0, 1.0, 3.0, 3.0, 4.0])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(speed, "kernel_seconds", iter([1.0, 3.0]).__next__)
    monkeypatch.setattr(speed, "REFERENCE_S", 2.0)
    watch = speed.Stopwatch(block=2)
    assert [watch.time(lambda v: v, v) for v in "abc"] == ["a", "b", "c"]
    assert watch.raw == [1.0, 2.0, 1.0]
    # first block: kernel 1.0 then 3.0, factor 2 / mean(1, 3) = 1;
    # the unfinished second block uses its start reading: 2 / 3
    assert watch.scaled() == pytest.approx([1.0, 2.0, 2.0 / 3.0])
    assert watch.mean_factor == pytest.approx(1.0)


def test_stopwatch_reads_inside_long_calls_and_leaves_the_reading_out(monkeypatch):
    clock = iter([0.0, 0.01, 0.1, 0.1, 0.2, 0.5])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(speed, "kernel_seconds", iter([1.0, 2.0, 4.0]).__next__)
    monkeypatch.setattr(speed, "REFERENCE_S", 2.0)
    watch = speed.Stopwatch(block=1)

    def loop():
        watch.mark()    # 0.01 s in: too soon for a reading
        watch.mark()    # 0.1 s in: reading, which takes until 0.2

    watch.time(loop)
    assert watch.raw == pytest.approx([0.4])
    assert watch.levels == [1.0, 2.0, 4.0]
    # 0.1 s between readings 1 and 2, then 0.3 s between readings 2 and 4
    assert watch.scaled() == pytest.approx([0.1 * 4 / 3 + 0.3 * 4 / 6])


def test_readings_inside_a_span_leave_its_self_time(monkeypatch):
    monkeypatch.setattr(speed, "kernel_seconds", lambda: time.sleep(0.05) or 1.0)
    tracer = spans.Tracer()
    outer = tracer.wrap("outer", lambda: speed.kernel_seconds())
    with workloads.readings_as_spans(tracer):
        outer()
    assert speed.kernel_seconds() == 1.0    # restored
    summary = tracer.summary()
    assert summary["outer"][1] < 0.01
    assert summary[workloads.READING_SPAN][1] >= 0.05


def test_marks_after_wraps_and_restores():
    class Loop:
        def step(self):
            return "stepped"

    marks = []
    watch = type("Watch", (), {"mark": lambda self: marks.append(1)})()
    original = Loop.step
    with speed.marks_after(Loop, "step", watch):
        assert Loop().step() == "stepped"
    assert Loop.step is original and marks == [1]


def test_p99_is_the_median_over_stretches_of_cpu_times():
    calm = [1e-3] * 1000
    loaded = [1e-3] * 980 + [0.1] * 20
    assert workloads.p99(calm + loaded + calm) == pytest.approx(1.0)
    assert workloads.p99(loaded) == pytest.approx(100.0)
    out = workloads.latency(workloads.Times(wall=[2e-3] * 999 + [1.0], cpu=loaded))
    assert out == pytest.approx({"forecast_ms_p50": 2.0, "forecast_ms_p99": 100.0})
    assert [len(part) for part in workloads.stretches(range(2999))] == [1500, 1499]
    assert [len(part) for part in workloads.stretches(range(20))] == [20]


def test_quartile_spread():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx(5.0 / 5.0)


@pytest.mark.parametrize("name", ["setup_s", "layers.Conv1D.forward.self_ms", "a-b_c.9",
                                  "9lives", "x" * 64])
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "has space", "slash/name", "_lead", ".lead",
                                  "x" * 65, "ünï", "semi;colon"])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    for metric in bench["end_to_end"]:
        if metric["name"] in workloads.TIMED_UNITS:
            assert metric["unit"] == workloads.TIMED_UNITS[metric["name"]][0]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        check_metric_name(metric["name"])


def test_accuracy_record():
    expected = {"rel_tol": 1e-6, "band_margin": 0.25,
                "test_rmse": {"pair": {"1": 2.0, "2": 4.0}}}
    assert workloads.accuracy_problem(expected, "pair", 1, 2.0 + 1e-7) is None
    assert "differs" in workloads.accuracy_problem(expected, "pair", 1, 2.1)
    assert workloads.accuracy_problem(expected, "pair", 7, 4.9) is None
    assert "outside" in workloads.accuracy_problem(expected, "pair", 7, 5.1)
    assert "no recorded" in workloads.accuracy_problem(expected, "wide", 1, 1.0)


# -- tiny smoke runs ----------------------------------------------------------------

TINY = {
    "pair": workloads.Spec(workloads.ModelSpec(1, 400, 1, 4, 4, "lstm"), setup_reps=2,
                           trace_calls=20),
    "wide": workloads.Spec(workloads.ModelSpec(2, 300, 2, 2, 3, "rnn"), train_frac=0.5,
                           setup_reps=2, trace_calls=20),
    "forecast": workloads.Spec(workloads.ModelSpec(2, 128, 2, 2, 3, "rnn"), setup_reps=2,
                               trace_calls=20),
}
# Accept any positive test_rmse: the tiny models have no recorded accuracy.
ANY_RMSE = {"rel_tol": 1e-6, "band_margin": 1e12,
            "test_rmse": {name: {"-1": 1.0} for name in TINY}}


def _assert_clean(result, names):
    assert result.tally.failed == 0, result.tally.problems
    assert result.tally.attempted > 0
    assert sorted(result.metrics) == sorted(names)
    for value, unit in result.metrics.values():
        assert np.isfinite(value)


@pytest.mark.parametrize("name", ["pair", "wide", "forecast"])
def test_tiny_measured_run(name, tmp_path):
    if name == "forecast":
        result = workloads.run_forecast(3, 0.1, ANY_RMSE, tmp_path, spec=TINY[name])
    else:
        result = workloads.run_training(name, 3, 0.1, ANY_RMSE, spec=TINY[name])
    _assert_clean(result, run.END_TO_END)
    assert all(value > 0 for value, _ in result.metrics.values())
    assert sorted(result.raw) == sorted(workloads.TIMED_UNITS)
    assert all(value > 0 for value, _ in result.raw.values())


@pytest.mark.parametrize("name", ["pair", "wide", "forecast"])
def test_tiny_traced_run(name, tmp_path):
    result = workloads.run_traced(name, 3, ANY_RMSE, tmp_path, spec=TINY[name])
    _assert_clean(result, [n for n, _ in spans.per_layer_metrics()])
    for spec in spans.SPANS:
        assert (result.metrics[f"{spec.name}.calls"][0] > 0) == (name in spec.fires_on)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
