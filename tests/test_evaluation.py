import math

import numpy as np
import pytest

from crnn_forecast import evaluation
from crnn_forecast.data import (DataError, SyntheticConfig, generate_synthetic, ingest_csv,
                                write_csv)
from crnn_forecast.evaluation import (ExperimentSpec, MetricReport, WindowResult,
                                      mape_detailed, rmse, robustness_experiment,
                                      run_experiment)
from crnn_forecast.training import TrainConfig

FAST_TRAIN = TrainConfig(max_epochs=3, batch_size=16, patience=3)


def mape(pred, truth) -> float:
    return mape_detailed(pred, truth)[0]


def tiny_spec(**overrides):
    return ExperimentSpec(**{"input_length": 8, "horizon": 2, "train": FAST_TRAIN,
                             **overrides})


def synthetic_runs(spec, seeds=(0,), length=260, num_series=2):
    """(seed, prepared set) runs as the evaluate command makes them from
    synthetic data: seed k scores the set drawn with data seed k."""
    return [(seed, spec.prepare(generate_synthetic(
        SyntheticConfig(length=length, seed=seed)).take(num_series))) for seed in seeds]


class TestRmse:
    def test_identical_sequences(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_worked_example(self):
        assert rmse([1.0, 2.0], [1.0, 4.0]) == math.sqrt(2.0)

    def test_constant_offset(self):
        truth = np.array([5.0, 6.0, 7.0])
        assert rmse(truth + 1.5, truth) == pytest.approx(1.5, abs=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse([], [])


class TestMape:
    def test_identical_sequences(self):
        assert mape([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_worked_example(self):
        assert mape([1.0, 2.0], [2.0, 4.0]) == 50.0

    def test_tiny_denominators_are_skipped_and_counted(self):
        value, skipped = mape_detailed([1.0, 2.0, 3.0], [1.0, 1e-12, 3.0])
        assert skipped == 1
        assert value == 0.0

    def test_all_skipped_rejected(self):
        with pytest.raises(ValueError):
            mape([1.0], [0.0])

    def test_small_values_inflate_mape(self):
        small_truth = mape([0.2], [0.1])
        big_truth = mape([100.1], [100.0])
        assert small_truth > 50.0 > big_truth


class TestMetricOracles:
    @pytest.mark.parametrize("case", range(100))
    def test_against_plain_python_recomputation(self, case):
        rng = np.random.default_rng(case)
        n = int(rng.integers(1, 12))
        pred = rng.uniform(-10, 10, n)
        truth = rng.uniform(1.0, 10.0, n)
        expected_rmse = math.sqrt(sum((p - t) ** 2 for p, t in zip(pred, truth)) / n)
        expected_mape = 100.0 * sum(abs(p - t) / abs(t)
                                    for p, t in zip(pred, truth)) / n
        assert abs(rmse(pred, truth) - expected_rmse) < 1e-9
        assert abs(mape(pred, truth) - expected_mape) < 1e-9

    def test_rmse_unchanged_by_normalize_denormalize(self):
        rng = np.random.default_rng(5)
        pred = rng.uniform(2, 8, 20)
        truth = rng.uniform(2, 8, 20)
        lo, span = 1.5, 6.5
        pred_round_trip = ((pred - lo) / span) * span + lo
        assert abs(rmse(pred_round_trip, truth) - rmse(pred, truth)) < 1e-9

    def test_invariant_under_window_ordering(self):
        rng = np.random.default_rng(6)
        windows = [
            WindowResult(seed=0, offset=i, rmse=float(rng.uniform(0, 2)),
                         mape=float(rng.uniform(0, 50)), mape_skipped=0,
                         predicted=np.zeros(2), truth=np.ones(2))
            for i in range(8)
        ]
        spec = tiny_spec()
        fwd = MetricReport.from_windows(spec, "yesterday", 2, (0,), windows)
        rev = MetricReport.from_windows(spec, "yesterday", 2, (0,), windows[::-1])
        assert fwd.rmse_mean == rev.rmse_mean
        assert fwd.mape_std == rev.mape_std


class TestRunExperiment:
    def test_yesterday_deterministic_across_seeds_on_fixed_data(self, tmp_path):
        csv = tmp_path / "fixed.csv"
        write_csv(generate_synthetic(SyntheticConfig(length=260, seed=1)), csv)
        spec = tiny_spec()
        prepared = spec.prepare(ingest_csv(csv))
        report = run_experiment("yesterday", spec, [(s, prepared) for s in (0, 1, 2)])
        assert report.seeds == (0, 1, 2)
        by_seed = {s: [(w.offset, w.rmse, w.mape) for w in report.windows if w.seed == s]
                   for s in report.seeds}
        assert by_seed[0] and by_seed[0] == by_seed[1] == by_seed[2]

    def test_single_window_flagged_degenerate(self):
        spec = tiny_spec()
        report = run_experiment("yesterday", spec, synthetic_runs(spec, (2,), length=80))
        if len(report.windows) == 1:
            assert report.rmse_std == 0.0
            assert "std=0" in report.notes

    def test_metrics_recomputable_from_stored_predictions(self):
        spec = tiny_spec()
        report = run_experiment("ewma", spec, synthetic_runs(spec, (0, 1)))
        for w in report.windows:
            assert abs(rmse(w.predicted, w.truth) - w.rmse) < 1e-9
            assert abs(mape(w.predicted, w.truth) - w.mape) < 1e-9
        pooled = float(np.mean([w.rmse for w in report.windows]))
        assert abs(pooled - report.rmse_mean) < 1e-9

    def test_prediction_dumps_support_independent_recomputation(self, tmp_path):
        spec = tiny_spec()
        report = run_experiment("yesterday", spec, synthetic_runs(spec), out_dir=tmp_path)
        dump = tmp_path / "predictions_seed0.tsv"
        assert dump.exists()
        rows = [line.split("\t") for line in dump.read_text().splitlines()[1:]]
        by_offset: dict[int, list[tuple[float, float]]] = {}
        for offset, _, pred, truth in rows:
            by_offset.setdefault(int(offset), []).append((float(pred), float(truth)))
        for w in report.windows:
            pairs = by_offset[w.offset]
            pred = [p for p, _ in pairs]
            truth = [t for _, t in pairs]
            assert abs(rmse(pred, truth) - w.rmse) < 1e-9
        assert (tmp_path / "report.tsv").exists()

    def test_trained_method_runs_end_to_end(self):
        spec = tiny_spec()
        report = run_experiment("crnn", spec, synthetic_runs(spec))
        assert report.rmse_mean > 0.0
        assert report.windows

    def test_recurrent_baseline_runs_end_to_end(self):
        spec = tiny_spec()
        report = run_experiment("lstm", spec, synthetic_runs(spec))
        assert np.isfinite(report.mape_mean)

    def test_eval_windows_do_not_overlap_by_default(self):
        spec = tiny_spec()
        report = run_experiment("yesterday", spec, synthetic_runs(spec, (3,), length=400))
        offsets = sorted(w.offset for w in report.windows)
        for a, b in zip(offsets, offsets[1:]):
            assert b - a >= spec.input_length + spec.horizon

    def test_overlapping_stride_available(self):
        dense_spec, sparse_spec = tiny_spec(eval_stride=1), tiny_spec()
        dense = run_experiment("yesterday", dense_spec,
                               synthetic_runs(dense_spec, (4,), length=300))
        sparse = run_experiment("yesterday", sparse_spec,
                                synthetic_runs(sparse_spec, (4,), length=300))
        assert len(dense.windows) > len(sparse.windows)

    def test_num_series_slices_the_set(self):
        spec = tiny_spec()
        report = run_experiment("yesterday", spec, synthetic_runs(spec, num_series=1))
        assert report.num_series == 1

    @pytest.mark.parametrize("num_series", [0, -1])
    def test_num_series_below_one_rejected(self, num_series):
        # the series count is applied when a run's set is cut, before any scoring
        spec = tiny_spec()
        with pytest.raises(DataError, match=f"cannot take {num_series} of 2 series"):
            run_experiment("yesterday", spec, synthetic_runs(spec, num_series=num_series))

    def test_unknown_method_rejected(self):
        spec = tiny_spec()
        with pytest.raises(ValueError, match="arima"):
            run_experiment("arima", spec, synthetic_runs(spec))

    def test_no_runs_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            run_experiment("yesterday", tiny_spec(), iter(()))

    @pytest.mark.parametrize("stride", [0, -1])
    def test_eval_stride_below_one_rejected(self, stride):
        with pytest.raises(ValueError, match="eval_stride"):
            tiny_spec(eval_stride=stride)


class TestRobustness:
    def test_table_shape_and_cells(self):
        cset = generate_synthetic(SyntheticConfig(length=260, seed=5))
        report = robustness_experiment(cset.series[0], cset.series[1], tiny_spec(), (0,))
        assert set(report.mape) == {
            (row, model)
            for row in ("single", "correlated", "uncorrelated")
            for model in ("crnn", "aecrnn")
        }
        table = report.table()
        assert len(table.splitlines()) == 4  # header + 3 rows
        for value in report.mape.values():
            assert np.isfinite(value)

    def test_prepares_each_set_once(self, monkeypatch):
        # one prepare per (seed, row) set, shared by both models
        calls = []
        real_prepare = evaluation.prepare

        def counting_prepare(*args, **kwargs):
            calls.append(1)
            return real_prepare(*args, **kwargs)

        monkeypatch.setattr(evaluation, "prepare", counting_prepare)
        cset = generate_synthetic(SyntheticConfig(length=260, seed=5))
        robustness_experiment(cset.series[0], cset.series[1],
                              tiny_spec(train=TrainConfig(max_epochs=1)), (0, 1))
        assert len(calls) == 3 * 2

    def test_no_seeds_rejected(self):
        cset = generate_synthetic(SyntheticConfig(length=260, seed=5))
        with pytest.raises(ValueError, match="seed"):
            robustness_experiment(cset.series[0], cset.series[1], tiny_spec(), ())
