import math

import numpy as np
import pytest

from crnn_forecast import evaluation
from crnn_forecast.data import (CorrelatedSet, DataError, SyntheticConfig, TimeSeries,
                                generate_synthetic, ingest_csv, write_csv)
from crnn_forecast.evaluation import (ExperimentSpec, MetricReport, mape_detailed, rmse,
                                      robustness_experiment, run_experiment)
from crnn_forecast.training import SCORE_WINDOWS, TrainConfig

FAST_TRAIN = TrainConfig(max_epochs=3, batch_size=16, patience=3)


def mape(pred, truth) -> float:
    return mape_detailed(pred, truth)[0]


def tiny_spec(**overrides):
    return ExperimentSpec(**{"input_length": 8, "horizon": 2, "train": FAST_TRAIN,
                             **overrides})


def read_dump(path) -> dict[int, tuple[list[float], list[float]]]:
    """Window offset -> (forecasts, truths), from a predictions_seed*.tsv."""
    lines = path.read_text().splitlines()
    assert lines[0] == "window_offset\tstep\tpredicted\ttruth"
    by_offset: dict[int, tuple[list[float], list[float]]] = {}
    for offset, _, pred, truth in (line.split("\t") for line in lines[1:]):
        preds, truths = by_offset.setdefault(int(offset), ([], []))
        preds.append(float(pred))
        truths.append(float(truth))
    return by_offset


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
        rmses, mapes = rng.uniform(0, 2, 8), rng.uniform(0, 50, 8)
        spec = tiny_spec()
        fwd = MetricReport.from_scores(spec, "yesterday", 2, (0,), rmses, mapes, 0)
        rev = MetricReport.from_scores(spec, "yesterday", 2, (0,), rmses[::-1], mapes[::-1], 0)
        assert fwd.rmse_mean == rev.rmse_mean
        assert fwd.mape_std == rev.mape_std


class TestRunExperiment:
    def test_yesterday_deterministic_across_seeds_on_fixed_data(self, tmp_path):
        csv = tmp_path / "fixed.csv"
        write_csv(generate_synthetic(SyntheticConfig(length=260, seed=1)), csv)
        spec = tiny_spec()
        prepared = spec.prepare(ingest_csv(csv))
        report = run_experiment("yesterday", spec, [(s, prepared) for s in (0, 1, 2)],
                                out_dir=tmp_path / "out")
        assert report.seeds == (0, 1, 2)
        dumps = [(tmp_path / "out" / f"predictions_seed{s}.tsv").read_bytes()
                 for s in report.seeds]
        assert len(dumps[0].splitlines()) > 1 and dumps[0] == dumps[1] == dumps[2]

    def test_single_window_flagged_degenerate(self, tmp_path):
        # 80 values leave 13 test values: one window of l + p = 10 at stride 10
        spec = tiny_spec()
        report = run_experiment("yesterday", spec, synthetic_runs(spec, (2,), length=80),
                                out_dir=tmp_path)
        assert list(read_dump(tmp_path / "predictions_seed2.tsv")) == [0]
        assert report.rmse_std == 0.0
        assert "single-window:std=0" in report.notes

    def test_metrics_recomputable_from_prediction_dumps(self, tmp_path):
        # %.17g round-trips, so the dumps give back each window's metrics exactly
        spec = tiny_spec()
        report = run_experiment("ewma", spec, synthetic_runs(spec, (0, 1)), out_dir=tmp_path)
        windows = [pair for seed in (0, 1)
                   for pair in read_dump(tmp_path / f"predictions_seed{seed}.tsv").values()]
        rmses = np.array([rmse(pred, truth) for pred, truth in windows])
        mapes = np.array([mape(pred, truth) for pred, truth in windows])
        assert len(windows) > 1
        assert (report.rmse_mean, report.rmse_std) == (rmses.mean(), rmses.std())
        assert (report.mape_mean, report.mape_std) == (mapes.mean(), mapes.std())

    def test_prediction_dumps_hold_every_test_window(self, tmp_path):
        spec = tiny_spec()
        runs = synthetic_runs(spec)
        run_experiment("yesterday", spec, runs, out_dir=tmp_path)
        by_offset = read_dump(tmp_path / "predictions_seed0.tsv")
        prepared = runs[0][1]
        assert list(by_offset) == prepared.test.offsets.tolist()
        truths = prepared.norm.inverse_target(prepared.test.y)
        for truth, (_, dumped) in zip(truths, by_offset.values()):
            assert dumped == truth.tolist()
        assert (tmp_path / "report.tsv").exists()

    def test_trained_method_runs_end_to_end(self):
        spec = tiny_spec()
        report = run_experiment("crnn", spec, synthetic_runs(spec))
        assert report.rmse_mean > 0.0

    def test_recurrent_baseline_runs_end_to_end(self):
        spec = tiny_spec()
        report = run_experiment("lstm", spec, synthetic_runs(spec))
        assert np.isfinite(report.mape_mean)

    def test_eval_windows_do_not_overlap_by_default(self, tmp_path):
        spec = tiny_spec()
        run_experiment("yesterday", spec, synthetic_runs(spec, (3,), length=400),
                       out_dir=tmp_path)
        offsets = sorted(read_dump(tmp_path / "predictions_seed3.tsv"))
        assert len(offsets) > 1
        for a, b in zip(offsets, offsets[1:]):
            assert b - a >= spec.input_length + spec.horizon

    def test_overlapping_stride_available(self, tmp_path):
        counts = []
        for name, spec in (("dense", tiny_spec(eval_stride=1)), ("sparse", tiny_spec())):
            run_experiment("yesterday", spec, synthetic_runs(spec, (4,), length=300),
                           out_dir=tmp_path / name)
            counts.append(len(read_dump(tmp_path / name / "predictions_seed4.tsv")))
        assert counts[0] > counts[1]

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

    @pytest.mark.parametrize("smoothing", [0.0, -0.5, 1.5, math.nan])
    def test_ewma_smoothing_outside_unit_interval_rejected(self, smoothing):
        with pytest.raises(ValueError, match="smoothing"):
            tiny_spec(ewma_smoothing=smoothing)

    def test_repeated_seed_rejected(self, tmp_path):
        spec = tiny_spec()
        prepared = synthetic_runs(spec)[0][1]
        out = tmp_path / "e"
        with pytest.raises(ValueError, match="seed 0 is given twice"):
            run_experiment("yesterday", spec, [(0, prepared), (0, prepared)], out_dir=out)
        assert not out.exists()


class TestScore:
    @pytest.mark.parametrize("method", ["crnn", "aecrnn", "rnn", "lstm"])
    def test_forecasts_score_windows_per_call(self, monkeypatch, method):
        # eval stride 1 leaves more test windows than two slices, and not a multiple
        spec = tiny_spec(eval_stride=1, train_frac=0.3)
        (_, prepared), = synthetic_runs(spec, length=800)
        windows = len(prepared.test)
        assert windows > 2 * SCORE_WINDOWS and windows % SCORE_WINDOWS
        sizes, whole = [], []
        real_fit = evaluation.fit

        def recording_fit(*args, **kwargs):
            model, report = real_fit(*args, **kwargs)
            forecast = model.batch_forecast
            whole.append(forecast(prepared.test.x))

            def recording_forecast(x):
                sizes.append(len(x))
                return forecast(x)

            model.batch_forecast = recording_forecast
            return model, report

        monkeypatch.setattr(evaluation, "fit", recording_fit)
        preds, _ = evaluation._score(method, spec, prepared, seed=0)
        assert sizes == [min(SCORE_WINDOWS, windows - start)
                         for start in range(0, windows, SCORE_WINDOWS)]
        assert len(preds) == windows
        # slicing moves forecasts by rounding only (one batched call is the oracle)
        np.testing.assert_allclose(preds, prepared.norm.inverse_target(whole[0]),
                                   rtol=1e-12, atol=1e-15)


class TestRobustness:
    def test_table_shape_and_cells(self):
        cset = generate_synthetic(SyntheticConfig(length=260, seed=5))
        report = robustness_experiment(cset, tiny_spec(), (0,))
        assert set(report.mape) == {
            (row, model)
            for row in ("single", "correlated", "uncorrelated")
            for model in ("crnn", "aecrnn")
        }
        table = report.table()
        assert len(table.splitlines()) == 4  # header + 3 rows
        assert table.splitlines()[0] == "input\tcrnn_mape\taecrnn_mape"
        for value in report.mape.values():
            assert np.isfinite(value)

    @staticmethod
    def record_prepared_sets(monkeypatch) -> list:
        prepared_sets = []
        real_prepare = evaluation.prepare

        def recording_prepare(cset, *args, **kwargs):
            prepared_sets.append(cset)
            return real_prepare(cset, *args, **kwargs)

        monkeypatch.setattr(evaluation, "prepare", recording_prepare)
        return prepared_sets

    def test_prepares_each_set_once(self, monkeypatch):
        # one prepare per (seed, row) set, shared by both models
        prepared_sets = self.record_prepared_sets(monkeypatch)
        cset = generate_synthetic(SyntheticConfig(length=260, seed=5))
        robustness_experiment(cset, tiny_spec(train=TrainConfig(max_epochs=1)), (0, 1))
        rows = [["target"], ["target", "driver"], ["target", "target-uncorrelated"]]
        assert [[s.id for s in row.series] for row in prepared_sets] == rows * 2
        assert all(a is b for a, b in zip(prepared_sets[1].series, cset.series))

    def test_rows_use_the_first_two_series_of_a_wider_set(self, monkeypatch):
        prepared_sets = self.record_prepared_sets(monkeypatch)
        pair = generate_synthetic(SyntheticConfig(length=260, seed=5))
        wide = CorrelatedSet((*pair.series, TimeSeries("extra", pair.target.values)))
        robustness_experiment(wide, tiny_spec(train=TrainConfig(max_epochs=1)), (0,))
        assert [s.id for s in prepared_sets[1].series] == ["target", "driver"]

    def test_single_series_set_rejected(self):
        cset = generate_synthetic(SyntheticConfig(length=260, seed=5)).take(1)
        with pytest.raises(DataError, match="correlated series"):
            robustness_experiment(cset, tiny_spec(), (0,))

    def test_repeated_seed_rejected_before_any_set_is_prepared(self, monkeypatch):
        prepared_sets = self.record_prepared_sets(monkeypatch)
        cset = generate_synthetic(SyntheticConfig(length=260, seed=5))
        with pytest.raises(ValueError, match="seed 1 is given twice"):
            robustness_experiment(cset, tiny_spec(), (1, 0, 1))
        assert prepared_sets == []

    def test_no_seeds_rejected(self):
        cset = generate_synthetic(SyntheticConfig(length=260, seed=5))
        with pytest.raises(ValueError, match="seed"):
            robustness_experiment(cset, tiny_spec(), ())
