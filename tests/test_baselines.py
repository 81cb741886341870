import numpy as np
import pytest

from crnn_forecast.baselines import ewma_batch, yesterday_batch
from crnn_forecast.data import CorrelatedSet, TimeSeries, segment
from crnn_forecast.models import (MODELS, RecurrentBaseline, load_checkpoint,
                                  model_from_checkpoint, save_checkpoint)
from crnn_forecast.training import TrainConfig, train


def window_of(target_row, extra_rows=0):
    """A batch of one window whose first row is target_row."""
    rows = [target_row] + [[0.0] * len(target_row)] * extra_rows
    return np.array([rows], dtype=np.float64)


class TestYesterday:
    def test_repeats_last_value(self):
        f = yesterday_batch(window_of([1.0, 2.0, 3.2]), 4)
        assert f.tolist() == [[3.2, 3.2, 3.2, 3.2]]

    def test_constant_series_zero_error(self):
        f = yesterday_batch(window_of([5.0] * 6), 3)
        assert np.array_equal(f, np.full((1, 3), 5.0))

    def test_single_step_horizon(self):
        f = yesterday_batch(window_of([1.0, 7.0]), 1)
        assert f.tolist() == [[7.0]]

    def test_ignores_other_series(self):
        a = yesterday_batch(window_of([1.0, 2.0]), 2)
        b = yesterday_batch(window_of([1.0, 2.0], extra_rows=2), 2)
        assert np.array_equal(a, b)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            yesterday_batch(window_of([1.0]), 0)


class TestEwma:
    def test_full_smoothing_equals_yesterday(self):
        w = window_of([3.0, 1.0, 4.0, 1.5])
        assert np.array_equal(ewma_batch(w, 1.0, 5), yesterday_batch(w, 5))

    def test_half_smoothing_worked_example(self):
        f = ewma_batch(window_of([0.0, 1.0]), 0.5, 3)
        assert f.tolist() == [[0.5, 0.5, 0.5]]

    def test_constant_series(self):
        f = ewma_batch(window_of([2.5] * 8), 0.3, 2)
        assert f.shape == (1, 2) and np.allclose(f, 2.5)

    def test_invalid_smoothing_rejected(self):
        w = window_of([1.0, 2.0])
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ewma_batch(w, bad, 2)

    @pytest.mark.parametrize("case", range(20))
    def test_matches_hand_recurrence(self, case):
        rng = np.random.default_rng(case)
        length = int(rng.integers(2, 30))
        horizon = int(rng.integers(1, 6))
        smoothing = float(rng.uniform(0.05, 1.0))
        values = rng.uniform(-10, 10, length)
        # independent oracle: plain python recurrence
        level = float(values[0])
        for x in values[1:]:
            level = smoothing * float(x) + (1.0 - smoothing) * level
        got = ewma_batch(window_of(list(values)), smoothing, horizon)
        assert got.tolist() == [[level] * horizon]


class TestRecurrentBaseline:
    def constant_samples(self, value=0.6, n=30, l=6, p=2):
        cset = CorrelatedSet((TimeSeries("t", np.full(n, value)),))
        return segment(cset, l, p)

    def fitted(self, kind, samples, cfg, **fields):
        model = MODELS[kind](dict(num_series=1, input_length=6, horizon=2, **fields))
        _, report = train(model, samples, cfg)
        return model, report

    def test_overfits_constant_series(self):
        samples = self.constant_samples()
        cfg = TrainConfig(learning_rate=1e-2, max_epochs=300, patience=300,
                          batch_size=8, seed=0)
        model, _ = self.fitted("rnn", samples, cfg, rnn_hidden=4,
                               features="target", seed=0)
        pred, _ = model.forward(samples[0].input)
        assert np.max(np.abs(pred.values - 0.6)) < 0.01

    def test_deterministic_training(self):
        samples = self.constant_samples()
        cfg = TrainConfig(max_epochs=5, seed=3)
        m1, r1 = self.fitted("lstm", samples, cfg, rnn_hidden=3, seed=3)
        m2, r2 = self.fitted("lstm", samples, cfg, rnn_hidden=3, seed=3)
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])
        assert r1.epochs == r2.epochs

    def test_feature_modes_change_input_width(self):
        target_only = RecurrentBaseline("rnn", 3, 8, 2, hidden=4, features="target")
        all_series = RecurrentBaseline("rnn", 3, 8, 2, hidden=4, features="all")
        assert target_only.params["rnn.w_xh"].shape == (4, 1)
        assert all_series.params["rnn.w_xh"].shape == (4, 3)

    def test_forecast_plug_compatibility(self):
        model = RecurrentBaseline("lstm", 2, 8, 3, hidden=4, seed=1)
        window = np.random.default_rng(0).uniform(0, 1, (2, 8))
        forecast, recon = model.forward(window)
        assert forecast.values.shape == (3,) and recon is None

    def test_checkpoint_round_trip(self, tmp_path):
        model = RecurrentBaseline("lstm", 2, 8, 3, hidden=4, features="target",
                                  seed=5)
        path = tmp_path / "b.txt"
        save_checkpoint(path, model)
        rebuilt, _ = model_from_checkpoint(*load_checkpoint(path))
        assert rebuilt.kind == "lstm-baseline"
        assert rebuilt.features == "target"
        for k in model.params:
            assert np.array_equal(rebuilt.params[k], model.params[k])
