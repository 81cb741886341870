import numpy as np
import pytest

from crnn_forecast.data import (CorrelatedSet, SyntheticConfig, TimeSeries,
                                WindowSample, generate_synthetic, segment,
                                train_val_split)
from crnn_forecast.layers import Dense
from crnn_forecast.models import (CRNN, LossBreakdown, ModelConfig, ParamModel,
                                  build_model, load_checkpoint,
                                  model_from_checkpoint, save_checkpoint)
from crnn_forecast.tensor import Tensor
from crnn_forecast.training import (Adam, GradcheckReport, Sgd, TrainConfig,
                                    gradcheck, mean_j1, train)

SMALL = dict(num_series=2, input_length=8, horizon=2, conv_pool_stages=1,
             filters_per_layer=2, filter_size=3, rnn_hidden=4)


def one_window(seed=0):
    rng = np.random.default_rng(seed)
    return WindowSample(0, Tensor(rng.uniform(0, 1, (2, 8))), rng.uniform(0, 1, 2))


def toy_samples(length=120, l=8, p=2, seed=0):
    cset = generate_synthetic(SyntheticConfig(length=length, seed=seed))
    return segment(cset, l, p)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="momentum")


class TestOptimizers:
    def test_sgd_step(self):
        params = {"w": np.array([1.0, 2.0])}
        Sgd(0.1).step(params, {"w": np.array([1.0, -1.0])})
        assert np.allclose(params["w"], [0.9, 2.1])

    def test_adam_first_step_is_signed_learning_rate(self):
        params = {"w": np.array([0.0, 0.0])}
        Adam(0.1).step(params, {"w": np.array([3.0, -0.5])})
        # bias-corrected first step moves by ~lr in the gradient's direction
        assert np.allclose(params["w"], [-0.1, 0.1], atol=1e-6)

    def test_inplace_updates_preserve_identity(self):
        arr = np.zeros(2)
        params = {"w": arr}
        Adam(0.1).step(params, {"w": np.ones(2)})
        assert params["w"] is arr


class TestTrain:
    def test_single_sample_overfit(self):
        model = CRNN(ModelConfig(**SMALL, seed=0))
        cfg = TrainConfig(learning_rate=1e-2, max_epochs=2000, patience=2000,
                          batch_size=1, seed=0)
        _, report = train(model, [one_window()], cfg)
        assert report.best_val_j1 < 1e-4

    def test_deterministic_reports(self):
        samples = toy_samples()
        tr, val = train_val_split(samples)
        runs = []
        for _ in range(2):
            model = build_model("aecrnn", ModelConfig(**SMALL, seed=1))
            _, report = train(model, tr, TrainConfig(max_epochs=8, seed=1),
                              val_samples=val)
            runs.append(report)
        assert runs[0].epochs == runs[1].epochs
        assert runs[0].best_epoch == runs[1].best_epoch
        assert runs[0].best_val_j1 == runs[1].best_val_j1

    def test_best_so_far_never_increases(self):
        samples = toy_samples(seed=2)
        tr, val = train_val_split(samples)
        model = CRNN(ModelConfig(**SMALL, seed=2))
        _, report = train(model, tr, TrainConfig(max_epochs=15, seed=2),
                          val_samples=val)
        best = float("inf")
        for e in report.epochs:
            best = min(best, e.val_j1)
        assert best == report.best_val_j1

    def test_j_equals_j1_plus_j2_every_epoch(self):
        samples = toy_samples(seed=3)
        tr, val = train_val_split(samples)
        model = build_model("aecrnn", ModelConfig(**SMALL, seed=3))
        _, report = train(model, tr, TrainConfig(max_epochs=6, seed=3),
                          val_samples=val)
        for e in report.epochs:
            assert e.j == e.j1 + e.j2

    def test_early_stopping_reason(self):
        samples = toy_samples(seed=4)
        tr, val = train_val_split(samples)
        model = CRNN(ModelConfig(**SMALL, seed=4))
        _, report = train(model, tr,
                          TrainConfig(max_epochs=500, patience=3, seed=4),
                          val_samples=val)
        assert report.stopping_reason in ("early-stopping", "max-epochs")
        if report.stopping_reason == "early-stopping":
            assert len(report.epochs) < 500

    def test_returned_params_reproduce_best_validation_loss(self):
        samples = toy_samples(seed=5)
        tr, val = train_val_split(samples)
        model = CRNN(ModelConfig(**SMALL, seed=5))
        _, report = train(model, tr, TrainConfig(max_epochs=10, seed=5),
                          val_samples=val)
        x = np.stack([s.input.array for s in val])
        y = np.stack([s.target for s in val])
        assert model.batch_loss(x, y).j1 == report.best_val_j1

    def test_divergence_aborts_with_last_finite_checkpoint(self):
        samples = toy_samples(seed=6)
        tr, val = train_val_split(samples)
        model = CRNN(ModelConfig(**SMALL, seed=6))
        cfg = TrainConfig(optimizer="sgd", learning_rate=1e12,
                          max_epochs=50, patience=50, seed=6)
        with np.errstate(over="ignore", invalid="ignore"):
            _, report = train(model, tr, cfg, val_samples=val)
        assert report.stopping_reason == "diverged"
        # restored parameters must still evaluate to something finite
        x = np.stack([s.input.array for s in val])
        y = np.stack([s.target for s in val])
        assert np.isfinite(model.batch_loss(x, y).j)

    def test_empty_samples_rejected(self):
        model = CRNN(ModelConfig(**SMALL))
        with pytest.raises(ValueError):
            train(model, [], TrainConfig())

    @pytest.mark.parametrize("batch_size", [1, 7, 32, 1000])
    def test_batched_monitored_loss_equals_full_set_loss(self, batch_size):
        samples = toy_samples(seed=8)
        model = build_model("aecrnn", ModelConfig(**SMALL, seed=8))
        x = np.stack([s.input.array for s in samples])
        y = np.stack([s.target for s in samples])
        full = model.batch_loss(x, y).j1
        assert abs(mean_j1(model, x, y, batch_size) - full) <= 1e-12 * full

    def test_checkpoint_reproduces_validation_loss_bitwise(self, tmp_path):
        samples = toy_samples(seed=7)
        tr, val = train_val_split(samples)
        model = build_model("aecrnn", ModelConfig(**SMALL, seed=7))
        _, report = train(model, tr, TrainConfig(max_epochs=6, seed=7),
                          val_samples=val)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model)
        rebuilt, _ = model_from_checkpoint(*load_checkpoint(path))
        x = np.stack([s.input.array for s in val])
        y = np.stack([s.target for s in val])
        assert rebuilt.batch_loss(x, y).j1 == report.best_val_j1


class _LinearToy(ParamModel):
    """Dense map on the flattened window; quadratic loss, so finite
    differences are essentially exact."""

    kind = "linear-toy"

    def __init__(self, num_series=2, input_length=4, horizon=2, seed=0):
        super().__init__()
        self.num_series = num_series
        self.input_length = input_length
        self.horizon = horizon
        self._dense = Dense(num_series * input_length, horizon,
                            np.random.default_rng(seed))
        self._register("dense", self._dense)

    def batch_forecast(self, x):
        self._check_batch(x)
        z, _ = self._dense.forward(x.reshape(x.shape[0], -1))
        return z

    def batch_loss(self, x, y):
        z = self.batch_forecast(x)
        return self._finished_loss(LossBreakdown.of(float(np.mean((z - y) ** 2))))

    def batch_backward(self, x, y, **_):
        self._check_batch(x)
        flat = x.reshape(x.shape[0], -1)
        z, cache = self._dense.forward(flat)
        loss = self._finished_loss(LossBreakdown.of(float(np.mean((z - y) ** 2))))
        dz = 2.0 * (z - y) / y.size
        _, dense_grads = self._dense.backward(cache, dz)
        grads = self.zero_grads()
        for k, v in dense_grads.items():
            grads[f"dense.{k}"] += v
        return loss, grads


class TestGradcheck:
    def test_linear_toy_is_essentially_exact(self):
        # well-scaled quadratic: every gradient entry is O(1), so the only
        # error left is finite-difference rounding noise
        rng = np.random.default_rng(0)
        model = _LinearToy()
        sample = WindowSample(0, Tensor(rng.uniform(0.5, 1.5, (2, 4))),
                              rng.uniform(4.0, 6.0, 2))
        report = gradcheck(model, sample)
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_full_model_passes(self):
        model = build_model("aecrnn", ModelConfig(
            num_series=2, input_length=8, horizon=2, conv_pool_stages=1,
            filters_per_layer=2, filter_size=3, rnn_hidden=3, seed=0))
        report = gradcheck(model, one_window(1))
        assert report.passed, report.summary()
        assert report.max_rel_error < 1e-5

    def test_corrupted_gradient_reported_by_name(self):
        model = CRNN(ModelConfig(**SMALL, seed=8))
        original = model.batch_backward

        def corrupted(x, y, **kw):
            loss, grads = original(x, y, **kw)
            grads["readout.w"][0, 0] += 1.0
            return loss, grads

        model.batch_backward = corrupted
        report = gradcheck(model, one_window(2))
        assert not report.passed
        assert any(name == "readout.w" for name, *_ in report.failures)
        assert "readout.w" in report.summary()

    def test_report_counts_every_parameter(self):
        rng = np.random.default_rng(3)
        model = _LinearToy()
        sample = WindowSample(0, Tensor(rng.uniform(0, 1, (2, 4))),
                              rng.uniform(0, 1, 2))
        report = gradcheck(model, sample)
        assert report.num_checked == model.num_params
