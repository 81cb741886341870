from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from crnn_forecast import models
from crnn_forecast.data import (SyntheticConfig, Windows, generate_synthetic, segment,
                                stack_samples, train_val_split)
from crnn_forecast.layers import ChannelMerge, Deconv1D, Dense
from crnn_forecast.models import (AECRNN, CELL_KINDS, CONV_ACTIVATIONS, CRNN, RNN_LAYOUTS,
                                  BaselineConfig, ModelConfig, ParamModel, load_checkpoint,
                                  model_from_checkpoint, save_checkpoint)
from crnn_forecast.training import (GRADCHECK_STEP, GRADCHECK_TOLERANCE, SCORE_WINDOWS, Adam,
                                    Sgd, TrainConfig, gradcheck, mean_j1, train)

SMALL = dict(num_series=2, input_length=8, horizon=2, conv_pool_stages=1,
             filters_per_layer=2, filter_size=3, rnn_hidden=4)


def reference_adam(lr, params, steps, b1=0.9, b2=0.999, eps=1e-8):
    """Adam one array at a time: the parameters after each step's gradients."""
    params = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    for t, grads in enumerate(steps, start=1):
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        for name, p in params.items():
            g = grads[name]
            m[name] *= b1
            m[name] += (1.0 - b1) * g
            v[name] *= b2
            v[name] += (1.0 - b2) * g * g
            p -= lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + eps)
    return params


def one_window(seed=0):
    """A batch of one (2, 8) window and its 2 targets."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (1, 2, 8)), rng.uniform(0, 1, (1, 2))


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
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=lr)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)


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

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_bits_as_the_per_array_loop(self, data):
        shapes = data.draw(st.lists(array_shapes(min_dims=0, max_dims=3, max_side=5),
                                    min_size=1, max_size=5), label="shapes")
        values = st.floats(-1e3, 1e3, allow_subnormal=True)
        lr = data.draw(st.sampled_from([1e-3, 0.1, 0.7]), label="lr")
        start = [data.draw(arrays(np.float64, shape, elements=values)) for shape in shapes]
        steps = [[data.draw(arrays(np.float64, shape, elements=values)) for shape in shapes]
                 for _ in range(data.draw(st.integers(1, 4), label="steps"))]
        names = [f"p{i}" for i in range(len(shapes))]
        params = {name: arr.copy() for name, arr in zip(names, start)}
        held = dict(params)
        adam = Adam(lr)
        expected = reference_adam(lr, dict(zip(names, start)),
                                  [dict(zip(names, g)) for g in steps])
        for grads in steps:
            adam.step(params, dict(zip(names, grads)))
        for name in names:
            assert params[name] is held[name]
            assert params[name].tobytes() == expected[name].tobytes(), name

    def test_refuses_another_parameter_set(self):
        adam = Adam(0.1)
        adam.step({"w": np.zeros(2)}, {"w": np.ones(2)})
        with pytest.raises(ValueError, match="laid out"):
            adam.step({"v": np.zeros(2)}, {"v": np.ones(2)})


class TestTrain:
    def test_single_sample_overfit(self):
        model = CRNN(ModelConfig(**SMALL, seed=0))
        cfg = TrainConfig(learning_rate=1e-2, max_epochs=2000, patience=2000,
                          batch_size=1, seed=0)
        _, report = train(model, Windows(*one_window(), np.arange(1)), cfg)
        assert report.best_val_j1 < 1e-4

    def test_deterministic_reports(self):
        samples = toy_samples()
        tr, val = train_val_split(samples)
        runs = []
        for _ in range(2):
            model = AECRNN(ModelConfig(**SMALL, seed=1))
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
        model = AECRNN(ModelConfig(**SMALL, seed=3))
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
        x, y = stack_samples(val)
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
        x, y = stack_samples(val)
        assert np.isfinite(model.batch_loss(x, y).j)

    def test_empty_samples_rejected(self):
        model = CRNN(ModelConfig(**SMALL))
        with pytest.raises(ValueError):
            train(model, toy_samples()[:0], TrainConfig())

    @pytest.mark.parametrize("windows", [1, 7, SCORE_WINDOWS - 1, SCORE_WINDOWS,
                                         SCORE_WINDOWS + 1, 2 * SCORE_WINDOWS + 3])
    def test_batched_monitored_loss_equals_full_set_loss(self, windows):
        x, y = stack_samples(toy_samples(length=2 * SCORE_WINDOWS + 12, seed=8))
        x, y = x[:windows], y[:windows]
        model = AECRNN(ModelConfig(**SMALL, seed=8))
        full = model.batch_loss(x, y).j1
        assert abs(mean_j1(model, x, y) - full) <= 1e-12 * full

    def test_checkpoint_reproduces_validation_loss_bitwise(self, tmp_path):
        samples = toy_samples(seed=7)
        tr, val = train_val_split(samples)
        model = AECRNN(ModelConfig(**SMALL, seed=7))
        _, report = train(model, tr, TrainConfig(max_epochs=6, seed=7),
                          val_samples=val)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model)
        rebuilt, _ = model_from_checkpoint(*load_checkpoint(path))
        x, y = stack_samples(val)
        assert rebuilt.batch_loss(x, y).j1 == report.best_val_j1

    def test_a_decoder_made_non_finite_by_the_last_step_diverges(self, monkeypatch):
        # The monitored loss reads no decoder output, so only the check of
        # every parameter after an epoch's steps keeps this inf out of the
        # best parameters.
        tr, val = train_val_split(toy_samples(seed=9))
        model = AECRNN(ModelConfig(**SMALL, seed=9))
        cfg = TrainConfig(max_epochs=3, patience=3, seed=9)
        steps = cfg.max_epochs * -(-len(tr) // cfg.batch_size)
        real, calls = Adam.step, []

        def step(self, params, grads):
            real(self, params, grads)
            calls.append(1)
            if len(calls) == steps:
                params["merge.w"][...] = np.inf

        monkeypatch.setattr(Adam, "step", step)
        with np.errstate(over="ignore", invalid="ignore"):
            _, report = train(model, tr, cfg, val_samples=val)
        assert len(calls) == steps
        assert report.stopping_reason == "diverged"
        assert len(report.epochs) == cfg.max_epochs - 1
        assert all(np.isfinite(p).all() for p in model.params.values())


def _counted(monkeypatch, cls, method: str, log: list) -> None:
    """Append the windows of each call of ``cls.method`` to ``log``."""
    real = getattr(cls, method)

    def counting(self, x, *args, **kwargs):
        log.append(x)
        return real(self, x, *args, **kwargs)

    monkeypatch.setattr(cls, method, counting)


class TestMonitoredLoss:
    """Validation scores the forecasts alone, SCORE_WINDOWS windows per call."""

    @pytest.mark.parametrize("stages", [1, 2])
    def test_validation_runs_no_decoder_in_bounded_slices(self, monkeypatch, stages):
        rng = np.random.default_rng(stages)
        n_train, n_val, epochs, batch = 40, 2 * SCORE_WINDOWS + 3, 2, 32
        train_set = Windows(rng.uniform(0, 1, (n_train, 2, 8)), rng.uniform(0, 1, (n_train, 2)),
                            np.arange(n_train))
        x_val, y_val = rng.uniform(0, 1, (n_val, 2, 8)), rng.uniform(0, 1, (n_val, 2))
        model = AECRNN(ModelConfig(**{**SMALL, "conv_pool_stages": stages}, seed=stages))
        deconvs, merges, losses = [], [], []
        _counted(monkeypatch, Deconv1D, "forward", deconvs)
        _counted(monkeypatch, ChannelMerge, "forward", merges)
        _counted(monkeypatch, AECRNN, "batch_loss", losses)
        _, report = train(model, train_set,
                          TrainConfig(batch_size=batch, max_epochs=epochs, patience=epochs),
                          val_samples=Windows(x_val, y_val, np.arange(n_val)))
        assert len(report.epochs) == epochs
        batches = epochs * -(-n_train // batch)
        assert (len(deconvs), len(merges)) == (batches * stages, batches)
        starts = range(0, n_val, SCORE_WINDOWS)
        assert [len(x) for x in losses] == epochs * [min(SCORE_WINDOWS, n_val - s) for s in starts]
        for x, start in zip(losses, epochs * list(starts)):
            assert np.array_equal(x, x_val[start:start + SCORE_WINDOWS])


class _LinearToy(ParamModel):
    """Dense map on the flattened window; quadratic loss, so finite
    differences are essentially exact."""

    kind = "linear-toy"

    def __init__(self, num_series=2, input_length=4, horizon=2, seed=0):
        super().__init__(BaselineConfig(num_series, input_length, horizon, seed=seed))
        self._dense = Dense(num_series * input_length, horizon,
                            np.random.default_rng(seed))
        self._register("dense", self._dense)

    # the flattened window is the code and the dense map the whole head
    def _head(self, x):
        return self._dense.forward(x.reshape(x.shape[0], -1))

    def _head_backward(self, cache, dz, grads):
        _, dense_grads = self._dense.backward(cache, dz)
        grads.update({f"dense.{k}": v for k, v in dense_grads.items()})


class TestGradcheck:
    def test_linear_toy_is_essentially_exact(self):
        # well-scaled quadratic: every gradient entry is O(1), so the only
        # error left is finite-difference rounding noise
        rng = np.random.default_rng(0)
        model = _LinearToy()
        x, y = rng.uniform(0.5, 1.5, (1, 2, 4)), rng.uniform(4.0, 6.0, (1, 2))
        report = gradcheck(model, x, y)
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_full_model_passes(self):
        model = AECRNN(ModelConfig(
            num_series=2, input_length=8, horizon=2, conv_pool_stages=1,
            filters_per_layer=2, filter_size=3, rnn_hidden=3, seed=0))
        report = gradcheck(model, *one_window(1))
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
        report = gradcheck(model, *one_window(2))
        assert not report.passed
        assert any(name == "readout.w" for name, *_ in report.failures)
        assert "readout.w" in report.summary()

    @pytest.mark.parametrize("tolerance", [float("nan"), -1e-5])
    def test_unusable_tolerance_rejected(self, tolerance):
        # rel > nan is always false, so a NaN tolerance would pass any gradient
        x, y = np.ones((1, 2, 4)), np.ones((1, 2))
        with pytest.raises(ValueError, match="tolerance"):
            gradcheck(_LinearToy(), x, y, tolerance=tolerance)

    def test_report_counts_every_parameter(self):
        rng = np.random.default_rng(3)
        model = _LinearToy()
        x, y = rng.uniform(0, 1, (1, 2, 4)), rng.uniform(0, 1, (1, 2))
        report = gradcheck(model, x, y)
        assert report.num_checked == sum(p.size for p in model.params.values())


KINK_STEP_DIVISOR = 100  # how much smaller the kink re-check's step is than GRADCHECK_STEP


def one_sided_slopes(model, x, y, name, i, step):
    """The objective's backward and forward differences in entry i of
    parameter ``name``, each over ``step``; the entry is restored after."""
    flat = model.params[name].reshape(-1)
    saved = flat[i]
    flat[i] = saved - step
    down = model.batch_backward(x, y)[0].j
    flat[i] = saved + step
    up = model.batch_backward(x, y)[0].j
    flat[i] = saved
    centre = model.batch_backward(x, y)[0].j
    return (centre - down) / step, (up - centre) / step


def assert_gradcheck_passes_up_to_rounding_or_kink(model, x, y):
    """gradcheck passes at GRADCHECK_TOLERANCE, except on entries whose error
    is the central difference's own rounding, |a - numeric| <= 16 eps |J| /
    GRADCHECK_STEP (some 3.6e-9 |J|), or a kink: a max-pool or ReLU switch
    within one step of the point, where the central difference averages two
    slopes. Such an entry passes only if its one-sided differences differ by
    at least its error and the central difference at a step KINK_STEP_DIVISOR
    times smaller passes at GRADCHECK_TOLERANCE."""
    report = gradcheck(model, x, y)
    objective = model.batch_backward(x, y)[0].j
    rounding = 16 * np.finfo(np.float64).eps * abs(objective) / GRADCHECK_STEP
    for name, i, a, numeric, _ in report.failures:
        if abs(a - numeric) <= rounding:
            continue
        down, up = one_sided_slopes(model, x, y, name, i, GRADCHECK_STEP)
        assert abs(up - down) >= abs(a - numeric), report.summary()
        step = GRADCHECK_STEP / KINK_STEP_DIVISOR
        down, up = one_sided_slopes(model, x, y, name, i, step)
        numeric = 0.5 * (up + down)
        assert abs(a - numeric) <= GRADCHECK_TOLERANCE * max(abs(a) + abs(numeric), 1e-6), (
            f"{name}[{i}]: analytic {a!r}, central difference {numeric!r} at step {step!r}; "
            f"{report.summary()}")


class TestGradientExactness:
    """Hand-derived gradients against gradcheck's central differences, over
    drawn small CRNN and AECRNN configurations, with the per-series layers
    run as one group or, with ``models.SPLIT_MIN_VALUES`` at 0, split across
    two threads."""

    @given(kind=st.sampled_from([CRNN, AECRNN]), stages=st.integers(1, 2), data=st.data(),
           cell=st.sampled_from(CELL_KINDS), layout=st.sampled_from(RNN_LAYOUTS),
           activation=st.sampled_from(CONV_ACTIVATIONS), split=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_gradcheck_passes_up_to_difference_rounding(self, kind, stages, data, cell, layout,
                                                        activation, split, seed):
        """assert_gradcheck_passes_up_to_rounding_or_kink holds. gradcheck
        floors the relative error's denominator at 1e-6, so a correct gradient
        near 1e-6 fails it by the difference's rounding alone, in about 1 of 20
        such configurations (a dropped factor in any gradient is far above the
        bound)."""
        unit = 2 ** stages
        cfg = ModelConfig(
            num_series=data.draw(st.integers(1, 3), label="n"),
            input_length=unit * data.draw(st.integers(-(-4 // unit), 16 // unit), label="l"),
            horizon=data.draw(st.integers(1, 3), label="p"), conv_pool_stages=stages,
            filters_per_layer=data.draw(st.integers(1, 3), label="filters"),
            filter_size=data.draw(st.integers(1, 5), label="filter size"),
            rnn_hidden=data.draw(st.integers(1, 3), label="hidden"), cell_kind=cell,
            rnn_layout=layout, conv_activation=activation, seed=seed, allow_off_grid=True)
        rng = np.random.default_rng(seed)
        batch = data.draw(st.integers(1, 3), label="batch")
        x = rng.uniform(0.0, 1.0, (batch, cfg.num_series, cfg.input_length))
        y = rng.uniform(0.0, 1.0, (batch, cfg.horizon))
        model = kind(cfg)
        with mock.patch.object(models, "SPLIT_MIN_VALUES",
                               0 if split else models.SPLIT_MIN_VALUES):
            assert_gradcheck_passes_up_to_rounding_or_kink(model, x, y)

    def test_gradcheck_passes_across_a_max_pool_tie(self):
        """A drawn case where conv0.b[3] lies about 1e-6 above a max-pool tie:
        gradcheck's central difference at GRADCHECK_STEP averages the slopes
        on either side (rel error 4.4e-2), while the analytic gradient is
        right, as the one-sided differences show."""
        cfg = ModelConfig(num_series=2, input_length=8, horizon=1, conv_pool_stages=2,
                          filters_per_layer=3, filter_size=4, rnn_hidden=1, cell_kind="rnn",
                          rnn_layout="sequence", conv_activation="linear", seed=25910,
                          allow_off_grid=True)
        rng = np.random.default_rng(25910)
        x = rng.uniform(0.0, 1.0, (1, cfg.num_series, cfg.input_length))
        y = rng.uniform(0.0, 1.0, (1, cfg.horizon))
        model = CRNN(cfg)
        assert [entry[:2] for entry in gradcheck(model, x, y).failures] == [("conv0.b", 3)]
        assert_gradcheck_passes_up_to_rounding_or_kink(model, x, y)
