import concurrent.futures
import math
import operator
import shutil
import string
import struct
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import numeric_grad, rel_error
from crnn_forecast import layers, models
from crnn_forecast.data import DataError, Normalizer
from crnn_forecast.models import (AECRNN, CRNN, BaselineConfig, ConfigError, MODELS,
                                  LossBreakdown, ModelConfig, joint_loss, load_checkpoint,
                                  model_from_checkpoint, save_checkpoint)
from crnn_forecast.tensor import NumericError, ShapeError, Tensor
from crnn_forecast.training import Adam

FIXTURES = Path(__file__).with_name("data")
FORMAT2_TRAINED = FIXTURES / "checkpoint_format2_aecrnn_trained.txt"
SMALL = dict(num_series=2, input_length=8, horizon=2, conv_pool_stages=1,
             filters_per_layer=2, filter_size=3, rnn_hidden=3)


def small_config(**overrides):
    kwargs = {**SMALL, **overrides}
    return ModelConfig(**kwargs)


def random_case(config, seed):
    rng = np.random.default_rng(seed)
    window = rng.uniform(0.0, 1.0, (config.num_series, config.input_length))
    target = rng.uniform(0.0, 1.0, config.horizon)
    return window, target


class TestModelConfig:
    def test_divisibility_contract(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(num_series=1, input_length=51, horizon=5)

    def test_off_grid_rejected_unless_overridden(self):
        with pytest.raises(ConfigError, match="grid"):
            small_config(filters_per_layer=7)
        cfg = small_config(filters_per_layer=7, allow_off_grid=True)
        assert cfg.filters_per_layer == 7

    @pytest.mark.parametrize("field", ["filters_per_layer", "filter_size", "rnn_hidden"])
    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("off_grid", [False, True])
    def test_size_below_one_rejected_by_name_before_the_grid(self, field, value, off_grid):
        with pytest.raises(ConfigError, match=f"^{field} must be at least 1, got {value}$"):
            small_config(**{field: value}, allow_off_grid=off_grid)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            small_config(seed=-1)

    def test_feature_vector_length_formula(self):
        cfg = ModelConfig(num_series=3, input_length=8, horizon=2,
                          filters_per_layer=3)
        assert cfg.feature_vector_length == 3 * 3 * 4 == 36

    def test_pooled_length_per_stage(self):
        cfg = ModelConfig(num_series=1, input_length=24, horizon=2,
                          conv_pool_stages=3)
        assert cfg.pooled_length == 3

    def test_fields_round_trip(self):
        cfg = small_config(cell_kind="lstm", conv_activation="tanh", seed=9)
        assert ModelConfig.from_fields(cfg.to_fields()) == cfg


class TestRecurrentBaselineConfig:
    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    @pytest.mark.parametrize("hidden", [0, -3])
    def test_hidden_below_one_rejected_by_name(self, kind, hidden):
        with pytest.raises(ConfigError, match=f"hidden must be at least 1, got {hidden}"):
            MODELS[kind](dict(num_series=2, input_length=8, horizon=2, rnn_hidden=hidden))

    @pytest.mark.parametrize("kind", ["rnn", "lstm"])
    def test_negative_seed_rejected_by_name(self, kind):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            MODELS[kind](dict(num_series=2, input_length=8, horizon=2, rnn_hidden=3, seed=-1))

    @pytest.mark.parametrize("field, value, message", [
        ("num_series", 0, "num_series must be at least 1"),
        ("input_length", 0, "input_length and horizon must be positive"),
        ("horizon", -1, "input_length and horizon must be positive"),
        ("rnn_hidden", 0, "hidden must be at least 1, got 0"),
        ("features", "bogus", "unknown feature mode 'bogus'"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_each_bad_field_refused_by_name(self, field, value, message):
        fields = dict(num_series=2, input_length=8, horizon=2, rnn_hidden=3)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            BaselineConfig(**{**fields, field: value})

    def test_fields_round_trip_in_header_order(self):
        cfg = BaselineConfig(3, 8, 2, rnn_hidden=5, features="target", seed=4)
        assert list(cfg.to_fields().items()) == [
            ("num_series", "3"), ("input_length", "8"), ("horizon", "2"),
            ("rnn_hidden", "5"), ("features", "target"), ("seed", "4")]
        assert BaselineConfig.from_fields(cfg.to_fields()) == cfg


class TestLossFunctions:
    def test_perfect_forecast(self):
        assert joint_loss(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))[0].j == 0.0

    def test_worked_example(self):
        lb, dz, d_recon = joint_loss(np.array([[1.0, 2.0]]), np.array([[1.0, 4.0]]))
        assert lb.j1 == 2.0 and lb.j2 == 0.0 and lb.j == 2.0
        assert dz.tolist() == [[0.0, -2.0]] and d_recon is None

    def test_quadratic_scaling(self):
        base, _, _ = joint_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
        scaled, _, _ = joint_loss(np.array([[3.0, 6.0]]), np.array([[0.0, 0.0]]))
        assert scaled.j1 == 9.0 * base.j1

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            joint_loss(np.array([[1.0]]), np.array([[1.0, 2.0]]))
        with pytest.raises(ShapeError):
            joint_loss(np.array([[1.0]]), np.array([[1.0]]), np.ones((1, 2, 2)),
                       np.ones((1, 2, 3)))

    def test_joint_loss_perfect(self):
        window = np.full((1, 2, 2), 0.5)
        lb, _, _ = joint_loss(np.array([[1.0]]), np.array([[1.0]]), window.copy(), window)
        assert lb.j == 0.0

    def test_joint_loss_worked_example(self):
        # |X|=2, l=2, every reconstruction off by 1.0, perfect forecast:
        # j2 = 4 unit squared errors / (2*2) = 1.0
        window = np.zeros((1, 2, 2))
        recon = np.ones((1, 2, 2))
        lb, _, d_recon = joint_loss(np.array([[3.0]]), np.array([[3.0]]), recon, window)
        assert lb.j1 == 0.0 and lb.j2 == 1.0 and lb.j == 1.0
        assert np.array_equal(d_recon, np.full((1, 2, 2), 0.5))

    def test_reconstruction_reference_is_clamped(self):
        # windows outside [0, 1] are compared with their clamp; forecasts never are
        window = np.array([[[-2.0, 3.0]]])
        recon = np.array([[[0.0, 1.0]]])
        lb, _, _ = joint_loss(np.array([[5.0]]), np.array([[5.0]]), recon, window)
        assert lb.j2 == 0.0

    def test_non_finite_objective_is_numeric_error(self):
        with pytest.raises(NumericError, match="diverged"):
            joint_loss(np.array([[np.inf]]), np.array([[0.0]]))

    def test_nan_objective_is_numeric_error(self):
        with pytest.raises(NumericError, match="diverged"):
            joint_loss(np.array([[np.nan, 1.0]]), np.zeros((1, 2)))

    def test_breakdown_sum_is_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            j1, j2 = rng.uniform(0, 10, 2)
            lb = LossBreakdown(j1, j2)
            assert (lb.j1, lb.j2, lb.j) == (j1, j2, j1 + j2)
        assert LossBreakdown(0.25).j == 0.25


class TestCRNNForward:
    def test_part_e_vector_length(self):
        cfg = ModelConfig(num_series=3, input_length=8, horizon=2,
                          filters_per_layer=3, rnn_layout="single-step")
        model = CRNN(cfg)
        window, _ = random_case(cfg, 0)
        forecast, recon = model.forward(Tensor(window))
        assert forecast.values.shape == (2,) and recon is None
        assert cfg.feature_vector_length == 36

    def test_zero_network_outputs_readout_bias(self):
        cfg = small_config()
        model = CRNN(cfg)
        model.set_params({k: np.zeros_like(v) for k, v in model.params.items()})
        bias = np.array([0.25, -0.75])
        model.params["readout.b"][...] = bias
        for seed in range(3):
            window, _ = random_case(cfg, seed)
            assert np.array_equal(model.forward(Tensor(window))[0].values, bias)

    def test_forward_is_deterministic_bitwise(self):
        cfg = small_config(seed=11)
        window, _ = random_case(cfg, 5)
        runs = [CRNN(cfg).forward(Tensor(window))[0].values for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])

    def test_same_seed_same_parameters(self):
        a, b = CRNN(small_config(seed=3)), CRNN(small_config(seed=3))
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_window_shape_rejected(self):
        model = CRNN(small_config())
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.ones((3, 8))))

    def test_non_finite_window_rejected(self):
        model = CRNN(small_config())
        bad = np.ones((2, 8))
        bad[0, 0] = np.nan
        with pytest.raises(NumericError):
            model.batch_forecast(bad[None])

    def test_lstm_cell_variant(self):
        cfg = small_config(cell_kind="lstm")
        window, target = random_case(cfg, 1)
        model = CRNN(cfg)
        assert model.batch_loss(window[None], target[None]).j1 >= 0.0

    def test_tanh_activation_variant(self):
        cfg = small_config(conv_activation="tanh")
        window, target = random_case(cfg, 2)
        model = CRNN(cfg)
        assert np.isfinite(model.forward(Tensor(window))[0].values).all()

    def test_multi_stage_shapes(self):
        cfg = ModelConfig(num_series=2, input_length=16, horizon=3,
                          conv_pool_stages=2, filters_per_layer=2)
        model = CRNN(cfg)
        window, _ = random_case(cfg, 3)
        assert model.forward(Tensor(window))[0].values.shape == (3,)


class TestAECRNNForward:
    def test_reconstruction_shape(self):
        cfg = ModelConfig(num_series=2, input_length=50, horizon=25,
                          filters_per_layer=2, allow_off_grid=True)
        model = AECRNN(cfg)
        window, _ = random_case(cfg, 0)
        forecast, recon = model.forward(Tensor(window))
        assert recon.values.shape == (2, 50)
        assert forecast.values.shape == (25,)

    def test_reconstruction_bounded(self):
        cfg = small_config()
        model = AECRNN(cfg)
        window, _ = random_case(cfg, 1)
        _, recon = model.forward(Tensor(window))
        assert np.all(recon.values > 0.0) and np.all(recon.values < 1.0)

    def test_zero_decoder_reconstructs_half(self):
        cfg = small_config()
        model = AECRNN(cfg)
        zeros = {k: np.zeros_like(v) for k, v in model.params.items()
                 if "deconv" in k or "merge" in k}
        model.set_params(zeros)
        window, _ = random_case(cfg, 2)
        _, recon = model.forward(Tensor(window))
        assert np.array_equal(recon.values, np.full((2, 8), 0.5))

    def test_shared_params_match_crnn_with_same_seed(self):
        crnn = CRNN(small_config(seed=7))
        aecrnn = AECRNN(small_config(seed=7))
        for k in crnn.params:
            assert np.array_equal(crnn.params[k], aecrnn.params[k])

    def test_loss_sum_identity_random_passes(self):
        cfg = small_config()
        model = AECRNN(cfg)
        for seed in range(20):
            window, target = random_case(cfg, seed)
            lb = model.batch_loss(window[None], target[None])
            assert lb.j == lb.j1 + lb.j2
            assert lb.j1 >= 0.0 and lb.j2 >= 0.0


class TestModelGradients:
    # every model kind, plus the rnn baseline fed only the target series
    @pytest.mark.parametrize("kind", [*MODELS, "rnn-target"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, kind, seed):
        cfg = small_config(seed=seed)
        fields = cfg.to_fields()
        if kind == "rnn-target":
            kind, fields["features"] = "rnn", "target"
        model = MODELS[kind](fields)
        window, target = random_case(cfg, seed + 100)
        x, y = window[None], target[None]
        _, grads = model.batch_backward(x, y)

        def loss():
            return model.batch_loss(x, y).j

        for name, param in model.params.items():
            fd = numeric_grad(loss, param)
            assert rel_error(grads[name], fd) < 1e-5, name

    @pytest.mark.parametrize("layout", ["sequence", "single-step"])
    def test_layouts_gradient_check(self, layout):
        cfg = small_config(rnn_layout=layout, seed=4)
        model = CRNN(cfg)
        window, target = random_case(cfg, 44)
        x, y = window[None], target[None]
        _, grads = model.batch_backward(x, y)

        def loss():
            return model.batch_loss(x, y).j

        for name, param in model.params.items():
            assert rel_error(grads[name], numeric_grad(loss, param)) < 1e-5, name

    def test_lstm_model_gradient_check(self):
        cfg = small_config(cell_kind="lstm", seed=5)
        model = AECRNN(cfg)
        window, target = random_case(cfg, 55)
        x, y = window[None], target[None]
        _, grads = model.batch_backward(x, y)

        def loss():
            return model.batch_loss(x, y).j

        for name, param in model.params.items():
            assert rel_error(grads[name], numeric_grad(loss, param)) < 1e-5, name

    def test_multistage_tanh_gradient_check(self):
        cfg = ModelConfig(num_series=2, input_length=16, horizon=2,
                          conv_pool_stages=2, filters_per_layer=2,
                          filter_size=2, rnn_hidden=3, conv_activation="tanh",
                          seed=6)
        model = AECRNN(cfg)
        window, target = random_case(cfg, 66)
        x, y = window[None], target[None]
        _, grads = model.batch_backward(x, y)

        def loss():
            return model.batch_loss(x, y).j

        for name, param in model.params.items():
            assert rel_error(grads[name], numeric_grad(loss, param)) < 1e-5, name

    def test_readout_bias_gradient_zero_at_critical_point(self):
        cfg = small_config()
        model = CRNN(cfg)
        model.set_params({k: np.zeros_like(v) for k, v in model.params.items()})
        target = np.array([0.3, -0.2])
        model.params["readout.b"][...] = target
        window, _ = random_case(cfg, 9)
        lb, grads = model.batch_backward(window[None], target[None])
        assert lb.j == 0.0
        assert not grads["readout.b"].any()

    def test_batch_gradient_is_mean_of_per_sample(self):
        cfg = small_config(seed=10)
        model = CRNN(cfg)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (3, 2, 8))
        y = rng.uniform(0, 1, (3, 2))
        _, batch_grads = model.batch_backward(x, y)
        sums = {k: np.zeros_like(v) for k, v in model.params.items()}
        for i in range(3):
            _, gi = model.batch_backward(x[i:i + 1], y[i:i + 1])
            for k in sums:
                sums[k] += gi[k] / 3.0
        for k in sums:
            assert np.allclose(batch_grads[k], sums[k], atol=1e-12)

    def test_five_series_two_stage_tanh_gradient_check(self):
        cfg = ModelConfig(num_series=5, input_length=16, horizon=2,
                          conv_pool_stages=2, filters_per_layer=2,
                          filter_size=3, rnn_hidden=3, conv_activation="tanh",
                          seed=12)
        model = AECRNN(cfg)
        rng = np.random.default_rng(120)
        x = rng.uniform(0.0, 1.0, (2, 5, 16))
        y = rng.uniform(0.0, 1.0, (2, 2))
        for name in model.params:
            if name.endswith(".b"):  # move biases off zero so their gradients count
                model.params[name][...] = rng.uniform(-0.5, 0.5, model.params[name].shape)
        _, grads = model.batch_backward(x, y)

        def loss():
            return model.batch_loss(x, y).j

        for name, param in model.params.items():
            assert rel_error(grads[name], numeric_grad(loss, param)) < 1e-5, name


class TestGroupedParameters:
    # the benchmark's wide and pair models
    WIDE = dict(num_series=16, input_length=32, horizon=8, conv_pool_stages=2,
                filters_per_layer=8, filter_size=3, rnn_hidden=6)
    PAIR = dict(num_series=2, input_length=32, horizon=8, conv_pool_stages=1,
                filters_per_layer=4, filter_size=3, rnn_hidden=4, cell_kind="lstm")

    def test_one_array_per_stage_not_per_series(self):
        wide = AECRNN(ModelConfig(**self.WIDE))
        assert len(wide.params) == 15
        assert list(wide.params) == [
            "conv0.w", "conv0.b", "conv1.w", "conv1.b", "rnn.w_xh", "rnn.w_hh", "rnn.b",
            "readout.w", "readout.b", "deconv0.w", "deconv0.b", "deconv1.w", "deconv1.b",
            "merge.w", "merge.b"]
        assert wide.params["conv1.w"].shape == (16, 8, 8, 3)
        assert wide.params["merge.w"].shape == (16, 8)
        assert len(AECRNN(ModelConfig(**self.PAIR)).params) == 11


class TestMultiTaskReduction:
    @pytest.mark.parametrize("seed", [8, 21])
    def test_aecrnn_is_crnn_plus_the_reconstruction_gradient(self, seed):
        # AECRNN = CRNN + decoder, trained on j = j1 + j2: its forecast path is
        # CRNN's bit for bit, and its encoder also receives the gradient of j2
        cfg = small_config(seed=seed)
        crnn = CRNN(cfg)
        aecrnn = AECRNN(cfg)  # same seed -> identical shared parameters
        window, target = random_case(cfg, 210 + seed)
        x, y = window[None], target[None]
        l_crnn, g_crnn = crnn.batch_backward(x, y)
        l_aecrnn, g_aecrnn = aecrnn.batch_backward(x, y)
        assert l_aecrnn.j1 == l_crnn.j1 and l_crnn.j2 == 0.0 < l_aecrnn.j2
        assert sorted(g_aecrnn) == sorted(aecrnn.params)
        for name in crnn.params:
            if not name.startswith("conv"):
                assert g_aecrnn[name].tobytes() == g_crnn[name].tobytes(), name
                continue
            fd_j2 = numeric_grad(lambda: aecrnn.batch_loss(x, y).j2, aecrnn.params[name])
            assert rel_error(g_aecrnn[name] - g_crnn[name], fd_j2) < 1e-6, name


def _split_calls(monkeypatch) -> list:
    """Record each call that splits a batch across the two threads."""
    calls = []
    real = models._on_both_cores

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(models, "_on_both_cores", counting)
    return calls


def _passes(model, x, y, steps=3) -> dict:
    """Forecasts, losses and gradients of one batch, then the parameters
    after ``steps`` Adam steps on it."""
    out = {"forecast": model.batch_forecast(x), "loss": model.batch_loss(x, y)}
    out["backward loss"], grads = model.batch_backward(x, y)
    out.update((f"grad {name}", g) for name, g in grads.items())
    out["grad order"] = list(grads)
    adam = Adam(0.01)
    for _ in range(steps):
        adam.step(model.params, model.batch_backward(x, y)[1])
    out.update((f"param {name}", p) for name, p in model.params.items())
    return out


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


class TestSeriesSplitMatchesOneGroup:
    NEVER = 10 ** 18

    @pytest.mark.parametrize("kind", [CRNN, AECRNN])
    @pytest.mark.parametrize("n", [2, 3, 5, 16])
    @pytest.mark.parametrize("stages", [1, 2, 3])
    @pytest.mark.parametrize("activation", ["linear", "tanh"])
    @pytest.mark.parametrize("cell", ["rnn", "lstm"])
    @pytest.mark.parametrize("layout", ["sequence", "single-step"])
    def test_split_batches_give_the_bits_of_one_group(self, monkeypatch, kind, n, stages,
                                                      activation, cell, layout):
        cfg = ModelConfig(num_series=n, input_length=16, horizon=3, conv_pool_stages=stages,
                          filters_per_layer=2, filter_size=(3, 2, 5)[stages - 1],
                          rnn_hidden=3, cell_kind=cell, rnn_layout=layout,
                          conv_activation=activation, seed=n + stages, allow_off_grid=True)
        rng = np.random.default_rng(10 * n + stages)
        x = rng.uniform(-0.5, 1.5, (9, n, 16))
        y = rng.uniform(0.0, 1.0, (9, 3))
        calls = _split_calls(monkeypatch)
        monkeypatch.setattr(models, "SPLIT_MIN_VALUES", self.NEVER)
        whole = _passes(kind(cfg), x, y)
        assert not calls
        monkeypatch.setattr(models, "SPLIT_MIN_VALUES", 0)
        split = _passes(kind(cfg), x, y)
        assert calls
        assert whole.keys() == split.keys()
        for key in whole:
            assert _same_bits(whole[key], split[key]), key

    @pytest.mark.parametrize("n, splits", [(2, False), (3, False), (4, True), (5, True)])
    def test_one_filter_splits_only_with_two_series_per_range(self, monkeypatch, n, splits):
        # numpy sums a range's (1, 1) weight gradients over the batch pairwise,
        # where the group sums them row by row: a split would change bits. At
        # n = 5 this thread's three series make one range, not two and one.
        cfg = ModelConfig(num_series=n, input_length=8, horizon=2, filters_per_layer=1,
                          rnn_hidden=3, allow_off_grid=True)
        rng = np.random.default_rng(n)
        x = rng.uniform(0.0, 1.0, (40, n, 8))
        y = rng.uniform(0.0, 1.0, (40, 2))
        calls = _split_calls(monkeypatch)
        monkeypatch.setattr(models, "SPLIT_MIN_VALUES", self.NEVER)
        whole = _passes(AECRNN(cfg), x, y, steps=1)
        monkeypatch.setattr(models, "SPLIT_MIN_VALUES", 0)
        split = _passes(AECRNN(cfg), x, y, steps=1)
        assert bool(calls) == splits
        for key in whole:
            assert _same_bits(whole[key], split[key]), key

    def test_single_windows_and_pair_batches_never_split(self, monkeypatch):
        calls = _split_calls(monkeypatch)
        rng = np.random.default_rng(0)
        wide = AECRNN(ModelConfig(**TestGroupedParameters.WIDE))
        wide.forward(rng.uniform(0.0, 1.0, (16, 32)))
        pair = AECRNN(ModelConfig(**TestGroupedParameters.PAIR))
        pair.forward(rng.uniform(0.0, 1.0, (2, 32)))
        x, y = rng.uniform(0.0, 1.0, (32, 2, 32)), rng.uniform(0.0, 1.0, (32, 8))
        pair.batch_forecast(x)
        pair.batch_loss(x, y)
        pair.batch_backward(x, y)
        pair.batch_forecast(rng.uniform(0.0, 1.0, (256, 2, 32)))  # an inference chunk
        assert not calls

    def test_wide_training_batches_split(self, monkeypatch):
        calls = _split_calls(monkeypatch)
        rng = np.random.default_rng(1)
        wide = AECRNN(ModelConfig(**TestGroupedParameters.WIDE))
        wide.batch_backward(rng.uniform(0.0, 1.0, (32, 16, 32)), rng.uniform(0.0, 1.0, (32, 8)))
        assert len(calls) == 2  # the forward pass and the backward pass

    # overflow (1e308 weights) in the worker's range, in this thread's, and in
    # both; an inf weight times the zero padding also sets invalid there
    @pytest.mark.parametrize("weights", [{0: 1e308}, {4: 1e308}, {0: 1e308, 4: math.inf}])
    def test_floating_point_errors_raise_as_in_one_group(self, monkeypatch, weights):
        model = CRNN(ModelConfig(num_series=5, input_length=8, horizon=2, filters_per_layer=2,
                                 rnn_hidden=3))
        for series, w in weights.items():
            model.params["conv0.w"][series] = w
        x = np.random.default_rng(2).uniform(2.0, 3.0, (4, 5, 8))
        errors = []
        for min_values in (self.NEVER, 0):
            monkeypatch.setattr(models, "SPLIT_MIN_VALUES", min_values)
            with np.errstate(over="raise", invalid="raise"):
                with pytest.raises(FloatingPointError) as caught:
                    model.batch_forecast(x)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert "overflow" in errors[0]

    # with one series per range, n = 6 runs three ranges on each thread: series
    # 0-2 on the worker, 3-5 on this one. An inf weight times the zero padding
    # sets invalid, a 1e308 weight times the data overflow; the one group
    # would raise overflow first whatever the order of the series.
    @pytest.mark.parametrize("weights, error", [
        ({1: math.inf, 2: 1e308}, "invalid"), ({1: 1e308, 2: math.inf}, "overflow"),
        ({1: math.inf, 5: 1e308}, "invalid"), ({2: 1e308, 3: math.inf}, "overflow"),
        ({4: math.inf, 5: 1e308}, "invalid"), ({4: 1e308, 5: math.inf}, "overflow"),
    ])
    def test_the_lowest_ranges_error_is_raised_first(self, monkeypatch, weights, error):
        model = CRNN(ModelConfig(num_series=6, input_length=8, horizon=2, filters_per_layer=2,
                                 rnn_hidden=3))
        for series, w in weights.items():
            model.params["conv0.w"][series] = w
        x = np.random.default_rng(3).uniform(2.0, 3.0, (4, 6, 8))
        monkeypatch.setattr(models, "SPLIT_MIN_VALUES", 0)
        assert [len(part) for part in model._split_ranges(len(x))] == [3, 3]
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError, match=error):
                model.batch_forecast(x)

    def test_range_views_share_the_weights(self, monkeypatch):
        model = AECRNN(small_config(num_series=5))
        monkeypatch.setattr(models, "SPLIT_MIN_VALUES", 0)
        low, high = model._split_ranges(1)
        assert [[p.convs[0].num_series for p, _, _ in part] for part in (low, high)] == [
            [1, 1], [1, 1, 1]]
        model.set_params({name: np.full(p.shape, 0.5) for name, p in model.params.items()})
        for part, _, _ in low + high:
            for layer in [*part.convs, *part.deconvs, part.merge]:
                assert (layer.w == 0.5).all() and (layer.b == 0.5).all()
        # built once per range: another batch cut the same way reuses them
        assert all(a is b for (a, _, _), (b, _, _) in zip(low, model._split_ranges(2)[0]))

    def test_callers_on_several_threads_make_one_worker(self, monkeypatch):
        made, real = [], concurrent.futures.ThreadPoolExecutor

        def counting(*args, **kwargs):
            time.sleep(0.01)  # a slow start, so that a second caller would overtake it
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting)
        monkeypatch.setattr(models, "_worker", None)
        results = [None] * 8

        def call(i):
            results[i] = models._on_both_cores(operator.add, (i, 1), (i, 2))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            for executor in made:
                executor.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert len(made) == 1
        assert results == [(i + 1, i + 2) for i in range(len(results))]


def _bounds(model, batch) -> list[list[tuple[int, int]]]:
    """The (lo, hi) of each range of the batch's split, per thread."""
    return [[(lo, hi) for _, lo, hi in part] for part in model._split_ranges(batch)]


class TestSplitRanges:
    def test_wide_inference_chunks_run_one_series_at_a_time(self):
        # a 256-window chunk of the 16-series, 8-filter model holds 256 * 8 *
        # 32 = 65536 first-stage values per series; a 32-window batch 8192
        wide = AECRNN(ModelConfig(**TestGroupedParameters.WIDE))
        assert wide._splits(256) and wide._splits(32)
        assert _bounds(wide, 256) == [[(s, s + 1) for s in range(8)],
                                      [(s, s + 1) for s in range(8, 16)]]
        assert _bounds(wide, 32) == [[(0, 8)], [(8, 16)]]
        assert _bounds(wide, 100) == [[(0, 2), (2, 4), (4, 6), (6, 8)],
                                      [(8, 10), (10, 12), (12, 14), (14, 16)]]

    @pytest.mark.parametrize("n, min_values, want", [
        (5, 0, [[(0, 2)], [(2, 5)]]),
        (5, 10 ** 18, [[(0, 2)], [(2, 5)]]),
        (7, 0, [[(0, 3)], [(3, 5), (5, 7)]]),
    ])
    def test_one_filter_never_runs_a_one_series_range(self, monkeypatch, n, min_values, want):
        model = CRNN(ModelConfig(num_series=n, input_length=8, horizon=2, filters_per_layer=1,
                                 rnn_hidden=3, allow_off_grid=True))
        monkeypatch.setattr(models, "SPLIT_MIN_VALUES", min_values)
        assert _bounds(model, 40) == want

    @given(n=st.integers(2, 24), filters=st.integers(1, 4), batch=st.integers(1, 300),
           length=st.sampled_from([2, 8, 32]), min_values=st.sampled_from([0, 900, 65536]))
    @settings(max_examples=150, deadline=None)
    def test_ranges_tile_the_series_in_order(self, n, filters, batch, length, min_values):
        assume(n // 2 * filters > 1)  # otherwise no batch splits
        model = CRNN._undrawn(ModelConfig(num_series=n, input_length=length, horizon=2,
                                          filters_per_layer=filters, rnn_hidden=3,
                                          allow_off_grid=True))
        per_series = batch * filters * length
        with mock.patch.object(models, "SPLIT_MIN_VALUES", min_values):
            low, high = _bounds(model, batch)
        for part, start, end in ((low, 0, n // 2), (high, n // 2, n)):
            assert [lo for lo, _ in part] == [start] + [hi for _, hi in part[:-1]]
            assert part[-1][1] == end
            for lo, hi in part:
                assert (hi - lo) * filters > 1
                # at most min_values first-stage values or the fewest series,
                # not counting a one-series tail that a one-filter range took
                width = hi - lo - (filters == 1 and hi == end)
                assert width * per_series <= min_values or width <= (1 if filters > 1 else 2)


class TestFirstStageLayoutStaysInsideTheConv:
    """The first conv stage sums its taps over a strided view of its input.
    The pool, its mask, the head, the backward pass and the split's join see
    the bits of a conv that returns a C-ordered copy of its output all the
    same, so no layout of the conv's reaches them."""

    @pytest.mark.parametrize("stages", [1, 2])
    @pytest.mark.parametrize("activation", ["linear", "tanh"])
    @pytest.mark.parametrize("batch, splits", [(5, False), (100, False), (160, True)])
    def test_model_gives_the_bits_of_a_c_ordered_conv(self, monkeypatch, stages, activation,
                                                      batch, splits):
        # (n // 2) * filters * l = 512 values per window: 128 windows or more split
        cfg = ModelConfig(num_series=8, input_length=32, horizon=4, conv_pool_stages=stages,
                          filters_per_layer=4, filter_size=3, rnn_hidden=3,
                          conv_activation=activation, seed=stages)
        rng = np.random.default_rng(stages)
        x = rng.choice(np.array([0.0, -0.0, 0.5, -1.0, 0.25]), size=(batch, 8, 32))
        x += rng.uniform(-1.0, 1.0, x.shape) * (rng.random(x.shape) < 0.5)
        y = rng.uniform(0.0, 1.0, (batch, 4))
        calls = _split_calls(monkeypatch)
        got = _passes(AECRNN(cfg), x, y, steps=1)
        assert bool(calls) == splits
        forward = layers.Conv1D.forward

        def c_ordered_forward(conv, inputs):
            out, cache = forward(conv, inputs)
            return np.array(out, order="C"), cache

        monkeypatch.setattr(layers.Conv1D, "forward", c_ordered_forward)
        want = _passes(AECRNN(cfg), x, y, steps=1)
        assert got.keys() == want.keys()
        for key in want:
            assert _same_bits(got[key], want[key]), key


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = small_config(seed=13, cell_kind="lstm")
        model = AECRNN(cfg)
        extra = {"norm.min": np.array([0.125, -1.5]),
                 "norm.max": np.array([2.0, 3.75])}
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model, extra_tensors=extra)
        fields, tensors = load_checkpoint(path)
        rebuilt, extras = model_from_checkpoint(fields, tensors)
        assert rebuilt.kind == "aecrnn"
        for k, v in model.params.items():
            assert np.array_equal(rebuilt.params[k], v), k
        assert np.array_equal(extras["norm.min"], extra["norm.min"])
        assert np.array_equal(extras["norm.max"], extra["norm.max"])

    @pytest.mark.parametrize("kind", MODELS)
    def test_rebuild_draws_no_random_value(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, MODELS[kind]({**SMALL, "seed": 5}))
        fields, tensors = load_checkpoint(path)

        def no_generator(*args, **kwargs):
            raise AssertionError("a random generator was made")

        # Generator methods cannot be patched; without a generator nothing is drawn
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        rebuilt, _ = model_from_checkpoint(fields, tensors)
        assert list(rebuilt.params) == list(tensors)
        for name, arr in tensors.items():
            assert rebuilt.params[name].tobytes() == arr.tobytes(), name
        with pytest.raises(AssertionError, match="generator"):
            MODELS[kind](dict(SMALL))

    @pytest.mark.parametrize("kind", MODELS)
    def test_undrawn_build_runs_no_series_draw(self, tmp_path, monkeypatch, kind):
        fields = {**SMALL, "num_series": 4, "input_length": 16, "conv_pool_stages": 2,
                  "seed": 6}
        model = MODELS[kind](fields)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model)
        header, tensors = load_checkpoint(path)

        def no_series_draw(*args):
            raise AssertionError("a series' initial values were drawn")

        monkeypatch.setattr(layers._FilterGroup, "init_series", no_series_draw)
        monkeypatch.setattr(layers.ChannelMerge, "init_series", no_series_draw)
        undrawn = models._new_model(kind, header, undrawn=True)
        assert list(undrawn.params) == list(tensors)
        for name, arr in undrawn.params.items():
            assert not arr.any(), name
        rebuilt, _ = model_from_checkpoint(header, tensors)
        for name, arr in tensors.items():
            assert rebuilt.params[name].tobytes() == arr.tobytes(), name
        x = np.random.default_rng(7).uniform(0.0, 1.0, (3, 4, 16))
        assert rebuilt.batch_forecast(x).tobytes() == model.batch_forecast(x).tobytes()

    def test_round_trip_reproduces_loss_bitwise(self, tmp_path):
        cfg = small_config(seed=14)
        model = CRNN(cfg)
        window, target = random_case(cfg, 140)
        before = model.batch_loss(window[None], target[None]).j
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model)
        rebuilt, _ = model_from_checkpoint(*load_checkpoint(path))
        after = rebuilt.batch_loss(window[None], target[None]).j
        assert before == after

    def test_awkward_floats_survive(self, tmp_path):
        cfg = small_config(seed=15)
        model = CRNN(cfg)
        model.params["readout.b"][...] = [1e-300, (2.0 / 3.0) * 1e17]
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model)
        rebuilt, _ = model_from_checkpoint(*load_checkpoint(path))
        assert np.array_equal(rebuilt.params["readout.b"], model.params["readout.b"])

    def test_header_records_configuration(self, tmp_path):
        cfg = small_config(conv_activation="tanh", seed=16)
        model = CRNN(cfg)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model)
        header, *lines = path.read_text().splitlines()
        assert "model=crnn" in header
        assert "conv_activation=tanh" in header
        assert header.startswith("format=3 ")
        assert [line.split(" ")[0] for line in lines] == list(model.params)
        for line, arr in zip(lines, model.params.values()):
            name, shape, payload = line.split(" ")
            assert shape == "x".join(map(str, arr.shape)), name
            assert payload == arr.astype("<f8").tobytes().hex(), name

    def test_missing_parameters_rejected(self, tmp_path):
        cfg = small_config(seed=17)
        model = CRNN(cfg)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model)
        fields, tensors = load_checkpoint(path)
        tensors.pop("readout.b")
        with pytest.raises(DataError, match="missing parameters"):
            model_from_checkpoint(fields, tensors)

    @pytest.mark.parametrize("kind, field, value, message", [
        ("crnn", "num_series", "0", "num_series must be at least 1"),
        ("crnn", "filters_per_layer", "7", "filters_per_layer=7 is outside the search grid"),
        ("aecrnn", "input_length", "7", "input_length 7 is not divisible"),
        ("lstm", "rnn_hidden", "0", "hidden must be at least 1, got 0"),
    ], ids=["num_series", "filters_per_layer", "input_length", "rnn_hidden"])
    def test_header_breaking_the_contract_is_data_error_from_a_checkpoint_only(
            self, tmp_path, kind, field, value, message):
        # the file is the bad input; a caller that builds the config gets ConfigError
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, MODELS[kind]({"num_series": 2, "input_length": 8, "horizon": 2}))
        fields, tensors = load_checkpoint(path)
        fields[field] = value
        with pytest.raises(DataError, match=f"checkpoint header breaks the model "
                                            f"contract: {message}"):
            model_from_checkpoint(fields, tensors)
        with pytest.raises(ConfigError, match=message):
            MODELS[kind](fields)

    @pytest.mark.parametrize("fmt", ["0", "4", ""])
    def test_unknown_format_rejected_by_name(self, tmp_path, fmt):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, CRNN(small_config()))
        fields, tensors = load_checkpoint(path)
        fields["format"] = fmt
        with pytest.raises(DataError, match=f"format '{fmt}'"):
            model_from_checkpoint(fields, tensors)
        text = path.read_text().replace("format=3", f"format={fmt}", 1)
        path.write_text(text)
        with pytest.raises(DataError, match=f"format '{fmt}'"):
            load_checkpoint(path)

    def test_truncated_file_names_the_tensor(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, AECRNN(small_config(seed=18)))
        text = path.read_text()
        cut = text.index("deconv0.w")
        path.write_text(text[:cut + 40])
        with pytest.raises(DataError, match="deconv0.w"):
            load_checkpoint(path)

    def test_extra_values_rejected(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, CRNN(small_config()))
        lines = path.read_text().splitlines()
        lines[-1] += " 1.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="readout.b"):
            load_checkpoint(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, CRNN(small_config()))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(DataError, match="appears twice"):
            load_checkpoint(path)

    @pytest.mark.parametrize("line", ["rnn.b", "rnn.b 2x 1 2", "rnn.b 3 1 2 x"])
    def test_malformed_line_names_the_tensor(self, tmp_path, line):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, CRNN(small_config()))
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(DataError, match="rnn.b"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda h: h[:-1], id="odd length"),
        pytest.param(lambda h: h[:5] + "g" + h[6:], id="non-hex digit"),
        pytest.param(lambda h: h[:16] + "  " + h[18:], id="embedded space"),
        pytest.param(lambda h: h[:16] + " " + h[17:], id="space for a digit"),
        pytest.param(lambda h: h[:16] + " " + h[16:], id="inserted space"),
        pytest.param(lambda h: h + "0" * 16, id="wrong byte count"),
        pytest.param(lambda h: h + " " + h[:16], id="extra token"),
    ])
    def test_malformed_hex_payload_names_the_tensor(self, tmp_path, mutate):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, CRNN(small_config()))
        lines = path.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("rnn.b "))
        name, shape, payload = lines[i].split(" ")
        assert len(payload) == 16 * 3
        lines[i] = f"{name} {shape} {mutate(payload)}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="tensor 'rnn.b'"):
            load_checkpoint(path)

    def test_shape_that_disagrees_with_the_payload_names_the_tensor(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, CRNN(small_config()))
        text = path.read_text()
        assert "\nrnn.b 3 " in text
        path.write_text(text.replace("\nrnn.b 3 ", "\nrnn.b 4 "))
        with pytest.raises(DataError, match="tensor 'rnn.b' has 3 values, its shape 4 needs 4"):
            load_checkpoint(path)

    def test_loaded_arrays_are_writable_native_float64(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, AECRNN(small_config()), extra_tensors={"norm.min": [1.0, 2.0]})
        _, tensors = load_checkpoint(path)
        for name, arr in tensors.items():
            assert arr.dtype == np.float64 and arr.dtype.isnative, name
            assert arr.flags.writeable and arr.flags.c_contiguous, name

    def test_given_bytes_are_parsed_without_reading_the_path(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, CRNN(small_config(seed=3)))
        raw = path.read_bytes()
        fields, tensors = load_checkpoint(tmp_path / "absent.txt", raw)
        expected_fields, expected = load_checkpoint(path)
        assert fields == expected_fields
        assert {k: v.tobytes() for k, v in tensors.items()} == {
            k: v.tobytes() for k, v in expected.items()}

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.txt")

    def test_non_ascii_file_is_data_error(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, CRNN(small_config()))
        path.write_bytes(path.read_bytes() + "rnn.b 1 \u00b5\n".encode("utf-8"))
        with pytest.raises(DataError, match="not ASCII"):
            load_checkpoint(path)


def _reference_load(path):
    """load_checkpoint of a decimal (format 1 or 2) file as a per-value
    float() loop: the parse it must match."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    tensors = {}
    for line in lines[1:]:
        name, _, rest = line.partition(" ")
        if name in tensors:
            raise DataError(f"checkpoint {path}: tensor {name!r} appears twice")
        shape_txt, _, values_txt = rest.partition(" ")
        try:
            shape = tuple(int(d) for d in shape_txt.split("x"))
            arr = np.array([float(v) for v in values_txt.split()], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"checkpoint {path}: tensor {name!r} is malformed: {exc}") from None
        if min(shape) < 0 or arr.size != math.prod(shape):
            raise DataError(f"checkpoint {path}: tensor {name!r} has {arr.size} values, "
                            f"its shape {shape_txt} needs {math.prod(shape)}")
        tensors[name] = arr.reshape(shape)
    return tensors


def _reference_hex_load(path):
    """load_checkpoint of a format-3 file, decoded tensor by tensor and value
    by value through int(..., 16) and struct. Returns (tensors, None), or
    (None, name) for the first tensor that load_checkpoint must refuse."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    tensors = {}
    for line in lines[1:]:
        name, _, rest = line.partition(" ")
        if name in tensors:
            return None, name
        shape_txt, _, payload = rest.partition(" ")
        try:
            shape = tuple(int(d) for d in shape_txt.split("x"))
        except ValueError:
            return None, name
        groups = [payload[i:i + 16] for i in range(0, len(payload), 16)]
        if (min(shape) < 0 or len(groups) != math.prod(shape)
                or any(len(g) != 16 or not set(g) <= set(string.hexdigits) for g in groups)):
            return None, name
        values = [struct.unpack("<d", bytes(int(g[k:k + 2], 16) for k in range(0, 16, 2)))[0]
                  for g in groups]
        tensors[name] = np.array(values, dtype=np.float64).reshape(shape)
    return tensors, None


# ASCII without line breaks, which would split a line in two
LINE_TEXT = st.text(alphabet=string.printable.replace("\n", "").replace("\r", ""),
                    max_size=8)
# one character of a mutated format-3 line: hex digits, whitespace, near misses
HEX_LINE_CHAR = st.sampled_from(string.hexdigits + " \t\x0b\x0cgGxX+-_.,")
_TMP_PATH_OK = settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
                        deadline=None)


# -0.0, the smallest and largest subnormals, the smallest normal, +-max, +-inf
AWKWARD_FLOATS = (-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf)


@st.composite
def kinds_and_configs(draw):
    """A model kind and a valid config of it, small enough to build quickly."""
    kind = draw(st.sampled_from(tuple(MODELS)))
    num_series, horizon = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32))
    if kind in ("rnn", "lstm"):
        return kind, BaselineConfig(num_series, draw(st.integers(1, 12)), horizon,
                                    draw(st.integers(1, 6)),
                                    draw(st.sampled_from(models.BASELINE_FEATURES)), seed)
    stages, off_grid = draw(st.integers(1, 3)), draw(st.booleans())

    def size(name):
        return draw(st.integers(1, 6) if off_grid else st.sampled_from(models._CONV_GRID[name]))

    return kind, ModelConfig(
        num_series, draw(st.integers(1, 3)) * 2 ** stages, horizon, stages,
        size("filters_per_layer"), size("filter_size"), size("rnn_hidden"),
        draw(st.sampled_from(models.CELL_KINDS)), draw(st.sampled_from(models.RNN_LAYOUTS)),
        draw(st.sampled_from(models.CONV_ACTIVATIONS)), seed, off_grid)


class TestCheckpointProperties:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture],
              deadline=None)
    @given(drawn=kinds_and_configs())
    def test_every_kind_round_trips_its_config_and_checkpoint(self, tmp_path, drawn):
        kind, cfg = drawn
        assert type(cfg).from_fields(cfg.to_fields()) == cfg
        model = MODELS[kind](cfg.to_fields())
        assert model.config == cfg
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model)
        rebuilt, extras = model_from_checkpoint(*load_checkpoint(path))
        assert (rebuilt.kind, rebuilt.config, extras) == (model.kind, cfg, {})
        assert list(rebuilt.params) == list(model.params)
        for name, arr in model.params.items():
            assert rebuilt.params[name].tobytes() == arr.tobytes(), name

    @_TMP_PATH_OK
    @given(kind=st.sampled_from(tuple(MODELS)), data=st.data())
    def test_save_load_rebuild_is_bit_exact_for_every_kind(self, tmp_path, kind, data):
        model = MODELS[kind](dict(SMALL))
        values = st.floats(allow_nan=False) | st.sampled_from(AWKWARD_FLOATS)
        for arr in model.params.values():
            arr[...] = data.draw(arrays(np.float64, arr.shape, elements=values))
        extra = {"norm.min": data.draw(arrays(np.float64, 2, elements=values)),
                 "norm.max": data.draw(arrays(np.float64, 2, elements=values))}
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model, extra_tensors=extra)
        rebuilt, extras = model_from_checkpoint(*load_checkpoint(path))
        assert rebuilt.kind == model.kind
        assert rebuilt.checkpoint_fields() == model.checkpoint_fields()
        assert list(rebuilt.params) == list(model.params)
        for name, arr in model.params.items():
            assert rebuilt.params[name].tobytes() == arr.tobytes(), name
        assert {k: v.tobytes() for k, v in extras.items()} == {
            k: v.tobytes() for k, v in extra.items()}

    @pytest.mark.parametrize("kind", MODELS)
    def test_awkward_floats_round_trip_bit_exact_for_every_kind(self, tmp_path, kind):
        model = MODELS[kind](dict(SMALL))
        for k, arr in enumerate(model.params.values()):
            arr[...] = np.resize(np.roll(AWKWARD_FLOATS, k), arr.shape)
        extra = {"norm.min": np.array(AWKWARD_FLOATS)}
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model, extra_tensors=extra)
        rebuilt, extras = model_from_checkpoint(*load_checkpoint(path))
        for name, arr in model.params.items():
            assert rebuilt.params[name].tobytes() == arr.tobytes(), name
        assert extras["norm.min"].tobytes() == extra["norm.min"].tobytes()

    @_TMP_PATH_OK
    @given(data=st.data())
    def test_malformed_lines_raise_todays_data_errors(self, tmp_path, data):
        """Decimal lines, those of formats 1 and 2, keep today's parse."""
        path = tmp_path / "ckpt.txt"
        shutil.copyfile(FORMAT2_TRAINED, path)
        lines = path.read_text().splitlines()
        i = data.draw(st.integers(1, len(lines) - 1))
        tokens = lines[i].split(" ")
        j = data.draw(st.integers(0, len(tokens) - 1))
        mutation = data.draw(st.sampled_from(["replace", "drop", "repeat", "cut"]))
        if mutation == "replace":
            tokens[j] = data.draw(LINE_TEXT)
        elif mutation == "drop":
            del tokens[j]
        elif mutation == "repeat":
            tokens.insert(j, tokens[j])
        else:
            del tokens[j + 1:]
        lines[i] = " ".join(tokens)
        if data.draw(st.booleans()):
            lines.insert(data.draw(st.integers(1, len(lines))), lines[i])
        path.write_text("\n".join(lines) + "\n")
        try:
            expected = _reference_load(path)
        except DataError as exc:
            with pytest.raises(DataError) as info:
                load_checkpoint(path)
            assert str(info.value) == str(exc)
        else:
            _, tensors = load_checkpoint(path)
            assert {k: v.tobytes() for k, v in tensors.items()} == {
                k: v.tobytes() for k, v in expected.items()}
            assert {k: v.shape for k, v in tensors.items()} == {
                k: v.shape for k, v in expected.items()}

    def test_per_tensor_reader_accepts_an_intact_file(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, AECRNN(small_config()), extra_tensors={"norm.min": [0.5, -2.0]})
        expected, bad = _reference_hex_load(path)
        assert bad is None
        _, tensors = load_checkpoint(path)
        assert {k: v.tobytes() for k, v in tensors.items()} == {
            k: v.tobytes() for k, v in expected.items()}

    @_TMP_PATH_OK
    @given(data=st.data())
    def test_malformed_hex_lines_match_a_per_tensor_reader(self, tmp_path, data):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, CRNN(small_config()), extra_tensors={"norm.min": [0.5, -2.0]})
        lines = path.read_text().splitlines()
        i = data.draw(st.integers(1, len(lines) - 1))
        line = lines[i]
        mutation = data.draw(st.sampled_from(
            ["replace", "drop", "repeat", "cut", "char", "insert", "delete"]))
        if mutation in ("replace", "drop", "repeat", "cut"):
            tokens = line.split(" ")
            j = data.draw(st.integers(0, len(tokens) - 1))
            if mutation == "replace":
                tokens[j] = data.draw(LINE_TEXT)
            elif mutation == "drop":
                del tokens[j]
            elif mutation == "repeat":
                tokens.insert(j, tokens[j])
            else:
                del tokens[j + 1:]
            line = " ".join(tokens)
        else:
            k = data.draw(st.integers(0, len(line) - 1))
            if mutation == "delete":
                line = line[:k] + line[k + 1:]
            else:
                char = data.draw(HEX_LINE_CHAR)
                line = line[:k] + char + line[k + (mutation == "char"):]
        lines[i] = line
        if data.draw(st.booleans()):
            lines.insert(data.draw(st.integers(1, len(lines))), lines[i])
        path.write_text("\n".join(lines) + "\n")
        expected, bad = _reference_hex_load(path)
        if bad is not None:
            with pytest.raises(DataError) as info:
                load_checkpoint(path)
            assert f"tensor {bad!r}" in str(info.value)
        else:
            _, tensors = load_checkpoint(path)
            assert {k: v.tobytes() for k, v in tensors.items()} == {
                k: v.tobytes() for k, v in expected.items()}
            assert {k: v.shape for k, v in tensors.items()} == {
                k: v.shape for k, v in expected.items()}


class TestFormat2Checkpoints:
    """A trained aecrnn (lstm cell, tanh) with norm.* and check.* extras,
    written by save_checkpoint at checkpoint format 2, which stored grouped
    parameters as %.17g decimal tokens."""

    def test_trained_model_reproduces_its_recorded_forecast(self):
        fields, tensors = load_checkpoint(FORMAT2_TRAINED)
        assert fields["format"] == "2"
        model, extras = model_from_checkpoint(fields, tensors)
        assert sorted(extras) == ["check.forecast", "check.reconstruction", "check.window",
                                  "norm.max", "norm.min"]
        assert Normalizer.from_tensors(extras).mins.shape == (model.config.num_series,)
        forecast, recon = model.forward(extras["check.window"])
        assert rel_error(forecast.values, extras["check.forecast"]) < 1e-12
        assert rel_error(recon.values, extras["check.reconstruction"]) < 1e-12

    def test_resaved_as_format_3_is_bit_identical(self, tmp_path):
        fields, tensors = load_checkpoint(FORMAT2_TRAINED)
        model, extras = model_from_checkpoint(fields, tensors)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model, extra_tensors=extras)
        new_fields, new_tensors = load_checkpoint(path)
        assert new_fields == {**fields, "format": "3"}
        assert list(new_tensors) == list(tensors)
        for name, arr in tensors.items():
            assert new_tensors[name].shape == arr.shape, name
            assert new_tensors[name].tobytes() == arr.tobytes(), name


class TestFormat1Checkpoints:
    """Fixtures written by save_checkpoint at checkpoint format 1, which stored
    each series' conv/deconv/merge parameters as series{s}.<name>."""

    def test_initial_model_matches_grouped_initial_values(self):
        fields, tensors = load_checkpoint(FIXTURES / "checkpoint_format1_aecrnn_init.txt")
        assert fields["format"] == "1"
        rebuilt, extras = model_from_checkpoint(fields, tensors)
        fresh = AECRNN(ModelConfig.from_fields(fields))
        assert not extras
        assert list(rebuilt.params) == list(fresh.params)
        for k, v in fresh.params.items():
            assert np.array_equal(rebuilt.params[k], v), k
        window, _ = random_case(fresh.config, 3)
        assert np.array_equal(rebuilt.forward(window)[0].values,
                              fresh.forward(window)[0].values)

    def test_trained_model_reproduces_its_recorded_forecast(self):
        fields, tensors = load_checkpoint(FIXTURES / "checkpoint_format1_aecrnn_trained.txt")
        model, extras = model_from_checkpoint(fields, tensors)
        assert sorted(extras) == ["check.forecast", "check.reconstruction", "check.window"]
        forecast, recon = model.forward(extras["check.window"])
        assert rel_error(forecast.values, extras["check.forecast"]) < 1e-12
        assert rel_error(recon.values, extras["check.reconstruction"]) < 1e-12
        for s in range(model.config.num_series):
            assert np.array_equal(model.params["conv1.w"][s], tensors[f"series{s}.conv1.w"])
            assert np.array_equal(model.params["deconv0.b"][s],
                                  tensors[f"series{s}.deconv0.b"])
            assert model.params["merge.b"][s] == tensors[f"series{s}.merge.b"][0]

    def test_resaved_as_format_3_round_trips(self, tmp_path):
        model, _ = model_from_checkpoint(
            *load_checkpoint(FIXTURES / "checkpoint_format1_aecrnn_trained.txt"))
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model)
        fields, tensors = load_checkpoint(path)
        assert fields["format"] == "3"
        assert not any(name.startswith("series") for name in tensors)
        rebuilt, _ = model_from_checkpoint(fields, tensors)
        for k, v in model.params.items():
            assert np.array_equal(rebuilt.params[k], v), k

    def test_mismatched_series_shapes_rejected(self):
        fields, tensors = load_checkpoint(FIXTURES / "checkpoint_format1_aecrnn_init.txt")
        tensors["series1.conv0.w"] = tensors["series1.conv0.w"][:, :, :2]
        with pytest.raises(ShapeError, match="conv0.w"):
            model_from_checkpoint(fields, tensors)
