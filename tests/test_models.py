import math
import shutil
import string
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import numeric_grad, rel_error
from crnn_forecast import layers, models
from crnn_forecast.data import DataError, Normalizer
from crnn_forecast.models import (AECRNN, CRNN, ConfigError, MODELS, LossBreakdown,
                                  ModelConfig, joint_loss, load_checkpoint,
                                  model_from_checkpoint, save_checkpoint)
from crnn_forecast.tensor import NumericError, ShapeError, Tensor

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
        # not the breakdown's j == j1 + j2 check, which nan != nan fails
        with pytest.raises(NumericError, match="diverged"):
            joint_loss(np.array([[np.nan, 1.0]]), np.zeros((1, 2)))

    def test_breakdown_identity_enforced(self):
        with pytest.raises(ValueError):
            LossBreakdown(1.0, 1.0, 3.0)

    def test_breakdown_sum_is_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            j1, j2 = rng.uniform(0, 10, 2)
            lb = LossBreakdown.of(j1, j2)
            assert lb.j == lb.j1 + lb.j2


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
        cls, args = models._KINDS[kind]
        undrawn = cls._undrawn(*args(header))
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

    @pytest.mark.parametrize("fmt", ["0", "4", ""])
    def test_unknown_format_rejected_by_name(self, tmp_path, fmt):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, CRNN(small_config()))
        fields, tensors = load_checkpoint(path)
        fields["format"] = fmt
        with pytest.raises(ConfigError, match=f"format '{fmt}'"):
            model_from_checkpoint(fields, tensors)
        text = path.read_text().replace("format=3", f"format={fmt}", 1)
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"format '{fmt}'"):
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


class TestCheckpointProperties:
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
        assert Normalizer.from_tensors(extras).mins.shape == (model.num_series,)
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
        for s in range(model.num_series):
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
