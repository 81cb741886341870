from pathlib import Path

import numpy as np
import pytest

from conftest import numeric_grad, rel_error
from crnn_forecast.data import DataError
from crnn_forecast.models import (AECRNN, CRNN, ConfigError, Forecast,
                                  LossBreakdown, ModelConfig, Reconstruction,
                                  build_model, forecast_loss, joint_loss,
                                  load_checkpoint, model_from_checkpoint,
                                  save_checkpoint)
from crnn_forecast.tensor import NumericError, ShapeError, Tensor

FIXTURES = Path(__file__).with_name("data")
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


class TestLossFunctions:
    def test_perfect_forecast(self):
        assert forecast_loss(Forecast([1.0, 2.0]), [1.0, 2.0]).j == 0.0

    def test_worked_example(self):
        lb = forecast_loss(Forecast([1.0, 2.0]), [1.0, 4.0])
        assert lb.j1 == 2.0 and lb.j2 == 0.0 and lb.j == 2.0

    def test_quadratic_scaling(self):
        base = forecast_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        scaled = forecast_loss(np.array([3.0, 6.0]), np.array([0.0, 0.0]))
        assert scaled.j1 == 9.0 * base.j1

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            forecast_loss(Forecast([1.0]), [1.0, 2.0])

    def test_joint_loss_perfect(self):
        window = Tensor(np.full((2, 2), 0.5))
        lb = joint_loss(Forecast([1.0]), Reconstruction(np.full((2, 2), 0.5)),
                        window, [1.0])
        assert lb.j == 0.0

    def test_joint_loss_worked_example(self):
        # |X|=2, l=2, every reconstruction off by 1.0, perfect forecast:
        # j2 = 4 unit squared errors / (2*2) = 1.0
        window = np.zeros((2, 2))
        recon = np.ones((2, 2))
        lb = joint_loss(np.array([3.0]), recon, window, np.array([3.0]))
        assert lb.j1 == 0.0 and lb.j2 == 1.0 and lb.j == 1.0

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
        forecast = model.forward(Tensor(window))
        assert forecast.horizon == 2
        assert cfg.feature_vector_length == 36

    def test_zero_network_outputs_readout_bias(self):
        cfg = small_config()
        model = CRNN(cfg)
        model.set_params({k: np.zeros_like(v) for k, v in model.params.items()})
        bias = np.array([0.25, -0.75])
        model.params["readout.b"][...] = bias
        for seed in range(3):
            window, _ = random_case(cfg, seed)
            assert np.array_equal(model.forward(Tensor(window)).values, bias)

    def test_forward_is_deterministic_bitwise(self):
        cfg = small_config(seed=11)
        window, _ = random_case(cfg, 5)
        runs = [CRNN(cfg).forward(Tensor(window)).values for _ in range(2)]
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
        assert model.loss(Tensor(window), target).j1 >= 0.0

    def test_tanh_activation_variant(self):
        cfg = small_config(conv_activation="tanh")
        window, target = random_case(cfg, 2)
        model = CRNN(cfg)
        assert np.isfinite(model.forward(Tensor(window)).values).all()

    def test_multi_stage_shapes(self):
        cfg = ModelConfig(num_series=2, input_length=16, horizon=3,
                          conv_pool_stages=2, filters_per_layer=2)
        model = CRNN(cfg)
        window, _ = random_case(cfg, 3)
        assert model.forward(Tensor(window)).horizon == 3


class TestAECRNNForward:
    def test_reconstruction_shape(self):
        cfg = ModelConfig(num_series=2, input_length=50, horizon=25,
                          filters_per_layer=2, allow_off_grid=True)
        model = AECRNN(cfg)
        window, _ = random_case(cfg, 0)
        forecast, recon = model.forward(Tensor(window))
        assert recon.values.shape == (2, 50)
        assert forecast.horizon == 25

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
            lb = model.loss(Tensor(window), target)
            assert lb.j == lb.j1 + lb.j2
            assert lb.j1 >= 0.0 and lb.j2 >= 0.0


class TestModelGradients:
    @pytest.mark.parametrize("kind", ["crnn", "aecrnn"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradients_match_finite_differences(self, kind, seed):
        cfg = small_config(seed=seed)
        model = build_model(kind, cfg)
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
        lb, grads = model.backward(Tensor(window), target)
        assert lb.j == 0.0
        assert not grads["readout.b"].any()

    def test_encoder_gradient_sums_both_paths(self):
        cfg = small_config(seed=8)
        model = AECRNN(cfg)
        window, target = random_case(cfg, 88)
        x, y = window[None], target[None]
        _, full = model.batch_backward(x, y)
        _, only_forecast = model.batch_backward(x, y, include_reconstruction=False)
        _, only_recon = model.batch_backward(x, y, include_forecast=False)
        for name in model.params:
            assert np.allclose(full[name],
                               only_forecast[name] + only_recon[name],
                               rtol=0, atol=1e-15)

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
    def test_decoder_off_matches_crnn_exactly(self):
        cfg = small_config(seed=21)
        crnn = CRNN(cfg)
        aecrnn = AECRNN(cfg)  # same seed -> identical shared parameters
        window, target = random_case(cfg, 210)
        x, y = window[None], target[None]
        _, g_crnn = crnn.batch_backward(x, y)
        _, g_aecrnn = aecrnn.batch_backward(x, y, include_reconstruction=False)
        for name in crnn.params:
            assert np.max(np.abs(g_crnn[name] - g_aecrnn[name])) < 1e-12, name
        # decoder parameters receive exactly zero gradient in that mode
        for name in aecrnn.params:
            if name not in crnn.params:
                assert not g_aecrnn[name].any()


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

    def test_round_trip_reproduces_loss_bitwise(self, tmp_path):
        cfg = small_config(seed=14)
        model = CRNN(cfg)
        window, target = random_case(cfg, 140)
        before = model.loss(Tensor(window), target).j
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model)
        rebuilt, _ = model_from_checkpoint(*load_checkpoint(path))
        after = rebuilt.loss(Tensor(window), target).j
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
        header = path.read_text().splitlines()[0]
        assert "model=crnn" in header
        assert "conv_activation=tanh" in header
        assert "format=2" in header

    def test_missing_parameters_rejected(self, tmp_path):
        cfg = small_config(seed=17)
        model = CRNN(cfg)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model)
        fields, tensors = load_checkpoint(path)
        tensors.pop("readout.b")
        with pytest.raises(ConfigError):
            model_from_checkpoint(fields, tensors)

    @pytest.mark.parametrize("fmt", ["0", "3", ""])
    def test_unknown_format_rejected_by_name(self, tmp_path, fmt):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, CRNN(small_config()))
        fields, tensors = load_checkpoint(path)
        fields["format"] = fmt
        with pytest.raises(ConfigError, match=f"format '{fmt}'"):
            model_from_checkpoint(fields, tensors)
        text = path.read_text().replace("format=2", f"format={fmt}", 1)
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

    def test_resaved_as_format_2_round_trips(self, tmp_path):
        model, _ = model_from_checkpoint(
            *load_checkpoint(FIXTURES / "checkpoint_format1_aecrnn_trained.txt"))
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, model)
        fields, tensors = load_checkpoint(path)
        assert fields["format"] == "2"
        assert not any(name.startswith("series") for name in tensors)
        rebuilt, _ = model_from_checkpoint(fields, tensors)
        for k, v in model.params.items():
            assert np.array_equal(rebuilt.params[k], v), k

    def test_mismatched_series_shapes_rejected(self):
        fields, tensors = load_checkpoint(FIXTURES / "checkpoint_format1_aecrnn_init.txt")
        tensors["series1.conv0.w"] = tensors["series1.conv0.w"][:, :, :2]
        with pytest.raises(ShapeError, match="conv0.w"):
            model_from_checkpoint(fields, tensors)
