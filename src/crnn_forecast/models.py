"""Forecasting networks built from the layer primitives.

Two model kinds are provided:

* ``CRNN`` – a 1-D convolution + max-pool stack per series whose pooled
  feature cubes are concatenated and fed to a recurrent cell, with a dense
  readout producing the forecast horizon.
* ``AECRNN`` – the same encoder plus, per series, a mirrored deconvolution
  decoder that reconstructs the input window through a sigmoid, trained
  jointly so reconstruction acts as a regularizer.

Every series has its own filters, but they are stored grouped: one array per
stage with a leading series axis (``conv{j}``, ``deconv{j}``, ``merge``), so
each encoder and decoder stage is a single layer call over all series.

Both expose identical per-sample and batched entry points; the batched path
is the one the trainer drives. All gradients are hand-derived and checked
against finite differences in the test suite.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, fields as dataclass_fields
from typing import Mapping

import numpy as np

from .data import DataError
from .layers import ChannelMerge, Conv1D, Deconv1D, Dense, LSTMCell, MaxPool1D, RNNCell
from .tensor import NumericError, ShapeError, Tensor

__all__ = [
    "AECRNN",
    "CRNN",
    "ConfigError",
    "Forecast",
    "GRID_FILTERS",
    "GRID_FILTER_SIZES",
    "GRID_HIDDEN",
    "GRID_STAGES",
    "LossBreakdown",
    "ModelConfig",
    "ParamModel",
    "Reconstruction",
    "build_model",
    "forecast_loss",
    "joint_loss",
    "load_checkpoint",
    "model_from_checkpoint",
    "register_model_builder",
    "save_checkpoint",
]

# Hyper-parameter ranges searched by the grid runner.
GRID_STAGES = (1, 2, 3)
GRID_FILTERS = (2, 3, 4, 5, 8, 10, 16)
GRID_FILTER_SIZES = (1, 2, 3, 5, 10)
GRID_HIDDEN = (3, 4, 5, 6)


class ConfigError(ValueError):
    """A model configuration violates its contract."""


@dataclass(frozen=True)
class ModelConfig:
    """Shape and hyper-parameter set for one network instance.

    ``input_length`` must be divisible by 2**conv_pool_stages because each
    pooling stage halves the time axis. Hyper-parameters outside the default
    search ranges are rejected unless ``allow_off_grid`` is set.
    """

    num_series: int
    input_length: int
    horizon: int
    conv_pool_stages: int = 1
    filters_per_layer: int = 3
    filter_size: int = 3
    rnn_hidden: int = 4
    cell_kind: str = "rnn"
    rnn_layout: str = "sequence"
    conv_activation: str = "linear"
    seed: int = 0
    allow_off_grid: bool = False

    def __post_init__(self):
        if self.num_series < 1:
            raise ConfigError("num_series must be at least 1")
        if self.input_length < 1 or self.horizon < 1:
            raise ConfigError("input_length and horizon must be positive")
        if self.cell_kind not in ("rnn", "lstm"):
            raise ConfigError(f"unknown cell_kind {self.cell_kind!r}")
        if self.rnn_layout not in ("sequence", "single-step"):
            raise ConfigError(f"unknown rnn_layout {self.rnn_layout!r}")
        if self.conv_activation not in ("linear", "tanh"):
            raise ConfigError(f"unknown conv_activation {self.conv_activation!r}")
        if self.conv_pool_stages < 1:
            raise ConfigError("conv_pool_stages must be at least 1")
        divisor = 2 ** self.conv_pool_stages
        if self.input_length % divisor != 0:
            raise ConfigError(
                f"input_length {self.input_length} is not divisible by "
                f"2^{self.conv_pool_stages} = {divisor} (each pooling stage halves it)")
        if not self.allow_off_grid:
            for value, grid, label in (
                (self.conv_pool_stages, GRID_STAGES, "conv_pool_stages"),
                (self.filters_per_layer, GRID_FILTERS, "filters_per_layer"),
                (self.filter_size, GRID_FILTER_SIZES, "filter_size"),
                (self.rnn_hidden, GRID_HIDDEN, "rnn_hidden"),
            ):
                if value not in grid:
                    raise ConfigError(
                        f"{label}={value} is outside the search grid {grid}; "
                        f"pass allow_off_grid=True to override")
        # The concatenated feature vector must be well formed by construction.
        if self.pooled_length < 1:
            raise ConfigError("input_length too short for the pooling depth")
        assert self.feature_vector_length == (
            self.num_series * self.filters_per_layer * self.pooled_length)

    @property
    def pooled_length(self) -> int:
        return self.input_length // (2 ** self.conv_pool_stages)

    @property
    def feature_vector_length(self) -> int:
        """Length of the flattened concatenation of all pooled cubes."""
        return self.num_series * self.filters_per_layer * self.pooled_length

    @property
    def rnn_input_size(self) -> int:
        if self.rnn_layout == "sequence":
            return self.num_series * self.filters_per_layer
        return self.feature_vector_length

    @property
    def rnn_steps(self) -> int:
        return self.pooled_length if self.rnn_layout == "sequence" else 1

    def to_fields(self) -> "OrderedDict[str, str]":
        out: OrderedDict[str, str] = OrderedDict()
        for f in dataclass_fields(self):
            v = getattr(self, f.name)
            out[f.name] = str(int(v)) if isinstance(v, bool) else str(v)
        return out

    @classmethod
    def from_fields(cls, fields: Mapping[str, str]) -> "ModelConfig":
        kwargs = {}
        for f in dataclass_fields(cls):
            if f.name not in fields:
                continue
            raw = fields[f.name]
            if f.type == "int":
                kwargs[f.name] = int(raw)
            elif f.type == "bool":
                kwargs[f.name] = bool(int(raw))
            else:
                kwargs[f.name] = raw
        return cls(**kwargs)


class Forecast:
    """Predicted values for the target series over the forecast horizon."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.array(values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ShapeError("forecast values must form a non-empty vector")
        if not np.isfinite(v).all():
            raise NumericError("forecast holds non-finite values")
        v.setflags(write=False)
        self.values = v

    @property
    def horizon(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"Forecast({self.values.tolist()})"


class Reconstruction:
    """Per-series reconstructed input windows, one row per series."""

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.array(values, dtype=np.float64)
        if v.ndim != 2:
            raise ShapeError("reconstruction must be (num_series, input_length)")
        if not np.isfinite(v).all():
            raise NumericError("reconstruction holds non-finite values")
        v.setflags(write=False)
        self.values = v

    def per_series(self, i: int) -> np.ndarray:
        return self.values[i]


@dataclass(frozen=True)
class LossBreakdown:
    """Objective terms: j1 = forecast loss, j2 = reconstruction loss, j = j1 + j2."""

    j1: float
    j2: float
    j: float

    def __post_init__(self):
        if self.j != self.j1 + self.j2:
            raise ValueError("loss breakdown must satisfy j == j1 + j2 exactly")

    @classmethod
    def of(cls, j1: float, j2: float = 0.0) -> "LossBreakdown":
        return cls(j1, j2, j1 + j2)


def _as_window_array(window) -> np.ndarray:
    a = window.array if isinstance(window, Tensor) else np.asarray(window, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"window must be (num_series, input_length), got shape {a.shape}")
    return a


def forecast_loss(forecast, target) -> LossBreakdown:
    """Mean squared error between a forecast and its ground-truth horizon."""
    z = forecast.values if isinstance(forecast, Forecast) else np.asarray(forecast, float)
    y = np.asarray(target, dtype=np.float64)
    if z.shape != y.shape:
        raise ShapeError(f"forecast length {z.shape} does not match target {y.shape}")
    return LossBreakdown.of(float(np.mean((z - y) ** 2)))


def joint_loss(forecast, reconstruction, window, target) -> LossBreakdown:
    """Forecast MSE plus reconstruction MSE averaged over all series and steps.

    The reconstruction reference is clamped to [0, 1] so out-of-range test
    windows stay comparable with the sigmoid-bounded decoder output; the
    forecast term is never clamped.
    """
    base = forecast_loss(forecast, target)
    r = (reconstruction.values if isinstance(reconstruction, Reconstruction)
         else np.asarray(reconstruction, float))
    w = _as_window_array(window)
    if r.shape != w.shape:
        raise ShapeError(f"reconstruction shape {r.shape} does not match window {w.shape}")
    j2 = float(np.mean((r - np.clip(w, 0.0, 1.0)) ** 2))
    return LossBreakdown.of(base.j1, j2)


class ParamModel:
    """Parameter registry plus the batch-shape contract shared by all
    trainable forecasters (the conv-recurrent models and the recurrent
    baselines)."""

    kind = ""
    num_series: int
    input_length: int
    horizon: int

    def __init__(self):
        self.params: "OrderedDict[str, np.ndarray]" = OrderedDict()

    def _register(self, prefix: str, layer) -> None:
        for name, arr in layer.params().items():
            self.params[f"{prefix}.{name}"] = arr

    @property
    def num_params(self) -> int:
        return sum(a.size for a in self.params.values())

    def get_params_copy(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def set_params(self, values: Mapping[str, np.ndarray]) -> None:
        for name, arr in values.items():
            if name not in self.params:
                raise ConfigError(f"unknown parameter {name!r} for model {self.kind}")
            target = self.params[name]
            src = np.asarray(arr, dtype=np.float64)
            if src.shape != target.shape:
                raise ShapeError(
                    f"parameter {name}: shape {src.shape} does not match {target.shape}")
            target[...] = src

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def _check_batch(self, x: np.ndarray) -> None:
        if (x.ndim != 3 or x.shape[1] != self.num_series
                or x.shape[2] != self.input_length):
            raise ShapeError(
                f"expected windows of shape (batch, {self.num_series}, "
                f"{self.input_length}), got {x.shape}")
        if not np.isfinite(x).all():
            raise NumericError("window batch holds non-finite values")

    def _check_targets(self, y: np.ndarray, batch: int) -> None:
        if y.shape != (batch, self.horizon):
            raise ShapeError(f"targets must be (batch, {self.horizon}), got {y.shape}")

    @staticmethod
    def _finished_loss(loss: LossBreakdown) -> LossBreakdown:
        if not np.isfinite(loss.j):
            raise NumericError(f"objective diverged: j1={loss.j1}, j2={loss.j2}")
        return loss

    def _window_batch(self, window) -> np.ndarray:
        return _as_window_array(window)[None]

    # Per-sample wrappers over the batched implementations.

    def forward(self, window) -> Forecast:
        z = self.batch_forecast(self._window_batch(window))
        return Forecast(z[0])

    def loss(self, window, target) -> LossBreakdown:
        y = np.asarray(target, dtype=np.float64)[None]
        return self.batch_loss(self._window_batch(window), y)

    def backward(self, window, target, **flags):
        y = np.asarray(target, dtype=np.float64)[None]
        return self.batch_backward(self._window_batch(window), y, **flags)


class CRNN(ParamModel):
    """Convolutional-recurrent forecaster for a correlated series set."""

    kind = "crnn"

    def __init__(self, config: ModelConfig):
        super().__init__()
        self.config = config
        self.num_series = config.num_series
        self.input_length = config.input_length
        self.horizon = config.horizon
        self._rng = np.random.default_rng(config.seed)
        self._pool = MaxPool1D()
        n, alpha = config.num_series, config.filters_per_layer
        self._convs = [Conv1D(n, 1 if j == 0 else alpha, alpha, config.filter_size)
                       for j in range(config.conv_pool_stages)]
        for j, conv in enumerate(self._convs):
            self._register(f"conv{j}", conv)
        # Draw series by series, each series' stages in turn: the order of the
        # per-series layers of format 1, so every seed keeps its initial values.
        for s in range(n):
            for conv in self._convs:
                conv.init_series(s, self._rng)
        cell_cls = RNNCell if config.cell_kind == "rnn" else LSTMCell
        self._cell = cell_cls(config.rnn_input_size, config.rnn_hidden, self._rng)
        self._register("rnn", self._cell)
        self._readout = Dense(config.rnn_hidden, config.horizon, self._rng)
        self._register("readout", self._readout)

    # -- batched core -------------------------------------------------------

    def _encode(self, x: np.ndarray):
        """Pooled feature cubes (batch, n, alpha, pooled) for windows (batch, n, l)."""
        h = x[:, :, None, :]
        caches = []
        tanh_act = self.config.conv_activation == "tanh"
        for conv in self._convs:
            h, conv_cache = conv.forward(h)
            act = None
            if tanh_act:
                h = np.tanh(h)
                act = h
            h, pool_cache = self._pool.forward(h)
            caches.append((conv_cache, act, pool_cache))
        return h, caches

    def _encode_backward(self, caches, d_cube, grads) -> None:
        g = d_cube
        for j in reversed(range(self.config.conv_pool_stages)):
            conv_cache, act, pool_cache = caches[j]
            g = self._pool.backward(pool_cache, g)
            if act is not None:
                g = g * (1.0 - act * act)
            g, conv_grads = self._convs[j].backward(conv_cache, g)
            grads[f"conv{j}.w"] += conv_grads["w"]
            grads[f"conv{j}.b"] += conv_grads["b"]

    def _head(self, cube):
        cfg = self.config
        batch = cube.shape[0]
        if cfg.rnn_layout == "sequence":
            # step t sees every series' filters at pooled position t, series-major
            xs = list(np.moveaxis(cube, -1, 0).reshape(cfg.pooled_length, batch, -1))
        else:
            xs = [cube.reshape(batch, cfg.feature_vector_length)]
        _, h_final, cell_cache = self._cell.forward(xs)
        z, readout_cache = self._readout.forward(h_final)
        return z, (cell_cache, readout_cache)

    def _head_backward(self, cache, dz, grads):
        cfg = self.config
        cell_cache, readout_cache = cache
        dh, readout_grads = self._readout.backward(readout_cache, dz)
        for k, v in readout_grads.items():
            grads[f"readout.{k}"] += v
        gxs, _, cell_grads = self._cell.backward(cell_cache, dh)
        for k, v in cell_grads.items():
            grads[f"rnn.{k}"] += v
        shape = (dz.shape[0], cfg.num_series, cfg.filters_per_layer, cfg.pooled_length)
        if cfg.rnn_layout == "sequence":
            return np.stack(gxs, axis=-1).reshape(shape)
        return gxs[0].reshape(shape)

    def batch_forecast(self, x: np.ndarray) -> np.ndarray:
        """Forecasts for a batch of windows; returns (batch, horizon)."""
        self._check_batch(x)
        cube, _ = self._encode(x)
        z, _ = self._head(cube)
        return z

    def batch_loss(self, x: np.ndarray, y: np.ndarray) -> LossBreakdown:
        z = self.batch_forecast(x)
        self._check_targets(y, x.shape[0])
        j1 = float(np.mean((z - y) ** 2))
        return self._finished_loss(LossBreakdown.of(j1))

    def batch_backward(self, x: np.ndarray, y: np.ndarray, *,
                       include_forecast: bool = True,
                       include_reconstruction: bool = True):
        """Loss and exact parameter gradients for a batch of windows."""
        del include_reconstruction  # no decoder on this model
        self._check_batch(x)
        self._check_targets(y, x.shape[0])
        cube, enc_caches = self._encode(x)
        z, head_cache = self._head(cube)
        loss = self._finished_loss(LossBreakdown.of(float(np.mean((z - y) ** 2))))
        grads = self.zero_grads()
        if include_forecast:
            dz = 2.0 * (z - y) / y.size
            d_cube = self._head_backward(head_cache, dz, grads)
            self._encode_backward(enc_caches, d_cube, grads)
        return loss, grads

    def checkpoint_fields(self) -> "OrderedDict[str, str]":
        fields = OrderedDict(model=self.kind)
        fields.update(self.config.to_fields())
        return fields


class AECRNN(CRNN):
    """CRNN plus per-series deconvolution decoders with a reconstruction loss."""

    kind = "aecrnn"

    def __init__(self, config: ModelConfig):
        # Shared encoder/recurrent/readout parameters draw first, in the same
        # order as CRNN, so equal seeds give equal shared initial values.
        super().__init__(config)
        n, alpha = config.num_series, config.filters_per_layer
        self._deconvs = [Deconv1D(n, alpha, alpha, config.filter_size)
                         for _ in range(config.conv_pool_stages)]
        for j, deconv in enumerate(self._deconvs):
            self._register(f"deconv{j}", deconv)
        self._merge = ChannelMerge(n, alpha)
        self._register("merge", self._merge)
        for s in range(n):
            for deconv in self._deconvs:
                deconv.init_series(s, self._rng)
            self._merge.init_series(s, self._rng)

    def _decode(self, cube):
        d = cube
        deconv_caches = []
        for deconv in self._deconvs:
            d, c = deconv.forward(d)
            deconv_caches.append(c)
        r, merge_cache = self._merge.forward(d)
        return r[:, :, 0, :], (deconv_caches, merge_cache)

    def _decode_backward(self, caches, d_recon, grads):
        deconv_caches, merge_cache = caches
        g, merge_grads = self._merge.backward(merge_cache, d_recon[:, :, None, :])
        grads["merge.w"] += merge_grads["w"]
        grads["merge.b"] += merge_grads["b"]
        for j in reversed(range(self.config.conv_pool_stages)):
            g, dec_grads = self._deconvs[j].backward(deconv_caches[j], g)
            grads[f"deconv{j}.w"] += dec_grads["w"]
            grads[f"deconv{j}.b"] += dec_grads["b"]
        return g

    def batch_reconstruct(self, x: np.ndarray) -> np.ndarray:
        self._check_batch(x)
        cube, _ = self._encode(x)
        recon, _ = self._decode(cube)
        return recon

    def batch_loss(self, x: np.ndarray, y: np.ndarray) -> LossBreakdown:
        self._check_batch(x)
        self._check_targets(y, x.shape[0])
        cube, _ = self._encode(x)
        z, _ = self._head(cube)
        recon, _ = self._decode(cube)
        j1 = float(np.mean((z - y) ** 2))
        j2 = float(np.mean((recon - np.clip(x, 0.0, 1.0)) ** 2))
        return self._finished_loss(LossBreakdown.of(j1, j2))

    def batch_backward(self, x: np.ndarray, y: np.ndarray, *,
                       include_forecast: bool = True,
                       include_reconstruction: bool = True):
        """Joint loss and gradients; the two include_* switches isolate one
        objective term for diagnostics while the reported loss stays complete."""
        self._check_batch(x)
        self._check_targets(y, x.shape[0])
        cube, enc_caches = self._encode(x)
        z, head_cache = self._head(cube)
        recon, dec_caches = self._decode(cube)
        ref = np.clip(x, 0.0, 1.0)
        j1 = float(np.mean((z - y) ** 2))
        j2 = float(np.mean((recon - ref) ** 2))
        loss = self._finished_loss(LossBreakdown.of(j1, j2))
        grads = self.zero_grads()
        d_cube = np.zeros_like(cube)
        if include_forecast:
            dz = 2.0 * (z - y) / y.size
            d_cube += self._head_backward(head_cache, dz, grads)
        if include_reconstruction:
            d_recon = 2.0 * (recon - ref) / recon.size
            d_cube += self._decode_backward(dec_caches, d_recon, grads)
        if include_forecast or include_reconstruction:
            self._encode_backward(enc_caches, d_cube, grads)
        return loss, grads

    def forward(self, window):
        x = self._window_batch(window)
        self._check_batch(x)
        cube, _ = self._encode(x)
        z, _ = self._head(cube)
        recon, _ = self._decode(cube)
        return Forecast(z[0]), Reconstruction(recon[0])


# -- checkpoint container -----------------------------------------------------

_FLOAT_FMT = "%.17g"
CHECKPOINT_FORMAT = "2"
# Format 1 stored each series' conv/deconv/merge parameters under its own
# name, series{s}.<name>; model_from_checkpoint stacks them on load.
_READABLE_FORMATS = ("1", CHECKPOINT_FORMAT)

_MODEL_BUILDERS: dict[str, callable] = {}


def register_model_builder(kind: str, builder) -> None:
    _MODEL_BUILDERS[kind] = builder


def build_model(kind: str, config: ModelConfig):
    if kind == "crnn":
        return CRNN(config)
    if kind == "aecrnn":
        return AECRNN(config)
    raise ConfigError(f"unknown model kind {kind!r}")


register_model_builder("crnn", lambda f: CRNN(ModelConfig.from_fields(f)))
register_model_builder("aecrnn", lambda f: AECRNN(ModelConfig.from_fields(f)))


def save_checkpoint(path, model, extra_tensors: Mapping[str, np.ndarray] | None = None) -> None:
    """Write a flat text checkpoint that round-trips float64 bit-exactly."""
    tensors: "OrderedDict[str, np.ndarray]" = OrderedDict(model.params)
    for name, arr in (extra_tensors or {}).items():
        tensors[name] = np.asarray(arr, dtype=np.float64)
    lines = []
    header = " ".join(f"{k}={v}" for k, v in model.checkpoint_fields().items())
    lines.append(f"format={CHECKPOINT_FORMAT} {header}")
    for name, arr in tensors.items():
        shape = "x".join(str(d) for d in arr.shape)
        values = " ".join(_FLOAT_FMT % v for v in arr.reshape(-1))
        lines.append(f"{name} {shape} {values}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _checkpoint_format(fields: Mapping[str, str]) -> str:
    fmt = fields.get("format")
    if fmt not in _READABLE_FORMATS:
        raise ConfigError(f"unsupported checkpoint format {fmt!r} "
                          f"(readable formats: {', '.join(_READABLE_FORMATS)})")
    return fmt


def load_checkpoint(path):
    """Read a checkpoint; returns (header fields, name -> ndarray).

    Raises DataError naming the tensor when a line is malformed, a name
    repeats, or the number of values does not match the recorded shape
    (as in a truncated file).
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"checkpoint {path} is empty")
    fields: "OrderedDict[str, str]" = OrderedDict()
    for token in lines[0].split():
        key, _, value = token.partition("=")
        fields[key] = value
    _checkpoint_format(fields)
    tensors: "OrderedDict[str, np.ndarray]" = OrderedDict()
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
    return fields, tensors


def _stack_series_tensors(model, tensors: Mapping[str, np.ndarray]):
    """Format-1 tensors with the series{s}. prefix, stacked into the grouped
    parameters they became; every other tensor passes through."""
    out: "OrderedDict[str, np.ndarray]" = OrderedDict(tensors)
    for name, target in model.params.items():
        parts = [f"series{s}.{name}" for s in range(model.num_series)]
        if name in out or not all(part in out for part in parts):
            continue
        pieces = [out.pop(part) for part in parts]
        if len({piece.shape for piece in pieces}) != 1:
            raise ShapeError(f"format-1 tensors {parts[0]}... differ in shape")
        stacked = np.stack(pieces)
        # merge.b was (1,) per series and is (n,) grouped
        out[name] = stacked.reshape(target.shape) if stacked.size == target.size else stacked
    return out


def model_from_checkpoint(fields: Mapping[str, str], tensors: Mapping[str, np.ndarray]):
    """Rebuild a model from checkpoint contents.

    Returns (model, extras) where extras holds tensors that are not model
    parameters (e.g. normalization statistics). Format-1 contents are
    converted to the grouped parameters of format 2.
    """
    fmt = _checkpoint_format(fields)
    kind = fields.get("model")
    if kind not in _MODEL_BUILDERS:
        raise ConfigError(f"checkpoint names unknown model kind {kind!r}")
    model = _MODEL_BUILDERS[kind](fields)
    if fmt == "1":
        tensors = _stack_series_tensors(model, tensors)
    missing = [k for k in model.params if k not in tensors]
    if missing:
        raise ConfigError(f"checkpoint is missing parameters: {missing[:3]}...")
    model.set_params({k: v for k, v in tensors.items() if k in model.params})
    extras = {k: v for k, v in tensors.items() if k not in model.params}
    return model, extras
