"""Forecasting networks built from the layer primitives.

Three model families are provided:

* ``CRNN`` – a 1-D convolution + max-pool stack per series whose pooled
  feature cubes are concatenated and fed to a recurrent cell, with a dense
  readout producing the forecast horizon.
* ``AECRNN`` – the same encoder plus, per series, a mirrored deconvolution
  decoder that reconstructs the input window through a sigmoid, trained
  jointly so reconstruction acts as a regularizer.
* ``RecurrentBaseline`` – an RNN or LSTM over the raw window, the paper's
  recurrent baselines.

Every series has its own filters, but they are stored grouped: one array per
stage with a leading series axis (``conv{j}``, ``deconv{j}``, ``merge``), so
each encoder and decoder stage is a single layer call over all series.

``MODELS`` maps each model kind (crnn, aecrnn, rnn, lstm) to its builder. It
and ``model_from_checkpoint``, which builds without drawing initial values it
would overwrite, read the one table of kinds, ``_KINDS``.

``ParamModel`` holds the one forecast, loss and gradient path. A window
batch is encoded, fed step by step to a recurrent cell whose final state a
dense readout maps to the horizon, and, when the model has a decoder,
reconstructed from its code; ``joint_loss`` scores both outputs. The models
supply only their parts: the encoder (CRNN, AECRNN; the identity for the
baselines), how the code becomes the cell's steps, and the decoder (AECRNN).
All gradients are hand-derived and checked against finite differences in the
test suite.

A checkpoint (``save_checkpoint``, ``load_checkpoint``) is ASCII text at
format 3: a ``format=3 key=value ...`` header line of the model's fields, then
one ``name shape hex`` line per tensor, whose single ``hex`` token holds the
tensor's little-endian float64 bytes. Formats 1 and 2, which wrote the values
as decimal tokens, still load.
"""

from __future__ import annotations

import binascii
import math
from collections import OrderedDict
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from typing import Mapping

import numpy as np

from .data import DataError, read_input
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
    "MODELS",
    "ModelConfig",
    "ParamModel",
    "Reconstruction",
    "RecurrentBaseline",
    "joint_loss",
    "load_checkpoint",
    "model_from_checkpoint",
    "save_checkpoint",
]

# Hyper-parameter ranges searched by the grid runner.
GRID_STAGES = (1, 2, 3)
GRID_FILTERS = (2, 3, 4, 5, 8, 10, 16)
GRID_FILTER_SIZES = (1, 2, 3, 5, 10)
GRID_HIDDEN = (3, 4, 5, 6)


class ConfigError(ValueError):
    """A model configuration violates its contract."""


def _int_field(fields: Mapping[str, object], name: str, default=MISSING) -> int:
    """fields[name] as an int, or default when the field is absent."""
    if name not in fields:
        if default is MISSING:
            raise DataError(f"model header lacks the field {name!r}")
        return default
    try:
        return int(fields[name])
    except ValueError:
        raise DataError(f"model header field {name}={fields[name]!r} is not an integer") from None


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
        # checked before the grid, which allow_off_grid skips
        for label in ("conv_pool_stages", "filters_per_layer", "filter_size", "rnn_hidden"):
            if getattr(self, label) < 1:
                raise ConfigError(f"{label} must be at least 1, got {getattr(self, label)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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

    def to_fields(self) -> "OrderedDict[str, str]":
        out: OrderedDict[str, str] = OrderedDict()
        for f in dataclass_fields(self):
            v = getattr(self, f.name)
            out[f.name] = str(int(v)) if isinstance(v, bool) else str(v)
        return out

    @classmethod
    def from_fields(cls, fields: Mapping[str, str]) -> "ModelConfig":
        """Build from named values; DataError names a required field that is
        absent or an integer field that does not hold an integer."""
        kwargs = {}
        for f in dataclass_fields(cls):
            if f.type == "int":
                kwargs[f.name] = _int_field(fields, f.name, f.default)
            elif f.type == "bool":
                kwargs[f.name] = bool(_int_field(fields, f.name, f.default))
            elif f.name in fields:
                kwargs[f.name] = fields[f.name]
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


def joint_loss(z: np.ndarray, y: np.ndarray, recon: np.ndarray | None = None,
               x: np.ndarray | None = None):
    """The objective of a batch and its gradients with respect to the outputs.

    j1 is the MSE of the forecasts z against the targets y, both (batch,
    horizon). j2 is the MSE of the reconstructions recon against the windows
    x, both (batch, n, l), averaged over all series and steps; without a
    reconstruction j2 = 0. The reconstruction reference is clamped to [0, 1]
    so out-of-range test windows stay comparable with the sigmoid-bounded
    decoder output; the forecast term is never clamped.

    Returns (LossBreakdown, dj/dz, dj/drecon or None). NumericError when the
    objective is not finite.
    """
    if z.shape != y.shape:
        raise ShapeError(f"forecasts {z.shape} do not match targets {y.shape}")
    ez = z - y
    j2, d_recon = 0.0, None
    if recon is not None:
        if recon.shape != x.shape:
            raise ShapeError(f"reconstructions {recon.shape} do not match windows {x.shape}")
        er = recon - np.clip(x, 0.0, 1.0)
        j2 = float(np.mean(er ** 2))
        d_recon = 2.0 * er / er.size
    j1 = float(np.mean(ez ** 2))
    # checked before LossBreakdown, whose j == j1 + j2 check a NaN fails
    if not np.isfinite(j1 + j2):
        raise NumericError(f"objective diverged: j1={j1}, j2={j2}")
    return LossBreakdown.of(j1, j2), 2.0 * ez / ez.size, d_recon


class _NoDraws:
    """Stands in for the generator of a model whose every parameter the
    caller sets: it draws nothing and gives zeros of the asked size."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


def _init_series(rng, num_series: int, layers) -> None:
    """Draw every series' initial filters, series by series and each
    series' layers in turn. The filter groups start at zero, so a build
    with ``_NoDraws`` leaves them as they are and runs no loop."""
    if isinstance(rng, _NoDraws):
        return
    for s in range(num_series):
        for layer in layers:
            layer.init_series(s, rng)


def _collect(grads: dict, prefix: str, layer_grads: Mapping[str, np.ndarray]) -> None:
    """Store one layer's parameter gradients under the model's names for them."""
    for name, g in layer_grads.items():
        grads[f"{prefix}.{name}"] = g


class ParamModel:
    """Parameter registry plus the one forecast, loss and gradient path of
    every trainable forecaster (the conv-recurrent models and the recurrent
    baselines).

    The path for a window batch x (batch, n, l): ``_encode`` turns x into a
    code (the identity here); ``_steps`` lays the code out as the time-major
    steps (T, batch, features) of the recurrent cell ``_cell``, whose final
    state the dense ``_readout`` maps to the forecasts; ``_decode``
    reconstructs the windows from the code (no decoder here, so j2 = 0).
    Each part's ``*_backward`` twin stores its layers' gradients with
    ``_collect`` and returns the gradient of its input.

    A model's constructor hands its arguments to ``_build(rng, *args)`` with
    a generator seeded from them, which draws the initial values in a fixed
    order; ``_undrawn`` builds the same model with no draw.
    """

    kind = ""
    num_series: int
    input_length: int
    horizon: int
    _cell: RNNCell | LSTMCell
    _readout: Dense

    def __init__(self):
        self.params: "OrderedDict[str, np.ndarray]" = OrderedDict()

    @classmethod
    def _undrawn(cls, *args):
        """The model ``cls(*args)`` builds, with every parameter zero and no
        random value drawn: for a caller that then sets every parameter."""
        model = cls.__new__(cls)
        model._build(_NoDraws(), *args)
        return model

    def _register(self, prefix: str, layer) -> None:
        for name, arr in layer.params().items():
            self.params[f"{prefix}.{name}"] = arr

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

    def _check_batch(self, x: np.ndarray) -> None:
        if (x.ndim != 3 or x.shape[1] != self.num_series
                or x.shape[2] != self.input_length):
            raise ShapeError(
                f"expected windows of shape (batch, {self.num_series}, "
                f"{self.input_length}), got {x.shape}")
        if not np.isfinite(x).all():
            raise NumericError("window batch holds non-finite values")

    # -- the parts a model supplies -------------------------------------------

    def _encode(self, x: np.ndarray):
        return x, None

    def _encode_backward(self, cache, d_code, grads) -> None:
        """Nothing is learned before the cell, so nothing needs d_code."""

    def _decode(self, code):
        return None, None

    def _head(self, code):
        _, h_final, cell_cache = self._cell.forward(self._steps(code))
        z, readout_cache = self._readout.forward(h_final)
        return z, (cell_cache, readout_cache)

    def _head_backward(self, cache, dz, grads):
        cell_cache, readout_cache = cache
        dh, readout_grads = self._readout.backward(readout_cache, dz)
        _collect(grads, "readout", readout_grads)
        gx, cell_grads = self._cell.backward(cell_cache, dh)
        _collect(grads, "rnn", cell_grads)
        return self._steps_backward(gx)

    # -- the one path -----------------------------------------------------------

    def _run(self, x: np.ndarray):
        """Forecasts, reconstructions (None without a decoder) and the caches
        of every part, for a window batch."""
        self._check_batch(x)
        code, enc_cache = self._encode(x)
        z, head_cache = self._head(code)
        recon, dec_cache = self._decode(code)
        return z, recon, (enc_cache, head_cache, dec_cache)

    def batch_forecast(self, x: np.ndarray) -> np.ndarray:
        """Forecasts (batch, horizon) for windows (batch, n, l); no decoder runs."""
        self._check_batch(x)
        z, _ = self._head(self._encode(x)[0])
        return z

    def batch_loss(self, x: np.ndarray, y: np.ndarray) -> LossBreakdown:
        z, recon, _ = self._run(x)
        return joint_loss(z, y, recon, x)[0]

    def batch_backward(self, x: np.ndarray, y: np.ndarray):
        """Loss and exact parameter gradients for a batch of windows."""
        z, recon, (enc_cache, head_cache, dec_cache) = self._run(x)
        loss, dz, d_recon = joint_loss(z, y, recon, x)
        grads: dict[str, np.ndarray] = {}
        d_code = self._head_backward(head_cache, dz, grads)
        if recon is not None:
            d_code = d_code + self._decode_backward(dec_cache, d_recon, grads)
        self._encode_backward(enc_cache, d_code, grads)
        return loss, grads

    def forward(self, window) -> tuple[Forecast, Reconstruction | None]:
        """Forecast and reconstruction (None without a decoder) of one
        (num_series, input_length) window."""
        z, recon, _ = self._run(_as_window_array(window)[None])
        return Forecast(z[0]), None if recon is None else Reconstruction(recon[0])


class CRNN(ParamModel):
    """Convolutional-recurrent forecaster for a correlated series set."""

    kind = "crnn"

    def __init__(self, config: ModelConfig):
        self._build(np.random.default_rng(config.seed), config)

    def _build(self, rng, config: ModelConfig) -> None:
        super().__init__()
        self.config = config
        self.num_series = config.num_series
        self.input_length = config.input_length
        self.horizon = config.horizon
        self._pool = MaxPool1D()
        n, alpha = config.num_series, config.filters_per_layer
        self._convs = [Conv1D(n, 1 if j == 0 else alpha, alpha, config.filter_size)
                       for j in range(config.conv_pool_stages)]
        for j, conv in enumerate(self._convs):
            self._register(f"conv{j}", conv)
        # Draw series by series, each series' stages in turn: the order of the
        # per-series layers of format 1, so every seed keeps its initial values.
        _init_series(rng, n, self._convs)
        cell_cls = RNNCell if config.cell_kind == "rnn" else LSTMCell
        self._cell = cell_cls(config.rnn_input_size, config.rnn_hidden, rng)
        self._register("rnn", self._cell)
        self._readout = Dense(config.rnn_hidden, config.horizon, rng)
        self._register("readout", self._readout)

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
            # stage 0 reads the data, whose gradient nothing uses
            g, conv_grads = self._convs[j].backward(conv_cache, g, input_grad=j > 0)
            _collect(grads, f"conv{j}", conv_grads)

    def _steps(self, cube):
        cfg = self.config
        if cfg.rnn_layout == "sequence":
            # step t sees every series' filters at pooled position t, series-major
            return np.moveaxis(cube, -1, 0).reshape(cfg.pooled_length, len(cube), -1)
        return cube.reshape(1, len(cube), cfg.feature_vector_length)

    def _steps_backward(self, gx):
        cfg = self.config
        shape = (gx.shape[1], cfg.num_series, cfg.filters_per_layer, cfg.pooled_length)
        if cfg.rnn_layout == "sequence":
            return np.moveaxis(gx, 0, -1).reshape(shape)
        return gx[0].reshape(shape)

    def checkpoint_fields(self) -> "OrderedDict[str, str]":
        fields = OrderedDict(model=self.kind)
        fields.update(self.config.to_fields())
        return fields


class AECRNN(CRNN):
    """CRNN plus per-series deconvolution decoders with a reconstruction loss."""

    kind = "aecrnn"

    def _build(self, rng, config: ModelConfig) -> None:
        # Shared encoder/recurrent/readout parameters draw first, in the same
        # order as CRNN, so equal seeds give equal shared initial values.
        super()._build(rng, config)
        n, alpha = config.num_series, config.filters_per_layer
        self._deconvs = [Deconv1D(n, alpha, alpha, config.filter_size)
                         for _ in range(config.conv_pool_stages)]
        for j, deconv in enumerate(self._deconvs):
            self._register(f"deconv{j}", deconv)
        self._merge = ChannelMerge(n, alpha)
        self._register("merge", self._merge)
        _init_series(rng, n, [*self._deconvs, self._merge])

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
        _collect(grads, "merge", merge_grads)
        for j in reversed(range(self.config.conv_pool_stages)):
            g, dec_grads = self._deconvs[j].backward(deconv_caches[j], g)
            _collect(grads, f"deconv{j}", dec_grads)
        return g


class RecurrentBaseline(ParamModel):
    """RNN or LSTM applied step-by-step to the raw window, then a dense readout.

    ``features="target"`` feeds only the target series; ``features="all"``
    stacks every series into the per-step feature vector.
    """

    def __init__(self, cell_kind: str, num_series: int, input_length: int,
                 horizon: int, hidden: int, features: str = "all", seed: int = 0):
        if seed < 0:  # before the generator, which would refuse it unnamed
            raise ConfigError(f"seed must be >= 0, got {seed}")
        self._build(np.random.default_rng(seed), cell_kind, num_series, input_length,
                    horizon, hidden, features, seed)

    def _build(self, rng, cell_kind: str, num_series: int, input_length: int,
               horizon: int, hidden: int, features: str, seed: int) -> None:
        super().__init__()
        if cell_kind not in ("rnn", "lstm"):
            raise ValueError(f"unknown cell kind {cell_kind!r}")
        if features not in ("target", "all"):
            raise ValueError(f"unknown feature mode {features!r}")
        if hidden < 1:
            raise ConfigError(f"hidden must be at least 1, got {hidden}")
        self.kind = f"{cell_kind}-baseline"
        self.cell_kind = cell_kind
        self.num_series = num_series
        self.input_length = input_length
        self.horizon = horizon
        self.hidden = hidden
        self.features = features
        self.seed = seed
        input_size = 1 if features == "target" else num_series
        cell_cls = RNNCell if cell_kind == "rnn" else LSTMCell
        self._cell = cell_cls(input_size, hidden, rng)
        self._register("rnn", self._cell)
        self._readout = Dense(hidden, horizon, rng)
        self._register("readout", self._readout)

    def _steps(self, x: np.ndarray) -> np.ndarray:
        rows = x[:, :1, :] if self.features == "target" else x
        return np.moveaxis(rows, -1, 0)

    def _steps_backward(self, gx) -> None:
        return None  # the steps are the raw window, which nothing learns from

    def checkpoint_fields(self) -> "OrderedDict[str, str]":
        return OrderedDict(
            model=self.kind,
            num_series=str(self.num_series),
            input_length=str(self.input_length),
            horizon=str(self.horizon),
            rnn_hidden=str(self.hidden),
            features=self.features,
            seed=str(self.seed),
        )


def _baseline_args(cell_kind: str, fields: Mapping[str, object]) -> tuple:
    """The baseline's arguments; the conv-model names are ignored."""
    return (cell_kind, _int_field(fields, "num_series"), _int_field(fields, "input_length"),
            _int_field(fields, "horizon"),
            _int_field(fields, "rnn_hidden", ModelConfig.rnn_hidden),
            fields.get("features", "all"), _int_field(fields, "seed", 0))


# Model kind -> (class, its constructor arguments from the named
# hyper-parameters). Every kind reads the same names, the checkpoint header
# fields, given as strings (from a file) or as values. The conv models
# validate them through ModelConfig; the baselines read only their geometry,
# rnn_hidden, features and seed, so no conv-grid check applies.
_KINDS = {
    "crnn": (CRNN, lambda fields: (ModelConfig.from_fields(fields),)),
    "aecrnn": (AECRNN, lambda fields: (ModelConfig.from_fields(fields),)),
    "rnn": (RecurrentBaseline, lambda fields: _baseline_args("rnn", fields)),
    "lstm": (RecurrentBaseline, lambda fields: _baseline_args("lstm", fields)),
}


def _builder(cls, args):
    return lambda fields: cls(*args(fields))


# Model kind -> builder of a model from the named hyper-parameters.
MODELS = {kind: _builder(cls, args) for kind, (cls, args) in _KINDS.items()}


# -- checkpoint container -----------------------------------------------------

CHECKPOINT_FORMAT = "3"
# Formats 1 and 2 wrote each tensor's values as %.17g decimal tokens. Format 1
# also stored each series' conv/deconv/merge parameters under its own name,
# series{s}.<name>; model_from_checkpoint stacks them on load.
_DECIMAL_FORMATS = ("1", "2")
_READABLE_FORMATS = (*_DECIMAL_FORMATS, CHECKPOINT_FORMAT)


def save_checkpoint(path, model, extra_tensors: Mapping[str, np.ndarray] | None = None) -> None:
    """Write a checkpoint that round-trips float64 bit-exactly.

    The file is ASCII: a header line ``format=3 key=value ...`` holding the
    model's fields, then one line ``name shape hex`` per parameter and extra
    tensor. ``shape`` is the dimensions joined by ``x``; ``hex`` is one token,
    the tensor's little-endian float64 bytes in C order, 16 hex digits per
    value.
    """
    tensors: "OrderedDict[str, np.ndarray]" = OrderedDict(model.params)
    for name, arr in (extra_tensors or {}).items():
        tensors[name] = np.asarray(arr, dtype=np.float64)
    lines = []
    header = " ".join(f"{k}={v}" for k, v in model.checkpoint_fields().items())
    lines.append(f"format={CHECKPOINT_FORMAT} {header}")
    for name, arr in tensors.items():
        shape = "x".join(str(d) for d in arr.shape)
        lines.append(f"{name} {shape} {np.ascontiguousarray(arr, '<f8').tobytes().hex()}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _checkpoint_format(fields: Mapping[str, str]) -> str:
    fmt = fields.get("format")
    if fmt not in _READABLE_FORMATS:
        raise ConfigError(f"unsupported checkpoint format {fmt!r} "
                          f"(readable formats: {', '.join(_READABLE_FORMATS)})")
    return fmt


def _nonblank_lines(text: str) -> list[str]:
    """The non-blank lines of ``text`` as a text-mode read splits them: \\n,
    \\r\\n and \\r each end a line. str.find reaches each line end at memchr
    speed, where str.split would test every character of the long hex lines."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines, start = [], 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line = text[start:end]
        if line.strip():
            lines.append(line)
        start = end + 1
    return lines


def load_checkpoint(path, raw: bytes | None = None):
    """Read a checkpoint, from ``path`` or from ``raw``, its bytes already
    read from ``path``; returns (header fields, name -> ndarray).

    A format-3 payload must be exactly 16 hex digits per value; those of
    formats 1 and 2 are decimal tokens. Raises DataError naming the tensor
    when a line is malformed, a name repeats, or the number of values does
    not match the recorded shape (as in a truncated file).
    """
    raw = read_input(path) if raw is None else raw
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataError(f"checkpoint {path} is not ASCII text: {exc}") from None
    lines = _nonblank_lines(text)
    if not lines:
        raise DataError(f"checkpoint {path} is empty")
    fields: "OrderedDict[str, str]" = OrderedDict()
    for token in lines[0].split():
        key, _, value = token.partition("=")
        fields[key] = value
    decimal = _checkpoint_format(fields) in _DECIMAL_FORMATS
    tensors: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for line in lines[1:]:
        name, _, rest = line.partition(" ")
        if name in tensors:
            raise DataError(f"checkpoint {path}: tensor {name!r} appears twice")
        shape_txt, _, payload = rest.partition(" ")
        try:
            shape = tuple(int(d) for d in shape_txt.split("x"))
            # unlike bytes.fromhex, unhexlify refuses whitespace between digit
            # pairs; astype copies into a writable array in native byte order
            arr = (np.array(payload.split(), dtype=np.float64) if decimal else
                   np.frombuffer(binascii.unhexlify(payload), "<f8").astype(np.float64))
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
    kind = fields.get("model", "")
    # the baselines' header kinds are rnn-baseline and lstm-baseline
    cls, args = _KINDS.get(kind.removesuffix("-baseline"), (None, None))
    # set_params overwrites every parameter, so none is drawn
    model = cls._undrawn(*args(fields)) if cls else None
    if model is None or model.kind != kind:
        raise ConfigError(f"checkpoint names unknown model kind {kind!r}")
    if fmt == "1":
        tensors = _stack_series_tensors(model, tensors)
    missing = [k for k in model.params if k not in tensors]
    if missing:
        raise DataError(f"checkpoint is missing parameters: {missing[:3]}...")
    model.set_params({k: v for k, v in tensors.items() if k in model.params})
    extras = {k: v for k, v in tensors.items() if k not in model.params}
    return model, extras
