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

No series reads another's features before the recurrent cell, so a large
batch (``SPLIT_MIN_VALUES``) is split across two threads: a worker thread,
started on first use, runs the encoder and decoder of series 0..n//2-1,
forward and backward, while the calling thread runs them for the rest. Each
thread runs its share as contiguous ranges of a few series, one after
another, each range's first stage holding at most ``SPLIT_MIN_VALUES``
values, so that its arrays stay near the cache; codes, reconstructions and
gradients are joined along the series axis in range order. The layers
compute series s from its own weights alone, through numpy loops that
release the GIL, so the two threads overlap and the results are the bits of
one call over the group (``CRNN._splits`` and ``CRNN._split_ranges`` keep
out the one range shape where they would not be). The cell, the readout,
the loss and the optimizer stay on the calling thread.

Each model is built from a frozen config, checked when it is built:
``ModelConfig`` for CRNN and AECRNN, ``BaselineConfig`` for the baselines.
A config's fields, in order, are the model's checkpoint header after its
kind. ``_KINDS`` holds each model kind (crnn, aecrnn, rnn, lstm) once, as
its class and config class. ``MODELS``, which maps each kind to its builder,
``model_from_checkpoint``, which builds without drawing initial values it
would overwrite, and ``GRID_AXES`` all read it.

``ParamModel`` holds the one forecast, loss and gradient path. A window
batch is encoded and, when the model has a decoder, reconstructed from its
code; the code is fed step by step to a recurrent cell whose final state a
dense readout maps to the horizon; ``joint_loss`` scores both outputs. Only
``batch_backward`` keeps the layers' caches; a forecast and the forecast
loss run the same arithmetic without them, to the same bits. The
models supply only their parts: the per-series layers (CRNN, AECRNN; the
identity for the baselines) and how the code becomes the cell's steps.
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
import functools
import math
import os
import threading
from collections import OrderedDict
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from typing import Mapping

import numpy as np

from .data import DataError, read_input
from .layers import ChannelMerge, Conv1D, Deconv1D, Dense, LSTMCell, MaxPool1D, RNNCell
from .tensor import NumericError, ShapeError, Tensor

__all__ = [
    "AECRNN",
    "BASELINE_FEATURES",
    "BaselineConfig",
    "CELL_KINDS",
    "CONV_ACTIVATIONS",
    "CRNN",
    "ConfigError",
    "Forecast",
    "GRID_AXES",
    "LossBreakdown",
    "MODELS",
    "ModelConfig",
    "ParamModel",
    "RNN_LAYOUTS",
    "Reconstruction",
    "RecurrentBaseline",
    "joint_loss",
    "load_checkpoint",
    "model_from_checkpoint",
    "save_checkpoint",
]

# The choices of each string setting, in the CLI's order; the first is the default.
CELL_KINDS = ("rnn", "lstm")
RNN_LAYOUTS = ("sequence", "single-step")
CONV_ACTIVATIONS = ("linear", "tanh")
BASELINE_FEATURES = ("all", "target")
_CELLS = dict(zip(CELL_KINDS, (RNNCell, LSTMCell)))  # cell kind -> its class

# Hyper-parameter ranges searched by the grid runner.
_CONV_GRID = {"conv_pool_stages": (1, 2, 3), "filters_per_layer": (2, 3, 4, 5, 8, 10, 16),
              "filter_size": (1, 2, 3, 5, 10), "rnn_hidden": (3, 4, 5, 6)}


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


class _Config:
    """The header form and the checks every model config shares. A config
    is frozen; its fields, in order, are the model's checkpoint header."""

    def _check_geometry_and_seed(self) -> None:
        if self.num_series < 1:
            raise ConfigError("num_series must be at least 1")
        if self.input_length < 1 or self.horizon < 1:
            raise ConfigError("input_length and horizon must be positive")
        if self.seed < 0:  # before the generator, which would refuse it unnamed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_fields(self) -> "OrderedDict[str, str]":
        out: OrderedDict[str, str] = OrderedDict()
        for f in dataclass_fields(self):
            v = getattr(self, f.name)
            out[f.name] = str(int(v)) if isinstance(v, bool) else str(v)
        return out

    @classmethod
    def from_fields(cls, fields: Mapping[str, object]):
        """Build from named values, as strings or as values; names the
        config lacks are ignored. DataError names a required field that is
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


@dataclass(frozen=True)
class ModelConfig(_Config):
    """Shape and hyper-parameter set for one conv-recurrent network.

    ``input_length`` must be divisible by 2**conv_pool_stages because each
    pooling stage halves the time axis. Hyper-parameters outside the default
    search ranges are rejected unless ``allow_off_grid`` is set.
    """

    num_series: int
    input_length: int
    horizon: int
    conv_pool_stages: int = 1
    filters_per_layer: int = 2
    filter_size: int = 3
    rnn_hidden: int = 4
    cell_kind: str = CELL_KINDS[0]
    rnn_layout: str = RNN_LAYOUTS[0]
    conv_activation: str = CONV_ACTIVATIONS[0]
    seed: int = 0
    allow_off_grid: bool = False

    def __post_init__(self):
        self._check_geometry_and_seed()
        for label, choices in (("cell_kind", CELL_KINDS), ("rnn_layout", RNN_LAYOUTS),
                               ("conv_activation", CONV_ACTIVATIONS)):
            if getattr(self, label) not in choices:
                raise ConfigError(f"unknown {label} {getattr(self, label)!r}")
        # checked before the grid, which allow_off_grid skips
        for label in _CONV_GRID:
            if getattr(self, label) < 1:
                raise ConfigError(f"{label} must be at least 1, got {getattr(self, label)}")
        divisor = 2 ** self.conv_pool_stages
        if self.input_length % divisor != 0:
            raise ConfigError(
                f"input_length {self.input_length} is not divisible by "
                f"2^{self.conv_pool_stages} = {divisor} (each pooling stage halves it)")
        if not self.allow_off_grid:
            for label, grid in _CONV_GRID.items():
                if getattr(self, label) not in grid:
                    raise ConfigError(
                        f"{label}={getattr(self, label)} is outside the search grid {grid}; "
                        f"pass allow_off_grid=True to override")

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


@dataclass(frozen=True)
class BaselineConfig(_Config):
    """Shape and hyper-parameters of a recurrent baseline. ``features``
    "target" feeds the cell only the target series, "all" every series."""

    num_series: int
    input_length: int
    horizon: int
    rnn_hidden: int = ModelConfig.rnn_hidden
    features: str = BASELINE_FEATURES[0]
    seed: int = 0

    def __post_init__(self):
        self._check_geometry_and_seed()
        if self.features not in BASELINE_FEATURES:
            raise ConfigError(f"unknown feature mode {self.features!r}")
        if self.rnn_hidden < 1:
            raise ConfigError(f"hidden must be at least 1, got {self.rnn_hidden}")


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
    j2: float = 0.0

    @property
    def j(self) -> float:
        return self.j1 + self.j2


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
        # np.mean's arithmetic, add.reduce then a true divide, at less cost per call
        j2 = float((er ** 2).sum() / er.size)
        d_recon = 2.0 * er / er.size
    j1 = float((ez ** 2).sum() / ez.size)
    if not np.isfinite(j1 + j2):
        raise NumericError(f"objective diverged: j1={j1}, j2={j2}")
    return LossBreakdown(j1, j2), 2.0 * ez / ez.size, d_recon


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


# A conv-recurrent model splits a batch of windows (batch, n, l) across two
# threads when the first stage's output for series 0..n//2-1, batch *
# (n // 2) * filters * l values, reaches this many. Timed on a 2-vCPU Xeon VM
# over five model shapes (1-2 stages, 2-8 filters, 2-16 series), a split's
# hand-off cost about as much as the overlap saved near this size: from x0.94
# to x1.18 in forecast and from x0.97 to x1.38 in backward; the benchmark's
# wide model at 32 windows is the x1.18 and x1.38. At half of it, the split
# won nowhere by more than x1.00; at a quarter, it lost on every shape, down
# to x0.51. At twice it, the pair model still lost (x0.98, x0.97).
# Each thread then runs its series in ranges of at most this many such values
# (one series of a 256-window wide chunk, 0.5 MiB per first-stage array where
# a half's are 4 MiB). In the benchmark's own loop on that VM, such a chunk's
# batch_forecast took a median 11.4-13.7 ms where the halves took 12.4-16.9
# ms while the two vCPUs gave two threads no parallel throughput, and 8.3-8.5
# against 8.0-8.1 ms while they did. Ranges of 2 or 4 series gained less in
# the first state, and no range size gained in the second.
SPLIT_MIN_VALUES = 65536


# _on_both_cores's executor, made on first use: concurrent.futures takes ~4 ms to import
_worker = None
_worker_lock = threading.Lock()


def _reset_worker() -> None:
    # A forked child has no copy of its parent's worker thread, so it would
    # wait forever on the parent's executor; it makes a worker of its own.
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_reset_worker)


def _under_errstate(call, err: dict, fn, args):
    with np.errstate(call=call, **err):
        return fn(*args)


def _on_both_cores(fn, lo_args: tuple, hi_args: tuple):
    """(fn(*lo_args), fn(*hi_args)): the first on the worker thread, under
    this thread's floating-point error handling, the second on this thread.
    Returns once both are done. When either raises, the error is raised
    after both are done, the first call's when both raise."""
    global _worker
    with _worker_lock:  # two caller threads must not both make one
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="crnn-series")
    lo = _worker.submit(_under_errstate, np.geterrcall(), np.geterr(), fn, lo_args)
    try:
        hi = fn(*hi_args)
    except BaseException:
        lo.result()
        raise
    return lo.result(), hi


class ParamModel:
    """Parameter registry plus the one forecast, loss and gradient path of
    every trainable forecaster (the conv-recurrent models and the recurrent
    baselines).

    The path for a window batch x (batch, n, l): ``_series_forward`` turns
    x into a code and, with a decoder, reconstructions (here the identity
    and none, so j2 = 0); ``_steps`` lays the code out as the time-major
    steps (T, batch, features) of the recurrent cell ``_cell``, whose final
    state the dense ``_readout`` maps to the forecasts. ``_head_backward``
    returns the gradient of the code and ``_series_backward`` takes it with
    the reconstructions' gradient; both store their layers' gradients in
    ``grads``.

    Only ``batch_backward`` keeps caches: it runs ``_series_forward`` with
    ``decode`` set and ``_head``, the cell's ``forward``. ``batch_forecast``,
    ``batch_loss`` and ``forward`` run ``_forecast``, the cell's
    ``final_state``, which keeps none, and give the same bits;
    ``batch_forecast`` and ``batch_loss`` also run ``_series_forward``
    without ``decode``, whose pools keep no record of their winners.

    A model's constructor hands its arguments to ``_build(rng, *args)`` with
    a generator seeded from its config, which draws the initial values in a
    fixed order; ``_undrawn`` builds the same model with no draw.
    """

    kind = ""
    config: ModelConfig | BaselineConfig
    _cell: RNNCell | LSTMCell
    _readout: Dense

    def __init__(self, config: ModelConfig | BaselineConfig):
        self.config = config
        self.params: "OrderedDict[str, np.ndarray]" = OrderedDict()

    def checkpoint_fields(self) -> "OrderedDict[str, str]":
        """The checkpoint header's fields: the model kind, then the config's."""
        return OrderedDict(model=self.kind, **self.config.to_fields())

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
        cfg = self.config
        if x.ndim != 3 or x.shape[1:] != (cfg.num_series, cfg.input_length):
            raise ShapeError(
                f"expected windows of shape (batch, {cfg.num_series}, "
                f"{cfg.input_length}), got {x.shape}")
        if not np.isfinite(x).all():
            raise NumericError("window batch holds non-finite values")

    # -- the parts a model supplies -------------------------------------------

    def _series_forward(self, x: np.ndarray, decode: bool):
        """(code, reconstructions or None, cache) for windows x: the identity
        here, with no decoder."""
        return x, None, None

    def _series_backward(self, cache, d_code, d_recon, grads) -> None:
        """Nothing is learned before the cell, so nothing needs d_code."""

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

    def _forecast(self, x: np.ndarray, decode: bool):
        """Forecasts and reconstructions (None without a decoder or unless
        ``decode`` is set) of a window batch: the forecasts of ``_head``, with
        its bits, from the cell's final state alone."""
        self._check_batch(x)
        code, recon, _ = self._series_forward(x, decode)
        z, _ = self._readout.forward(self._cell.final_state(self._steps(code)))
        return z, recon

    def batch_forecast(self, x: np.ndarray) -> np.ndarray:
        """Forecasts (batch, horizon) for windows (batch, n, l); no decoder runs."""
        return self._forecast(x, decode=False)[0]

    def batch_loss(self, x: np.ndarray, y: np.ndarray) -> LossBreakdown:
        """Forecast loss of windows x against targets y, from the forecasts
        alone (j2 = 0): no decoder runs, and none feeds the forecasts, so j1
        has the bits of ``batch_backward``'s, which also returns the objective."""
        return joint_loss(self._forecast(x, decode=False)[0], y)[0]

    def batch_backward(self, x: np.ndarray, y: np.ndarray):
        """Loss and exact parameter gradients for a batch of windows."""
        self._check_batch(x)
        code, recon, series_cache = self._series_forward(x, decode=True)
        z, head_cache = self._head(code)
        loss, dz, d_recon = joint_loss(z, y, recon, x)
        grads: dict[str, np.ndarray] = {}
        d_code = self._head_backward(head_cache, dz, grads)
        self._series_backward(series_cache, d_code, d_recon, grads)
        return loss, grads

    def forward(self, window) -> tuple[Forecast, Reconstruction | None]:
        """Forecast and reconstruction (None without a decoder) of one
        (num_series, input_length) window."""
        z, recon = self._forecast(_as_window_array(window)[None], decode=True)
        return Forecast(z[0]), None if recon is None else Reconstruction(recon[0])


class _SeriesLayers:
    """The per-series layers of a conv-recurrent model over a group of
    series: the encoder's conv stages (each followed by the optional tanh
    and a max-pool) and, when the model has a decoder, its deconvolution
    stages and channel merge. ``series_range`` gives the same layers for a
    contiguous range of the series, holding views of the weights."""

    def __init__(self, convs, tanh: bool, deconvs=(), merge: ChannelMerge | None = None):
        self.convs = convs
        self.tanh = tanh
        self.deconvs = deconvs
        self.merge = merge
        self.pool = MaxPool1D()

    def series_range(self, lo: int, hi: int) -> "_SeriesLayers":
        return _SeriesLayers([c.series_range(lo, hi) for c in self.convs], self.tanh,
                             [d.series_range(lo, hi) for d in self.deconvs],
                             None if self.merge is None else self.merge.series_range(lo, hi))

    def forward(self, x: np.ndarray, decode: bool):
        """Pooled feature cubes (batch, n, alpha, pooled), reconstructions
        (batch, n, l) or None, and the cache, for windows (batch, n, l). With
        ``decode`` set the decoder runs, when there is one, and the cache
        holds what ``backward`` needs; without it the encoder alone runs, its
        pools give their values alone, and the cache is None."""
        h = x[:, :, None, :]
        enc_caches = []
        for conv in self.convs:
            h, conv_cache = conv.forward(h)
            act = None
            if self.tanh:
                h = act = np.tanh(h)
            if not decode:
                h = self.pool.values(h)
                continue
            h, pool_cache = self.pool.forward(h)
            enc_caches.append((conv_cache, act, pool_cache))
        if not decode:
            return h, None, None
        if self.merge is None:
            return h, None, (enc_caches, None)
        d = h
        deconv_caches = []
        for deconv in self.deconvs:
            d, deconv_cache = deconv.forward(d)
            deconv_caches.append(deconv_cache)
        r, merge_cache = self.merge.forward(d)
        return h, r[:, :, 0, :], (enc_caches, (deconv_caches, merge_cache))

    def backward(self, cache, d_cube: np.ndarray, d_recon: np.ndarray | None):
        """The gradients of every layer, by the model's names for them, for
        the gradients of the cubes and of the reconstructions (None when the
        decoder did not run)."""
        enc_caches, dec_caches = cache
        grads: dict[str, np.ndarray] = {}
        g = d_cube
        if d_recon is not None:
            deconv_caches, merge_cache = dec_caches
            gd, merge_grads = self.merge.backward(merge_cache, d_recon[:, :, None, :])
            _collect(grads, "merge", merge_grads)
            for j in reversed(range(len(self.deconvs))):
                gd, deconv_grads = self.deconvs[j].backward(deconv_caches[j], gd)
                _collect(grads, f"deconv{j}", deconv_grads)
            g = g + gd
        for j in reversed(range(len(self.convs))):
            conv_cache, act, pool_cache = enc_caches[j]
            g = self.pool.backward(pool_cache, g)
            if act is not None:
                g = g * (1.0 - act * act)
            # stage 0 reads the data, whose gradient nothing uses
            g, conv_grads = self.convs[j].backward(conv_cache, g, input_grad=j > 0)
            _collect(grads, f"conv{j}", conv_grads)
        return grads


def _forward_ranges(ranges, x: np.ndarray, decode: bool) -> list:
    """``_SeriesLayers.forward`` of each (layers, lo, hi) on x[:, lo:hi], in turn."""
    return [layers.forward(x[:, lo:hi], decode) for layers, lo, hi in ranges]


def _backward_ranges(ranges, caches, d_code: np.ndarray, d_recon: np.ndarray | None) -> list:
    """``_SeriesLayers.backward`` of each (layers, lo, hi) with its cache, in turn."""
    return [layers.backward(cache, d_code[:, lo:hi],
                            None if d_recon is None else d_recon[:, lo:hi])
            for (layers, lo, hi), cache in zip(ranges, caches)]


class CRNN(ParamModel):
    """Convolutional-recurrent forecaster for a correlated series set."""

    kind = "crnn"

    def __init__(self, config: ModelConfig):
        self._build(np.random.default_rng(config.seed), config)

    def _build(self, rng, config: ModelConfig) -> None:
        super().__init__(config)
        n, alpha = config.num_series, config.filters_per_layer
        convs = [Conv1D(n, 1 if j == 0 else alpha, alpha, config.filter_size)
                 for j in range(config.conv_pool_stages)]
        for j, conv in enumerate(convs):
            self._register(f"conv{j}", conv)
        # Draw series by series, each series' stages in turn: the order of the
        # per-series layers of format 1, so every seed keeps its initial values.
        _init_series(rng, n, convs)
        self._cell = _CELLS[config.cell_kind](config.rnn_input_size, config.rnn_hidden, rng)
        self._register("rnn", self._cell)
        self._readout = Dense(config.rnn_hidden, config.horizon, rng)
        self._register("readout", self._readout)
        self._series = _SeriesLayers(convs, config.conv_activation == "tanh",
                                     *self._decoder(rng, config))
        # the per-series layers of each range (lo, hi) a split batch has run
        self._range_layers: dict[tuple[int, int], _SeriesLayers] = {}

    def _decoder(self, rng, config: ModelConfig):
        """(deconvolution stages, channel merge) of the decoder: none here."""
        return (), None

    def _splits(self, batch: int) -> bool:
        # numpy sums a gradient of one value per window over the batch
        # pairwise, and one of several values row by row. A range's weight
        # gradients hold (its series) * filters values per window or more,
        # the group's n * filters, so both sum alike unless that is one.
        cfg = self.config
        width = cfg.num_series // 2 * cfg.filters_per_layer
        return width > 1 and batch * width * cfg.input_length >= SPLIT_MIN_VALUES

    def _split_ranges(self, batch: int) -> tuple[list, list]:
        """(layers, lo, hi) for each range of series lo..hi-1 that a batch
        that ``_splits`` runs in: those of series 0..n//2-1, which the worker
        thread runs, then those of the rest, which this one runs. A range
        holds at most ``SPLIT_MIN_VALUES`` first-stage values, batch * series
        * filters * l, and one series at least; at one filter it holds two
        at least, and a one-series tail joins the range before it (see
        ``_splits``)."""
        n, filters = self.config.num_series, self.config.filters_per_layer
        step = max(SPLIT_MIN_VALUES // (batch * filters * self.config.input_length),
                   1 if filters > 1 else 2)
        views = self._range_layers

        def cut(lo: int, hi: int) -> list:
            starts = list(range(lo, hi, step))
            if (hi - starts[-1]) * filters == 1:
                del starts[-1]
            ranges = list(zip(starts, starts[1:] + [hi]))
            for r in ranges:
                if r not in views:
                    views[r] = self._series.series_range(*r)
            return [(views[r], *r) for r in ranges]

        return cut(0, n // 2), cut(n // 2, n)

    def _series_forward(self, x: np.ndarray, decode: bool):
        """The per-series layers on windows x. A batch that ``_splits`` runs
        its ``_split_ranges`` of series 0..n//2-1 on the worker thread and
        the rest on this one; the codes and reconstructions are joined along
        the series axis. The cache holds one ``_SeriesLayers`` cache per
        range that ran, in range order."""
        if not self._splits(len(x)):
            code, recon, cache = self._series.forward(x, decode)
            return code, recon, (cache,)
        low, high = self._split_ranges(len(x))
        lo, hi = _on_both_cores(_forward_ranges, (low, x, decode), (high, x, decode))
        outs = lo + hi
        code = np.concatenate([out[0] for out in outs], axis=1)
        recon = None if outs[0][1] is None else np.concatenate([out[1] for out in outs], axis=1)
        return code, recon, tuple(out[2] for out in outs)

    def _series_backward(self, caches, d_code, d_recon, grads) -> None:
        if len(caches) == 1:
            grads.update(self._series.backward(caches[0], d_code, d_recon))
            return
        low, high = self._split_ranges(len(d_code))
        lo, hi = _on_both_cores(_backward_ranges, (low, caches[:len(low)], d_code, d_recon),
                                (high, caches[len(low):], d_code, d_recon))
        outs = lo + hi
        for name in outs[0]:
            grads[name] = np.concatenate([out[name] for out in outs])

    def _steps(self, cube):
        cfg = self.config
        if cfg.rnn_layout == "sequence":
            # step t sees every series' filters at pooled position t, series-major
            return cube.transpose(3, 0, 1, 2).reshape(cfg.pooled_length, len(cube), -1)
        return cube.reshape(1, len(cube), cfg.feature_vector_length)

    def _steps_backward(self, gx):
        cfg = self.config
        shape = (gx.shape[1], cfg.num_series, cfg.filters_per_layer, cfg.pooled_length)
        if cfg.rnn_layout == "sequence":
            return gx.transpose(1, 2, 0).reshape(shape)
        return gx[0].reshape(shape)


class AECRNN(CRNN):
    """CRNN plus per-series deconvolution decoders with a reconstruction loss."""

    kind = "aecrnn"

    def _decoder(self, rng, config: ModelConfig):
        # Drawn after the shared encoder/recurrent/readout parameters, which
        # draw in the same order as CRNN's, so equal seeds give equal shared
        # initial values.
        n, alpha = config.num_series, config.filters_per_layer
        deconvs = [Deconv1D(n, alpha, alpha, config.filter_size)
                   for _ in range(config.conv_pool_stages)]
        for j, deconv in enumerate(deconvs):
            self._register(f"deconv{j}", deconv)
        merge = ChannelMerge(n, alpha)
        self._register("merge", merge)
        _init_series(rng, n, [*deconvs, merge])
        return deconvs, merge


class RecurrentBaseline(ParamModel):
    """RNN or LSTM applied step-by-step to the raw window, then a dense readout.

    ``cell_kind`` (one of ``CELL_KINDS``) names the cell; ``config`` holds
    the rest, checked when it was built. Its ``features="target"`` feeds only
    the target series; ``features="all"`` stacks every series into the
    per-step feature vector.
    """

    def __init__(self, cell_kind: str, config: BaselineConfig):
        self._build(np.random.default_rng(config.seed), cell_kind, config)

    def _build(self, rng, cell_kind: str, config: BaselineConfig) -> None:
        super().__init__(config)
        self.kind = f"{cell_kind}-baseline"
        input_size = 1 if config.features == "target" else config.num_series
        self._cell = _CELLS[cell_kind](input_size, config.rnn_hidden, rng)
        self._register("rnn", self._cell)
        self._readout = Dense(config.rnn_hidden, config.horizon, rng)
        self._register("readout", self._readout)

    def _steps(self, x: np.ndarray) -> np.ndarray:
        rows = x[:, :1, :] if self.config.features == "target" else x
        return rows.transpose(2, 0, 1)

    def _steps_backward(self, gx) -> None:
        return None  # the steps are the raw window, which nothing learns from


# Model kind -> (model class, config class). A kind's model is built from
# named hyper-parameters, the checkpoint header fields, given as strings
# (from a file) or as values; its config class reads the names it holds and
# ignores the rest. A baseline kind also names the baseline's cell.
_KINDS = {"crnn": (CRNN, ModelConfig), "aecrnn": (AECRNN, ModelConfig),
          "rnn": (RecurrentBaseline, BaselineConfig), "lstm": (RecurrentBaseline, BaselineConfig)}


def _new_model(kind: str, fields: Mapping[str, object], undrawn: bool = False) -> ParamModel:
    """The ``kind`` model of the named hyper-parameters; ``undrawn`` builds
    it with every parameter zero and no random value drawn."""
    cls, config_cls = _KINDS[kind]
    config = config_cls.from_fields(fields)
    args = (kind, config) if cls is RecurrentBaseline else (config,)
    return cls._undrawn(*args) if undrawn else cls(*args)


# Model kind -> builder of a model from the named hyper-parameters.
MODELS = {kind: functools.partial(_new_model, kind) for kind in _KINDS}

# Model kind -> the searched hyper-parameters its config holds, with the
# values the grid runner tries by default.
GRID_AXES = {kind: {f.name: _CONV_GRID[f.name] for f in dataclass_fields(config_cls)
                    if f.name in _CONV_GRID}
             for kind, (_, config_cls) in _KINDS.items()}


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
        raise DataError(f"unsupported checkpoint format {fmt!r} "
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
        parts = [f"series{s}.{name}" for s in range(model.config.num_series)]
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
    converted to the grouped parameters of format 2. A header that names no
    model or breaks its config's contract raises DataError, as the file is
    the bad input.
    """
    fmt = _checkpoint_format(fields)
    kind = fields.get("model", "")
    # the baselines' header kinds are rnn-baseline and lstm-baseline
    base = kind.removesuffix("-baseline")
    try:
        # set_params overwrites every parameter, so none is drawn
        model = _new_model(base, fields, undrawn=True) if base in _KINDS else None
    except ConfigError as exc:
        raise DataError(f"checkpoint header breaks the model contract: {exc}") from None
    if model is None or model.kind != kind:
        raise DataError(f"checkpoint names unknown model kind {kind!r}")
    if fmt == "1":
        tensors = _stack_series_tensors(model, tensors)
    missing = [k for k in model.params if k not in tensors]
    if missing:
        raise DataError(f"checkpoint is missing parameters: {missing[:3]}...")
    model.set_params({k: v for k, v in tensors.items() if k in model.params})
    extras = {k: v for k, v in tensors.items() if k not in model.params}
    return model, extras
