"""Differentiable layer primitives with hand-derived forward and backward passes.

Layers operate on raw float64 ndarrays. The convolutional pieces (Conv1D,
Deconv1D, ChannelMerge) act on a group of n series at once: their inputs
have trailing axes (n, channels, length), and their weights carry a leading
series axis, so series s is transformed by its own filters ``w[s]``. One
call covers every series; each filter tap is one broadcast matmul over the
series axis and any leading batch axes. Recurrent and dense pieces act on a
trailing (features,) axis. Every forward accepts optional leading batch axes.

Each backward pass is the exact adjoint of its forward map and is checked
against central finite differences in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ShapeError, sigmoid_values

__all__ = [
    "ChannelMerge",
    "Conv1D",
    "Deconv1D",
    "Dense",
    "LSTMCell",
    "MaxPool1D",
    "RNNCell",
    "glorot_uniform",
]


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _check_group(layer: str, x: np.ndarray, num_series: int, channels: int) -> None:
    if x.ndim < 3 or x.shape[-3:-1] != (num_series, channels):
        raise ShapeError(f"{layer} expects (..., {num_series} series, {channels} channels, "
                         f"length), got shape {x.shape}")


def _sum_to_group(a: np.ndarray) -> np.ndarray:
    """Sum a (..., n, rows, cols) array over its leading batch axes."""
    return a.reshape((-1,) + a.shape[-3:]).sum(axis=0)


class _FilterGroup:
    """Per-series filter banks w (n, F, C_in, K) and biases b (n, F).

    Weights start at zero; ``init_series`` draws one series' filters, so a
    caller can interleave the draws of several layers in any order.
    """

    def __init__(self, num_series: int, in_channels: int, num_filters: int,
                 filter_size: int):
        if min(num_series, in_channels, num_filters, filter_size) < 1:
            raise ShapeError(f"{type(self).__name__} sizes must be positive")
        self.num_series = num_series
        self.in_channels = in_channels
        self.num_filters = num_filters
        self.filter_size = filter_size
        self.w = np.zeros((num_series, num_filters, in_channels, filter_size))
        self.b = np.zeros((num_series, num_filters))

    def init_series(self, s: int, rng: np.random.Generator) -> None:
        """Draw series s's Glorot-uniform filters from rng."""
        k = self.filter_size
        self.w[s] = glorot_uniform(rng, self.w.shape[1:], self.in_channels * k,
                                   self.num_filters * k)

    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}


class Conv1D(_FilterGroup):
    """Same-length 1-D cross-correlation per series: (..., n, C_in, L) -> (..., n, F, L).

    Zero padding keeps the time length unchanged: symmetric for odd filter
    sizes, all on the right for even ones.
    """

    def _padding(self) -> tuple[int, int]:
        k = self.filter_size
        off = (k - 1) // 2 if k % 2 == 1 else 0
        return off, k - 1 - off

    def forward(self, x: np.ndarray):
        _check_group("Conv1D", x, self.num_series, self.in_channels)
        pad_l, pad_r = self._padding()
        length = x.shape[-1]
        # one zeroed buffer and a slice write; np.pad costs ~10x more per call
        xp = np.zeros(x.shape[:-1] + (pad_l + length + pad_r,), dtype=x.dtype)
        xp[..., pad_l:pad_l + length] = x
        y = self.w[..., 0] @ xp[..., :length]
        for k in range(1, self.filter_size):
            y += self.w[..., k] @ xp[..., k:k + length]
        y += self.b[..., None]
        return y, xp

    def backward(self, cache, grad_out: np.ndarray):
        xp = cache
        _check_group("Conv1D backward", grad_out, self.num_series, self.num_filters)
        length = grad_out.shape[-1]
        gw = np.empty_like(self.w)
        gxp = np.zeros(xp.shape)
        for k in range(self.filter_size):
            win = xp[..., k:k + length]
            gw[..., k] = _sum_to_group(grad_out @ win.swapaxes(-1, -2))
            gxp[..., k:k + length] += self.w[..., k].swapaxes(-1, -2) @ grad_out
        pad_l, _ = self._padding()
        gb = _sum_to_group(grad_out).sum(axis=-1)
        return gxp[..., pad_l:pad_l + length], {"w": gw, "b": gb}


class MaxPool1D:
    """Max pooling with a fixed 1x2 window and stride 2.

    Ties route to the left position, which keeps the backward pass
    deterministic. The forward cache records the winning positions.
    """

    def forward(self, x: np.ndarray):
        length = x.shape[-1]
        if length % 2 != 0:
            raise ShapeError(f"max-pool needs an even time length, got {length}")
        left = x[..., 0::2]
        right = x[..., 1::2]
        take_right = right > left
        y = np.where(take_right, right, left)
        return y, (take_right, x.shape)

    def backward(self, cache, grad_out: np.ndarray):
        take_right, in_shape = cache
        if grad_out.shape != take_right.shape:
            raise ShapeError(
                f"max-pool backward: gradient shape {grad_out.shape} does not match "
                f"the recorded forward shape {take_right.shape}")
        gx = np.empty(in_shape)  # the two strided writes fill every element
        gx[..., 0::2] = np.where(take_right, 0.0, grad_out)
        gx[..., 1::2] = np.where(take_right, grad_out, 0.0)
        return gx


class Deconv1D(_FilterGroup):
    """Stride-2 transposed convolution per series: (..., n, C_in, L) -> (..., n, F, 2L).

    Each input position scatters its filter response at offset 2*i; anything
    past 2L is cropped so one deconvolution exactly undoes one pooling halving.
    """

    def _taps(self, l_out: int):
        """(tap k, number of input positions whose tap-k output lands inside 2L)."""
        for k in range(self.filter_size):
            n_k = (l_out - k + 1) // 2
            if n_k <= 0:
                break
            yield k, n_k

    def forward(self, x: np.ndarray):
        _check_group("Deconv1D", x, self.num_series, self.in_channels)
        l_out = 2 * x.shape[-1]
        y = np.zeros(x.shape[:-2] + (self.num_filters, l_out))
        for k, n_k in self._taps(l_out):
            y[..., k::2] += self.w[..., k] @ x[..., :n_k]
        y += self.b[..., None]
        return y, x

    def backward(self, cache, grad_out: np.ndarray):
        x = cache
        l_out = 2 * x.shape[-1]
        if grad_out.shape != x.shape[:-2] + (self.num_filters, l_out):
            raise ShapeError(
                f"Deconv1D backward: gradient shape {grad_out.shape} does not match "
                f"output shape (..., {self.num_series}, {self.num_filters}, {l_out})")
        gw = np.zeros_like(self.w)
        gx = np.zeros(x.shape)
        for k, n_k in self._taps(l_out):
            gk = grad_out[..., k::2]
            gw[..., k] = _sum_to_group(gk @ x[..., :n_k].swapaxes(-1, -2))
            gx[..., :n_k] += self.w[..., k].swapaxes(-1, -2) @ gk
        gb = _sum_to_group(grad_out).sum(axis=-1)
        return gx, {"w": gw, "b": gb}


class ChannelMerge:
    """Learned 1x1 reduction of C channels to one per series, followed by a sigmoid.

    Collapses each series' feature rows (..., n, C, L) into a single bounded
    row (..., n, 1, L) with values in (0, 1). Weights w (n, C) and biases
    b (n,) start at zero; ``init_series`` draws one series' weights.
    """

    def __init__(self, num_series: int, channels: int):
        self.num_series = num_series
        self.channels = channels
        self.w = np.zeros((num_series, channels))
        self.b = np.zeros(num_series)

    def init_series(self, s: int, rng: np.random.Generator) -> None:
        """Draw series s's Glorot-uniform weights from rng."""
        self.w[s] = glorot_uniform(rng, (self.channels,), self.channels, 1)

    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def forward(self, x: np.ndarray):
        _check_group("ChannelMerge", x, self.num_series, self.channels)
        z = self.w[:, None, :] @ x + self.b[:, None, None]
        y = sigmoid_values(z)
        return y, (x, y)

    def backward(self, cache, grad_out: np.ndarray):
        x, y = cache
        gz = grad_out * y * (1.0 - y)
        gw = _sum_to_group(gz @ x.swapaxes(-1, -2))[:, 0, :]
        gb = _sum_to_group(gz).sum(axis=(-2, -1))
        gx = self.w[:, :, None] * gz
        return gx, {"w": gw, "b": gb}


class Dense:
    """Affine map y = W x + b on the trailing feature axis."""

    def __init__(self, in_size: int, out_size: int, rng: np.random.Generator):
        self.in_size = in_size
        self.out_size = out_size
        self.w = glorot_uniform(rng, (out_size, in_size), in_size, out_size)
        self.b = np.zeros(out_size)

    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def forward(self, x: np.ndarray):
        if x.shape[-1] != self.in_size:
            raise ShapeError(f"Dense expects {self.in_size} features, got shape {x.shape}")
        return x @ self.w.T + self.b, x

    def backward(self, cache, grad_out: np.ndarray):
        x = cache
        g2 = grad_out.reshape(-1, self.out_size)
        x2 = x.reshape(-1, self.in_size)
        gw = g2.T @ x2
        gb = g2.sum(axis=0)
        gx = grad_out @ self.w
        return gx, {"w": gw, "b": gb}


class RNNCell:
    """Vanilla recurrent cell: h_t = tanh(W_xh x_t + W_hh h_{t-1} + b)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_xh = glorot_uniform(rng, (hidden_size, input_size), input_size, hidden_size)
        self.w_hh = glorot_uniform(rng, (hidden_size, hidden_size), hidden_size, hidden_size)
        self.b = np.zeros(hidden_size)

    def params(self) -> dict[str, np.ndarray]:
        return {"w_xh": self.w_xh, "w_hh": self.w_hh, "b": self.b}

    def step(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        return np.tanh(x @ self.w_xh.T + h @ self.w_hh.T + self.b)

    def forward(self, xs: list[np.ndarray]):
        """Run the recurrence left to right from a zero state.

        Returns (all hidden states, final state, cache).
        """
        if not xs:
            raise ShapeError("RNN sequence must be non-empty")
        for t, x in enumerate(xs):
            if x.shape[-1] != self.input_size:
                raise ShapeError(
                    f"RNN step {t}: expected {self.input_size} features, got {x.shape}")
        h = np.zeros(xs[0].shape[:-1] + (self.hidden_size,))
        hs = []
        for x in xs:
            h = self.step(x, h)
            hs.append(h)
        return hs, h, (xs, hs)

    def backward(self, cache, grad_final: np.ndarray):
        """Backpropagation through time for a loss on the final hidden state.

        Returns (per-step input gradients, parameter gradients).
        """
        xs, hs = cache
        gw_xh = np.zeros_like(self.w_xh)
        gw_hh = np.zeros_like(self.w_hh)
        gb = np.zeros_like(self.b)
        dh = grad_final
        gxs: list[np.ndarray] = [np.empty(0)] * len(xs)
        for t in reversed(range(len(xs))):
            dz = dh * (1.0 - hs[t] * hs[t])
            dz2 = dz.reshape(-1, self.hidden_size)
            gw_xh += dz2.T @ xs[t].reshape(-1, self.input_size)
            if t > 0:  # the zero start state adds nothing to gw_hh
                gw_hh += dz2.T @ hs[t - 1].reshape(-1, self.hidden_size)
            gb += dz2.sum(axis=0)
            gxs[t] = dz @ self.w_xh
            dh = dz @ self.w_hh
        return gxs, {"w_xh": gw_xh, "w_hh": gw_hh, "b": gb}


class LSTMCell:
    """Standard LSTM cell with input/forget/candidate/output gates.

    Gate weights are stacked row-wise in the order (input, forget,
    candidate, output); biases start at zero.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = glorot_uniform(rng, (4 * hidden_size, input_size), input_size, hidden_size)
        self.w_h = glorot_uniform(rng, (4 * hidden_size, hidden_size), hidden_size, hidden_size)
        self.b = np.zeros(4 * hidden_size)

    def params(self) -> dict[str, np.ndarray]:
        return {"w_x": self.w_x, "w_h": self.w_h, "b": self.b}

    def step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray):
        n = self.hidden_size
        z = x @ self.w_x.T + h @ self.w_h.T + self.b
        # one sigmoid over all four gate blocks; the candidate block takes tanh
        s = sigmoid_values(z)
        gi, gf, go = s[..., 0:n], s[..., n:2 * n], s[..., 3 * n:4 * n]
        gc = np.tanh(z[..., 2 * n:3 * n])
        c_new = gf * c + gi * gc
        h_new = go * np.tanh(c_new)
        return h_new, c_new, (gi, gf, gc, go)

    def forward(self, xs: list[np.ndarray]):
        """Run the cell from zero states; returns (hidden states, final state, cache)."""
        if not xs:
            raise ShapeError("LSTM sequence must be non-empty")
        for t, x in enumerate(xs):
            if x.shape[-1] != self.input_size:
                raise ShapeError(
                    f"LSTM step {t}: expected {self.input_size} features, got {x.shape}")
        h = c = np.zeros(xs[0].shape[:-1] + (self.hidden_size,))
        hs = []
        steps = []
        for x in xs:
            h_new, c_new, gates = self.step(x, h, c)
            steps.append((x, h, c, gates, c_new))
            h, c = h_new, c_new
            hs.append(h)
        return hs, h, steps

    def backward(self, cache, grad_final: np.ndarray):
        """Backpropagation through time; returns (per-step input gradients,
        parameter gradients)."""
        steps = cache
        gw_x = np.zeros_like(self.w_x)
        gw_h = np.zeros_like(self.w_h)
        gb = np.zeros_like(self.b)
        dh = grad_final
        dc = np.zeros_like(grad_final)
        gxs: list[np.ndarray] = [np.empty(0)] * len(steps)
        for t in reversed(range(len(steps))):
            x, h_prev, c_prev, (gi, gf, gc, go), c_new = steps[t]
            tc = np.tanh(c_new)
            do = dh * tc
            dc = dc + dh * go * (1.0 - tc * tc)
            di = dc * gc
            df = dc * c_prev
            dg = dc * gi
            dc = dc * gf
            dz = np.concatenate([
                di * gi * (1.0 - gi),
                df * gf * (1.0 - gf),
                dg * (1.0 - gc * gc),
                do * go * (1.0 - go),
            ], axis=-1)
            dz2 = dz.reshape(-1, 4 * self.hidden_size)
            gw_x += dz2.T @ x.reshape(-1, self.input_size)
            gw_h += dz2.T @ h_prev.reshape(-1, self.hidden_size)
            gb += dz2.sum(axis=0)
            gxs[t] = dz @ self.w_x
            dh = dz @ self.w_h
        return gxs, {"w_x": gw_x, "w_h": gw_h, "b": gb}
