"""Differentiable layer primitives with hand-derived forward and backward passes.

Layers operate on raw float64 ndarrays. The convolutional pieces (Conv1D,
Deconv1D, ChannelMerge) act on a group of n series at once: their inputs
have trailing axes (n, channels, length), and their weights carry a leading
series axis, so series s is transformed by its own filters ``w[s]``. One
call covers every series; each filter tap is one broadcast matmul over the
series axis and any leading batch axes, except in Conv1D with one input
channel, where one matmul over a strided view of the padded input sums every
tap (see Conv1D), and in Deconv1D's backward pass, where one matmul over the
stacked taps gives each gradient (see Deconv1D). ``series_range`` gives one
of these layers for a contiguous range of its series, with views of its
weights. The matmuls and ufuncs compute each series' matrices alone and the
weight gradients are summed over the batch axes only, so each series'
outputs and gradients are the bits of the whole group's call, as long as a
weight gradient of the range holds more than one value per window (numpy
sums a single value per window pairwise, and several row by row). Dense acts
on a trailing (features,) axis with optional leading batch axes.

The recurrent cells (RNNCell, LSTMCell) take their steps in the one form
the models send: a time-major array (T, batch, features). Their Python loop
over time holds only what depends on the previous step. The input
projection of every step is one batched matmul before the loop, on the
steps as given: on a view whose strides BLAS cannot take, numpy's matmul
runs its own loop, which on longer feature rows sums in another order than
BLAS, so a contiguous copy would move the forecasts' bits. The
forward cache keeps every step's hidden state (and, for the LSTM, cell
state, tanh of it and gate activations). The backward pass is
backpropagation through time in time order: its loop carries only the
state gradients and writes step t's pre-activation gradient into row t of
one (T, batch, out) array, from which one matmul each gives the input
gradients and every weight gradient (``_sequence_grads``). The sums run in
another order than a per-step loop's, so the gradients match that loop
within rounding, not bit for bit (tests/test_layers.py holds the loop as
the reference and states the bound); the forward pass gives its bits.

Each backward pass is the exact adjoint of its forward map and is checked
against central finite differences in the test suite.
"""

from __future__ import annotations

import copy
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


class _PerSeries:
    """Weights w and biases b whose leading axis is the series: series s is
    transformed by w[s] and b[s] alone."""

    num_series: int
    w: np.ndarray
    b: np.ndarray

    def params(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b}

    def series_range(self, lo: int, hi: int):
        """This layer for series lo..hi-1 alone, on inputs (..., hi - lo, ...).

        Its w and b are views of this layer's, so an in-place update of
        either (an optimizer step, ``set_params``) reaches both. It computes
        each of its series with the arithmetic of the whole group (see the
        module docstring for the one exception).
        """
        view = copy.copy(self)
        view.num_series = hi - lo
        view.w, view.b = self.w[lo:hi], self.b[lo:hi]
        return view


class _FilterGroup(_PerSeries):
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


class Conv1D(_FilterGroup):
    """Same-length 1-D cross-correlation per series: (..., n, C_in, L) -> (..., n, F, L).

    Zero padding keeps the time length unchanged: symmetric for odd filter
    sizes, all on the right for even ones.

    With C_in > 1 each tap k adds the matmul ``w[..., k] @ window_k``. With
    C_in = 1, as in a model's first stage, that matmul would have an inner
    size of 1, so the K shifted windows of each series are one read-only
    strided (..., n, K, L) view of the padded input instead, and one matmul
    ``w[:, :, 0, :] @ windows`` sums every tap. Its result is a fresh
    C-ordered array, so no later layer sees the view's strides. It may round
    otherwise than the per-tap sum of the same products, and stays within
    the forward-error bound of a (K + 1)-term dot product of it. Each
    window's output is the bits of its own call, at any batch shape and for
    any ``series_range``.
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
        if self.in_channels > 1:
            y = self.w[..., 0] @ xp[..., :length]
            for k in range(1, self.filter_size):
                y += self.w[..., k] @ xp[..., k:k + length]
        else:
            step = xp.strides[-1]
            # the constructor checks that the view lies inside xp; as_strided
            # checks nothing and costs some 4 us more per call
            windows = np.ndarray(xp.shape[:-2] + (self.filter_size, length), xp.dtype, xp, 0,
                                 xp.strides[:-2] + (step, step))
            windows.flags.writeable = False
            y = self.w[:, :, 0, :] @ windows
        y += self.b[..., None]
        return y, xp

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        """(input gradient, {"w", "b"} gradients) for the output gradient.

        ``input_grad=False`` skips the input gradient, returned as None, for
        a caller that has no use for it (a model's first stage reads the
        data); the weight and bias gradients are the same bits either way.
        """
        xp = cache
        _check_group("Conv1D backward", grad_out, self.num_series, self.num_filters)
        length = grad_out.shape[-1]
        gw = np.empty_like(self.w)
        gxp = np.zeros(xp.shape) if input_grad else None
        for k in range(self.filter_size):
            win = xp[..., k:k + length]
            gw[..., k] = _sum_to_group(grad_out @ win.swapaxes(-1, -2))
            if input_grad:
                gxp[..., k:k + length] += self.w[..., k].swapaxes(-1, -2) @ grad_out
        grads = {"w": gw, "b": _sum_to_group(grad_out).sum(axis=-1)}
        if gxp is None:
            return None, grads
        pad_l, _ = self._padding()
        return gxp[..., pad_l:pad_l + length], grads


class MaxPool1D:
    """Max pooling with a fixed 1x2 window and stride 2.

    Ties route to the left position, which keeps the backward pass
    deterministic. The forward cache records the winning positions.

    The output is ``np.maximum(right, left)``. On a tie, ±0 included, numpy
    returns the second operand, the left value, so the output has the bits
    of ``np.where(right > left, right, left)`` for every input without NaN.
    With a NaN in the right half the output is NaN where ``np.where`` gave
    the left value. Model inputs are checked finite, so only non-finite
    weights reach that case, and a forecast's finiteness check then raises
    NumericError.

    The backward pass routes each gradient value by its bits: ANDed with a
    mask of all ones where the right won, and with its complement into the
    left position. That copies all 64 bits where the value goes, NaN
    payloads and -0 included, and writes +0.0 where it does not, so the
    result has the bits of ``np.where(take_right, g, 0.0)`` and
    ``np.where(take_right, 0.0, g)``, in some 4-5x less time at the 32-window
    batches of a 16-series model.
    """

    def forward(self, x: np.ndarray):
        length = x.shape[-1]
        if length % 2 != 0:
            raise ShapeError(f"max-pool needs an even time length, got {length}")
        left = x[..., 0::2]
        right = x[..., 1::2]
        return np.maximum(right, left), (right > left, x.shape)

    def backward(self, cache, grad_out: np.ndarray):
        take_right, in_shape = cache
        if grad_out.shape != take_right.shape:
            raise ShapeError(
                f"max-pool backward: gradient shape {grad_out.shape} does not match "
                f"the recorded forward shape {take_right.shape}")
        g = np.asarray(grad_out, dtype=np.float64).view(np.int64)
        keep = take_right.astype(np.int64)
        np.negative(keep, out=keep)  # all ones where the right won
        gx = np.empty(in_shape)  # the two strided writes fill every element
        bits = gx.view(np.int64)
        np.bitwise_and(g, keep, out=bits[..., 1::2])
        np.invert(keep, out=keep)
        np.bitwise_and(g, keep, out=bits[..., 0::2])
        return gx


class Deconv1D(_FilterGroup):
    """Stride-2 transposed convolution per series: (..., n, C_in, L) -> (..., n, F, 2L).

    Each input position scatters its filter response at offset 2*i; anything
    past 2L is cropped so one deconvolution exactly undoes one pooling halving.

    The backward pass stacks the K taps' output gradients into one
    zero-padded (..., n, K*F, L) array: one matmul gives the weight gradient
    and one the input gradient, within rounding of per-tap matmuls. The
    forward pass keeps one matmul per tap; stacked, it gained only some 3%.
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
        n, f, c, taps = self.w.shape
        # rows k*F..(k+1)*F: tap k's gradient, zero past its n_k positions
        g = np.zeros(x.shape[:-2] + (taps * f, x.shape[-1]))
        for k, n_k in self._taps(l_out):
            g[..., k * f:(k + 1) * f, :n_k] = grad_out[..., k::2]
        gw = _sum_to_group(g @ x.swapaxes(-1, -2)).reshape(n, taps, f, c).transpose(0, 2, 3, 1)
        w_stacked = self.w.transpose(0, 3, 1, 2).reshape(n, taps * f, c)
        gx = w_stacked.swapaxes(-1, -2) @ g
        gb = _sum_to_group(grad_out).sum(axis=-1)
        return gx, {"w": gw, "b": gb}


class ChannelMerge(_PerSeries):
    """Learned 1x1 reduction of C channels to one per series, followed by a sigmoid.

    Collapses each series' feature rows (..., n, C, L) into a single bounded
    row (..., n, 1, L) with values in [0, 1]. Weights w (n, C) and biases
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


def _check_steps(cell: str, x: np.ndarray, input_size: int) -> None:
    if x.ndim != 3 or len(x) == 0 or x.shape[-1] != input_size:
        raise ShapeError(f"{cell} expects steps (T >= 1, batch, {input_size}), "
                         f"got shape {x.shape}")


def _sequence_grads(dz: np.ndarray, x: np.ndarray, hs: np.ndarray, w_in: np.ndarray):
    """(input gradients, input-weight, recurrent-weight and bias gradients)
    of a recurrent cell from its pre-activation gradients dz (T, batch, out),
    steps x and hidden states hs, all time-major. Each weight gradient is one
    matmul over every (step, window) row; the recurrent one pairs step t's dz
    with step t-1's state, as the zero start state adds nothing."""
    rows = dz.reshape(-1, dz.shape[-1])
    return (dz @ w_in, rows.T @ x.reshape(-1, x.shape[-1]),
            dz[1:].reshape(-1, dz.shape[-1]).T @ hs[:-1].reshape(-1, hs.shape[-1]),
            rows.sum(axis=0))


class RNNCell:
    """Vanilla recurrent cell: h_t = tanh(W_xh x_t + W_hh h_{t-1} + b).

    ``forward`` takes the steps as one array (T, batch, input_size) and
    projects every step's input in one batched matmul before the time loop,
    which then adds only the recurrent term. Its cache is (the steps, every
    hidden state). ``backward`` carries only dh through the loop, writing
    step t's pre-activation gradient into row t; the weight gradients and the
    input gradients are taken after it.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_xh = glorot_uniform(rng, (hidden_size, input_size), input_size, hidden_size)
        self.w_hh = glorot_uniform(rng, (hidden_size, hidden_size), hidden_size, hidden_size)
        self.b = np.zeros(hidden_size)

    def params(self) -> dict[str, np.ndarray]:
        return {"w_xh": self.w_xh, "w_hh": self.w_hh, "b": self.b}

    def forward(self, x: np.ndarray):
        """Run the recurrence left to right from a zero state over steps x,
        an array (T, batch, input_size), used as it is, strides included.

        Returns (hidden states (T, batch, hidden), final state, cache).
        """
        _check_steps("RNN", x, self.input_size)
        xw = x @ self.w_xh.T
        hs = np.empty(xw.shape)
        h = np.zeros(hs.shape[1:])
        w_hh_t = self.w_hh.T
        for t in range(len(x)):
            z = xw[t] + h @ w_hh_t
            z += self.b
            h = np.tanh(z, out=hs[t])
        return hs, hs[-1], (x, hs)

    def backward(self, cache, grad_final: np.ndarray):
        """Backpropagation through time for a loss on the final hidden state.

        Returns (input gradients (T, batch, input_size), parameter gradients).
        """
        x, hs = cache
        dtanh = 1.0 - hs * hs
        dz = np.empty(hs.shape)
        dh = grad_final.reshape(hs.shape[1:])
        for t in reversed(range(len(x))):
            np.multiply(dh, dtanh[t], out=dz[t])
            if t:
                dh = dz[t] @ self.w_hh
        gx, gw_xh, gw_hh, gb = _sequence_grads(dz, x, hs, self.w_xh)
        return gx, {"w_xh": gw_xh, "w_hh": gw_hh, "b": gb}


class LSTMCell:
    """Standard LSTM cell with input/forget/candidate/output gates.

    Gate weights are stacked row-wise in the order (input, forget,
    candidate, output); biases start at zero.

    ``forward`` takes the steps as one array (T, batch, input_size) and
    projects every step's input in one batched matmul before the time loop.
    Its cache is (the steps, hidden states, cell states, tanh of the cell
    states, gate activations (T, batch, 4H)); the candidate block of
    the gates holds tanh, the other three the sigmoid. The loop writes each
    step's gates, states and temporaries into buffers made once per call,
    with ``out=``, and the gate buffer is the cache itself; a later call
    makes its own, so no cache is overwritten. ``backward`` forms one
    array of every step's local gate derivatives before the loop, carries
    only dh and dc through it, writing step t's gate gradient into row t,
    and takes the weight and input gradients after it.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = glorot_uniform(rng, (4 * hidden_size, input_size), input_size, hidden_size)
        self.w_h = glorot_uniform(rng, (4 * hidden_size, hidden_size), hidden_size, hidden_size)
        self.b = np.zeros(4 * hidden_size)

    def params(self) -> dict[str, np.ndarray]:
        return {"w_x": self.w_x, "w_h": self.w_h, "b": self.b}

    def forward(self, x: np.ndarray):
        """Run the cell from zero states over steps x, an array
        (T, batch, input_size), used as it is, strides included.

        Returns (hidden states (T, batch, hidden), final state, cache).
        """
        _check_steps("LSTM", x, self.input_size)
        n = self.hidden_size
        xw = x @ self.w_x.T
        gates = np.empty(xw.shape)
        gi, gf, gc, go = (gates[..., k * n:(k + 1) * n] for k in range(4))
        hs = np.empty(xw.shape[:-1] + (n,))
        cs = np.empty(hs.shape)
        tcs = np.empty(hs.shape)
        # the step's pre-activation and the two products of the cell update,
        # reused by every step
        z = np.empty(xw.shape[1:])
        forget = np.empty(hs.shape[1:])
        admit = np.empty(forget.shape)
        h = c = np.zeros(forget.shape)
        w_h_t = self.w_h.T
        b = self.b
        z_cand = z[:, 2 * n:3 * n]
        for xw_t, g, g_i, g_f, g_c, g_o, c_t, tc_t, h_t in zip(
                xw, gates, gi, gf, gc, go, cs, tcs, hs):
            np.matmul(h, w_h_t, out=z)
            z += xw_t
            z += b
            # one sigmoid over all four gate blocks; the candidate block takes tanh
            sigmoid_values(z, out=g)
            np.tanh(z_cand, out=g_c)
            np.multiply(g_f, c, out=forget)
            np.multiply(g_i, g_c, out=admit)
            c = np.add(forget, admit, out=c_t)
            h = np.multiply(g_o, np.tanh(c, out=tc_t), out=h_t)
        return hs, hs[-1], (x, hs, cs, tcs, gates)

    def backward(self, cache, grad_final: np.ndarray):
        """Backpropagation through time; returns (input gradients
        (T, batch, input_size), parameter gradients)."""
        x, hs, cs, tcs, gates = cache
        n = self.hidden_size
        gi, gf, gc, go = (gates[..., k * n:(k + 1) * n] for k in range(4))
        c_prev = np.concatenate((np.zeros((1,) + cs.shape[1:]), cs[:-1]))
        # step t's gate gradient is concat(dc, dc, dc, dh) * local[t], whose
        # blocks are gc*gi(1-gi), c_prev*gf(1-gf), gi*(1-gc^2), tanh(c)*go(1-go)
        local = 1.0 - gates
        local *= gates
        local[..., 2 * n:3 * n] = 1.0 - gc * gc
        local *= np.concatenate((gc, c_prev, gi, tcs), axis=-1)
        # dh_t/dc_t, from h_t = go * tanh(c_t)
        dh_dc = go * (1.0 - tcs * tcs)
        dz = np.empty(gates.shape)
        dh = grad_final.reshape(hs.shape[1:])
        dc = np.zeros(dh.shape)
        for t in reversed(range(len(x))):
            dc = dc + dh * dh_dc[t]
            np.multiply(np.concatenate((dc, dc, dc, dh), axis=-1), local[t], out=dz[t])
            if t:
                dc = dc * gf[t]
                dh = dz[t] @ self.w_h
        gx, gw_x, gw_h, gb = _sequence_grads(dz, x, hs, self.w_x)
        return gx, {"w_x": gw_x, "w_h": gw_h, "b": gb}
