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
the models send: a time-major array (T, batch, features), and return one
C-contiguous (T, batch, hidden) array of hidden states whose last row is the
final state. Their Python loop over time holds only what depends on the
previous step. The input projection of every step is one batched matmul
before the loop, on the steps as given: on a view whose strides BLAS cannot
take, numpy's matmul runs its own loop, which on longer feature rows sums in
another order than BLAS, so a contiguous copy would move the forecasts'
bits. Inside the call LSTMCell keeps its states batch-minor, (hidden, batch),
its gate blocks as (i, f, o, g, c_{t-1}) and every step's operands same-shape
or 0-d; RNNCell keeps its states window-major. The forward cache keeps every
step's hidden state (and, for the LSTM, its gate activations, cell state and
tanh of it). ``final_state`` gives the final state alone, with the bits of
``forward``'s, and keeps no cache; RNNCell's is its ``forward``, whose one
cache is its output.

Only a model's gradient path calls ``forward`` on the cells and on
MaxPool1D; its forecast path calls ``final_state`` and ``MaxPool1D.values``,
which keep nothing for a backward pass that never comes. LSTMCell runs two
copies of its step loop for that: one loop writing either into its cache or
into stride-0 views of one step's scratch cut a 256-window forecast by 3.5%
where the scratch-only loop cuts it by 9.5%, and made a single window 4%
slower. The backward pass is backpropagation through time in time
order: its loop carries only the state gradients and writes step t's
pre-activation gradient, in the parameters' gate order, into row t of one
(T, batch, out) array, from which one matmul each gives the input gradients
and every weight gradient (``_sequence_grads``). The sums run in another
order than a per-step loop's, so the gradients match that loop within
rounding, not bit for bit (tests/test_layers.py holds the loop as the
reference and states the bound); the forward passes give its bits,
LSTMCell's where BLAS sums its swapped operands alike (see LSTMCell).

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

# LSTMCell's buffer gate order (i, f, o, g) as indices of the parameters' (i, f, g, o),
# each buffer gate's factor in the halved weights, and the sigmoid finish's 0-d operands
_BUFFER_GATES = np.array([0, 1, 3, 2])
_BUFFER_HALF = np.array([0.5, 0.5, 0.5, 1.0])[:, None, None]
_ONE = np.array(1.0)  # a ufunc call takes about 0.2 us more with a Python float
_HALF = np.array(0.5)


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
    deterministic. ``values`` gives the pooled values alone, for a forecast;
    ``forward`` gives them too and caches the winning positions for
    ``backward``. The winners' mask costs more than the maximum itself (22.7
    against 16.0 us on a 256-window chunk of perfbench's ``pair`` model), so
    a forecast does not make it. Making it in ``backward`` instead would keep
    each pool's input alive until then: in a trial, ``wide`` training's peak
    RSS rose 10.8% and its inference fell 12.9% through glibc's mmap
    threshold.

    Both give ``np.maximum(right, left)``. On a tie, ±0 included, numpy
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

    def values(self, x: np.ndarray) -> np.ndarray:
        """The pooled values alone, with no record of the winners."""
        length = x.shape[-1]
        if length % 2 != 0:
            raise ShapeError(f"max-pool needs an even time length, got {length}")
        return np.maximum(x[..., 1::2], x[..., 0::2])

    def forward(self, x: np.ndarray):
        return self.values(x), (x[..., 1::2] > x[..., 0::2], x.shape)

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
    which then adds the recurrent term and the bias, repeated once per call
    to the step's (batch, H) shape, in place: no step allocates. Its cache is
    (the steps, every hidden state), its output, so ``final_state`` is the
    last row of ``forward``'s. ``backward`` carries only dh through the loop,
    writing step t's pre-activation gradient into row t; the weight gradients
    and the input gradients are taken after it.
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
        b = np.repeat(self.b[None], len(h), axis=0)  # (batch, H), same-shape as each step's z
        z = np.empty(h.shape)  # the step's pre-activation
        w_hh_t = self.w_hh.T
        for xw_t, h_t in zip(xw, hs):
            np.matmul(h, w_hh_t, out=z)
            z += xw_t
            z += b
            h = np.tanh(z, out=h_t)
        return hs, hs[-1], (x, hs)

    def final_state(self, x: np.ndarray) -> np.ndarray:
        """The final state (batch, hidden) of ``forward`` on steps x, whose
        cache, every hidden state, is its output."""
        return self.forward(x)[1]

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


def _lstm_local_grads(blocks: np.ndarray, tcs: np.ndarray):
    """Window-major (T, batch, 4H) local gate derivatives, gates (i, f, g, o), and
    dh_t/dc_t and forget gates (T, batch, H) of an LSTMCell cache, formed on one
    block-major copy of its buffer so that every operand is contiguous."""
    steps, _, n, batch = blocks[:-1].shape
    gi, gf, go, gc, _ = gates = blocks[:-1].transpose(1, 0, 2, 3).copy()
    # blocks (i, f, g, o): gc*gi(1-gi), c_prev*gf(1-gf), gi*(1-gc^2), tanh(c)*go(1-go)
    local = np.empty((4, steps, n, batch))
    local_if, local_g, local_o = local[:2], local[2], local[3]
    np.subtract(1.0, gates[:2], out=local_if)
    local_if *= gates[:2]
    local_if *= gates[3:]  # (gc, c_prev)
    np.multiply(gc, gc, out=local_g)
    np.subtract(1.0, local_g, out=local_g)
    local_g *= gi
    np.subtract(1.0, go, out=local_o)
    local_o *= go
    local_o *= tcs
    dh_dc = go * (1.0 - tcs * tcs)  # from h_t = go * tanh(c_t)
    return (local.transpose(1, 3, 0, 2).copy().reshape(steps, batch, 4 * n),
            *(np.ascontiguousarray(a.transpose(0, 2, 1)) for a in (dh_dc, gf)))


class LSTMCell:
    """Standard LSTM cell with input/forget/candidate/output gates.

    Gate weights are stacked row-wise in the order (input, forget,
    candidate, output); biases start at zero.

    ``forward`` takes the steps as one array (T, batch, input_size) and keeps
    every state batch-minor, (H, batch). Each call copies the weights and
    bias with their gate rows in the order (i, f, o, g), the sigmoid gates'
    halved, repeats the bias into a (4H, batch) array, and projects every
    step's input in one matmul ``w_x @ steps^T`` into (T, 4H, batch). A step
    forms z in one matmul ``w_h @ h`` and two same-shape adds; one tanh puts
    tanh(z/2) for the sigmoid gates and tanh(z) for the candidate into row t
    of a (T + 1, 5, H, batch) buffer of contiguous blocks (i, f, o, g,
    c_{t-1}); adding 0-d 1 to and halving the (3, H, batch) sigmoid run finish
    ``sigmoid_values``' arithmetic, one multiply of (i, f) by (g, c_{t-1})
    gives i*g and f*c_{t-1}, and c_t goes to row t+1. No step allocates. The
    hidden states come back as one C-contiguous (T, batch, H) copy. The cache
    is (the steps, hidden states, the buffer, tanh of the cell states
    (T, H, batch)), made anew by each call.

    ``final_state`` runs the same calls on operands of the same shapes and
    strides, with one step's (5, H, batch) buffer reused by every step, and
    returns the final state alone, as a C-contiguous (batch, H) copy with the
    bits of ``forward``'s. It is the forecast path's loop; only the gradient
    path needs ``forward``'s cache (see the module docstring for why the two
    loops are not one).

    Halving is exact, so every value has the bits of the unhalved
    window-major arithmetic (``h @ W.T``, rows in the parameters' order)
    where BLAS sums ``W @ h.T`` alike, unless a halved weight, bias, product
    or partial sum lies below 2**-1021 in magnitude or an unhalved one
    overflows. scipy-openblas 0.3.31 on SkylakeX kernels sums them alike
    except at batches above 192 that are not a multiple of 8, and where a
    matmul sums 16 or more products; there they differ by rounding, at those
    batches also by row order (tests/test_layers.py states the bound).

    ``backward`` forms the local gate derivatives once, window-major and in
    the parameters' gate order (``_lstm_local_grads``); its loop carries dh
    (a copy of ``grad_final``, never written) and dc in place, writing step
    t's gate gradient into row t, and the weight and input gradients are
    taken after it. From a given cache it computes the window-major bits.
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
        w_h, xw, b = self._projected(x)
        steps, _, batch = xw.shape
        n = self.hidden_size
        # row t holds step t's gate blocks (i, f, o, g), then c_{t-1}; c_t goes to row t+1
        blocks = np.empty((steps + 1, 5, n, batch))
        blocks[0, 4] = 0.0
        hs = np.empty((steps, n, batch))
        tcs = np.empty(hs.shape)
        z = np.empty(xw.shape[1:])  # the step's pre-activation
        z_blocks = z.reshape(4, n, batch)
        prods = np.empty((2, n, batch))  # (i*g, f*c_{t-1}), reused by every step
        h = np.zeros((n, batch))
        rows = blocks[:-1]
        for xw_t, g, sig, i_f, g_c, g_o, c_t, tc_t, h_t in zip(
                xw, rows[:, :4], rows[:, :3], rows[:, :2], rows[:, 3:], rows[:, 2],
                blocks[1:, 4], tcs, hs):
            np.matmul(w_h, h, out=z)
            z += xw_t
            z += b
            # tanh(z/2) in the halved sigmoid blocks, tanh(z) in the candidate's
            np.tanh(z_blocks, out=g)
            sig += _ONE
            sig *= _HALF
            np.multiply(i_f, g_c, out=prods)
            np.add(prods[1], prods[0], out=c_t)
            h = np.multiply(g_o, np.tanh(c_t, out=tc_t), out=h_t)
        hs = hs.transpose(0, 2, 1).copy()
        return hs, hs[-1], (x, hs, blocks, tcs)

    def final_state(self, x: np.ndarray) -> np.ndarray:
        """The final state (batch, hidden) of ``forward`` on steps x, with its
        bytes and layout, from the same ufunc calls on operands of the same
        shapes and strides; every step reuses one (5, H, batch) block buffer
        and no cache is kept."""
        w_h, xw, b = self._projected(x)
        n, batch = self.hidden_size, xw.shape[-1]
        block = np.empty((5, n, batch))  # (i, f, o, g, c), c_{t-1} until step t writes c_t
        block[4] = 0.0
        g, sig, i_f, g_c, g_o, c = block[:4], block[:3], block[:2], block[3:], block[2], block[4]
        z = np.empty(xw.shape[1:])
        z_blocks = z.reshape(4, n, batch)
        prods = np.empty((2, n, batch))
        tc = np.empty((n, batch))
        h = np.zeros((n, batch))
        for xw_t in xw:
            np.matmul(w_h, h, out=z)
            z += xw_t
            z += b
            np.tanh(z_blocks, out=g)
            sig += _ONE
            sig *= _HALF
            np.multiply(i_f, g_c, out=prods)
            np.add(prods[1], prods[0], out=c)
            np.multiply(g_o, np.tanh(c, out=tc), out=h)
        return h.T.copy()

    def _projected(self, x: np.ndarray):
        """(recurrent weights (4H, H), every step's input projection
        (T, 4H, batch), bias (4H, batch)) for steps x, gate rows in the order
        (i, f, o, g), the sigmoid gates' halved."""
        _check_steps("LSTM", x, self.input_size)
        n = self.hidden_size
        w_x, w_h, b = ((w.reshape(4, n, -1)[_BUFFER_GATES] * _BUFFER_HALF).reshape(4 * n, -1)
                       for w in (self.w_x, self.w_h, self.b))
        xw = w_x @ x.transpose(0, 2, 1)
        return w_h, xw, np.repeat(b, x.shape[1], axis=1)  # b same-shape as each step's z

    def backward(self, cache, grad_final: np.ndarray):
        """Backpropagation through time; returns (input gradients
        (T, batch, input_size), parameter gradients)."""
        x, hs, blocks, tcs = cache
        local, dh_dc, gf = _lstm_local_grads(blocks, tcs)
        dz = np.empty(local.shape)
        # the state gradients and the steps' scratch, written in place by every step
        dh = grad_final.reshape(hs.shape[1:]).copy()
        dc, dc_step, spread = np.zeros(dh.shape), np.empty(dh.shape), np.empty(dz.shape[1:])
        for t in reversed(range(len(x))):
            dc += np.multiply(dh, dh_dc[t], out=dc_step)
            np.multiply(np.concatenate((dc, dc, dc, dh), axis=-1, out=spread), local[t], out=dz[t])
            if t:
                dc *= gf[t]
                np.matmul(dz[t], self.w_h, out=dh)
        gx, gw_x, gw_h, gb = _sequence_grads(dz, x, hs, self.w_x)
        return gx, {"w_x": gw_x, "w_h": gw_h, "b": gb}
