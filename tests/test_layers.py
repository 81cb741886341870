import copy

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import fingerprint_difference, numeric_grad, rel_error
from crnn_forecast.layers import (ChannelMerge, Conv1D, Deconv1D, Dense,
                                  LSTMCell, MaxPool1D, RNNCell, _sequence_grads)
from crnn_forecast.tensor import ShapeError, sigmoid_values

FD_TOL = 1e-5


def drawn(layer, rng):
    """The layer with every series' initial weights drawn from rng."""
    for s in range(layer.num_series):
        layer.init_series(s, rng)
    return layer


def weighted_sum_loss(layer, x, coeffs):
    """Linear functional of the layer output; its gradient wrt the output is
    exactly `coeffs`, which keeps the finite-difference oracle simple."""
    def loss():
        y, _ = layer.forward(x)
        return float(np.sum(y * coeffs))
    return loss


class TestConv1D:
    def test_identity_kernel(self):
        conv = Conv1D(1, 1, 1, 1)
        conv.w[...] = 1.0
        conv.b[...] = 0.0
        y, _ = conv.forward(np.array([[[5.0, -2.0, 3.0]]]))
        assert y.tolist() == [[[5.0, -2.0, 3.0]]]

    def test_even_filter_right_padding(self):
        conv = Conv1D(1, 1, 1, 2)
        conv.w[...] = 1.0
        conv.b[...] = 0.0
        y, _ = conv.forward(np.array([[[1.0, 2.0, 3.0]]]))
        assert y.tolist() == [[[3.0, 5.0, 3.0]]]

    def test_output_shape_matches_filter_count(self):
        conv = drawn(Conv1D(2, 1, 3, 3), np.random.default_rng(0))
        y, _ = conv.forward(np.ones((2, 1, 8)))
        assert y.shape == (2, 3, 8)

    def test_channel_mismatch(self):
        conv = Conv1D(1, 2, 1, 3)
        with pytest.raises(ShapeError):
            conv.forward(np.ones((1, 3, 8)))
        with pytest.raises(ShapeError):
            conv.forward(np.ones((3, 2, 8)))  # series count differs

    def test_same_length_for_all_grid_filter_sizes(self):
        for k in (1, 2, 3, 5, 10):
            conv = drawn(Conv1D(3, 1, 2, k), np.random.default_rng(k))
            y, _ = conv.forward(np.ones((3, 1, 12)))
            assert y.shape == (3, 2, 12)

    def test_backward_zero_gradient(self):
        conv = drawn(Conv1D(2, 1, 2, 3), np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(-1, 1, (2, 1, 6))
        _, cache = conv.forward(x)
        gx, grads = conv.backward(cache, np.zeros((2, 2, 6)))
        assert not gx.any() and not grads["w"].any() and not grads["b"].any()

    def test_backward_identity_adjoint(self):
        conv = Conv1D(1, 1, 1, 1)
        conv.w[...] = 1.0
        x = np.random.default_rng(2).uniform(-1, 1, (1, 1, 5))
        _, cache = conv.forward(x)
        g = np.random.default_rng(3).uniform(-1, 1, (1, 1, 5))
        gx, _ = conv.backward(cache, g)
        assert np.array_equal(gx, g)

    def test_linearity_in_input(self):
        rng = np.random.default_rng(4)
        conv = drawn(Conv1D(2, 2, 3, 3), rng)
        x1 = rng.uniform(-1, 1, (2, 2, 8))
        x2 = rng.uniform(-1, 1, (2, 2, 8))
        a, b = 0.7, -1.3
        mixed, _ = conv.forward(a * x1 + b * x2)
        y1, _ = conv.forward(x1)
        y2, _ = conv.forward(x2)
        bias = conv.b[..., None]
        lhs = mixed - bias
        rhs = a * (y1 - bias) + b * (y2 - bias)
        assert np.allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        conv = drawn(Conv1D(2, 2, 3, 3 if seed % 2 else 2), rng)
        conv.b[...] = rng.uniform(-1, 1, conv.b.shape)
        x = rng.uniform(-1, 1, (2, 2, 6))
        coeffs = rng.uniform(-1, 1, (2, 3, 6))
        loss = weighted_sum_loss(conv, x, coeffs)
        _, cache = conv.forward(x)
        gx, grads = conv.backward(cache, coeffs)
        assert rel_error(grads["w"], numeric_grad(loss, conv.w)) < FD_TOL
        assert rel_error(grads["b"], numeric_grad(loss, conv.b)) < FD_TOL
        assert rel_error(gx, numeric_grad(loss, x)) < FD_TOL

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(7)
        conv = drawn(Conv1D(2, 2, 3, 3), rng)
        xb = rng.uniform(-1, 1, (4, 2, 2, 6))
        yb, _ = conv.forward(xb)
        for i in range(4):
            yi, _ = conv.forward(xb[i])
            assert np.array_equal(yb[i], yi)

    def test_batched_matches_per_sample_at_one_input_channel(self):
        rng = np.random.default_rng(8)
        conv = drawn(Conv1D(3, 1, 4, 5), rng)
        conv.b[...] = rng.uniform(-1, 1, conv.b.shape)
        xb = rng.uniform(-1, 1, (4, 3, 1, 10))
        xb[1, :, :, 2:5] = 0.0
        xb[2, 0] = -0.0
        yb, _ = conv.forward(xb)
        for i in range(4):
            yi, _ = conv.forward(xb[i])
            assert yb[i].tobytes() == yi.tobytes()


class TestMaxPool1D:
    def test_window_maxima(self):
        y, _ = MaxPool1D().forward(np.array([[2.0, 5.0, 1.0, 3.0]]))
        assert y.tolist() == [[5.0, 3.0]]

    def test_tie_takes_first(self):
        pool = MaxPool1D()
        y, cache = pool.forward(np.array([[7.0, 7.0, 0.0, 0.0]]))
        assert y.tolist() == [[7.0, 0.0]]
        # the gradient flows back to the left position of each tied window
        assert pool.backward(cache, np.array([[1.0, 2.0]])).tolist() == [[1.0, 0.0, 2.0, 0.0]]

    def test_constant_series(self):
        y, _ = MaxPool1D().forward(np.full((1, 8), 3.5))
        assert y.tolist() == [[3.5] * 4]

    def test_odd_length_rejected(self):
        with pytest.raises(ShapeError):
            MaxPool1D().forward(np.ones((1, 5)))

    def test_backward_routing(self):
        pool = MaxPool1D()
        x = np.array([[0.0, 2.0, 0.0, 2.0]])  # argmax at indices 1 and 3
        _, cache = pool.forward(x)
        gx = pool.backward(cache, np.array([[1.0, 1.0]]))
        assert gx.tolist() == [[0.0, 1.0, 0.0, 1.0]]

    def test_backward_zero(self):
        pool = MaxPool1D()
        _, cache = pool.forward(np.random.default_rng(0).uniform(size=(2, 6)))
        assert not pool.backward(cache, np.zeros((2, 3))).any()

    def test_stale_record_rejected(self):
        pool = MaxPool1D()
        _, cache = pool.forward(np.ones((2, 6)))
        with pytest.raises(ShapeError):
            pool.backward(cache, np.zeros((2, 4)))

    def test_double_pool_quarters_length(self):
        pool = MaxPool1D()
        x = np.random.default_rng(1).uniform(size=(3, 16))
        y, _ = pool.forward(x)
        z, _ = pool.forward(y)
        assert z.shape == (3, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences_away_from_ties(self, seed):
        rng = np.random.default_rng(seed)
        pool = MaxPool1D()
        x = rng.uniform(-1, 1, (2, 8))
        coeffs = rng.uniform(-1, 1, (2, 4))

        def loss():
            y, _ = pool.forward(x)
            return float(np.sum(y * coeffs))

        _, cache = pool.forward(x)
        gx = pool.backward(cache, coeffs)
        assert rel_error(gx, numeric_grad(loss, x)) < FD_TOL


# -- reference forms: the matmul-per-tap conv and the np.where pooling ----------


def reference_conv_forward(conv, x):
    """(output, padded input) of a Conv1D with one matmul per filter tap."""
    pad_l, pad_r = conv._padding()
    length = x.shape[-1]
    xp = np.zeros(x.shape[:-1] + (pad_l + length + pad_r,))
    xp[..., pad_l:pad_l + length] = x
    y = conv.w[..., 0] @ xp[..., :length]
    for k in range(1, conv.filter_size):
        y += conv.w[..., k] @ xp[..., k:k + length]
    y += conv.b[..., None]
    return y, xp


def reference_pool_forward(x):
    """(output, take-right mask) of MaxPool1D by ``np.where``."""
    left = x[..., 0::2]
    right = x[..., 1::2]
    take_right = right > left
    return np.where(take_right, right, left), take_right


def reference_pool_backward(cache, grad_out):
    """MaxPool1D's input gradient by two ``np.where``s."""
    take_right, in_shape = cache
    gx = np.empty(in_shape)
    gx[..., 0::2] = np.where(take_right, 0.0, grad_out)
    gx[..., 1::2] = np.where(take_right, grad_out, 0.0)
    return gx


# Signed zeros, values that underflow to a signed zero when multiplied, and a
# few repeated values, so that zero products and pooling ties are common.
SPECIALS = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-200, -1e-200, 5e-324, -5e-324]
SPECIAL_VALUES = st.sampled_from(SPECIALS)
VALUES = st.one_of(SPECIAL_VALUES, st.floats(-1e6, 1e6))
BATCH_SHAPES = st.lists(st.integers(1, 3), max_size=2).map(tuple)


def drawn_one_channel_conv(seed, k, batch, n, f, length):
    """A one-input-channel Conv1D and an input for it, half of their values
    drawn from SPECIALS and half from N(0, 1e3)."""
    rng = np.random.default_rng(seed)

    def values(shape):
        return np.where(rng.random(shape) < 0.5, rng.choice(SPECIALS, shape),
                        rng.normal(0.0, 1e3, shape))

    conv = Conv1D(n, 1, f, k)
    conv.w[...] = values(conv.w.shape)
    conv.b[...] = values(conv.b.shape)
    return conv, values(batch + (n, 1, length))


def assert_within_dot_product_bound(conv, x, y):
    """y is the one-input-channel conv of x within the forward-error bound of
    a (K + 1)-term dot product: |y - ref| <= 2 (K + 1) eps (|w| |window| + |b|)
    + (K + 1) 5e-324, where ref is the matmul-per-tap form."""
    want, want_xp = reference_conv_forward(conv, x)
    bound_conv = Conv1D(conv.num_series, 1, conv.num_filters, conv.filter_size)
    bound_conv.w[...], bound_conv.b[...] = np.abs(conv.w), np.abs(conv.b)
    magnitude, _ = reference_conv_forward(bound_conv, np.abs(x))
    terms = conv.filter_size + 1
    bound = 2 * terms * np.finfo(np.float64).eps * magnitude + terms * 5e-324
    assert y.shape == want.shape
    assert np.all(np.abs(y - want) <= bound)
    return want_xp


class TestFirstStageMatchesReferenceForms:
    """The one-input-channel conv stays within a dot product's rounding of the
    matmul-per-tap form; the pooling and the conv backward without an input
    gradient give the bits of the forms they replaced, signed zeros included."""

    @given(data=st.data(), k=st.sampled_from([1, 2, 3, 5, 10]), batch=BATCH_SHAPES)
    @settings(max_examples=150, deadline=None)
    def test_one_channel_conv_stays_within_the_matmul_forms_bound(self, data, k, batch):
        n, f, length = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)),
                        data.draw(st.integers(1, 12)))
        conv = Conv1D(n, 1, f, k)
        conv.w[...] = data.draw(arrays(np.float64, conv.w.shape, elements=VALUES))
        conv.b[...] = data.draw(arrays(np.float64, conv.b.shape, elements=VALUES))
        x = data.draw(arrays(np.float64, batch + (n, 1, length), elements=VALUES))
        y, xp = conv.forward(x)
        want_xp = assert_within_dot_product_bound(conv, x, y)
        assert xp.tobytes() == want_xp.tobytes()

    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([1, 2, 3, 5, 10]),
           batch=st.sampled_from([(), (0,), (1,), (2, 3), (33,), (64,), (96,), (4, 40)]),
           n=st.integers(1, 16), f=st.integers(1, 8),
           length=st.sampled_from([1, 2, 3, 7, 16, 31, 32, 33]))
    @settings(max_examples=120, deadline=None)
    def test_long_batches_stay_within_the_matmul_forms_bound(self, seed, k, batch, n, f,
                                                             length):
        conv, x = drawn_one_channel_conv(seed, k, batch, n, f, length)
        y, xp = conv.forward(x)
        want_xp = assert_within_dot_product_bound(conv, x, y)
        assert xp.shape == want_xp.shape and xp.tobytes() == want_xp.tobytes()

    # every window, and every range of series, is the bits of its own call
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([1, 2, 3, 5, 10]),
           batch=st.sampled_from([(1,), (2,), (7,), (33,), (2, 3)]), n=st.integers(1, 6),
           f=st.integers(1, 5), length=st.sampled_from([1, 2, 3, 8, 16, 32]),
           lo_hi=st.tuples(st.integers(0, 5), st.integers(1, 6)))
    @settings(max_examples=150, deadline=None)
    def test_one_channel_conv_gives_each_windows_and_ranges_own_bits(self, seed, k, batch, n,
                                                                      f, length, lo_hi):
        conv, x = drawn_one_channel_conv(seed, k, batch, n, f, length)
        y, _ = conv.forward(x)
        assert y.flags.c_contiguous
        for i in np.ndindex(*batch):
            assert conv.forward(x[i])[0].tobytes() == y[i].tobytes()
            assert conv.forward(x[i][None])[0].tobytes() == y[i].tobytes()
        lo = min(lo_hi[0], n - 1)
        hi = min(max(lo_hi[1], lo + 1), n)
        part, _ = conv.series_range(lo, hi).forward(x[..., lo:hi, :, :])
        assert part.tobytes() == np.ascontiguousarray(y[..., lo:hi, :, :]).tobytes()

    @given(data=st.data(), order=st.sampled_from("CF"))
    @settings(max_examples=150, deadline=None)
    def test_pool_gives_the_where_forms_bits(self, data, order):
        lead = data.draw(st.lists(st.integers(1, 4), max_size=2).map(tuple))
        half = data.draw(st.integers(1, 80))
        x = data.draw(arrays(np.float64, lead + (2 * half,), elements=VALUES))
        x = np.asarray(x, order=order)
        y, (take_right, shape) = MaxPool1D().forward(x)
        want, want_mask = reference_pool_forward(x)
        assert y.shape == want.shape and shape == x.shape
        assert y.tobytes() == want.tobytes()
        assert np.array_equal(take_right, want_mask)
        assert MaxPool1D().values(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("half", [1, 7, 8, 9, 31, 32, 33, 127, 128, 129, 2048])
    def test_long_rows_pool_to_the_where_forms_bits(self, half, order):
        rng = np.random.default_rng(half)
        x = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 2.0]), size=(3, 2 * half))
        x = np.asarray(x, order=order)
        y, _ = MaxPool1D().forward(x)
        assert y.tobytes() == reference_pool_forward(x)[0].tobytes()

    # gradients of random bits (NaN payloads, subnormals) and special values,
    # in either memory order and strided along time; float32 ones are widened
    @given(seed=st.integers(0, 2 ** 32 - 1), lead=st.lists(st.integers(1, 4), max_size=3),
           half=st.integers(1, 40), order=st.sampled_from("CF"), stride=st.sampled_from([1, 3]),
           dtype=st.sampled_from([np.float64, np.float32]))
    @settings(max_examples=150, deadline=None)
    def test_pool_backward_gives_the_where_forms_bits(self, seed, lead, half, order, stride,
                                                     dtype):
        rng = np.random.default_rng(seed)
        specials = np.array([0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan])
        x = np.asarray(rng.choice(specials, (*lead, 2 * half)), order=order)
        size = (*lead, half * stride)
        bits = rng.integers(0, 2 ** 63, size, dtype=np.int64) * rng.choice([-1, 1], size)
        g = bits.view(np.float64) if dtype is np.float64 else (
            bits.astype(np.int32).view(np.float32))
        g = np.where(rng.random(size) < 0.3, rng.choice(specials.astype(dtype), size), g)
        g = np.asarray(g, order=order)[..., ::stride]
        cache = MaxPool1D().forward(x)[1]
        with np.errstate(invalid="ignore"):  # widening a signalling float32 NaN sets it
            gx = MaxPool1D().backward(cache, g)
            want = reference_pool_backward(cache, g)
        assert gx.dtype == want.dtype and gx.shape == want.shape == x.shape
        assert gx.tobytes() == want.tobytes()

    @given(data=st.data(), c_in=st.integers(1, 3), k=st.sampled_from([1, 2, 3, 5, 10]),
           batch=BATCH_SHAPES)
    @settings(max_examples=80, deadline=None)
    def test_conv_backward_without_input_gradient_keeps_the_weight_bits(self, data, c_in,
                                                                        k, batch):
        n, f, length = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)),
                        data.draw(st.integers(1, 12)))
        conv = Conv1D(n, c_in, f, k)
        conv.w[...] = data.draw(arrays(np.float64, conv.w.shape, elements=VALUES))
        x = data.draw(arrays(np.float64, batch + (n, c_in, length), elements=VALUES))
        g = data.draw(arrays(np.float64, batch + (n, f, length), elements=VALUES))
        _, cache = conv.forward(x)
        gx, want = conv.backward(cache, g)
        none, grads = conv.backward(cache, g, input_grad=False)
        assert none is None and gx.shape == x.shape
        assert list(grads) == list(want)
        for name in want:
            assert grads[name].tobytes() == want[name].tobytes(), name


class TestDeconv1D:
    def test_doubles_length(self):
        deconv = drawn(Deconv1D(3, 2, 2, 3), np.random.default_rng(0))
        y, _ = deconv.forward(np.ones((3, 2, 4)))
        assert y.shape == (3, 2, 8)

    def test_unit_input_copies_filter_at_stride_two(self):
        deconv = Deconv1D(1, 1, 1, 3)
        deconv.w[0, 0, 0] = np.array([1.0, 2.0, 3.0])
        deconv.b[...] = 0.0
        x = np.array([[[0.0, 1.0, 0.0, 0.0]]])
        y, _ = deconv.forward(x)
        # the unit at input index 1 lands at output offset 2
        assert y.tolist() == [[[0.0, 0.0, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0]]]

    def test_zero_input_gives_bias_only(self):
        rng = np.random.default_rng(1)
        deconv = drawn(Deconv1D(2, 2, 3, 3), rng)
        deconv.b[...] = rng.uniform(-1, 1, deconv.b.shape)
        y, _ = deconv.forward(np.zeros((2, 2, 4)))
        assert np.array_equal(y, np.broadcast_to(deconv.b[..., None], (2, 3, 8)))

    def test_channel_mismatch(self):
        deconv = Deconv1D(1, 2, 2, 3)
        with pytest.raises(ShapeError):
            deconv.forward(np.ones((1, 3, 4)))

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        deconv = drawn(Deconv1D(2, 2, 2, 3 if seed % 2 else 5), rng)
        deconv.b[...] = rng.uniform(-1, 1, deconv.b.shape)
        x = rng.uniform(-1, 1, (2, 2, 4))
        coeffs = rng.uniform(-1, 1, (2, 2, 8))
        loss = weighted_sum_loss(deconv, x, coeffs)
        _, cache = deconv.forward(x)
        gx, grads = deconv.backward(cache, coeffs)
        assert rel_error(grads["w"], numeric_grad(loss, deconv.w)) < FD_TOL
        assert rel_error(grads["b"], numeric_grad(loss, deconv.b)) < FD_TOL
        assert rel_error(gx, numeric_grad(loss, x)) < FD_TOL


def reference_deconv_backward(deconv, x, grad_out):
    """Deconv1D's backward with one pair of matmuls per filter tap."""
    gw = np.zeros_like(deconv.w)
    gx = np.zeros(x.shape)
    for k, n_k in deconv._taps(2 * x.shape[-1]):
        gk = grad_out[..., k::2]
        gw[..., k] = (gk @ x[..., :n_k].swapaxes(-1, -2)).reshape(
            (-1,) + gw.shape[:-1]).sum(axis=0)
        gx[..., :n_k] += deconv.w[..., k].swapaxes(-1, -2) @ gk
    gb = grad_out.reshape((-1,) + grad_out.shape[-3:]).sum(axis=0).sum(axis=-1)
    return gx, {"w": gw, "b": gb}


class TestDeconvBackwardMatchesPerTapLoop:
    """The stacked-tap backward against the matmul-per-tap loop."""

    # taps that _taps cuts, one window, and the pair, wide and inference shapes
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 10),
           batch=st.one_of(st.sampled_from([(), (1,), (2, 3)]),
                           st.integers(2, 256).map(lambda b: (b,))),
           n=st.integers(1, 4), c=st.integers(1, 4), f=st.integers(1, 4),
           length=st.integers(1, 12), lo_hi=st.tuples(st.integers(0, 3), st.integers(1, 4)))
    @example(seed=0, k=5, batch=(), n=1, c=1, f=1, length=1, lo_hi=(0, 1))
    @example(seed=1, k=10, batch=(3,), n=2, c=2, f=3, length=2, lo_hi=(1, 2))
    @example(seed=2, k=3, batch=(), n=16, c=8, f=8, length=8, lo_hi=(3, 11))
    @example(seed=3, k=3, batch=(32,), n=2, c=4, f=4, length=16, lo_hi=(1, 2))
    @example(seed=4, k=3, batch=(32,), n=16, c=8, f=8, length=16, lo_hi=(0, 8))
    @example(seed=5, k=3, batch=(32,), n=16, c=8, f=8, length=8, lo_hi=(5, 6))
    @example(seed=6, k=3, batch=(256,), n=4, c=4, f=4, length=8, lo_hi=(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, seed, k, batch, n, c, f, length, lo_hi):
        """The bias gradient is the loop's bits. The weight and input gradients
        sum their products in another order (one matmul over all K taps, with
        zeros where a tap's output falls past 2L), so each is held to a
        normwise bound, max|a - ref| <= 1e-12 * max|ref|; a signed zero
        compares by value. Each range of series gives the bits of the whole
        group's call."""
        rng = np.random.default_rng(seed)

        def values(shape):
            return np.where(rng.random(shape) < 0.3, rng.choice(SPECIALS, shape),
                            rng.normal(0.0, 1e3, shape))

        deconv = Deconv1D(n, c, f, k)
        deconv.w[...] = values(deconv.w.shape)
        x = values(batch + (n, c, length))
        g = values(batch + (n, f, 2 * length))
        _, cache = deconv.forward(x)
        gx, grads = deconv.backward(cache, g)
        want_gx, want = reference_deconv_backward(deconv, x, g)
        assert grads["b"].tobytes() == want["b"].tobytes()
        assert_within_normwise_bound(gx, want_gx, "input gradients")
        assert_within_normwise_bound(grads["w"], want["w"], "w")

        lo = min(lo_hi[0], n - 1)
        hi = min(max(lo_hi[1], lo + 1), n)
        part = deconv.series_range(lo, hi)
        part_gx, part_grads = part.backward(part.forward(x[..., lo:hi, :, :])[1],
                                            g[..., lo:hi, :, :])
        assert part_gx.tobytes() == np.ascontiguousarray(gx[..., lo:hi, :, :]).tobytes()
        assert part_grads["b"].tobytes() == grads["b"][lo:hi].tobytes()
        # numpy sums one value per window pairwise (see the layers docstring)
        if (hi - lo) * k * f * c > 1:
            assert part_grads["w"].tobytes() == np.ascontiguousarray(
                grads["w"][lo:hi]).tobytes()


class TestChannelMerge:
    def test_sigmoid_of_zero(self):
        merge = ChannelMerge(1, 1)
        merge.w[...] = 1.0
        merge.b[...] = 0.0
        y, _ = merge.forward(np.array([[[0.0, 0.0]]]))
        assert y.tolist() == [[[0.5, 0.5]]]

    def test_output_bounded(self):
        # strict (0,1) holds up to float64 rounding, i.e. |pre-activation| < ~36
        merge = drawn(ChannelMerge(2, 3), np.random.default_rng(1))
        x = np.random.default_rng(2).uniform(-10, 10, (2, 3, 10))
        y, _ = merge.forward(x)
        assert y.shape == (2, 1, 10)
        assert np.all(y > 0.0) and np.all(y < 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        merge = drawn(ChannelMerge(2, 3), rng)
        merge.b[...] = rng.uniform(-1, 1, merge.b.shape)
        x = rng.uniform(-1, 1, (2, 3, 6))
        coeffs = rng.uniform(-1, 1, (2, 1, 6))
        loss = weighted_sum_loss(merge, x, coeffs)
        _, cache = merge.forward(x)
        gx, grads = merge.backward(cache, coeffs)
        assert rel_error(grads["w"], numeric_grad(loss, merge.w)) < FD_TOL
        assert rel_error(grads["b"], numeric_grad(loss, merge.b)) < FD_TOL
        assert rel_error(gx, numeric_grad(loss, x)) < FD_TOL


class TestSeriesGrouping:
    """n grouped series equal n single-series layers on the weight slices."""

    @staticmethod
    def slice_layer(layer, s):
        if isinstance(layer, ChannelMerge):
            one = ChannelMerge(1, layer.channels)
        else:
            one = type(layer)(1, layer.in_channels, layer.num_filters, layer.filter_size)
        one.w[...] = layer.w[s:s + 1]
        one.b[...] = layer.b[s:s + 1]
        return one

    @staticmethod
    def layers(k, rng):
        return [drawn(layer, rng) for layer in
                (Conv1D(4, 3, 2, k), Deconv1D(4, 3, 2, k), ChannelMerge(4, 3))]

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    def test_forward_and_backward_equal_per_series_calls(self, k):
        rng = np.random.default_rng(k)
        for layer in self.layers(k, rng):
            layer.b[...] = rng.uniform(-1, 1, layer.b.shape)
            x = rng.uniform(-1, 1, (5, 4, 3, 6))
            y, cache = layer.forward(x)
            g = rng.uniform(-1, 1, y.shape)
            gx, grads = layer.backward(cache, g)
            for s in range(4):
                one = self.slice_layer(layer, s)
                ys, cache_s = one.forward(x[:, s:s + 1])
                gxs, grads_s = one.backward(cache_s, g[:, s:s + 1])
                name = type(layer).__name__
                assert rel_error(y[:, s:s + 1], ys) < 1e-12, name
                assert rel_error(gx[:, s:s + 1], gxs) < 1e-12, name
                for p in ("w", "b"):
                    assert rel_error(grads[p][s:s + 1], grads_s[p]) < 1e-12, (name, p)


class TestDense:
    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        dense = Dense(4, 3, rng)
        x = rng.uniform(-1, 1, 4)
        coeffs = rng.uniform(-1, 1, 3)
        loss = weighted_sum_loss(dense, x, coeffs)
        _, cache = dense.forward(x)
        gx, grads = dense.backward(cache, coeffs)
        assert rel_error(grads["w"], numeric_grad(loss, dense.w)) < FD_TOL
        assert rel_error(grads["b"], numeric_grad(loss, dense.b)) < FD_TOL
        assert rel_error(gx, numeric_grad(loss, x)) < FD_TOL

    def test_affine_map(self):
        dense = Dense(2, 2, np.random.default_rng(0))
        dense.w[...] = [[1.0, 0.0], [0.0, 2.0]]
        dense.b[...] = [1.0, -1.0]
        y, _ = dense.forward(np.array([3.0, 4.0]))
        assert y.tolist() == [4.0, 7.0]


class TestRNNCell:
    def test_zero_everything_stays_zero(self):
        cell = RNNCell(2, 3, np.random.default_rng(0))
        cell.w_xh[...] = 0.0
        cell.w_hh[...] = 0.0
        hs, final, _ = cell.forward(np.zeros((4, 1, 2)))
        assert not final.any()
        assert not hs.any()

    def test_single_step_equals_cell_application(self):
        rng = np.random.default_rng(1)
        cell = RNNCell(3, 4, rng)
        x = rng.uniform(-1, 1, 3)
        _, final, _ = cell.forward(x[None, None])
        assert np.array_equal(final[0], np.tanh(x @ cell.w_xh.T + np.zeros(4) @ cell.w_hh.T
                                                + cell.b))

    def test_hidden_values_bounded(self):
        rng = np.random.default_rng(2)
        cell = RNNCell(2, 3, rng)
        hs, _, _ = cell.forward(rng.uniform(-5, 5, (10, 1, 2)))
        assert np.all(np.abs(hs) < 1.0)

    def test_step_length_mismatch(self):
        cell = RNNCell(2, 3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            cell.forward(np.zeros((2, 1, 3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_bptt_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cell = RNNCell(2, 3, rng)
        xs = rng.uniform(-1, 1, (3, 1, 2))
        coeffs = rng.uniform(-1, 1, 3)

        def loss():
            _, final, _ = cell.forward(xs)
            return float(np.sum(final * coeffs))

        _, _, cache = cell.forward(xs)
        gxs, grads = cell.backward(cache, coeffs)
        assert rel_error(grads["w_xh"], numeric_grad(loss, cell.w_xh)) < FD_TOL
        assert rel_error(grads["w_hh"], numeric_grad(loss, cell.w_hh)) < FD_TOL
        assert rel_error(grads["b"], numeric_grad(loss, cell.b)) < FD_TOL
        assert rel_error(gxs, numeric_grad(loss, xs)) < FD_TOL


def lstm_cache_arrays(cache):
    """(cell states, tanh of them, gate activations (T, batch, 4H) in the
    parameters' gate order (i, f, g, o)), window-major, of an LSTMCell forward
    cache, read from its batch-minor buffer of blocks (i, f, o, g, c_{t-1})
    and tanh of the cell states."""
    _, _, blocks, tcs = cache
    gates = blocks[:-1, [0, 1, 3, 2]].transpose(0, 3, 1, 2)
    return (blocks[1:, 4].swapaxes(-1, -2), tcs.swapaxes(-1, -2),
            gates.reshape(gates.shape[:2] + (-1,)))


class TestLSTMCell:
    def test_zero_weights_hand_recurrence(self):
        cell = LSTMCell(2, 3, np.random.default_rng(0))
        cell.w_x[...] = 0.0
        cell.w_h[...] = 0.0
        hs, final, cache = cell.forward(np.zeros((1, 1, 2)))
        cs, _, gates = lstm_cache_arrays(cache)
        gi, gf, gc, go = np.split(gates[0], 4, axis=-1)
        # all gates sigmoid(0) = 0.5, candidate tanh(0) = 0:
        # c' = 0.5*0 + 0.5*0 = 0, h' = 0.5*tanh(0) = 0
        assert np.allclose(gi, 0.5) and np.allclose(gf, 0.5) and np.allclose(go, 0.5)
        assert not gc.any() and not cs.any() and not hs.any() and not final.any()

    def test_single_step_equals_cell_application(self):
        rng = np.random.default_rng(3)
        cell = LSTMCell(2, 3, rng)
        x = rng.uniform(-1, 1, 2)
        _, final, _ = cell.forward(x[None, None])
        z = x @ cell.w_x.T + np.zeros(3) @ cell.w_h.T + cell.b
        gi, gf, gc, go = np.split(z, 4)
        c = sigmoid_values(gf) * np.zeros(3) + sigmoid_values(gi) * np.tanh(gc)
        assert np.array_equal(final[0], sigmoid_values(go) * np.tanh(c))

    def test_gate_ranges_and_finite_cell_state(self):
        rng = np.random.default_rng(4)
        cell = LSTMCell(2, 3, rng)
        _, final, cache = cell.forward(rng.uniform(-3, 3, (20, 1, 2)))
        cs, tcs, gates = lstm_cache_arrays(cache)
        assert gates.shape == (20, 1, 12) and cs.shape == tcs.shape == (20, 1, 3)
        gi, gf, gc, go = np.split(gates, 4, axis=-1)
        for g in (gi, gf, go):
            assert np.all(g > 0.0) and np.all(g < 1.0)
        assert np.all(np.abs(gc) <= 1.0)
        assert np.isfinite(cs).all() and np.array_equal(tcs, np.tanh(cs))
        assert np.isfinite(final).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_bptt_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cell = LSTMCell(2, 3, rng)
        xs = rng.uniform(-1, 1, (3, 1, 2))
        coeffs = rng.uniform(-1, 1, 3)

        def loss():
            _, final, _ = cell.forward(xs)
            return float(np.sum(final * coeffs))

        _, _, cache = cell.forward(xs)
        gxs, grads = cell.backward(cache, coeffs)
        assert rel_error(grads["w_x"], numeric_grad(loss, cell.w_x)) < FD_TOL
        assert rel_error(grads["w_h"], numeric_grad(loss, cell.w_h)) < FD_TOL
        assert rel_error(grads["b"], numeric_grad(loss, cell.b)) < FD_TOL
        assert rel_error(gxs, numeric_grad(loss, xs)) < FD_TOL

    def test_buffers_belong_to_one_call(self):
        # a second call, on steps of the same shape and on other shapes, writes
        # none of the first call's arrays, so the backward from the kept cache
        # gives the same bytes before and after it; neither the steps nor the
        # final state's gradient is ever written
        rng = np.random.default_rng(5)
        cell = LSTMCell(8, 4, rng)
        cell.b[...] = rng.uniform(-1, 1, cell.b.shape)
        x = np.moveaxis(rng.uniform(-3, 3, (6, 8, 5)), -1, 0)
        x.setflags(write=False)
        x_bytes = x.tobytes()
        grad_final = rng.uniform(-1, 1, (6, 4))
        grad_bytes = grad_final.tobytes()
        hs, final, cache = cell.forward(x)
        gx, grads = cell.backward(cache, grad_final)
        assert grad_final.tobytes() == grad_bytes
        names = ("hidden states", "final state", "steps", "cached hidden states",
                 "batch-minor gate and cell state blocks", "batch-minor tanh of cell states",
                 "input gradients",
                 *grads)
        first = [a.tobytes() for a in (hs, final, *cache, gx, *grads.values())]
        cell.forward(rng.uniform(-3, 3, x.shape))
        cell.forward(rng.uniform(-3, 3, (3, 2, 8)))
        gx_again, grads_again = cell.backward(cache, grad_final)
        assert list(grads_again) == list(grads)
        for name, kept, a in zip(names, first, (hs, final, *cache, gx_again,
                                               *grads_again.values())):
            assert a.tobytes() == kept, name
        assert x.tobytes() == x_bytes


# -- reference recurrences: the per-step loops the cells replaced --------------


def _as_is(a):
    return a


# With ``absolute=True`` the reference loops' backward passes multiply the
# absolute value of every factor (each factor that can be negative goes through
# ``f``). Each gradient entry is then the sum of the absolute values of the
# products it sums, written out in full: the scale of the rounding error of any
# order of that sum (see FORWARD_ERROR_MULTIPLE).


def reference_rnn(cell, xs, grad_final, absolute=False):
    """(hidden states, input gradients, parameter gradients) of an RNNCell,
    one step at a time."""
    h = np.zeros(xs[0].shape[:-1] + (cell.hidden_size,))
    hs = []
    for x in xs:
        h = np.tanh(x @ cell.w_xh.T + h @ cell.w_hh.T + cell.b)
        hs.append(h)
    f = np.abs if absolute else _as_is
    w_xh, w_hh = f(cell.w_xh), f(cell.w_hh)
    gw_xh = np.zeros_like(cell.w_xh)
    gw_hh = np.zeros_like(cell.w_hh)
    gb = np.zeros_like(cell.b)
    dh = f(grad_final)
    gxs = [None] * len(xs)
    for t in reversed(range(len(xs))):
        dz = dh * (1.0 - hs[t] * hs[t])
        dz2 = dz.reshape(-1, cell.hidden_size)
        gw_xh += dz2.T @ f(xs[t]).reshape(-1, cell.input_size)
        if t > 0:
            gw_hh += dz2.T @ f(hs[t - 1]).reshape(-1, cell.hidden_size)
        gb += dz2.sum(axis=0)
        gxs[t] = dz @ w_xh
        dh = dz @ w_hh
    return hs, gxs, {"w_xh": gw_xh, "w_hh": gw_hh, "b": gb}


def reference_lstm(cell, xs, grad_final, absolute=False):
    """(hidden states, input gradients, parameter gradients) of an LSTMCell,
    one step at a time."""
    n = cell.hidden_size
    h = c = np.zeros(xs[0].shape[:-1] + (n,))
    hs, steps = [], []
    for x in xs:
        z = x @ cell.w_x.T + h @ cell.w_h.T + cell.b
        s = sigmoid_values(z)
        gi, gf, go = s[..., 0:n], s[..., n:2 * n], s[..., 3 * n:4 * n]
        gc = np.tanh(z[..., 2 * n:3 * n])
        c_new = gf * c + gi * gc
        h_new = go * np.tanh(c_new)
        steps.append((x, h, c, (gi, gf, gc, go), c_new))
        h, c = h_new, c_new
        hs.append(h)
    f = np.abs if absolute else _as_is
    w_x, w_h = f(cell.w_x), f(cell.w_h)
    gw_x = np.zeros_like(cell.w_x)
    gw_h = np.zeros_like(cell.w_h)
    gb = np.zeros_like(cell.b)
    dh = f(grad_final)
    dc = np.zeros_like(grad_final)
    gxs = [None] * len(steps)
    for t in reversed(range(len(steps))):
        x, h_prev, c_prev, (gi, gf, gc, go), c_new = steps[t]
        tc = np.tanh(c_new)
        do = dh * f(tc)
        dc = dc + dh * go * (1.0 - tc * tc)
        di = dc * f(gc)
        df = dc * f(c_prev)
        dg = dc * gi
        dc = dc * gf
        dz = np.concatenate([di * gi * (1.0 - gi), df * gf * (1.0 - gf),
                             dg * (1.0 - gc * gc), do * go * (1.0 - go)], axis=-1)
        dz2 = dz.reshape(-1, 4 * n)
        gw_x += dz2.T @ f(x).reshape(-1, cell.input_size)
        gw_h += dz2.T @ f(h_prev).reshape(-1, n)
        gb += dz2.sum(axis=0)
        gxs[t] = dz @ w_x
        dh = dz @ w_h
    return hs, gxs, {"w_x": gw_x, "w_h": gw_h, "b": gb}


def gate_cache_forward(cell, x):
    """LSTMCell.forward as it was before the gate-major block buffer: one
    sigmoid over all four gate blocks, tanh then over the candidate's, and a
    cache of (steps, hidden states, cell states, their tanh, gates (T, batch,
    4H)), all window-major. The oracle of the cell: bit-exact where BLAS sums
    the swapped operands alike (see TestLSTMCellMatchesGateCacheCell)."""
    n = cell.hidden_size
    xw = x @ cell.w_x.T
    gates = np.empty(xw.shape)
    gi, gf, gc, go = (gates[..., k * n:(k + 1) * n] for k in range(4))
    hs = np.empty(xw.shape[:-1] + (n,))
    cs = np.empty(hs.shape)
    tcs = np.empty(hs.shape)
    z = np.empty(xw.shape[1:])
    forget = np.empty(hs.shape[1:])
    admit = np.empty(forget.shape)
    h = c = np.zeros(forget.shape)
    z_cand = z[:, 2 * n:3 * n]
    for xw_t, g, g_i, g_f, g_c, g_o, c_t, tc_t, h_t in zip(
            xw, gates, gi, gf, gc, go, cs, tcs, hs):
        np.matmul(h, cell.w_h.T, out=z)
        z += xw_t
        z += cell.b
        sigmoid_values(z, out=g)
        np.tanh(z_cand, out=g_c)
        np.multiply(g_f, c, out=forget)
        np.multiply(g_i, g_c, out=admit)
        c = np.add(forget, admit, out=c_t)
        h = np.multiply(g_o, np.tanh(c, out=tc_t), out=h_t)
    return hs, hs[-1], (x, hs, cs, tcs, gates)


def gate_cache_backward(cell, cache, grad_final):
    """LSTMCell.backward on a ``gate_cache_forward`` cache, as it was before
    the block buffer."""
    x, hs, cs, tcs, gates = cache
    n = cell.hidden_size
    gi, gf, gc, go = (gates[..., k * n:(k + 1) * n] for k in range(4))
    c_prev = np.concatenate((np.zeros((1,) + cs.shape[1:]), cs[:-1]))
    local = 1.0 - gates
    local *= gates
    local[..., 2 * n:3 * n] = 1.0 - gc * gc
    local *= np.concatenate((gc, c_prev, gi, tcs), axis=-1)
    dh_dc = go * (1.0 - tcs * tcs)
    dz = np.empty(gates.shape)
    dh = grad_final.reshape(hs.shape[1:])
    dc = np.zeros(dh.shape)
    for t in reversed(range(len(x))):
        dc = dc + dh * dh_dc[t]
        np.multiply(np.concatenate((dc, dc, dc, dh), axis=-1), local[t], out=dz[t])
        if t:
            dc = dc * gf[t]
            dh = dz[t] @ cell.w_h
    gx, gw_x, gw_h, gb = _sequence_grads(dz, x, hs, cell.w_x)
    return gx, {"w_x": gw_x, "w_h": gw_h, "b": gb}


def with_shape_examples(shapes):
    """A decorator giving a Hypothesis test each shape as an explicit example."""
    def decorate(test):
        for shape in shapes:
            test = example(shape=shape)(test)
        return test
    return decorate


def assert_within_normwise_bound(got, ref, name):
    """max|got - ref| <= 1e-12 * max|ref|, with equal shapes."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape, name
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


# A gradient entry of a cell may differ from the reference loop's by this many
# times eps times the entry's sum of absolute products (``absolute=True``). Both
# sum the same products of the same forward values, in other orders and
# groupings, so each lies within a dot product's forward-error bound of the
# exact sum: a multiple of eps times that sum of absolute products, whatever
# the sum cancels to. The largest multiple seen over some 9200 draws of both
# cells, at up to 35 steps, 257 windows, 128 inputs and 32 hidden units, was 6.5.
FORWARD_ERROR_MULTIPLE = 32


def assert_within_forward_error_bound(got, ref, magnitude, name):
    """|got - ref| <= FORWARD_ERROR_MULTIPLE * eps * magnitude in every entry,
    with equal shapes; an entry whose products are all zero must match."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape, name
    bound = FORWARD_ERROR_MULTIPLE * np.finfo(np.float64).eps * np.asarray(magnitude)
    assert np.all(np.abs(got - ref) <= bound), name


class TestCellsMatchPerStepLoops:
    """The cells against the per-step reference loops."""

    # (steps, batch, input size, hidden size)
    SHAPES = {
        "batched": (6, 5, 3, 4),
        "one-window": (6, 1, 3, 4),
        "single-step": (1, 7, 12, 4),
        "one-feature": (5, 4, 1, 3),
        "pair": (16, 32, 8, 4),
        "pair-last-batch": (16, 7, 8, 4),
        "wide": (8, 32, 128, 6),
    }

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("cell_cls, reference", [(RNNCell, reference_rnn),
                                                     (LSTMCell, reference_lstm)],
                             ids=["rnn", "lstm"])
    @given(shape=st.tuples(st.integers(1, 20), st.integers(1, 40), st.integers(1, 16),
                           st.integers(1, 8)))
    @with_shape_examples(SHAPES.values())
    # the RNN's recurrent-weight gradient cancels here: its products' absolute
    # values sum to 1.25, the gradient is 1.1e-5, and the two orders differ by
    # 3.8e-17, above the 1.1e-17 that a bound of 1e-12 * max|ref| allowed
    @example(shape=(19, 16, 15, 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, cell_cls, reference, shape, strided):
        """The forward pass gives the loop's bits: every hidden state and the
        final state. The backward pass sums its products in another order (one
        matmul per weight over all steps), so each entry of each gradient
        array, the input gradients and each weight and bias gradient, is held
        to a dot product's forward-error bound (see FORWARD_ERROR_MULTIPLE)."""
        steps, batch, in_size, hidden = shape
        rng = np.random.default_rng([steps, batch, in_size, hidden, strided])
        cell = cell_cls(in_size, hidden, rng)
        cell.b[...] = rng.uniform(-1, 1, cell.b.shape)
        if strided:
            # time on the last axis, as the baselines read a window
            x = np.moveaxis(rng.uniform(-3, 3, (batch, in_size, steps)), -1, 0)
        else:
            x = rng.uniform(-3, 3, (steps, batch, in_size))
        grad_final = rng.uniform(-1, 1, (batch, hidden))
        ref_hs, ref_gxs, ref_grads = reference(cell, list(x), grad_final)
        _, mag_gxs, mag_grads = reference(cell, list(x), grad_final, absolute=True)
        hs, final, cache = cell.forward(x)
        gx, grads = cell.backward(cache, grad_final)
        assert hs.shape == (steps, batch, hidden)
        for t in range(steps):
            assert np.array_equal(hs[t], ref_hs[t]), t
        assert np.array_equal(final, ref_hs[-1])
        assert_within_forward_error_bound(gx, np.stack(ref_gxs), np.stack(mag_gxs),
                                          "input gradients")
        assert list(grads) == list(ref_grads)
        for name, g in grads.items():
            assert_within_forward_error_bound(g, ref_grads[name], mag_grads[name], name)

    @pytest.mark.parametrize("cell_cls", [RNNCell, LSTMCell])
    def test_empty_sequence_rejected(self, cell_cls):
        cell = cell_cls(2, 3, np.random.default_rng(0))
        for run in (cell.forward, cell.final_state):
            with pytest.raises(ShapeError):
                run(np.zeros((0, 4, 2)))
            # the models send (T, batch, in) only: no unbatched or multi-batch-axis steps
            with pytest.raises(ShapeError):
                run(np.zeros((3, 2)))
            with pytest.raises(ShapeError):
                run(np.zeros((3, 2, 4, 2)))
            with pytest.raises(ShapeError):
                run(np.zeros((3, 4, 5)))


class TestFinalStateMatchesForward:
    """``final_state`` keeps no cache and gives the bytes and the layout of
    ``forward``'s final state: at perfbench's ``pair`` LSTM shapes and
    ``wide`` RNN shapes, at their batches and at batches BLAS treats apart."""

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("cell_cls, in_size, hidden, steps",
                             [(LSTMCell, 8, 4, 16), (RNNCell, 128, 6, 8)], ids=["lstm", "rnn"])
    @pytest.mark.parametrize("batch", [1, 32, 82, 89, 128, 201, 256])
    def test_same_bytes_as_forward(self, cell_cls, in_size, hidden, steps, batch, strided):
        rng = np.random.default_rng([batch, strided, in_size])
        cell = cell_cls(in_size, hidden, rng)
        cell.b[...] = rng.uniform(-1, 1, cell.b.shape)
        if strided:  # the sequence-layout view a model sends
            x = np.moveaxis(rng.uniform(-3, 3, (batch, in_size, steps)), -1, 0)
        else:
            x = rng.uniform(-3, 3, (steps, batch, in_size))
        final = cell.forward(x)[1]
        got = cell.final_state(x)
        assert (got.shape, got.strides) == (final.shape, final.strides)
        assert got.tobytes() == final.tobytes()


def gate_cache_arrays(cell, x, grad_final):
    """{name: array} of the gate-cache cell's forward and backward on steps x."""
    hs, final, cache = gate_cache_forward(cell, x)
    gx, grads = gate_cache_backward(cell, cache, grad_final)
    return {"hidden states": hs, "final state": final, "input gradients": gx, **grads}


def lstm_arrays(cell, x, grad_final):
    """{name: array} of the cell's forward and backward, named as above."""
    hs, final, cache = cell.forward(x)
    gx, grads = cell.backward(cache, grad_final)
    return {"hidden states": hs, "final state": final, "input gradients": gx, **grads}


def one_ulp_sensitivity(cell, x, grad_final, rng, draws=4):
    """{name: max|a' - a|} of the gate-cache cell's arrays, the largest over
    ``draws`` runs in which every weight of w_x and w_h moves by one ulp, each
    in a drawn direction: the scale at which these weights' recurrence
    amplifies a rounding of its products. One draw can move an array far
    less than another, so a single one is no scale to bound by."""
    ref = gate_cache_arrays(cell, x, grad_final)
    moved = dict.fromkeys(ref, 0.0)
    for _ in range(draws):
        nudged = copy.copy(cell)
        for name in ("w_x", "w_h"):
            w = getattr(cell, name)
            away = np.where(rng.random(w.shape) < 0.5, -np.inf, np.inf)
            setattr(nudged, name, np.nextafter(w, away))
        for name, a in gate_cache_arrays(nudged, x, grad_final).items():
            moved[name] = max(moved[name], np.max(np.abs(a - ref[name])))
    return moved


class TestLSTMCellMatchesGateCacheCell:
    """The batch-minor cell against the gate-cache cell, the window-major
    arithmetic it replaced. Both multiply the same operands, but with their
    roles swapped (``W @ h.T`` against ``h @ W.T``), and BLAS may sum the two
    in another order. With scipy-openblas 0.3.31 on SkylakeX kernels they
    differ at batches above 192 that are not a multiple of 8, and where a
    matmul sums 16 or more products (hidden or input size 16 and up) even at
    a batch of 2; elsewhere the bytes are equal."""

    # (steps, batch, input size, hidden size). The first three examples move
    # bits: 16 summed products, a batch above 192, and weights whose
    # deviation needs the sensitivity bound. With OpenBLAS 0.3.31, one
    # recurrent matmul per gate block moved bits at a batch of 1. The cell's
    # gate rows in the order (i, f, o, g) gave the bytes of the parameters'
    # order over a grid of hidden sizes 1-40, input sizes 1-24 and batches
    # 1-290, except at batches above 192 that are not a multiple of 8
    @given(shape=st.tuples(st.integers(1, 12), st.integers(1, 300), st.integers(1, 24),
                           st.integers(1, 40)),
           strided=st.booleans(),
           scales=st.tuples(*[st.floats(-3.0, 2.0)] * 3),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(2, 2, 1, 16), strided=False, scales=(0.0, 0.0, 0.0), seed=0)
    @example(shape=(4, 201, 8, 4), strided=True, scales=(0.0, 0.0, 0.0), seed=0)
    @example(shape=(11, 290, 17, 35), strided=True, scales=(0.0, 1.6, 0.0), seed=2)
    @example(shape=(16, 32, 8, 13), strided=False, scales=(0.0, 0.0, 0.0), seed=0)
    @example(shape=(12, 1, 25, 14), strided=True, scales=(0.0, 0.0, 0.0), seed=0)
    @example(shape=(16, 32, 8, 4), strided=False, scales=(0.0, -0.5, 0.0), seed=1)
    @settings(max_examples=25, deadline=None)
    def test_within_rounding_of_gate_cache_cell(self, shape, strided, scales, seed):
        """Hidden states, final state, input gradients and every weight and
        bias gradient, for steps, weights and biases of magnitude 1e-3 to 1e2
        and steps as a contiguous array or a strided view.

        With weights up to 1 in magnitude each array lies within
        max|a - ref| <= 1e-12 * max|ref| (the largest seen over some 1600
        draws: 5.7e-15). Larger weights amplify rounding through the
        recurrence, so there each array may deviate by 16 times the largest
        change of the reference itself over four draws in which every weight
        moves by one ulp, if that is more (the largest ratio seen: 0.83, over
        964 arrays that deviated by more than 1e-12 * max|ref|)."""
        steps, batch, in_size, hidden = shape
        x_scale, w_scale, b_scale = (10.0 ** e for e in scales)
        rng = np.random.default_rng(seed)
        cell = LSTMCell(in_size, hidden, rng)
        for w in (cell.w_x, cell.w_h):
            w[...] = rng.uniform(-w_scale, w_scale, w.shape)
        cell.b[...] = rng.uniform(-b_scale, b_scale, cell.b.shape)
        if strided:
            x = np.moveaxis(rng.uniform(-x_scale, x_scale, (batch, in_size, steps)), -1, 0)
        else:
            x = rng.uniform(-x_scale, x_scale, (steps, batch, in_size))
        grad_final = rng.uniform(-1, 1, (batch, hidden))
        got = lstm_arrays(cell, x, grad_final)
        ref = gate_cache_arrays(cell, x, grad_final)
        assert list(got) == list(ref)
        sensitivity = one_ulp_sensitivity(cell, x, grad_final, rng) if w_scale > 1.0 else {}
        for name, a in got.items():
            assert a.shape == ref[name].shape, name
            allowed = max(1e-12 * np.max(np.abs(ref[name])), 16.0 * sensitivity.get(name, 0.0))
            assert np.max(np.abs(a - ref[name])) <= allowed, name

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("batch", [1, 7, 32, 82, 89, 128, 256])
    def test_same_bytes_at_the_benchmark_shapes(self, batch, strided):
        """At perfbench's ``pair`` shapes (input 8, hidden 4, 16 steps, and
        its batches), forward and backward give the gate-cache cell's bytes.
        Those depend on the BLAS kernels, so, like the golden digests, this
        skips where the environment differs from ``golden/FINGERPRINT``."""
        difference = fingerprint_difference()
        if difference:
            pytest.skip(f"the equal bytes were {difference}")
        rng = np.random.default_rng([batch, strided])
        cell = LSTMCell(8, 4, rng)
        cell.b[...] = rng.uniform(-1, 1, cell.b.shape)
        if strided:  # the sequence-layout view a model sends
            x = np.moveaxis(rng.uniform(-3, 3, (batch, 8, 16)), -1, 0)
        else:
            x = rng.uniform(-3, 3, (16, batch, 8))
        grad_final = rng.uniform(-1, 1, (batch, 4))
        got = lstm_arrays(cell, x, grad_final)
        ref = gate_cache_arrays(cell, x, grad_final)
        assert list(got) == list(ref)
        for name, a in got.items():
            assert a.tobytes() == ref[name].tobytes(), name


class TestLSTMCacheMatchesPerStepLoop:
    """The forward cache holds the per-step loop's bits: every cell state,
    its tanh, and every gate activation, the candidate block as tanh."""

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("shape", TestCellsMatchPerStepLoops.SHAPES.values(),
                             ids=list(TestCellsMatchPerStepLoops.SHAPES))
    def test_same_bits_as_reference(self, shape, strided):
        steps, batch, in_size, n = shape
        rng = np.random.default_rng([steps, in_size, n, strided])
        cell = LSTMCell(in_size, n, rng)
        cell.b[...] = rng.uniform(-1, 1, cell.b.shape)
        if strided:
            x = np.moveaxis(rng.uniform(-3, 3, (batch, in_size, steps)), -1, 0)
        else:
            x = rng.uniform(-3, 3, (steps, batch, in_size))
        cs, tcs, gates = lstm_cache_arrays(cell.forward(x)[2])
        assert gates.shape == (steps, batch, 4 * n)
        h = c = np.zeros((batch, n))
        for t in range(steps):
            z = x[t] @ cell.w_x.T + h @ cell.w_h.T + cell.b
            g = sigmoid_values(z)
            g[..., 2 * n:3 * n] = np.tanh(z[..., 2 * n:3 * n])
            c = g[..., n:2 * n] * c + g[..., 0:n] * g[..., 2 * n:3 * n]
            h = g[..., 3 * n:4 * n] * np.tanh(c)
            assert np.array_equal(gates[t], g), t
            assert np.array_equal(cs[t], c), t
            assert np.array_equal(tcs[t], np.tanh(c)), t
