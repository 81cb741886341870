import numpy as np
import pytest

from conftest import numeric_grad, rel_error
from crnn_forecast.layers import (ChannelMerge, Conv1D, Deconv1D, Dense,
                                  LSTMCell, MaxPool1D, RNNCell)
from crnn_forecast.tensor import ShapeError

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


class TestMaxPool1D:
    def test_window_maxima(self):
        y, _ = MaxPool1D().forward(np.array([[2.0, 5.0, 1.0, 3.0]]))
        assert y.tolist() == [[5.0, 3.0]]

    def test_tie_takes_first(self):
        pool = MaxPool1D()
        y, cache = pool.forward(np.array([[7.0, 7.0, 0.0, 0.0]]))
        assert y.tolist() == [[7.0, 0.0]]
        assert pool.argmax_indices(cache).tolist() == [[0, 2]]

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
        xs = [np.zeros(2) for _ in range(4)]
        hs, final, _ = cell.forward(xs)
        assert not final.any()
        assert all(not h.any() for h in hs)

    def test_single_step_equals_cell_application(self):
        rng = np.random.default_rng(1)
        cell = RNNCell(3, 4, rng)
        x = rng.uniform(-1, 1, 3)
        _, final, _ = cell.forward([x])
        assert np.array_equal(final, cell.step(x, np.zeros(4)))

    def test_hidden_values_bounded(self):
        rng = np.random.default_rng(2)
        cell = RNNCell(2, 3, rng)
        xs = [rng.uniform(-5, 5, 2) for _ in range(10)]
        hs, _, _ = cell.forward(xs)
        for h in hs:
            assert np.all(np.abs(h) < 1.0)

    def test_step_length_mismatch(self):
        cell = RNNCell(2, 3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            cell.forward([np.zeros(2), np.zeros(3)])

    @pytest.mark.parametrize("seed", range(10))
    def test_bptt_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cell = RNNCell(2, 3, rng)
        xs = [rng.uniform(-1, 1, 2) for _ in range(3)]
        coeffs = rng.uniform(-1, 1, 3)

        def loss():
            _, final, _ = cell.forward(xs)
            return float(np.sum(final * coeffs))

        _, _, cache = cell.forward(xs)
        gxs, _, grads = cell.backward(cache, coeffs)
        assert rel_error(grads["w_xh"], numeric_grad(loss, cell.w_xh)) < FD_TOL
        assert rel_error(grads["w_hh"], numeric_grad(loss, cell.w_hh)) < FD_TOL
        assert rel_error(grads["b"], numeric_grad(loss, cell.b)) < FD_TOL
        for t in range(3):
            assert rel_error(gxs[t], numeric_grad(loss, xs[t])) < FD_TOL


class TestLSTMCell:
    def test_zero_weights_hand_recurrence(self):
        cell = LSTMCell(2, 3, np.random.default_rng(0))
        cell.w_x[...] = 0.0
        cell.w_h[...] = 0.0
        h, c, (gi, gf, gc, go) = cell.step(np.zeros(2), np.zeros(3), np.zeros(3))
        # all gates sigmoid(0) = 0.5, candidate tanh(0) = 0:
        # c' = 0.5*0 + 0.5*0 = 0, h' = 0.5*tanh(0) = 0
        assert np.allclose(gi, 0.5) and np.allclose(gf, 0.5) and np.allclose(go, 0.5)
        assert not gc.any() and not c.any() and not h.any()

    def test_single_step_equals_cell_application(self):
        rng = np.random.default_rng(3)
        cell = LSTMCell(2, 3, rng)
        x = rng.uniform(-1, 1, 2)
        _, final, _ = cell.forward([x])
        h, _, _ = cell.step(x, np.zeros(3), np.zeros(3))
        assert np.array_equal(final, h)

    def test_gate_ranges_and_finite_cell_state(self):
        rng = np.random.default_rng(4)
        cell = LSTMCell(2, 3, rng)
        xs = [rng.uniform(-3, 3, 2) for _ in range(20)]
        _, final, steps = cell.forward(xs)
        for _, _, _, (gi, gf, gc, go), c_new in steps:
            for g in (gi, gf, go):
                assert np.all(g > 0.0) and np.all(g < 1.0)
            assert np.isfinite(c_new).all()
        assert np.isfinite(final).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_bptt_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        cell = LSTMCell(2, 3, rng)
        xs = [rng.uniform(-1, 1, 2) for _ in range(3)]
        coeffs = rng.uniform(-1, 1, 3)

        def loss():
            _, final, _ = cell.forward(xs)
            return float(np.sum(final * coeffs))

        _, _, cache = cell.forward(xs)
        gxs, _, grads = cell.backward(cache, coeffs)
        assert rel_error(grads["w_x"], numeric_grad(loss, cell.w_x)) < FD_TOL
        assert rel_error(grads["w_h"], numeric_grad(loss, cell.w_h)) < FD_TOL
        assert rel_error(grads["b"], numeric_grad(loss, cell.b)) < FD_TOL
        for t in range(3):
            assert rel_error(gxs[t], numeric_grad(loss, xs[t])) < FD_TOL
