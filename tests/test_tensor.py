import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from crnn_forecast.tensor import NumericError, ShapeError, Tensor, sigmoid_values


class TestTensor:
    def test_shape_and_flat_data(self):
        t = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert t.array.shape == (2, 3) and t.array.dtype == np.float64
        assert t.array.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    def test_rank_limits(self):
        Tensor([1.0])
        Tensor([[1.0]])
        Tensor([[[1.0]]])
        with pytest.raises(ShapeError):
            Tensor([[[[1.0]]]])
        with pytest.raises(ShapeError):
            Tensor(np.float64(1.0))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            Tensor([1.0, float("nan")])
        with pytest.raises(NumericError):
            Tensor([float("inf"), 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            Tensor([])

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.array[0] = 5.0


_SIGN = 1 << 63
_EXPONENT = 0x7FF << 52
_FRACTION = (1 << 52) - 1
_SIGNS = st.sampled_from([0, _SIGN])


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


# float64 bit patterns: any at all (nearly all below 1e-10 or above 1e10 in
# magnitude), then NaN payloads, subnormals and zeros, infinities, and the
# inputs where the logistic is neither 0 nor 1 to float64 precision, each
# with either sign
_FLOAT64_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(lambda sign, frac: sign | _EXPONENT | frac, _SIGNS, st.integers(1, _FRACTION)),
    st.builds(lambda sign, frac: sign | frac, _SIGNS, st.integers(0, _FRACTION)),
    st.builds(lambda sign: sign | _EXPONENT, _SIGNS),
    st.builds(lambda sign, x: sign | _float_bits(x), _SIGNS, st.floats(0.0, 60.0)),
)

# the error bound needs a reference more precise than float64
_LONGDOUBLE_IS_WIDER = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant


def longdouble_logistic(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x.astype(np.longdouble)))


class TestSigmoidValues:
    def test_sigmoid_symmetry_point(self):
        assert sigmoid_values(np.array([0.0]))[0] == 0.5

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=16))
    def test_sigmoid_strictly_inside_unit_interval(self, values):
        out = sigmoid_values(np.array(values))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = sigmoid_values(np.array([-700.0, 700.0]))
        assert np.isfinite(out).all()

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.uint64, array_shapes(min_dims=1, max_dims=2, max_side=12),
                  elements=_FLOAT64_BITS))
    @example(np.array([_float_bits(v) for v in (0.0, -0.0, 5e-324, -5e-324,
                                                2.2250738585072014e-308, 1.0, -1.0,
                                                17.57892, -37.9806, -38.5, 745.2, -745.2,
                                                1e308, -1e308, np.inf, -np.inf)]
                      + [_EXPONENT | 1, _SIGN | _EXPONENT | _FRACTION], dtype=np.uint64))
    def test_the_docstrings_contract(self, bits):
        x = bits.view(np.float64)
        nan = np.isnan(x)
        with np.errstate(all="ignore"):
            out = sigmoid_values(x)
            aliased = x.copy()
            assert sigmoid_values(aliased, out=aliased) is aliased
        assert x.tobytes() == bits.tobytes()
        assert out.shape == x.shape and out.dtype == np.float64
        assert aliased.tobytes() == out.tobytes()
        assert np.array_equal(np.isnan(out), nan)
        assert np.all((out[~nan] >= 0.0) & (out[~nan] <= 1.0))
        assert np.all(out[x == 0.0] == 0.5)
        assert np.all(out[x == np.inf] == 1.0) and np.all(out[x == -np.inf] == 0.0)
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            sigmoid_values(x[~nan])
        if _LONGDOUBLE_IS_WIDER:
            error = np.abs(out[~nan].astype(np.longdouble) - longdouble_logistic(x[~nan]))
            assert np.all(error <= 2.0**-53), float(error.max())
