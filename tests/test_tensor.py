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


# float64 bit patterns: any at all, then NaN payloads, subnormals and zeros,
# infinities, and inputs near where exp overflows (709.78) and where exp(-|x|)
# underflows to 0 (745.13), each with either sign
_FLOAT64_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(lambda sign, frac: sign | _EXPONENT | frac, _SIGNS, st.integers(1, _FRACTION)),
    st.builds(lambda sign, frac: sign | frac, _SIGNS, st.integers(0, _FRACTION)),
    st.builds(lambda sign: sign | _EXPONENT, _SIGNS),
    st.builds(lambda sign, x: sign | _float_bits(x), _SIGNS,
              st.floats(709.7, 709.9) | st.floats(745.0, 745.3)),
)


def bool_numerator_sigmoid(x):
    """sigmoid_values as it was before the float64 sign: its numerator is
    max(e, x >= 0), a maximum of float64 with bool."""
    e = np.copysign(x, -1.0)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0)
    e += 1.0
    return np.divide(num, e, out=num)


def raises_under(kind, f, x) -> bool:
    """Whether f(x) raises with only numpy's `kind` error set to raise."""
    with np.errstate(all="ignore", **{kind: "raise"}):
        try:
            f(x)
        except FloatingPointError:
            return True
    return False


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

    @given(arrays(np.float64, st.integers(1, 32), elements=st.floats(allow_nan=False)))
    @example(np.array([0.0, -0.0, np.inf, -np.inf, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308]))
    def test_same_bits_as_the_masked_formula(self, x):
        reference = np.empty_like(x)
        pos = x >= 0
        reference[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        reference[~pos] = ex / (1.0 + ex)
        assert sigmoid_values(x).tobytes() == reference.tobytes()

    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=8),
                  elements=st.one_of(st.floats(-40.0, 40.0),
                                     st.floats(allow_nan=True, allow_subnormal=True))))
    @example(np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                       -2.2250738585072009e-308, 745.2, -745.2, 746.0, -746.0,
                       1e300, -1e300, np.inf, -np.inf, np.nan]))
    def test_same_bits_as_the_two_branch_formula(self, x):
        e = np.exp(-np.abs(x))
        reference = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        out = sigmoid_values(x)
        assert out.shape == x.shape
        assert out.tobytes() == reference.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.uint64, array_shapes(min_dims=1, max_dims=2, max_side=12),
                  elements=_FLOAT64_BITS))
    @example(np.array([_float_bits(v) for v in (0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf,
                                                709.782712893384, -709.782712893384,
                                                745.1332191019411, -745.1332191019411)]
                      + [_EXPONENT | 1, _SIGN | _EXPONENT | _FRACTION], dtype=np.uint64))
    def test_same_bits_and_errors_as_the_bool_numerator(self, bits):
        x = bits.view(np.float64)
        with np.errstate(all="ignore"):
            reference = bool_numerator_sigmoid(x)
            assert sigmoid_values(x).tobytes() == reference.tobytes()
            out, scratch = np.empty_like(x), np.empty_like(x)
            assert sigmoid_values(x, out=out, scratch=scratch) is out
            assert out.tobytes() == reference.tobytes()
        assert x.tobytes() == bits.tobytes()
        for kind in ("invalid", "over", "under", "divide"):
            assert (raises_under(kind, sigmoid_values, x)
                    == raises_under(kind, bool_numerator_sigmoid, x)), kind
