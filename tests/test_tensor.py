import numpy as np
import pytest
from hypothesis import example, given, strategies as st
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
