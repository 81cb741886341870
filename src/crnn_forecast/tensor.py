"""Shared numeric pieces: the error types, the logistic function, and an
immutable per-window array.

The layer stack computes on raw float64 ndarrays (see ``layers``).
:class:`Tensor` wraps one read-only window of rank 1-3, checked for
finiteness when it is built; ``data.WindowSample`` carries one as its input.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumericError",
    "ShapeError",
    "Tensor",
    "sigmoid_values",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


def sigmoid_values(x: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function on a raw ndarray, as 0.5 * (1 + tanh(x / 2)).

    tanh never overflows, so no input needs a branch of its own. The
    absolute error against the exact logistic is at most 2**-53 (1.03e-16
    at most over [-60, 60] against an ``np.longdouble`` reference). The sum
    1 + tanh(x / 2) cancels for strongly negative x, so the result is exactly
    0 below about x = -38, where the exact value is about 3.2e-17 or less. Every
    value lies in [0, 1]; +-0 gives 0.5, +inf 1, -inf 0 and NaN NaN.

    ``out``, a float64 array of x's shape, takes the result; it may be x.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


class Tensor:
    """Immutable dense array of 64-bit reals with rank 1, 2, or 3.

    Data is stored row-major. Instances are safe to share across threads.
    """

    __slots__ = ("_a",)

    def __init__(self, values):
        a = np.array(values, dtype=np.float64)
        if a.ndim < 1 or a.ndim > 3:
            raise ShapeError(f"tensor rank must be 1..3, got rank {a.ndim}")
        if a.size == 0:
            raise ShapeError("tensor extents must be positive")
        if not np.isfinite(a).all():
            raise NumericError("tensor construction: non-finite values")
        a.setflags(write=False)
        self._a = a

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only ndarray."""
        return self._a
