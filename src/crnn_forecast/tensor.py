"""Shared numeric pieces: the error types, the stable logistic function, and
an immutable per-window array.

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


def sigmoid_values(x: np.ndarray, *, out: np.ndarray | None = None,
                   scratch: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function on a raw ndarray.

    Both branches use e = exp(-|x|), which never overflows: 1 / (1 + e) for
    x >= 0 and e / (1 + e) below zero. The branch picks the numerator of one
    shared division, which rounds as each branch's own division would. As
    0 <= e <= 1, that numerator is max(e, sign(x)): x > 0 gives 1; x = +-0
    gives e = 1, the tie; x < 0 gives e, as e >= 0 > -1; and a NaN in x is a
    NaN in e and in sign(x), so in the result. The float64 sign, rather than
    the bool x >= 0, keeps the maximum off numpy's bool-to-float casting
    loop; the bits are the same.

    ``out`` takes the result and ``scratch`` the exponentials, both float64
    arrays of x's shape, so that a caller in a loop allocates nothing;
    ``scratch`` must share no memory with x or ``out``.
    """
    e = np.copysign(x, -1.0, out=scratch)
    np.exp(e, out=e)
    num = np.sign(x, out=out)
    np.maximum(e, num, out=num)
    e += 1.0
    return np.divide(num, e, out=num)


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
