"""Dense array substrate: immutable 64-bit tensors of rank 1-3, row-major.

Everything the layer stack computes on is carried by :class:`Tensor` at
module boundaries. Construction validates shape and finiteness, so a NaN or
Inf produced anywhere surfaces as a :class:`NumericError` instead of
propagating silently into metrics.
"""

from __future__ import annotations

from typing import Sequence

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


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function on a raw ndarray.

    Both branches use e = exp(-|x|), which never overflows: 1 / (1 + e) for
    x >= 0 and e / (1 + e) below zero.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class Tensor:
    """Immutable dense array of 64-bit reals with rank 1, 2, or 3.

    Data is stored row-major. Instances are safe to share across threads.
    """

    __slots__ = ("_a",)

    def __init__(self, values, shape: Sequence[int] | None = None):
        a = np.array(values, dtype=np.float64)
        if shape is not None:
            try:
                a = a.reshape(tuple(int(d) for d in shape))
            except ValueError as exc:
                raise ShapeError(
                    f"cannot shape {a.size} values into {tuple(shape)}"
                ) from exc
        if a.ndim < 1 or a.ndim > 3:
            raise ShapeError(f"tensor rank must be 1..3, got rank {a.ndim}")
        if a.size == 0:
            raise ShapeError("tensor extents must be positive")
        if not np.isfinite(a).all():
            raise NumericError("tensor construction: non-finite values")
        a.setflags(write=False)
        self._a = a

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only ndarray."""
        return self._a

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, data={self._a!r})"
