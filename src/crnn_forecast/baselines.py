"""Naive reference forecasters: last-value propagation and exponential
smoothing of the target row.

Both map a window batch (batch, num_series, input_length) to forecasts
(batch, horizon); the evaluation harness runs them as the ``yesterday`` and
``ewma`` methods. The recurrent baselines are ``models.RecurrentBaseline``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ewma_batch",
    "yesterday_batch",
]


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise ValueError("horizon must be positive")


def yesterday_batch(x: np.ndarray, horizon: int) -> np.ndarray:
    """Propagate each window's last observed target value across the horizon."""
    _check_horizon(horizon)
    return np.repeat(x[:, 0, -1:], horizon, axis=1)


def ewma_batch(x: np.ndarray, smoothing: float, horizon: int) -> np.ndarray:
    """Exponentially weighted moving average of each window's target row.

    s_t = smoothing * x_t + (1 - smoothing) * s_{t-1}, seeded with s_1 = x_1;
    the final smoothed level is propagated across the horizon.
    """
    if not 0.0 < smoothing <= 1.0:
        raise ValueError(f"smoothing factor must be in (0, 1], got {smoothing}")
    _check_horizon(horizon)
    level = x[:, 0, 0].copy()
    for t in range(1, x.shape[2]):
        level = smoothing * x[:, 0, t] + (1.0 - smoothing) * level
    return np.repeat(level[:, None], horizon, axis=1)
