"""Small statistics and naming helpers shared by the benchmark scripts."""

from __future__ import annotations

import math
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND) -> tuple[float, int, int]:
    """Nearest-rank q-th percentile of the samples.

    Returns (value, sample count, samples strictly beyond the rank). Raises
    ValueError when fewer than ``min_beyond`` samples lie beyond it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be inside (0, 100), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {beyond} beyond it; need {min_beyond}")
    return ordered[rank - 1], n, beyond


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
