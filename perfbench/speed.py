"""Machine-speed calibration for the benchmark's timings.

On a shared host the whole machine runs faster or slower for seconds at a
time: on the 2-vCPU Xeon VM the first baseline came from, the kernel below
took from 0.8 to 1.7 ms, and over 10 runs of one workload the quartile
spread of a raw wall timing reached 0.45 (baseline.json, ``raw``). The
kernel, which does not use the package, is timed at the boundaries of every
measured block, and each timing in the block is scaled by REFERENCE_S over
the kernel's time around it. That cancels the machine's momentary speed, while a change to the
package shows in full. Scaled timings are in reference seconds (units
``ref-s``, ``ref-ms``, ``1/ref-s``); raw wall times are kept beside them.

The kernel's time does not depend on the code that ran just before it:
read after batched inference, single forwards, train() or a sleep, in
alternation within one process, its medians agree within 2%.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from time import perf_counter, thread_time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The kernel's median time on that VM under its usual load, so that scaled
# timings read close to wall timings there.
REFERENCE_S = 1.5e-3
KERNEL_REPS = 5
# Inside a long call, the machine speed is read again after this many seconds.
SEGMENT_S = 0.05

_W = np.linspace(-1.0, 1.0, 24).reshape(8, 1, 3)
_X = np.linspace(0.0, 1.0, 34).reshape(1, 1, 34)
_XB = np.linspace(0.0, 1.0, 256 * 34).reshape(256, 1, 34)


def kernel() -> int:
    """Interpreter work plus the kind of numpy calls the layers make, on a
    single window and on a batch."""
    s = 0
    for i in range(1000):
        s += i * i
    for _ in range(10):
        y = np.einsum("fck,...clk->...fl", _W, sliding_window_view(_X, 3, axis=-1))
        np.tanh(y) @ y.swapaxes(-1, -2)
    yb = np.einsum("fck,bclk->bfl", _W, sliding_window_view(_XB, 3, axis=-1))
    np.maximum(yb[..., 0::2], yb[..., 1::2]).sum()
    return s


def kernel_seconds() -> float:
    """The kernel's time now: the median of KERNEL_REPS runs."""
    times = []
    for _ in range(KERNEL_REPS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Stopwatch:
    """Times calls and reads the machine speed after every ``block`` calls,
    and inside a call whenever ``mark`` finds SEGMENT_S passed since the last
    reading. Time spent reading is left out of the calls' times. Each call's
    wall time and its time on the calling thread's CPU are both kept."""

    def __init__(self, block: int):
        self.block = block
        self.raw: list[float] = []      # wall seconds per call
        self.cpu: list[float] = []      # seconds per call on the calling thread's CPU
        self.levels = [kernel_seconds()]
        # (call, wall seconds, index of the reading that opened the segment)
        self._segments: list[tuple[int, float, int]] = []
        self._start: tuple[float, float] | None = None  # wall and CPU clocks at its start

    def time(self, fn, *args, **kwargs):
        self.raw.append(0.0)
        self.cpu.append(0.0)
        self._start = (perf_counter(), thread_time())
        try:
            return fn(*args, **kwargs)
        finally:
            self._close_segment()
            self._start = None
            if len(self.raw) % self.block == 0:
                self.levels.append(kernel_seconds())

    def mark(self) -> None:
        """Called from inside a timed call, at a point of the program's loop."""
        if self._start is not None and perf_counter() - self._start[0] >= SEGMENT_S:
            self._close_segment()
            self.levels.append(kernel_seconds())
            self._start = (perf_counter(), thread_time())

    def _close_segment(self) -> None:
        dt, dc = perf_counter() - self._start[0], thread_time() - self._start[1]
        self.raw[-1] += dt
        self.cpu[-1] += dc
        self._segments.append((len(self.raw) - 1, dt, len(self.levels) - 1))

    def scaled(self) -> list[float]:
        """Each call's wall time at the reference speed: every segment times
        REFERENCE_S over the mean kernel time at its two ends (a segment not
        yet closed by a reading uses its start)."""
        out = [0.0] * len(self.raw)
        for call, dt, i in self._segments:
            out[call] += dt * REFERENCE_S / statistics.mean(self.levels[i:i + 2])
        return out

    @property
    def mean_factor(self) -> float:
        """Mean kernel time over the reference, for the report: above 1 means
        the machine ran slower than the reference."""
        return statistics.mean(self.levels) / REFERENCE_S


@contextlib.contextmanager
def marks_after(cls, attr: str, watch: Stopwatch):
    """Let ``watch`` read the machine speed after each call of cls.attr."""
    original = vars(cls)[attr]

    @functools.wraps(original)
    def marked(*args, **kwargs):
        out = original(*args, **kwargs)
        watch.mark()
        return out

    setattr(cls, attr, marked)
    try:
        yield
    finally:
        setattr(cls, attr, original)
