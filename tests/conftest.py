"""Shared test helpers: finite-difference oracles, gradient comparison, and
the environment that recorded float bytes belong to."""

import functools
import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis.errors import InvalidArgument

GOLDEN = Path(__file__).with_name("golden")

# CI runs tier-1 with --hypothesis-profile=ci, so that a failure drawn there
# prints the @reproduce_failure blob that replays it in any checkout. Recent
# Hypothesis versions ship a ci profile of their own (derandomized, with no
# deadline and no database) that prints it already and that they load
# wherever they detect CI; this profile keeps every other setting of that one.
try:
    _HYPOTHESIS_CI = settings.get_profile("ci")
except InvalidArgument:  # a version without it
    _HYPOTHESIS_CI = None
settings.register_profile("ci", _HYPOTHESIS_CI, print_blob=True)


def numeric_grad(loss_fn, arr: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function wrt an array, in place."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        up = loss_fn()
        flat[i] = saved - step
        down = loss_fn()
        flat[i] = saved
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Worst-case relative difference with a floor against fd noise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-6)))


def load_fixed_commands():
    spec = importlib.util.spec_from_file_location("fixed_commands",
                                                  GOLDEN / "fixed_commands.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_fingerprint(path: Path) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split("=", 1) for line in lines if line)


@functools.cache
def fingerprint_difference() -> str | None:
    """None where this environment matches ``golden/FINGERPRINT``; otherwise
    the first field that differs, in words. Float bytes depend on the
    interpreter, numpy and the BLAS kernels, so a test that compares them with
    recorded or reordered arithmetic skips with this message elsewhere."""
    here = load_fixed_commands().fingerprint()
    for key, value in read_fingerprint(GOLDEN / "FINGERPRINT").items():
        if here.get(key) != value:
            return f"recorded with {key}={value}; this environment has {key}={here.get(key)}"
    return None
