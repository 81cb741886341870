"""Span recording for the traced benchmark run.

Spans are recorded from outside the package. For the length of a traced
pass, each public function or method listed in ``SPANS`` is replaced by a
wrapper that records a span (name, start, end, parent) around the original
call. Module-level functions are replaced in every package module that binds
them, because callers look names up in their own module (``cli`` imports
``ingest_csv`` and ``load_checkpoint`` by name). Methods are replaced on the
class, where every instance looks them up.

Spans stay in memory until the pass ends; self time is a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

ALL = ("pair", "wide", "forecast")
TRAINING = ("pair", "wide")

# Modules of the package whose namespaces may bind a traced function.
PACKAGE_MODULES = ("crnn_forecast", "crnn_forecast.tensor", "crnn_forecast.layers",
                   "crnn_forecast.models", "crnn_forecast.data", "crnn_forecast.baselines",
                   "crnn_forecast.training", "crnn_forecast.evaluation", "crnn_forecast.cli")


@dataclass(frozen=True)
class SpanSpec:
    """One traced function: where it lives, which end-to-end metric it
    should move on which workload, and the workloads on which it must fire."""

    module: str          # short module name inside crnn_forecast
    qualname: str        # "func" or "Class.method"
    target: str          # end-to-end metric and workload it should move
    fires_on: tuple[str, ...]

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


def _layer(cls: str, method: str, target: str, fires_on) -> SpanSpec:
    return SpanSpec("layers", f"{cls}.{method}", target, fires_on)


_CONV_TARGET = ("main_win_per_s and infer_win_per_s on wide, forecast_ms_p50 on forecast; "
                "flat on pair")
_RNN_TARGET = "main_win_per_s on pair"

SPANS: tuple[SpanSpec, ...] = (
    *(_layer(c, "forward", _CONV_TARGET, ALL)
      for c in ("Conv1D", "Deconv1D", "MaxPool1D", "ChannelMerge")),
    *(_layer(c, "backward", _CONV_TARGET, TRAINING)
      for c in ("Conv1D", "Deconv1D", "MaxPool1D", "ChannelMerge")),
    _layer("LSTMCell", "forward", _RNN_TARGET, ("pair",)),
    _layer("LSTMCell", "backward", _RNN_TARGET, ("pair",)),
    _layer("RNNCell", "forward", _RNN_TARGET, ("wide", "forecast")),
    _layer("RNNCell", "backward", _RNN_TARGET, ("wide",)),
    _layer("Dense", "forward", "control: negligible everywhere", ALL),
    _layer("Dense", "backward", "control: negligible everywhere", TRAINING),
    SpanSpec("models", "AECRNN.batch_backward",
             "main_win_per_s on pair and wide (head concat/scatter glue)", TRAINING),
    SpanSpec("models", "AECRNN.batch_forecast", "infer_win_per_s on pair and wide", TRAINING),
    SpanSpec("models", "AECRNN.batch_loss", "main_win_per_s on pair and wide (validation)",
             TRAINING),
    SpanSpec("models", "AECRNN.forward", "forecast_ms_p50 on all workloads", ALL),
    SpanSpec("models", "load_checkpoint", "forecast_ms_p50 on forecast", ("forecast",)),
    SpanSpec("models", "model_from_checkpoint", "forecast_ms_p50 on forecast", ("forecast",)),
    SpanSpec("models", "save_checkpoint", "setup_s on forecast", ("forecast",)),
    SpanSpec("training", "train", "main_win_per_s on pair and wide", TRAINING),
    SpanSpec("training", "Adam.step", "main_win_per_s on pair and wide", TRAINING),
    SpanSpec("data", "generate_synthetic", "setup_s on all workloads", ALL),
    SpanSpec("data", "split", "setup_s on all workloads", ALL),
    SpanSpec("data", "Normalizer.transform", "setup_s on pair, forecast_ms_p50 on forecast",
             ALL),
    SpanSpec("data", "segment", "setup_s and peak_rss_mb on pair", TRAINING),
    SpanSpec("data", "train_val_split", "setup_s on pair", TRAINING),
    SpanSpec("data", "stack_samples", "main_win_per_s and peak_rss_mb on pair", TRAINING),
    SpanSpec("data", "ingest_csv", "forecast_ms_p50 on forecast", ("forecast",)),
    SpanSpec("data", "write_csv", "setup_s on forecast", ("forecast",)),
    SpanSpec("tensor", "Tensor.__init__", "setup_s on pair (one call per window)", ALL),
    SpanSpec("evaluation", "rmse", "computes test_rmse; negligible", ALL),
    SpanSpec("evaluation", "mape_detailed", "computes test MAPE; negligible", ALL),
    SpanSpec("cli", "main", "forecast_ms_p50 on forecast (one root span per call)",
             ("forecast",)),
    SpanSpec("cli", "write_manifest", "forecast_ms_p50 on forecast", ("forecast",)),
)

# Counts recorded at the same boundaries: (name, unit, target).
COUNTS = (
    ("training.param_arrays", "count",
     "arrays Adam walks per step (17 on pair, 165 on wide); main_win_per_s"),
    ("data.windows", "count", "windows cut by segment; setup_s and peak_rss_mb on pair"),
    ("data.window_mb", "MB-computed",
     "bytes copied into per-window tensors and stacked batches, computed from shapes"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for spec in SPANS:
        out.append((f"{spec.name}.calls", "count"))
        out.append((f"{spec.name}.self_ms", "ms"))
    out.extend((name, unit) for name, unit, _ in COUNTS)
    out.append(("trace.overhead_pct", "%"))
    return out


def per_layer_targets() -> dict[str, str]:
    """Per-layer metric name -> the end-to-end metric and workload it should move."""
    out = {}
    for spec in SPANS:
        for suffix in ("calls", "self_ms"):
            out[f"{spec.name}.{suffix}"] = f"{spec.target}; fires on {', '.join(spec.fires_on)}"
    out.update((name, target) for name, _, target in COUNTS)
    out["trace.overhead_pct"] = "cost of tracing against the untraced pass"
    return out


class Tracer:
    """Collects spans and counts in memory for one traced pass.

    Span fields live in parallel lists of numbers, so recording a span adds
    no object for the garbage collector to walk.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []    # index of the parent span, -1 for a root
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    @property
    def spans(self) -> list[tuple[str, float, float, int]]:
        """(name, start, end, parent) per span, in start order."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def summary(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        calls: Counter = Counter()
        own: defaultdict = defaultdict(float)
        for name, self_s in zip(self.names, self_times(self.spans)):
            calls[name] += 1
            own[name] += self_s
        return {name: (calls[name], own[name]) for name in calls}


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: defaultdict = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def subtree_self(spans, root_name: str) -> dict[str, float]:
    """Self seconds by span name inside every span named root_name,
    the roots included."""
    own = self_times(spans)
    inside = [False] * len(spans)
    totals: defaultdict = defaultdict(float)
    for i, (name, _, _, parent) in enumerate(spans):
        # parents precede their children in the list
        inside[i] = name == root_name or (parent >= 0 and inside[parent])
        if inside[i]:
            totals[name] += own[i]
    return dict(totals)


# -- counts observed at span boundaries ----------------------------------------


def _count_segment(counts, args, windows) -> None:
    counts["data.windows"] += len(windows)
    if windows:
        counts["data.window_bytes"] += len(windows) * windows[0].input.array.nbytes


def _count_stack(counts, args, result) -> None:
    x, y = result
    counts["data.window_bytes"] += x.nbytes + y.nbytes


def _count_adam(counts, args, result) -> None:
    counts["training.param_arrays"] = max(counts["training.param_arrays"], len(args[1]))


_OBSERVERS = {
    "data.segment": _count_segment,
    "data.stack_samples": _count_stack,
    "training.Adam.step": _count_adam,
}


class installed:
    """Context manager that routes every SPANS entry through a tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def __enter__(self) -> Tracer:
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        try:
            for spec in SPANS:
                self._patch(spec, modules)
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, spec: SpanSpec, modules) -> None:
        owner = importlib.import_module(f"crnn_forecast.{spec.module}")
        observe = _OBSERVERS.get(spec.name)
        if "." in spec.qualname:
            cls_name, attr = spec.qualname.split(".")
            cls = getattr(owner, cls_name)
            original = getattr(cls, attr)
            own = attr in vars(cls)
            setattr(cls, attr, self.tracer.wrap(spec.name, original, observe))
            self._undo.append((cls, attr, original if own else None))
            return
        original = getattr(owner, spec.qualname)
        wrapper = self.tracer.wrap(spec.name, original, observe)
        for module in modules:
            if vars(module).get(spec.qualname) is original:
                setattr(module, spec.qualname, wrapper)
                self._undo.append((module, spec.qualname, original))

    def _restore(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            if original is None:
                delattr(target, attr)   # the method was inherited
            else:
                setattr(target, attr, original)
