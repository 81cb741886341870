"""The benchmark's three workloads and the checks on their outputs.

``pair``      the paper's two-series setting on a long series: the per-series
              loops have two iterations, so the recurrent cell, Adam and the
              per-window set-up dominate.
``wide``      sixteen correlated series (eight lagged pairs): the per-series
              Conv1D/Deconv1D loops dominate. A series-grouped encoder must
              show here and stay flat on ``pair``.
``forecast``  repeated in-process ``crnn-forecast forecast`` calls on a
              16-column CSV and an untrained checkpoint of the ``wide`` model:
              the read path, with no backward pass and no optimizer.

The seed draws the data (pair, wide) or the requested offsets (forecast);
initial weights and batch order are fixed, so test_rmse moves with the data.
Each workload runs closed loop, with one caller, in the process that imports
this module.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from crnn_forecast import cli, data, evaluation, models, tensor, training

import spans
import speed
from speed import Stopwatch, marks_after
from stats import percentile

INPUT_LENGTH = 32
HORIZON = 8
FILTER_SIZE = 3
BATCH_SIZE = 32
# Training epochs per train() call; patience is set above it, so every call
# ends with max-epochs.
EPOCHS = 1

# Single calls are timed in blocks of this many, with the machine speed read
# at each block boundary (see speed.py).
LATENCY_BLOCK = 20
# Each repetition times batched inference for at least this long and this
# many passes, in calls of INFER_CHUNK windows, with the machine speed read
# between calls.
INFER_REP_S = 0.5
INFER_MIN_PASSES = 3
INFER_CHUNK = 256
# Each training repetition ends with this many blocks of single-window
# forecasts; the last one adds blocks until Spec.calls is reached.
SINGLES_PER_REP = 50
# forecast_ms_p99 is taken over each call's time on the calling thread's CPU,
# unscaled. On a shared VM the wall tail is set by waits off the CPU (the 10
# slowest of 1000 CLI forecasts took 65-114 ms wall for 33-55 ms on the CPU),
# which the program does not cause. Scaling single calls by the speed
# readings, or by their median, widened the spread of this p99 between runs
# (0.21-0.22 against 0.08-0.18 unscaled, over 5 seeds on forecast). It is the
# median of the p99s of consecutive stretches of at least P99_STRETCH calls,
# each with at least 10 calls beyond its p99, so that one stretch of heavy
# host load does not set the tail.
P99_STRETCH = 1000

# Units of the timed end-to-end metrics: scaled to the reference machine
# speed (speed.py), and raw. setup_s is in reference seconds too, but the
# benchmark's contract fixes its unit name as "s". forecast_ms_p99 is not
# scaled (see P99_STRETCH).
TIMED_UNITS = {"setup_s": ("s", "s"), "main_win_per_s": ("1/ref-s", "1/s"),
               "infer_win_per_s": ("1/ref-s", "1/s"), "forecast_ms_p50": ("ref-ms", "ms"),
               "forecast_ms_p99": ("ms", "ms")}

# Single-window forecasts are compared against the batched ones with this
# tolerance: the same arithmetic, summed over a batch of one instead of many.
FORWARD_RTOL = 1e-9

EXPECTED_PATH = Path(__file__).with_name("expected.json")
READING_SPAN = "speed.kernel_seconds"


@dataclass(frozen=True)
class ModelSpec:
    pairs: int      # lagged pairs joined into one set; 1 gives the paper's pair
    length: int     # values per series
    stages: int
    filters: int
    hidden: int
    cell: str


@dataclass(frozen=True)
class Spec:
    model: ModelSpec
    train_frac: float = 0.84  # chronological train+validation share
    calls: int = 1000        # minimum single-window forecasts timed per run
    setup_reps: int = 15     # set-ups per run; setup_s is their median
    trace_calls: int = 200   # single-window forecasts in a traced pass


WIDE_MODEL = ModelSpec(pairs=8, length=4000, stages=2, filters=8, hidden=6, cell="rnn")

WORKLOADS = {
    "pair": Spec(ModelSpec(pairs=1, length=20000, stages=1, filters=4, hidden=4,
                           cell="lstm"), calls=6000),
    "wide": Spec(WIDE_MODEL, train_frac=0.5, setup_reps=25, calls=3000),
    "forecast": Spec(dataclasses.replace(WIDE_MODEL, length=512), setup_reps=40),
}


@dataclass
class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


@dataclass
class Result:
    tally: Tally
    metrics: dict[str, tuple[float, str]]
    notes: list[str]
    raw: dict[str, tuple[float, str]] = field(default_factory=dict)  # raw wall timings


# -- inputs ---------------------------------------------------------------------


def make_series(spec: ModelSpec, seed: int) -> data.CorrelatedSet:
    """``spec.pairs`` lagged pairs with distinct seeds and lags, joined in
    order; the first pair's target is the forecast target."""
    series = []
    for k in range(spec.pairs):
        pair = data.generate_synthetic(data.SyntheticConfig(
            length=spec.length, lag=2 + 2 * k, seed=seed * spec.pairs + k))
        series.extend(data.TimeSeries(f"{s.id}{k}", s.values) for s in pair.series)
    return data.CorrelatedSet(tuple(series))


def model_config(spec: ModelSpec) -> models.ModelConfig:
    """Initial weights are the same for every workload seed, so that test_rmse
    moves with the data and not with the draw of initial weights."""
    return models.ModelConfig(
        num_series=2 * spec.pairs, input_length=INPUT_LENGTH, horizon=HORIZON,
        conv_pool_stages=spec.stages, filters_per_layer=spec.filters,
        filter_size=FILTER_SIZE, rnn_hidden=spec.hidden, cell_kind=spec.cell,
        rnn_layout="sequence", seed=0)


@dataclass
class Prepared:
    train: list
    val: list
    test: list
    norm: data.Normalizer
    config: models.ModelConfig
    train_config: training.TrainConfig


def prepare(spec: Spec, seed: int) -> Prepared:
    """Generate, split, normalize, segment and build the model: the set-up
    that setup_s times on the training workloads."""
    cset = make_series(spec.model, seed)
    train_set, test_set = data.split(cset, spec.train_frac)
    norm = data.Normalizer.fit(train_set)
    windows = data.segment(norm.transform(train_set), INPUT_LENGTH, HORIZON)
    tr, val = data.train_val_split(windows)
    test = data.segment(norm.transform(test_set), INPUT_LENGTH, HORIZON)
    config = model_config(spec.model)
    models.AECRNN(config)
    # the batch order, like the initial weights, is the same for every seed
    train_config = training.TrainConfig(batch_size=BATCH_SIZE, max_epochs=EPOCHS,
                                        patience=EPOCHS + 1, seed=0)
    return Prepared(tr, val, test, norm, config, train_config)


def write_forecast_inputs(spec: Spec, workdir: Path) -> data.CorrelatedSet:
    """The CSV and the untrained checkpoint (with its normalizer) that the
    forecast calls read: the set-up that setup_s times on ``forecast``.

    Both stand for one deployed model and its data file, so they do not
    depend on the workload seed; the seed picks the requested offsets.
    """
    cset = make_series(spec.model, 0)
    train_set, _ = data.split(cset, spec.train_frac)
    norm = data.Normalizer.fit(train_set)
    model = models.AECRNN(model_config(spec.model))
    data.write_csv(cset, workdir / "data.csv")
    models.save_checkpoint(workdir / "checkpoint.txt", model, extra_tensors=norm.tensors())
    return cset


def forecast_offsets(seed: int, length: int):
    """Endless seeded window offsets that leave a full horizon of truth."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, length - INPUT_LENGTH - HORIZON + 1))


# -- accuracy record --------------------------------------------------------------


def load_expected() -> dict:
    try:
        return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def accuracy_problem(expected: dict, workload: str, seed: int, rmse: float) -> str | None:
    """Compare test_rmse with the value recorded at the defining commit.

    A recorded seed must match within ``rel_tol``. Any other seed must fall
    inside the recorded range widened by ``band_margin`` on each side.
    """
    table = expected.get("test_rmse", {}).get(workload)
    if not table:
        return f"no recorded test_rmse for {workload}"
    if str(seed) in table:
        ref = table[str(seed)]
        if abs(rmse - ref) <= expected["rel_tol"] * abs(ref):
            return None
        return f"test_rmse {rmse!r} differs from the recorded {ref!r} for seed {seed}"
    lo, hi = min(table.values()), max(table.values())
    margin = expected["band_margin"]
    if lo / (1.0 + margin) <= rmse <= hi * (1.0 + margin):
        return None
    return f"test_rmse {rmse!r} outside the recorded range [{lo}, {hi}] +/- {margin:.0%}"


# -- the steps the workloads time -------------------------------------------------------


def timed(watch: Stopwatch | None, fn, *args, **kwargs):
    """fn(*args, **kwargs), timed by ``watch`` when there is one."""
    return watch.time(fn, *args, **kwargs) if watch else fn(*args, **kwargs)


def score(prep: Prepared, z: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """RMSE and MAPE in original units."""
    pred, truth = prep.norm.inverse_target(z), prep.norm.inverse_target(y)
    return evaluation.rmse(pred, truth), evaluation.mape_detailed(pred, truth)[0]


def single_forecasts(model, windows, picks, watch: Stopwatch | None = None):
    """One model.forward per picked window; returns the forecasts."""
    values = []
    for i in picks:
        forecast, _ = timed(watch, model.forward, windows[i].input)
        values.append(forecast.values)
    return values


def check_single_forecasts(tally: Tally, values, z: np.ndarray, picks) -> None:
    for v, i in zip(values, picks):
        tally.op(bool(np.isfinite(v).all()) and np.allclose(v, z[i], rtol=FORWARD_RTOL, atol=0),
                 f"single-window forecast of test window {i} differs from the batched one")


def check_train(tally: Tally, report) -> None:
    tally.op(report.stopping_reason == "max-epochs" and len(report.epochs) == EPOCHS,
             f"train() did not run {EPOCHS} epochs to max-epochs: {report.summary()}")


def cli_forecasts(paths: dict[str, Path], offsets, minimum: int, deadline: float,
                  watch: Stopwatch | None = None):
    """Call the CLI until ``minimum`` calls are done and the deadline passed.

    Returns (offsets, exit codes, predictions or None). Reading
    predictions.tsv happens outside the timed call.
    """
    base = ["forecast", "--data", str(paths["csv"]), "--checkpoint", str(paths["ckpt"]),
            "--out", str(paths["out"])]
    pred_path = paths["out"] / "predictions.tsv"
    sink = io.StringIO()
    offs, codes, preds = [], [], []

    def call(argv):
        with contextlib.redirect_stdout(sink):
            return cli.main(argv)

    while len(offs) < minimum or perf_counter() < deadline:
        off = next(offsets)
        argv = base + ["--offset", str(off)]
        code = timed(watch, call, argv)
        sink.seek(0)
        sink.truncate()
        offs.append(off)
        codes.append(code)
        if code == 0:
            rows = pred_path.read_text(encoding="ascii").splitlines()[1:]
            preds.append(np.array([float(r.split("\t")[1]) for r in rows]))
        else:
            preds.append(None)
    return offs, codes, preds


def reference_forecasts(paths: dict[str, Path], offsets, watch: Stopwatch | None = None):
    """What the forecast command must print, computed in-process from the
    same checkpoint and offsets. Returns (predictions, target series)."""
    fields, tensors = models.load_checkpoint(paths["ckpt"])
    model, extras = models.model_from_checkpoint(fields, tensors)
    norm = data.Normalizer.from_tensors(extras)
    cset = data.ingest_csv(paths["csv"])
    out = []
    for off in offsets:
        window = tensor.Tensor(
            norm.transform(cset.slice_time(off, off + INPUT_LENGTH)).values_matrix())
        forecast, _ = timed(watch, model.forward, window)
        out.append(norm.inverse_target(forecast.values))
    return out, cset.target.values


def check_cli_forecasts(tally: Tally, codes, preds, refs) -> None:
    for code, pred, ref in zip(codes, preds, refs):
        tally.op(code == 0 and pred is not None and np.array_equal(pred, ref),
                 f"forecast call exited {code} or its predictions differ from the reference")


def forecast_score(preds, target: np.ndarray, offsets) -> tuple[float, float]:
    """RMSE and MAPE of forecasts against the values that followed each window;
    a failed call (None) scores as NaN."""
    pred = np.stack([np.full(HORIZON, np.nan) if p is None else p for p in preds])
    truth = np.stack([target[o + INPUT_LENGTH:o + INPUT_LENGTH + HORIZON] for o in offsets])
    return evaluation.rmse(pred, truth), evaluation.mape_detailed(pred, truth)[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stretches(times) -> list:
    """``times`` cut into consecutive stretches of at least P99_STRETCH calls."""
    return np.array_split(np.asarray(times), max(1, len(times) // P99_STRETCH))


@dataclass
class Times:
    wall: list[float]   # seconds per call
    cpu: list[float]    # seconds per call on the calling thread's CPU


def p99(seconds) -> float:
    """In ms: the median over stretches of the stretches' p99s."""
    return statistics.median(percentile(part, 99)[0] for part in stretches(seconds)) * 1e3


def latency(times: Times) -> dict:
    return {"forecast_ms_p50": percentile(times.wall, 50, min_beyond=0)[0] * 1e3,
            "forecast_ms_p99": p99(times.cpu)}


def timed_metrics(fn, *watches: Stopwatch) -> tuple[dict, dict]:
    """The timed metrics that ``fn`` computes from the watches' Times: once
    with wall times scaled to the reference speed, once raw, each with its
    unit."""
    scaled = fn(*(Times(w.scaled(), w.cpu) for w in watches))
    raw = fn(*(Times(w.raw, w.cpu) for w in watches))
    return ({k: (v, TIMED_UNITS[k][0]) for k, v in scaled.items()},
            {k: (v, TIMED_UNITS[k][1]) for k, v in raw.items()})


def watch_note(name: str, watch: Stopwatch, what: str) -> str:
    return f"{name}: {what}; machine {watch.mean_factor:.3f}x reference"


def latency_note(watch: Stopwatch, what: str) -> str:
    parts = stretches(watch.raw)
    beyond = min(percentile(part, 99)[2] for part in parts)
    return watch_note("forecast_ms", watch, f"{len(watch.raw)} {what}; p50 of wall time "
                      f"over all; p99 of CPU time, the median over {len(parts)} stretches "
                      f"of at least {min(map(len, parts))} calls, each with at least "
                      f"{beyond} beyond its p99 (raw wall p99 {p99(watch.raw):.4g} ms)")


# -- measured runs ------------------------------------------------------------------


def run_training(name: str, seed: int, seconds: float, expected: dict,
                 spec: Spec | None = None) -> Result:
    spec = spec or WORKLOADS[name]
    tally, notes = Tally(), []
    setups = Stopwatch(block=1)
    for _ in range(spec.setup_reps):
        gc.collect()
        prep = setups.time(prepare, spec, seed)
    x_test, y_test = data.stack_samples(prep.test)
    trains, infers = Stopwatch(block=1), Stopwatch(block=1)
    singles = Stopwatch(block=LATENCY_BLOCK)
    rng = np.random.default_rng(seed)
    per_rep = SINGLES_PER_REP * LATENCY_BLOCK
    first_z = None
    deadline = perf_counter() + seconds
    while not trains.raw or perf_counter() < deadline:
        model = models.AECRNN(prep.config)
        gc.collect()
        with marks_after(training.Adam, "step", trains):
            _, report = trains.time(training.train, model, prep.train, prep.train_config,
                                    val_samples=prep.val)
        check_train(tally, report)
        spent, passes = perf_counter(), 0
        while passes < INFER_MIN_PASSES or perf_counter() - spent < INFER_REP_S:
            passes += 1
            z = np.concatenate([infers.time(model.batch_forecast, x_test[i:i + INFER_CHUNK])
                                for i in range(0, len(x_test), INFER_CHUNK)])
            if first_z is None:
                first_z = z
                rmse, mape = score(prep, z, y_test)
                problem = accuracy_problem(expected, name, seed, rmse)
                tally.op(problem is None, problem)
            tally.op(bool(np.isfinite(z).all()) and np.array_equal(z, first_z),
                     "test forecasts are non-finite or differ between repetitions")
        # single-window forecasts spread over the run, so their tail is not
        # taken from one stretch of the host's load
        while True:
            picks = rng.integers(len(prep.test), size=per_rep)
            values = single_forecasts(model, prep.test, picks, singles)
            check_single_forecasts(tally, values, first_z, picks)
            if perf_counter() < deadline or len(singles.raw) >= spec.calls:
                break

    per_train = len(prep.train) * EPOCHS
    chunks = -(-len(x_test) // INFER_CHUNK)

    def timings(setup, train, infer, single):
        passes = [sum(infer.wall[i:i + chunks]) for i in range(0, len(infer.wall), chunks)]
        return {"setup_s": statistics.median(setup.wall),
                "main_win_per_s": statistics.median(per_train / t for t in train.wall),
                "infer_win_per_s": statistics.median(len(x_test) / t for t in passes),
                **latency(single)}

    metrics, raw = timed_metrics(timings, setups, trains, infers, singles)
    notes.append(watch_note("setup_s", setups, f"median of {len(setups.raw)} set-ups"))
    notes.append(watch_note("main_win_per_s", trains, f"median of {len(trains.raw)} train() "
                            f"calls of {EPOCHS} epoch(s) x {len(prep.train)} windows"))
    notes.append(watch_note("infer_win_per_s", infers, f"median of "
                            f"{len(infers.raw) // chunks} passes of batch_forecast over "
                            f"{len(x_test)} test windows at stride 1, {INFER_CHUNK} per call"))
    notes.append(latency_note(singles, "single-window model.forward calls"))
    notes.append(f"test MAPE: {mape:.6g} %")
    metrics["test_rmse"] = (rmse, "orig-units")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    return Result(tally, metrics, notes, raw)


def forecast_paths(workdir: Path) -> dict[str, Path]:
    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    return {"csv": workdir / "data.csv", "ckpt": workdir / "checkpoint.txt", "out": out}


def run_forecast(seed: int, seconds: float, expected: dict, workdir: Path,
                 spec: Spec | None = None) -> Result:
    spec = spec or WORKLOADS["forecast"]
    tally, notes = Tally(), []
    paths = forecast_paths(workdir)
    setups = Stopwatch(block=1)
    for _ in range(spec.setup_reps):
        gc.collect()
        cset = setups.time(write_forecast_inputs, spec, workdir)
    gc.collect()
    calls = Stopwatch(block=LATENCY_BLOCK)
    offs, codes, preds = cli_forecasts(paths, forecast_offsets(seed, cset.length),
                                       spec.calls, perf_counter() + seconds, calls)
    forwards = Stopwatch(block=LATENCY_BLOCK)
    refs, target = reference_forecasts(paths, offs, forwards)
    check_cli_forecasts(tally, codes, preds, refs)
    # accuracy of the CLI's own predictions over the first spec.calls calls,
    # so it does not depend on speed
    rmse, mape = forecast_score(preds[:spec.calls], target, offs[:spec.calls])
    problem = accuracy_problem(expected, "forecast", seed, rmse)
    tally.op(problem is None, problem)

    def timings(setup, call, forward):
        return {"setup_s": statistics.median(setup.wall),
                "main_win_per_s": len(call.wall) / sum(call.wall),
                "infer_win_per_s": len(forward.wall) / sum(forward.wall),
                **latency(call)}

    metrics, raw = timed_metrics(timings, setups, calls, forwards)
    notes.append(watch_note("setup_s", setups, f"median of {len(setups.raw)} set-ups"))
    notes.append(watch_note("main_win_per_s", calls,
                            f"{len(offs)} CLI forecast calls / their summed time"))
    notes.append(watch_note("infer_win_per_s", forwards, "in-process model.forward on "
                            "the same windows / summed time"))
    notes.append(latency_note(calls, "cli.main forecast calls"))
    notes.append(f"test_rmse, test MAPE ({mape:.6g} %): CLI predictions of the first "
                 f"{spec.calls} calls, untrained model")
    metrics["test_rmse"] = (rmse, "orig-units")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    return Result(tally, metrics, notes, raw)


def recorded_rmse(name: str, seed: int, workdir: Path) -> float:
    """test_rmse as a measured run computes it, without the timing."""
    spec = WORKLOADS[name]
    if name != "forecast":
        return training_pass(spec, seed)["rmse"]
    workdir.mkdir(parents=True, exist_ok=True)
    return forecast_pass(spec, seed, workdir, spec.calls)["rmse"]


# -- traced runs ----------------------------------------------------------------------


def training_pass(spec: Spec, seed: int, watch: Stopwatch | None = None) -> dict:
    """Set-up, one train(), one batched inference and a few single forecasts;
    ``watch`` times each of these calls."""
    prep = timed(watch, prepare, spec, seed)
    model = models.AECRNN(prep.config)
    _, report = timed(watch, training.train, model, prep.train, prep.train_config,
                      val_samples=prep.val)
    x_test, y_test = data.stack_samples(prep.test)
    z = timed(watch, model.batch_forecast, x_test)
    picks = np.random.default_rng(seed).integers(len(prep.test), size=spec.trace_calls)
    values = single_forecasts(model, prep.test, picks, watch)
    rmse, _ = score(prep, z, y_test)
    return {"params": model.get_params_copy(), "report": report, "z": z,
            "single": values, "picks": picks, "rmse": rmse}


def forecast_pass(spec: Spec, seed: int, workdir: Path, calls: int,
                  watch: Stopwatch | None = None) -> dict:
    """Set-up plus ``calls`` CLI forecasts (ended by count, not time); ``watch``
    times the set-up and each call."""
    paths = forecast_paths(workdir)
    cset = timed(watch, write_forecast_inputs, spec, workdir)
    offs, codes, preds = cli_forecasts(paths, forecast_offsets(seed, cset.length),
                                       calls, 0.0, watch)
    rmse, _ = forecast_score(preds, cset.target.values, offs)
    return {"offsets": offs, "codes": codes, "preds": preds, "rmse": rmse}


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, float):
        return a == b or (a != a and b != b)
    return a == b


def _outputs(pass_result: dict) -> dict:
    return {k: v for k, v in pass_result.items() if k != "report"}


def run_traced(name: str, seed: int, expected: dict, workdir: Path,
               spec: Spec | None = None) -> Result:
    """The same pass untraced, traced, and untraced again. Per-layer metrics
    come from the traced pass. Its overhead is taken over the calls each pass
    times, scaled to the reference machine speed, against the faster untraced
    pass, because the first pass of a process also pays warm-up."""
    spec = spec or WORKLOADS[name]
    tally, notes = Tally(), []
    if name == "forecast":
        def one_pass(watch):
            return forecast_pass(spec, seed, workdir, spec.trace_calls, watch)
    else:
        def one_pass(watch):
            with marks_after(training.Adam, "step", watch):
                return training_pass(spec, seed, watch)
    watches = [Stopwatch(block=1) for _ in range(3)]
    gc.collect()
    plain = one_pass(watches[0])
    tracer = spans.Tracer()
    gc.collect()
    with spans.installed(tracer), readings_as_spans(tracer):
        traced = one_pass(watches[1])
    gc.collect()
    again = one_pass(watches[2])
    plain_s, traced_s, again_s = (sum(w.scaled()) for w in watches)
    plain_s = min(plain_s, again_s)
    for other in (traced, again):
        tally.op(_same(_outputs(plain), _outputs(other)),
                 "traced and untraced passes give different outputs")
    if name == "forecast":
        refs, _ = reference_forecasts(forecast_paths(workdir), plain["offsets"])
        check_cli_forecasts(tally, plain["codes"], plain["preds"], refs)
    else:
        check_train(tally, plain["report"])
        check_single_forecasts(tally, plain["single"], plain["z"], plain["picks"])
        problem = accuracy_problem(expected, name, seed, plain["rmse"])
        tally.op(problem is None, problem)

    summary = tracer.summary()
    missing = [s.name for s in spans.SPANS if name in s.fires_on and s.name not in summary]
    tally.op(not missing, f"listed spans never fired: {missing}")
    metrics = {}
    for s in spans.SPANS:
        calls, self_s = summary.get(s.name, (0, 0.0))
        metrics[f"{s.name}.calls"] = (calls, "count")
        metrics[f"{s.name}.self_ms"] = (self_s * 1e3, "ms")
    counts = tracer.counts
    metrics["training.param_arrays"] = (counts["training.param_arrays"], "count")
    metrics["data.windows"] = (counts["data.windows"], "count")
    metrics["data.window_mb"] = (counts["data.window_bytes"] / 1e6, "MB-computed")
    metrics["trace.overhead_pct"] = ((traced_s / plain_s - 1.0) * 100.0, "%")
    notes.append(f"timed calls of the traced pass {traced_s:.3f} ref-s, of the untraced "
                 f"pass {plain_s:.3f} ref-s (raw {sum(watches[1].raw):.3f} s and "
                 f"{min(sum(watches[0].raw), sum(watches[2].raw)):.3f} s); "
                 f"{len(tracer.spans)} spans, {summary.get(READING_SPAN, (0,))[0]} of them "
                 f"speed readings")
    if name != "forecast":
        notes.extend(_train_shares(tracer.spans))
    return Result(tally, metrics, notes)


@contextlib.contextmanager
def readings_as_spans(tracer: spans.Tracer):
    """Record the machine-speed readings of a traced pass as spans of their
    own, so that a reading taken inside train() is not counted in the self
    time of the spans around it."""
    original = speed.kernel_seconds
    speed.kernel_seconds = tracer.wrap(READING_SPAN, original)
    try:
        yield
    finally:
        speed.kernel_seconds = original


def _train_shares(span_list) -> list[str]:
    """Self time inside training.train by layer class, largest first."""
    inside = spans.subtree_self(span_list, "training.train")
    inside.pop(READING_SPAN, None)
    total = sum(inside.values())
    groups: dict[str, float] = {}
    for span_name, s in inside.items():
        parts = span_name.split(".")
        key = parts[1] if parts[0] == "layers" else span_name
        groups[key] = groups.get(key, 0.0) + s
    conv = groups.get("Conv1D", 0.0) + groups.get("Deconv1D", 0.0)
    lines = [f"share of training.train self time: Conv1D+Deconv1D {conv / total:.1%}"]
    lines += [f"  {key:32s} {s / total:6.1%}"
              for key, s in sorted(groups.items(), key=lambda kv: -kv[1])]
    return lines


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    expected = load_expected()
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return run_traced(name, seed, expected, workdir)
        if name == "forecast":
            return run_forecast(seed, seconds, expected, workdir)
        return run_training(name, seed, seconds, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # kept while another run uses it
            workdir.parent.rmdir()
