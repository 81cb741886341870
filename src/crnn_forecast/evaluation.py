"""Metrics and the experiment harness.

The protocol has three steps. ``ExperimentSpec.prepare`` cuts the windows of
a series set, ``fit`` builds a model for them and trains it with early
stopping on the validation windows, and the held-out test windows are scored
as RMSE/MAPE in original units. The train and gridsearch commands,
``run_experiment`` and ``robustness_experiment`` all train through ``fit``.

The harness scores prepared sets; the caller picks the data. The evaluate
command prepares a fixed dataset once and scores every seed on it, so seeds
vary only the model initialization and batch order; for synthetic data it
draws a new set for each seed (seed k uses data seed base+k), so seeds act
as independent trials. ``run_experiment`` scores one method on a sequence of
(seed, prepared set) runs. ``robustness_experiment`` compares the two
network models when the second input series is helpful, absent, or pure
noise, and prepares each (seed, row) set once for both.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .baselines import ewma_batch, yesterday_batch
from .data import (CorrelatedSet, DataError, Prepared, TimeSeries, make_uncorrelated, prepare,
                   stack_samples)
from .models import MODELS
from .training import TrainConfig, train

__all__ = [
    "METHODS",
    "ExperimentSpec",
    "MetricReport",
    "RobustnessReport",
    "WindowResult",
    "fit",
    "mape_detailed",
    "rmse",
    "robustness_experiment",
    "run_experiment",
]

MAPE_EPSILON = 1e-8
METHODS = ("yesterday", "ewma", *MODELS)


def rmse(pred, truth) -> float:
    """Root mean square error, in whatever units the inputs carry."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"rmse needs equal non-empty sequences, got {p.shape} vs {t.shape}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def mape_detailed(pred, truth, epsilon: float = MAPE_EPSILON) -> tuple[float, int]:
    """Mean absolute percentage error plus the count of skipped terms.

    Terms whose true value is below ``epsilon`` in magnitude are skipped
    instead of blowing up the average; the caller sees how many were dropped.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"mape needs equal non-empty sequences, got {p.shape} vs {t.shape}")
    keep = np.abs(t) >= epsilon
    skipped = int(p.size - keep.sum())
    if skipped == p.size:
        raise ValueError("mape: every true value is below the epsilon guard")
    value = float(100.0 * np.mean(np.abs(p[keep] - t[keep]) / np.abs(t[keep])))
    return value, skipped


@dataclass(frozen=True)
class WindowResult:
    """Metrics for one held-out window, with the raw predictions kept for
    independent recomputation."""

    seed: int
    offset: int
    rmse: float
    mape: float
    mape_skipped: int
    predicted: np.ndarray
    truth: np.ndarray


@dataclass
class ExperimentSpec:
    """The scoring protocol: how a series set is cut into windows, and how a
    method is trained and scored on them. The data are not part of it; the
    caller prepares each set it scores with ``prepare``.

    ``hparams`` holds the model hyper-parameters only, under the names every
    builder in ``models.MODELS`` reads: ``fit`` takes the geometry from the
    prepared windows and the seed from each run.
    """

    input_length: int
    horizon: int
    train_frac: float = 0.84
    val_fraction: float = 0.15
    eval_stride: int | None = None      # default: non-overlapping (l + p)
    train: TrainConfig = field(default_factory=TrainConfig)
    ewma_smoothing: float = 0.3
    hparams: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.eval_stride is not None and self.eval_stride < 1:
            raise ValueError(f"eval_stride must be >= 1, got {self.eval_stride}")

    def prepare(self, cset: CorrelatedSet) -> Prepared:
        """The windows of one series set, test windows at the spec's stride."""
        stride = self.input_length + self.horizon if self.eval_stride is None else self.eval_stride
        return prepare(cset, self.input_length, self.horizon, train_frac=self.train_frac,
                       val_fraction=self.val_fraction, test_stride=stride)


@dataclass
class MetricReport:
    """Aggregated metrics for an experiment cell: mean and std over every
    (seed, window) pair."""

    method: str
    num_series: int
    input_length: int
    horizon: int
    seeds: tuple[int, ...]
    windows: list[WindowResult]
    rmse_mean: float
    rmse_std: float
    mape_mean: float
    mape_std: float
    notes: str

    TABLE_HEADER = ("method\tnum_series\tl\tp\trmse_mean\trmse_std\t"
                    "mape_mean\tmape_std\tseeds\tnotes")

    @classmethod
    def from_windows(cls, spec: ExperimentSpec, method: str, num_series: int,
                     seeds: tuple[int, ...], windows: list[WindowResult]) -> "MetricReport":
        if not windows:
            raise DataError("experiment produced no evaluation windows")
        rmses = np.array([w.rmse for w in windows])
        mapes = np.array([w.mape for w in windows])
        skips = sum(w.mape_skipped for w in windows)
        notes = []
        if len(windows) == 1:
            notes.append("single-window:std=0")
        if skips:
            notes.append(f"mape_skipped={skips}")
        return cls(
            method=method,
            num_series=num_series,
            input_length=spec.input_length,
            horizon=spec.horizon,
            seeds=seeds,
            windows=windows,
            rmse_mean=float(rmses.mean()),
            rmse_std=float(rmses.std()),
            mape_mean=float(mapes.mean()),
            mape_std=float(mapes.std()),
            notes=";".join(notes) or "-",
        )

    def table_row(self) -> str:
        return ("%s\t%d\t%d\t%d\t%.6g\t%.6g\t%.6g\t%.6g\t%s\t%s"
                % (self.method, self.num_series, self.input_length, self.horizon,
                   self.rmse_mean, self.rmse_std, self.mape_mean, self.mape_std,
                   ",".join(str(s) for s in self.seeds), self.notes))


def fit(kind: str, hparams: Mapping[str, object], prepared: Prepared,
        config: TrainConfig):
    """Build a ``kind`` model for ``prepared``'s windows and train it, with
    early stopping on the validation windows. The series count, input length
    and horizon come from the training windows' shape, and the initial
    weights from ``config.seed``; ``hparams`` holds the other model fields.
    Returns the model, left at its best epoch, and its TrainReport."""
    _, num_series, input_length = prepared.train.x.shape
    model = MODELS[kind]({**hparams, "num_series": num_series, "input_length": input_length,
                          "horizon": prepared.train.y.shape[1], "seed": config.seed})
    _, report = train(model, prepared.train, config, val_samples=prepared.val)
    return model, report


def _score(method: str, spec: ExperimentSpec, prepared: Prepared,
           seed: int) -> list[WindowResult]:
    """Fit ``method`` on one prepared set for one seed, and score each test
    window in original units."""
    x_test, y_test = stack_samples(prepared.test)
    if method == "yesterday":
        forecasts = yesterday_batch(x_test, spec.horizon)
    elif method == "ewma":
        forecasts = ewma_batch(x_test, spec.ewma_smoothing, spec.horizon)
    else:
        model, _ = fit(method, spec.hparams, prepared,
                       dataclasses.replace(spec.train, seed=seed))
        forecasts = model.batch_forecast(x_test)
    preds = prepared.norm.inverse_target(forecasts)
    truths = prepared.norm.inverse_target(y_test)
    results = []
    for i, offset in enumerate(prepared.test.offsets.tolist()):
        m_value, m_skipped = mape_detailed(preds[i], truths[i])
        results.append(WindowResult(seed=seed, offset=offset,
                                    rmse=rmse(preds[i], truths[i]),
                                    mape=m_value, mape_skipped=m_skipped,
                                    predicted=preds[i], truth=truths[i]))
    return results


def _write_dumps(out_dir: Path, windows: Sequence[WindowResult]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    by_seed: dict[int, list[WindowResult]] = {}
    for w in windows:
        by_seed.setdefault(w.seed, []).append(w)
    for seed, rows in sorted(by_seed.items()):
        path = out_dir / f"predictions_seed{seed}.tsv"
        lines = ["window_offset\tstep\tpredicted\ttruth"]
        for w in rows:
            for step in range(w.predicted.size):
                lines.append("%d\t%d\t%.17g\t%.17g"
                             % (w.offset, step + 1, w.predicted[step], w.truth[step]))
        path.write_text("\n".join(lines) + "\n", encoding="ascii")


def run_experiment(method: str, spec: ExperimentSpec, runs: Iterable[tuple[int, Prepared]],
                   out_dir: str | Path | None = None) -> MetricReport:
    """Score ``method`` on each run, a (seed, prepared set) pair, under
    ``spec``'s protocol.

    The runs are taken one at a time, so a generator can prepare each set
    when its turn comes; a fixed dataset is prepared once and its windows
    shared by every seed. When ``out_dir`` is given, per-window prediction
    dumps and the report row are persisted there once every run has been
    scored.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
    windows: list[WindowResult] = []
    seeds: list[int] = []
    for seed, prepared in runs:
        windows.extend(_score(method, spec, prepared, seed))
        seeds.append(seed)
    if not seeds:
        raise ValueError("experiment needs at least one run")
    report = MetricReport.from_windows(spec, method, prepared.test.x.shape[1], tuple(seeds),
                                       windows)
    if out_dir is not None:
        out_path = Path(out_dir)
        _write_dumps(out_path, windows)
        (out_path / "report.tsv").write_text(
            MetricReport.TABLE_HEADER + "\n" + report.table_row() + "\n",
            encoding="ascii")
    return report


ROBUSTNESS_ROWS = ("single", "correlated", "uncorrelated")
ROBUSTNESS_MODELS = ("crnn", "aecrnn")


@dataclass
class RobustnessReport:
    """Seed-mean MAPE of both models, keyed by (row, model), when the companion
    series is absent, informative, or deliberately uncorrelated noise."""

    mape: dict[tuple[str, str], float]

    def table(self) -> str:
        lines = ["input\tcrnn_mape\taecrnn_mape"]
        for row in ROBUSTNESS_ROWS:
            lines.append("%s\t%.6g\t%.6g"
                         % (row, self.mape[(row, "crnn")], self.mape[(row, "aecrnn")]))
        return "\n".join(lines) + "\n"


def robustness_experiment(target: TimeSeries, correlated: TimeSeries, spec: ExperimentSpec,
                          seeds: Sequence[int], *,
                          uncorrelated_seed_base: int = 7000) -> RobustnessReport:
    """Evaluate CRNN and AECRNN under three companion-series regimes.

    Rows: the target alone, the target with the genuinely correlated series,
    and the target with a phase-randomized surrogate that matches the
    target's moments but carries no information about it. For each seed,
    each row's set is prepared once under ``spec`` and both models are
    trained and scored on it with that seed. Each cell of the report is the
    mean over the seeds of the per-seed MAPE.
    """
    if not seeds:
        raise ValueError("experiment needs at least one seed")
    per_seed: dict[tuple[str, str], list[float]] = {
        (row, model): [] for row in ROBUSTNESS_ROWS for model in ROBUSTNESS_MODELS}
    for seed in seeds:
        companions = {
            "single": None,
            "correlated": correlated,
            "uncorrelated": make_uncorrelated(target, uncorrelated_seed_base + seed),
        }
        for row, companion in companions.items():
            series = (target,) if companion is None else (target, companion)
            prepared = spec.prepare(CorrelatedSet(series))
            for model in ROBUSTNESS_MODELS:
                windows = _score(model, spec, prepared, seed)
                per_seed[(row, model)].append(float(np.mean([w.mape for w in windows])))
    return RobustnessReport(mape={key: float(np.mean(vals)) for key, vals in per_seed.items()})
