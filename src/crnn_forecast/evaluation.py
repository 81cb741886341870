"""Metrics and the experiment harness.

The protocol has three steps. ``data.prepare`` cuts the windows of a series
set, ``fit`` builds a model for them and trains it with early stopping on the
validation windows, and the held-out test windows are scored as RMSE/MAPE in
original units. The train and gridsearch commands, ``run_experiment`` and
``robustness_experiment`` all train through ``fit``, and each prepares a set
once: gridsearch shares it among its cells, and robustness scores both
models on each (seed, row) set.

``run_experiment`` runs the protocol for one method across seeds.
``robustness_experiment`` compares the two network models when the second
input series is helpful, absent, or pure noise. For synthetic sources each
seed regenerates the dataset (seed k uses data seed base+k), so seeds act as
independent trials; a given dataset is fixed and seeds vary only the model
initialization and batch order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .baselines import ewma_batch, yesterday_batch
from .data import (CorrelatedSet, DataError, Prepared, SyntheticConfig, TimeSeries,
                   generate_synthetic, make_uncorrelated, prepare, stack_samples)
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
    """One experiment cell: a method, a problem setting, and a data source.

    The source is ``dataset`` when it is given, else ``data``; its first
    ``num_series`` series are used. ``hparams`` holds the model
    hyper-parameters only, under the names every builder in ``models.MODELS``
    reads: ``fit`` takes the geometry from the prepared windows and the seed
    of each run from ``seeds``.
    """

    method: str
    num_series: int
    input_length: int
    horizon: int
    data: SyntheticConfig | None = None
    dataset: CorrelatedSet | None = None
    seeds: tuple[int, ...] = (0,)
    train_frac: float = 0.84
    val_fraction: float = 0.15
    eval_stride: int | None = None      # default: non-overlapping (l + p)
    train: TrainConfig = field(default_factory=TrainConfig)
    ewma_smoothing: float = 0.3
    hparams: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick one of {METHODS}")
        if self.num_series < 1:
            raise ValueError(f"num_series must be >= 1, got {self.num_series}")
        self.seeds = tuple(self.seeds)
        if not self.seeds:
            raise ValueError("experiment needs at least one seed")
        if self.eval_stride is not None and self.eval_stride < 1:
            raise ValueError(f"eval_stride must be >= 1, got {self.eval_stride}")


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
    def from_windows(cls, spec: ExperimentSpec, windows: list[WindowResult]) -> "MetricReport":
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
            method=spec.method,
            num_series=spec.num_series,
            input_length=spec.input_length,
            horizon=spec.horizon,
            seeds=spec.seeds,
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


def _load_data(spec: ExperimentSpec, seed: int) -> CorrelatedSet:
    if spec.dataset is not None:
        cset = spec.dataset
    elif spec.data is not None:
        cfg = dataclasses.replace(spec.data, seed=spec.data.seed + seed)
        cset = generate_synthetic(cfg)
    else:
        raise ValueError("experiment needs a synthetic config or a dataset")
    return cset.take(spec.num_series)


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


def _prepare_set(spec: ExperimentSpec, cset: CorrelatedSet) -> Prepared:
    """The spec's windows of one series set, test windows at its stride."""
    stride = spec.input_length + spec.horizon if spec.eval_stride is None else spec.eval_stride
    return prepare(cset, spec.input_length, spec.horizon, train_frac=spec.train_frac,
                   val_fraction=spec.val_fraction, test_stride=stride)


def _score(spec: ExperimentSpec, prepared: Prepared, seed: int) -> list[WindowResult]:
    """Fit the spec's method on one prepared set for one seed, and score each
    test window in original units."""
    x_test, y_test = stack_samples(prepared.test)
    if spec.method == "yesterday":
        forecasts = yesterday_batch(x_test, spec.horizon)
    elif spec.method == "ewma":
        forecasts = ewma_batch(x_test, spec.ewma_smoothing, spec.horizon)
    else:
        model, _ = fit(spec.method, spec.hparams, prepared,
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


def run_experiment(spec: ExperimentSpec, out_dir: str | Path | None = None) -> MetricReport:
    """Train and evaluate one experiment cell across its seeds.

    When ``out_dir`` is given, per-window prediction dumps and the report row
    are persisted there.
    """
    windows: list[WindowResult] = []
    for seed in spec.seeds:
        windows.extend(_score(spec, _prepare_set(spec, _load_data(spec, seed)), seed))
    report = MetricReport.from_windows(spec, windows)
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


def robustness_experiment(target: TimeSeries, correlated: TimeSeries,
                          template: ExperimentSpec, *,
                          uncorrelated_seed_base: int = 7000) -> RobustnessReport:
    """Evaluate CRNN and AECRNN under three companion-series regimes.

    Rows: the target alone, the target with the genuinely correlated series,
    and the target with a phase-randomized surrogate that matches the
    target's moments but carries no information about it. Each (seed, row)
    set is prepared once, as ``template`` sets out, and both models are
    trained and scored on it with that seed; the template's method, series
    count and data source are not used.
    """
    per_seed: dict[tuple[str, str], dict[int, float]] = {
        (row, model): {} for row in ROBUSTNESS_ROWS for model in ROBUSTNESS_MODELS}
    specs = [dataclasses.replace(template, method=model) for model in ROBUSTNESS_MODELS]
    for seed in template.seeds:
        companions = {
            "single": None,
            "correlated": correlated,
            "uncorrelated": make_uncorrelated(target, uncorrelated_seed_base + seed),
        }
        for row, companion in companions.items():
            series = (target,) if companion is None else (target, companion)
            prepared = _prepare_set(template, CorrelatedSet(series))
            for spec in specs:
                windows = _score(spec, prepared, seed)
                per_seed[(row, spec.method)][seed] = float(
                    np.mean([w.mape for w in windows]))
    pooled = {key: float(np.mean(list(vals.values())))
              for key, vals in per_seed.items()}
    return RobustnessReport(mape=pooled)
