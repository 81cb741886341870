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
(seed, prepared set) runs. A run's test forecasts and truths are kept as
(N, p) arrays in original units, and its per-window RMSE and MAPE as (N,)
arrays. ``robustness_experiment`` takes a series set and compares the two
network models when its second series is helpful, absent, or replaced by
pure noise, and prepares each (seed, row) set once for both.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .baselines import ewma_batch, yesterday_batch
from .data import (TRAIN_FRAC, VAL_FRACTION, CorrelatedSet, DataError, Prepared,
                   make_uncorrelated, prepare, stack_samples)
from .models import MODELS
from .training import TrainConfig, train

__all__ = [
    "METHODS",
    "ExperimentSpec",
    "MetricReport",
    "RobustnessReport",
    "fit",
    "mape_detailed",
    "rmse",
    "robustness_experiment",
    "run_experiment",
]

MAPE_EPSILON = 1e-8
METHODS = ("yesterday", "ewma", *MODELS)
REPORT_FILE = "report.tsv"  # what run_experiment writes its report row to


def rmse(pred, truth) -> float:
    """Root mean square error, in whatever units the inputs carry."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"rmse needs equal non-empty sequences, got {p.shape} vs {t.shape}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def mape_detailed(pred, truth) -> tuple[float, int]:
    """Mean absolute percentage error plus the count of skipped terms.

    Terms whose true value is below MAPE_EPSILON in magnitude are skipped
    instead of blowing up the average; the caller sees how many were dropped.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"mape needs equal non-empty sequences, got {p.shape} vs {t.shape}")
    keep = np.abs(t) >= MAPE_EPSILON
    skipped = int(p.size - keep.sum())
    if skipped == p.size:
        raise ValueError("mape: every true value is below the epsilon guard")
    value = float(100.0 * np.mean(np.abs(p[keep] - t[keep]) / np.abs(t[keep])))
    return value, skipped


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
    train_frac: float = TRAIN_FRAC
    val_fraction: float = VAL_FRACTION
    eval_stride: int | None = None      # default: non-overlapping (l + p)
    train: TrainConfig = field(default_factory=TrainConfig)
    ewma_smoothing: float = 0.3
    hparams: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.eval_stride is not None and self.eval_stride < 1:
            raise ValueError(f"eval_stride must be >= 1, got {self.eval_stride}")
        if not 0.0 < self.ewma_smoothing <= 1.0:
            raise ValueError(f"ewma_smoothing must be in (0, 1], got {self.ewma_smoothing}")

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
    rmse_mean: float
    rmse_std: float
    mape_mean: float
    mape_std: float
    notes: str

    TABLE_HEADER = ("method\tnum_series\tl\tp\trmse_mean\trmse_std\t"
                    "mape_mean\tmape_std\tseeds\tnotes")

    @classmethod
    def from_scores(cls, spec: ExperimentSpec, method: str, num_series: int,
                    seeds: tuple[int, ...], rmses: np.ndarray, mapes: np.ndarray,
                    skips: int) -> "MetricReport":
        """The report of per-window RMSEs and MAPEs, pooled over every
        (seed, window) pair, and of the count of skipped MAPE terms."""
        notes = []
        if rmses.size == 1:
            notes.append("single-window:std=0")
        if skips:
            notes.append(f"mape_skipped={skips}")
        return cls(
            method=method,
            num_series=num_series,
            input_length=spec.input_length,
            horizon=spec.horizon,
            seeds=seeds,
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
    return train(model, prepared.train, config, val_samples=prepared.val)


def _score(method: str, spec: ExperimentSpec, prepared: Prepared,
           seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fit ``method`` on one prepared set for one seed. Returns its test
    forecasts and their truths, each (N, p) in original units. A model
    forecasts one batch of windows per call, so memory stays bounded."""
    x_test, y_test = stack_samples(prepared.test)
    if method == "yesterday":
        forecasts = yesterday_batch(x_test, spec.horizon)
    elif method == "ewma":
        forecasts = ewma_batch(x_test, spec.ewma_smoothing, spec.horizon)
    else:
        model, _ = fit(method, spec.hparams, prepared,
                       dataclasses.replace(spec.train, seed=seed))
        size = spec.train.batch_size
        forecasts = np.concatenate([model.batch_forecast(x_test[start:start + size])
                                    for start in range(0, len(x_test), size)])
    return prepared.norm.inverse_target(forecasts), prepared.norm.inverse_target(y_test)


def _row_metrics(preds: np.ndarray, truths: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The RMSE and the MAPE of each row, and the count of skipped MAPE terms."""
    rmses = np.array([rmse(p, t) for p, t in zip(preds, truths)])
    mapes = [mape_detailed(p, t) for p, t in zip(preds, truths)]
    return rmses, np.array([value for value, _ in mapes]), sum(skipped for _, skipped in mapes)


def _write_dumps(out_dir: Path, scored: Sequence[tuple]) -> None:
    """One predictions_seed{seed}.tsv per (seed, offsets, preds, truths)
    run: a row per forecast step."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for seed, offsets, preds, truths in scored:
        lines = ["window_offset\tstep\tpredicted\ttruth"]
        for offset, pred, truth in zip(offsets.tolist(), preds.tolist(), truths.tolist()):
            lines.extend("%d\t%d\t%.17g\t%.17g" % (offset, step, p, t)
                         for step, (p, t) in enumerate(zip(pred, truth), 1))
        path = out_dir / f"predictions_seed{seed}.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _refuse_repeat(seed: int, earlier: Sequence[int]) -> None:
    if seed in earlier:
        raise ValueError(f"seed {seed} is given twice")


def run_experiment(method: str, spec: ExperimentSpec, runs: Iterable[tuple[int, Prepared]],
                   out_dir: str | Path | None = None) -> MetricReport:
    """Score ``method`` on each run, a (seed, prepared set) pair, under
    ``spec``'s protocol.

    The runs are taken one at a time, so a generator can prepare each set
    when its turn comes; a fixed dataset is prepared once and its windows
    shared by every seed. Each run's per-window RMSE and MAPE are pooled,
    in run order, into the report's means and standard deviations. When
    ``out_dir`` is given, the forecasts and truths of every test window and
    the report row are persisted there once every run has been scored.
    ValueError when a seed repeats.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
    scored = []  # (seed, test offsets, forecasts, truths) of each run
    for seed, prepared in runs:
        _refuse_repeat(seed, [run[0] for run in scored])
        scored.append((seed, prepared.test.offsets, *_score(method, spec, prepared, seed)))
    if not scored:
        raise ValueError("experiment needs at least one run")
    rmses, mapes, skips = _row_metrics(np.concatenate([run[2] for run in scored]),
                                       np.concatenate([run[3] for run in scored]))
    report = MetricReport.from_scores(spec, method, prepared.test.x.shape[1],
                                      tuple(run[0] for run in scored), rmses, mapes, skips)
    if out_dir is not None:
        out_path = Path(out_dir)
        _write_dumps(out_path, scored)
        (out_path / REPORT_FILE).write_text(
            MetricReport.TABLE_HEADER + "\n" + report.table_row() + "\n",
            encoding="ascii")
    return report


ROBUSTNESS_ROWS = ("single", "correlated", "uncorrelated")
ROBUSTNESS_MODELS = ("crnn", "aecrnn")
# seed k's surrogate series is drawn with seed UNCORRELATED_SEED_BASE + k
UNCORRELATED_SEED_BASE = 7000


@dataclass
class RobustnessReport:
    """Seed-mean MAPE of both models, keyed by (row, model), when the companion
    series is absent, informative, or deliberately uncorrelated noise."""

    mape: dict[tuple[str, str], float]

    def table(self) -> str:
        lines = ["\t".join(["input", *(f"{model}_mape" for model in ROBUSTNESS_MODELS)])]
        for row in ROBUSTNESS_ROWS:
            lines.append("\t".join([row, *("%.6g" % self.mape[(row, model)]
                                           for model in ROBUSTNESS_MODELS)]))
        return "\n".join(lines) + "\n"


def robustness_experiment(cset: CorrelatedSet, spec: ExperimentSpec,
                          seeds: Sequence[int]) -> RobustnessReport:
    """Evaluate CRNN and AECRNN on ``cset``'s target under three
    companion-series regimes.

    Rows: the target alone (``cset.take(1)``), the target with the set's
    second, genuinely correlated series (``cset.take(2)``), and the target
    with a phase-randomized surrogate that matches the target's moments but
    carries no information about it (seed UNCORRELATED_SEED_BASE + seed). For
    each seed, each row's set is prepared once under ``spec`` and both models
    are trained and scored on it with that seed. Each cell of the report is
    the mean over the seeds of the per-seed MAPE. DataError when the set has
    fewer than two series, ValueError when a seed repeats.
    """
    if cset.num_series < 2:
        raise DataError("robustness needs a target and a correlated series")
    if not seeds:
        raise ValueError("experiment needs at least one seed")
    for n, seed in enumerate(seeds):
        _refuse_repeat(seed, seeds[:n])
    per_seed: dict[tuple[str, str], list[float]] = {
        (row, model): [] for row in ROBUSTNESS_ROWS for model in ROBUSTNESS_MODELS}
    for seed in seeds:
        surrogate = make_uncorrelated(cset.target, UNCORRELATED_SEED_BASE + seed)
        rows = {
            "single": cset.take(1),
            "correlated": cset.take(2),
            "uncorrelated": CorrelatedSet((cset.target, surrogate)),
        }
        for row, row_set in rows.items():
            prepared = spec.prepare(row_set)
            for model in ROBUSTNESS_MODELS:
                _, mapes, _ = _row_metrics(*_score(model, spec, prepared, seed))
                per_seed[(row, model)].append(float(np.mean(mapes)))
    return RobustnessReport(mape={key: float(np.mean(vals)) for key, vals in per_seed.items()})
