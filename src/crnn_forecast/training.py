"""Mini-batch gradient descent with early stopping and gradient verification.
Every pass that takes no gradient runs SCORE_WINDOWS windows per call."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import Windows, stack_samples
from .tensor import NumericError

__all__ = [
    "Adam",
    "EpochStats",
    "GradcheckReport",
    "OPTIMIZERS",
    "Sgd",
    "TrainConfig",
    "TrainReport",
    "gradcheck",
    "mean_j1",
    "train",
]

log = logging.getLogger(__name__)

# Adam's moment decay rates and the guard added to its denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
GRADCHECK_STEP = 1e-6  # gradcheck's central-difference step
GRADCHECK_TOLERANCE = 1e-5  # the relative error above which gradcheck fails
OPTIMIZERS = ("adam", "sgd")  # in the order the CLI lists them; the first is the default
SCORE_WINDOWS = 128  # windows per call of a pass that takes no gradient


@dataclass
class TrainConfig:
    """Optimization settings; the paper-side models leave these open."""

    optimizer: str = OPTIMIZERS[0]
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, got "
                             f"{self.learning_rate}")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, max_epochs and patience must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class Sgd:
    def __init__(self, learning_rate: float):
        self.lr = learning_rate

    def step(self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        for name, p in params.items():
            p -= self.lr * grads[name]


class Adam:
    """Adam over a fixed set of named parameters, with the decay rates
    ADAM_BETA1 and ADAM_BETA2 and the denominator guard ADAM_EPSILON.

    The moments of every parameter live in one flat vector each, laid out
    in the order of the first ``step``'s params. A step concatenates the
    gradients once, forms the update on the flat vector with the same
    elementwise arithmetic as a per-array loop, and subtracts each
    parameter's slice from it in place.
    """

    def __init__(self, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self._names: tuple[str, ...] = ()
        self._m = self._v = self._update = np.empty(0)
        self._slices: list[np.ndarray] = []

    def _lay_out(self, params: Mapping[str, np.ndarray]) -> None:
        self._names = tuple(params)
        size = sum(p.size for p in params.values())
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._update = np.empty(size)
        self._slices = []
        start = 0
        for p in params.values():
            self._slices.append(self._update[start:start + p.size].reshape(p.shape))
            start += p.size

    def step(self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        if self.t == 0:
            self._lay_out(params)
        elif tuple(params) != self._names:
            raise ValueError(f"Adam was laid out for parameters {self._names}, "
                             f"got {tuple(params)}")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        g = np.concatenate([grads[name] for name in self._names], axis=None)
        m, v = self._m, self._v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        np.divide(self.lr * (m / bias1), np.sqrt(v / bias2) + ADAM_EPSILON, out=self._update)
        for p, update in zip(params.values(), self._slices):
            p -= update


def _make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return Sgd(config.learning_rate)
    return Adam(config.learning_rate)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    j1: float
    j2: float
    val_j1: float

    @property
    def j(self) -> float:
        return self.j1 + self.j2


@dataclass
class TrainReport:
    """Per-epoch objective trace plus the early-stopping outcome."""

    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_j1: float = float("inf")
    stopping_reason: str = ""

    def to_table(self) -> str:
        lines = ["epoch\tj\tj1\tj2\tval_j1"]
        for e in self.epochs:
            lines.append("%d\t%.17g\t%.17g\t%.17g\t%.17g"
                         % (e.epoch, e.j, e.j1, e.j2, e.val_j1))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        return ("best_epoch=%d best_val_j1=%.17g epochs_run=%d reason=%s"
                % (self.best_epoch, self.best_val_j1, len(self.epochs),
                   self.stopping_reason))


def mean_j1(model, x: np.ndarray, y: np.ndarray) -> float:
    """Forecast loss j1 over a whole window set, from the forecasts alone (no
    decoder runs), SCORE_WINDOWS windows at a time: the size-weighted mean
    of the per-slice j1, so memory stays bounded by one slice's activations."""
    total = 0.0
    for start in range(0, len(x), SCORE_WINDOWS):
        xb, yb = x[start:start + SCORE_WINDOWS], y[start:start + SCORE_WINDOWS]
        total += model.batch_loss(xb, yb).j1 * (len(xb) / len(x))
    return total


def train(model, samples: Windows, config: TrainConfig,
          val_samples: Windows | None = None):
    """Fit a model by mini-batch gradient descent.

    Early stopping monitors the validation windows' forecast loss j1
    (``mean_j1``, which runs no decoder). When no validation windows are
    supplied, the training j1 of each epoch is monitored instead (useful for
    deliberate overfitting). Training stops as "diverged" when a batch's
    objective, the monitored loss or, after an epoch's steps, any parameter
    (decoder included) is not finite. Returns (model, report), the model
    left holding the parameters of the best epoch. ValueError when there is
    no training window.
    """
    x_train, y_train = stack_samples(samples)
    x_mon, y_mon = stack_samples(val_samples) if val_samples else (x_train, y_train)

    optimizer = _make_optimizer(config)
    rng = np.random.default_rng(config.seed)
    n = x_train.shape[0]
    report = TrainReport()
    best_params = model.get_params_copy()
    epochs_since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        sum_j1 = 0.0
        sum_j2 = 0.0
        try:
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                loss, grads = model.batch_backward(x_train[idx], y_train[idx])
                optimizer.step(model.params, grads)
                sum_j1 += loss.j1 * idx.size
                sum_j2 += loss.j2 * idx.size
            bad = [name for name, p in model.params.items() if not np.isfinite(p).all()]
            if bad:
                raise NumericError(f"parameters not finite: {', '.join(bad)}")
            epoch_j1 = sum_j1 / n
            epoch_j2 = sum_j2 / n
            monitored = mean_j1(model, x_mon, y_mon)
        except NumericError as exc:
            log.warning("training diverged at epoch %d: %s", epoch, exc)
            report.stopping_reason = "diverged"
            break
        report.epochs.append(EpochStats(epoch, epoch_j1, epoch_j2, monitored))
        if monitored < report.best_val_j1:
            report.best_val_j1 = monitored
            report.best_epoch = epoch
            best_params = model.get_params_copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                report.stopping_reason = "early-stopping"
                break
    if not report.stopping_reason:
        report.stopping_reason = "max-epochs"
    model.set_params(best_params)
    return model, report


@dataclass
class GradcheckReport:
    """Outcome of comparing analytic gradients against finite differences."""

    max_rel_error: float
    worst_param: str
    num_checked: int
    tolerance: float
    failures: list[tuple[str, int, float, float, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = (f"{verdict} max_rel_error={self.max_rel_error:.3e} "
                f"worst={self.worst_param} checked={self.num_checked}")
        if self.failures:
            names = sorted({name for name, *_ in self.failures})
            line += f" failing={','.join(names)}"
        return line


def gradcheck(model, x: np.ndarray, y: np.ndarray,
              tolerance: float = GRADCHECK_TOLERANCE) -> GradcheckReport:
    """Verify every parameter's analytic gradient with central differences of
    step GRADCHECK_STEP, on the objective that ``batch_backward`` returns
    for windows x (batch, n, l) against targets y (batch, p).

    Relative error uses |a - n| / max(|a| + |n|, 1e-6); the floor keeps
    near-zero gradients from amplifying finite-difference noise. Intended for
    small models (a few thousand parameters at most).
    """
    if not tolerance >= 0:  # a NaN tolerance would pass every comparison
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    _, analytic = model.batch_backward(x, y)

    def loss_value() -> float:
        return model.batch_backward(x, y)[0].j

    report = GradcheckReport(0.0, "", 0, tolerance)
    for name, param in model.params.items():
        flat = param.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + GRADCHECK_STEP
            up = loss_value()
            flat[i] = saved - GRADCHECK_STEP
            down = loss_value()
            flat[i] = saved
            numeric = (up - down) / (2.0 * GRADCHECK_STEP)
            a = grad_flat[i]
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-6)
            report.num_checked += 1
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = f"{name}[{i}]"
            if rel > tolerance:
                report.failures.append((name, i, float(a), float(numeric), float(rel)))
    return report
