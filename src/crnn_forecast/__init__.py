"""Correlated time series forecasting with convolutional-recurrent networks."""

__version__ = "0.1.0"

from .tensor import NumericError, ShapeError, Tensor  # noqa: F401
from .models import (  # noqa: F401
    AECRNN,
    CRNN,
    ConfigError,
    Forecast,
    LossBreakdown,
    MODELS,
    ModelConfig,
    Reconstruction,
    RecurrentBaseline,
    joint_loss,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
)
from .data import (  # noqa: F401
    CorrelatedSet,
    DataError,
    Normalizer,
    SyntheticConfig,
    TimeSeries,
    WindowSample,
    Windows,
    generate_synthetic,
    ingest_csv,
    make_uncorrelated,
    prepare,
    segment,
    split,
)
from .training import TrainConfig, TrainReport, gradcheck, train  # noqa: F401
from .evaluation import (  # noqa: F401
    ExperimentSpec,
    MetricReport,
    fit,
    rmse,
    robustness_experiment,
    run_experiment,
)
