"""Command-line toolkit: generate, train, forecast, evaluate, gridsearch,
robustness, gradcheck.

Every command writes its artifacts plus a ``manifest.txt`` into one output
directory. The manifest freezes the fully resolved configuration (flag names
as keys), input digests, and output paths; feeding it back through
``--config`` reproduces the run. Exit codes: 1 usage, 2 data, 3 numeric.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import RecurrentBaseline
from .data import (CorrelatedSet, CsvLayout, DataError, Normalizer, SyntheticConfig,
                   WindowSample, generate_synthetic, ingest_csv, segment, split,
                   train_val_split, write_csv)
from .evaluation import ExperimentSpec, MetricReport, robustness_experiment, run_experiment
from .models import (GRID_FILTER_SIZES, GRID_FILTERS, GRID_HIDDEN, GRID_STAGES,
                     ConfigError, ModelConfig, build_model, load_checkpoint,
                     model_from_checkpoint, save_checkpoint)
from .tensor import NumericError, ShapeError, Tensor
from .training import TrainConfig, gradcheck, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

OUTPUT_ROOT_ENV = "CRNN_FORECAST_OUT"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to our codes
        raise UsageError(message)


# -- configuration plumbing ------------------------------------------------------


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("run."):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def _config_path(argv: list[str]) -> str | None:
    """The file named by ``--config PATH`` or ``--config=PATH``, if any."""
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 == len(argv):
                raise UsageError("--config expects a file path")
            return argv[i + 1]
        if token.startswith("--config="):
            return token.partition("=")[2]
    return None


def _apply_config_defaults(parser: argparse.ArgumentParser, values: dict[str, str]) -> None:
    actions = {a.dest: a for a in parser._actions}
    for key, raw in values.items():
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None:
            raise UsageError(f"config file sets unknown option {key!r}")
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            parser.set_defaults(**{dest: raw.lower() in ("1", "true", "yes")})
        elif action.type is not None:
            parser.set_defaults(**{dest: action.type(raw)})
        else:
            parser.set_defaults(**{dest: raw})
        action.required = False  # satisfied from the config file


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


# run placement and parser internals stay out of the frozen configuration
_NON_CONFIG_KEYS = {"command", "config", "func", "out"}


def write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                   inputs: dict[str, Path], outputs: dict[str, Path]) -> Path:
    lines = [f"run.command={command}", f"run.version={__version__}"]
    for key in sorted(name for name in vars(args) if name not in _NON_CONFIG_KEYS):
        value = getattr(args, key)
        if value is None:
            continue
        flag = key.replace("_", "-")
        if isinstance(value, bool):
            value = int(value)
        lines.append(f"{flag}={value}")
    for name, path in sorted(inputs.items()):
        lines.append(f"run.digest.{name}={_sha256(path)}")
    for name, path in sorted(outputs.items()):
        lines.append(f"run.output.{name}={path.name}")
    manifest = out_dir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def _out_dir(args, command: str) -> Path:
    if args.out:
        path = Path(args.out)
    else:
        root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
        path = Path(root) / command
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- data helpers ----------------------------------------------------------------


def _parse_columns(text: str | None) -> list[str]:
    if not text:
        return []
    return [c.strip() for c in text.split(",") if c.strip()]


def _load_dataset(args) -> CorrelatedSet:
    """Ingest the CSV named by --data, honoring --columns/--target/--timestamp."""
    columns = _parse_columns(getattr(args, "columns", None))
    target = getattr(args, "target", None)
    layout = CsvLayout(columns=columns, timestamp=getattr(args, "timestamp", None))
    if columns and target is not None and columns[0] != target:
        if target in columns:
            columns.remove(target)
        columns.insert(0, target)
    cset = ingest_csv(args.data, layout)
    if not columns and target is not None:
        cset = _reorder_target(cset, target)
    return cset


def _reorder_target(cset: CorrelatedSet, target: str) -> CorrelatedSet:
    names = [s.id for s in cset.series]
    if target in names:
        idx = names.index(target)
    else:
        try:
            idx = int(target)
        except ValueError:
            raise DataError(f"no series named {target!r} in {names}") from None
        if not 0 <= idx < len(names):
            raise DataError(f"target index {idx} outside the {len(names)} series")
    order = [idx] + [i for i in range(len(names)) if i != idx]
    return CorrelatedSet(tuple(cset.series[i] for i in order))


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"--seeds expects comma-separated integers, got {text!r}") from None


def _synthetic_from_args(args) -> SyntheticConfig:
    return SyntheticConfig(
        kind=args.kind, length=args.len, lag=args.lag, noise=args.noise,
        seed=args.seed, base=args.base, season_period=args.period,
        season_amplitude=args.season_amp, stoch_amplitude=args.stoch_amp,
        ar_coeff=args.ar)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        optimizer=args.optimizer, learning_rate=args.lr,
        batch_size=args.batch_size, max_epochs=args.epochs,
        patience=args.patience, seed=args.seed)


def _model_config(args, num_series: int) -> ModelConfig:
    return ModelConfig(
        num_series=num_series, input_length=args.l, horizon=args.p,
        conv_pool_stages=args.stages, filters_per_layer=args.filters,
        filter_size=args.filter_size, rnn_hidden=args.hidden,
        cell_kind=args.cell, rnn_layout=args.layout,
        conv_activation=args.conv_activation, seed=args.seed,
        allow_off_grid=args.allow_off_grid)


# -- commands --------------------------------------------------------------------


def cmd_generate(args) -> int:
    out = _out_dir(args, "generate")
    cset = generate_synthetic(_synthetic_from_args(args))
    data_path = out / "data.csv"
    write_csv(cset, data_path)
    write_manifest(out, "generate", args, {}, {"data": data_path})
    print(f"wrote {data_path} ({cset.num_series} series x {cset.length} values)")
    return EXIT_OK


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stages", type=int, default=1,
                   help="convolution+pooling stages (grid: 1,2,3)")
    p.add_argument("--filters", type=int, default=2,
                   help="filters per convolution layer")
    p.add_argument("--filter-size", type=int, default=3, help="convolution filter size")
    p.add_argument("--hidden", type=int, default=4, help="recurrent hidden state size")
    p.add_argument("--cell", choices=("rnn", "lstm"), default="rnn",
                   help="recurrent cell for crnn/aecrnn")
    p.add_argument("--layout", choices=("sequence", "single-step"), default="sequence",
                   help="how pooled features feed the recurrent cell")
    p.add_argument("--conv-activation", choices=("linear", "tanh"), default="linear")
    p.add_argument("--features", choices=("all", "target"), default="all",
                   help="inputs seen by the rnn/lstm baselines")
    p.add_argument("--allow-off-grid", action="store_true",
                   help="accept hyper-parameters outside the default search grid")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p.add_argument("--lr", type=float, default=1e-3, help="learning rate")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=100, help="maximum training epochs")
    p.add_argument("--patience", type=int, default=10,
                   help="epochs without validation improvement before stopping")
    p.add_argument("--val-frac", type=float, default=0.15,
                   help="fraction of training windows held out for validation")
    p.add_argument("--train-frac", type=float, default=0.84,
                   help="chronological fraction of data used for training+validation")


def _add_csv_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--data", required=required, help="input CSV file")
    p.add_argument("--columns", help="comma-separated column names or indices; first is the target")
    p.add_argument("--target", help="column (name or index) to forecast; moved to front")
    p.add_argument("--timestamp", help="timestamp column (checked for uniform spacing)")


def _build_trainable(args, num_series: int):
    if args.model in ("crnn", "aecrnn"):
        return build_model(args.model, _model_config(args, num_series))
    return RecurrentBaseline(args.model, num_series, args.l, args.p,
                             hidden=args.hidden, features=args.features,
                             seed=args.seed)


def cmd_train(args) -> int:
    out = _out_dir(args, "train")
    cset = _load_dataset(args)
    train_set, _ = split(cset, args.train_frac)
    norm = Normalizer.fit(train_set)
    windows = segment(norm.transform(train_set), args.l, args.p, stride=1)
    if not windows:
        raise DataError(
            f"training segment of length {train_set.length} is too short for "
            f"l+p = {args.l + args.p}")
    tr, val = train_val_split(windows, args.val_frac)
    model = _build_trainable(args, cset.num_series)
    _, report = train(model, tr, _train_config(args), val_samples=val)
    ckpt_path = out / "checkpoint.txt"
    save_checkpoint(ckpt_path, model, extra_tensors=norm.tensors())
    report_path = out / "train_report.tsv"
    report_path.write_text(report.to_table(), encoding="ascii")
    write_manifest(out, "train", args, {"data": Path(args.data)},
                   {"checkpoint": ckpt_path, "train_report": report_path})
    print(report.summary())
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


def cmd_forecast(args) -> int:
    out = _out_dir(args, "forecast")
    fields, tensors = load_checkpoint(args.checkpoint)
    model, extras = model_from_checkpoint(fields, tensors)
    norm = Normalizer.from_tensors(extras)
    cset = _load_dataset(args)
    if cset.num_series != model.num_series:
        raise DataError(
            f"checkpoint expects {model.num_series} series, data has {cset.num_series}")
    length = model.input_length
    offset = args.offset if args.offset is not None else cset.length - length
    if offset < 0 or offset + length > cset.length:
        raise DataError(
            f"window [{offset}, {offset + length}) outside series of length {cset.length}")
    window_set = norm.transform(cset.slice_time(offset, offset + length))
    forecast = model.forward(Tensor(window_set.values_matrix()))
    if isinstance(forecast, tuple):
        forecast = forecast[0]
    values = norm.inverse_target(forecast.values)
    pred_path = out / "predictions.tsv"
    lines = ["step\tvalue"] + ["%d\t%.17g" % (i + 1, v) for i, v in enumerate(values)]
    pred_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    write_manifest(out, "forecast", args,
                   {"checkpoint": Path(args.checkpoint), "data": Path(args.data)},
                   {"predictions": pred_path})
    print(f"wrote {pred_path} ({values.size} steps)")
    return EXIT_OK


def _experiment_spec(args, method: str | None = None) -> ExperimentSpec:
    data = None
    csv_path = None
    layout = None
    if args.data:
        csv_path = args.data
        columns = _parse_columns(getattr(args, "columns", None))
        layout = CsvLayout(columns=columns, timestamp=getattr(args, "timestamp", None))
    else:
        data = _synthetic_from_args(args)
    return ExperimentSpec(
        method=method or args.method,
        num_series=args.x,
        input_length=args.l,
        horizon=args.p,
        data=data,
        csv_path=csv_path,
        csv_layout=layout,
        seeds=_seed_list(args.seeds),
        train_frac=args.train_frac,
        val_fraction=args.val_frac,
        eval_stride=args.eval_stride,
        train=_train_config(args),
        conv_pool_stages=args.stages,
        filters_per_layer=args.filters,
        filter_size=args.filter_size,
        rnn_hidden=args.hidden,
        cell_kind=args.cell,
        rnn_layout=args.layout,
        conv_activation=args.conv_activation,
        ewma_smoothing=args.ewma_smoothing,
        baseline_features=args.features,
    )


def cmd_evaluate(args) -> int:
    out = _out_dir(args, "evaluate")
    spec = _experiment_spec(args)
    report = run_experiment(spec, out_dir=out)
    inputs = {"data": Path(args.data)} if args.data else {}
    write_manifest(out, "evaluate", args, inputs, {"report": out / "report.tsv"})
    print(MetricReport.TABLE_HEADER)
    print(report.table_row())
    return EXIT_OK


def cmd_robustness(args) -> int:
    out = _out_dir(args, "robustness")
    if args.data:
        cset = _load_dataset(args)
        if cset.num_series < 2:
            raise DataError("robustness needs a target and a correlated series")
    else:
        cset = generate_synthetic(_synthetic_from_args(args))
    report = robustness_experiment(
        cset.series[0], cset.series[1], _seed_list(args.seeds),
        input_length=args.l, horizon=args.p,
        conv_pool_stages=args.stages, filters_per_layer=args.filters,
        filter_size=args.filter_size, rnn_hidden=args.hidden,
        train_config=_train_config(args))
    table_path = out / "robustness.tsv"
    table_path.write_text(report.table(), encoding="ascii")
    inputs = {"data": Path(args.data)} if args.data else {}
    write_manifest(out, "robustness", args, inputs, {"robustness": table_path})
    print(report.table(), end="")
    return EXIT_OK


def _parse_grid_file(path: str) -> dict[str, tuple[int, ...]]:
    values = {}
    for key, raw in _read_config_file(path).items():
        values[key] = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    unknown = set(values) - {"stages", "filters", "filter-size", "hidden"}
    if unknown:
        raise UsageError(f"grid file sets unknown axes: {sorted(unknown)}")
    return values


def _grid_cells(args) -> list[dict[str, int]]:
    axes = {
        "stages": GRID_STAGES,
        "filters": GRID_FILTERS,
        "filter-size": GRID_FILTER_SIZES,
        "hidden": GRID_HIDDEN,
    }
    if args.grid:
        axes.update(_parse_grid_file(args.grid))
    return [
        {"stages": s, "filters": f, "filter_size": k, "hidden": h}
        for s, f, k, h in itertools.product(
            axes["stages"], axes["filters"], axes["filter-size"], axes["hidden"])
    ]


def _grid_cell_worker(payload) -> tuple[dict[str, int], float | None, str]:
    """Train one grid cell; returns (cell, best validation j1 or None, note)."""
    cell, argvars, csv_path = payload
    args = argparse.Namespace(**argvars)
    try:
        cset = ingest_csv(csv_path, CsvLayout(columns=_parse_columns(args.columns),
                                              timestamp=args.timestamp))
        if args.target is not None:
            cset = _reorder_target(cset, args.target)
        train_set, _ = split(cset, args.train_frac)
        norm = Normalizer.fit(train_set)
        windows = segment(norm.transform(train_set), args.l, args.p, stride=1)
        tr, val = train_val_split(windows, args.val_frac)
        if not tr or not val:
            raise DataError("not enough windows for a train/validation split")
        config = ModelConfig(
            num_series=cset.num_series, input_length=args.l, horizon=args.p,
            conv_pool_stages=cell["stages"], filters_per_layer=cell["filters"],
            filter_size=cell["filter_size"], rnn_hidden=cell["hidden"],
            cell_kind=args.cell, rnn_layout=args.layout,
            conv_activation=args.conv_activation, seed=args.seed)
        model = build_model(args.model, config)
        _, report = train(model, tr, TrainConfig(
            optimizer=args.optimizer, learning_rate=args.lr,
            batch_size=args.batch_size, max_epochs=args.epochs,
            patience=args.patience, seed=args.seed), val_samples=val)
        return cell, report.best_val_j1, report.stopping_reason
    except (ValueError, ArithmeticError) as exc:
        return cell, None, f"{type(exc).__name__}: {exc}"


def cmd_gridsearch(args) -> int:
    out = _out_dir(args, "gridsearch")
    cells = _grid_cells(args)
    argvars = {k: v for k, v in vars(args).items() if k not in ("func", "grid")}
    payloads = [(cell, argvars, args.data) for cell in cells]
    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            results = pool.map(_grid_cell_worker, payloads)
    else:
        results = [_grid_cell_worker(p) for p in payloads]

    ranked = sorted((r for r in results if r[1] is not None), key=lambda r: r[1])
    lines = ["rank\tstages\tfilters\tfilter_size\thidden\tval_j1\tstatus"]
    for rank, (cell, val_j1, note) in enumerate(ranked, 1):
        lines.append("%d\t%d\t%d\t%d\t%d\t%.17g\t%s"
                     % (rank, cell["stages"], cell["filters"], cell["filter_size"],
                        cell["hidden"], val_j1, note))
    for cell, _, note in (r for r in results if r[1] is None):
        lines.append("-\t%d\t%d\t%d\t%d\t-\tFAILED: %s"
                     % (cell["stages"], cell["filters"], cell["filter_size"],
                        cell["hidden"], note))
    report_path = out / "grid_report.tsv"
    report_path.write_text("\n".join(lines) + "\n", encoding="ascii")

    outputs = {"grid_report": report_path}
    if ranked:
        best_cell = ranked[0][0]
        for key, value in best_cell.items():
            setattr(args, key.replace("-", "_"), value)
        # Retrain the winning cell to persist its checkpoint.
        ckpt_args = argparse.Namespace(**vars(args))
        ckpt_args.stages = best_cell["stages"]
        ckpt_args.filters = best_cell["filters"]
        ckpt_args.filter_size = best_cell["filter_size"]
        ckpt_args.hidden = best_cell["hidden"]
        cset = _load_dataset(ckpt_args)
        train_set, _ = split(cset, ckpt_args.train_frac)
        norm = Normalizer.fit(train_set)
        windows = segment(norm.transform(train_set), ckpt_args.l, ckpt_args.p, stride=1)
        tr, val = train_val_split(windows, ckpt_args.val_frac)
        model = _build_trainable(ckpt_args, cset.num_series)
        train(model, tr, _train_config(ckpt_args), val_samples=val)
        ckpt_path = out / "best_checkpoint.txt"
        save_checkpoint(ckpt_path, model, extra_tensors=norm.tensors())
        outputs["best_checkpoint"] = ckpt_path
    write_manifest(out, "gridsearch", args, {"data": Path(args.data)}, outputs)
    failed = sum(1 for r in results if r[1] is None)
    print(f"grid: {len(cells)} cells, {failed} failed; report: {report_path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.small:
        args.x, args.l, args.p = 2, 8, 2
        args.stages, args.filters, args.filter_size, args.hidden = 1, 2, 3, 3
    if args.model in ("crnn", "aecrnn"):
        model = build_model(args.model, _model_config(args, args.x))
    else:
        model = RecurrentBaseline(args.model, args.x, args.l, args.p,
                                  hidden=args.hidden, features=args.features,
                                  seed=args.seed)
    rng = np.random.default_rng(args.seed)
    sample = WindowSample(0, Tensor(rng.uniform(0.0, 1.0, (args.x, args.l))),
                          rng.uniform(0.0, 1.0, args.p))
    report = gradcheck(model, sample, tolerance=args.tolerance)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_NUMERIC


# -- parser ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="crnn-forecast",
                     description="Correlated time series forecasting toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory (default: $%s/<command>)"
                                     % OUTPUT_ROOT_ENV)
        p.add_argument("--config", help="key=value file; CLI flags take precedence")
        p.add_argument("--seed", type=int, default=0)

    def synth_flags(p):
        p.add_argument("--kind", choices=("lagged", "independent"), default="lagged")
        p.add_argument("--len", type=int, default=2000, help="series length")
        p.add_argument("--lag", type=int, default=5,
                       help="steps by which the driver leads the target")
        p.add_argument("--noise", type=float, default=0.05)
        p.add_argument("--base", type=float, default=5.0)
        p.add_argument("--period", type=int, default=40)
        p.add_argument("--season-amp", type=float, default=1.0)
        p.add_argument("--stoch-amp", type=float, default=0.7)
        p.add_argument("--ar", type=float, default=0.9)

    p = sub.add_parser("generate", help="write a synthetic correlated pair as CSV")
    common(p)
    synth_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model and save its checkpoint")
    common(p)
    _add_csv_flags(p)
    p.add_argument("--model", choices=("crnn", "aecrnn", "rnn", "lstm"), required=True)
    p.add_argument("--l", type=int, required=True, help="input window length")
    p.add_argument("--p", type=int, required=True, help="forecast horizon")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="forecast from a checkpoint and a data window")
    common(p)
    _add_csv_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--offset", type=int,
                   help="window start index (default: last full window)")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="run one experiment cell across seeds")
    common(p)
    _add_csv_flags(p, required=False)
    synth_flags(p)
    p.add_argument("--method", required=True,
                   choices=("yesterday", "ewma", "rnn", "lstm", "crnn", "aecrnn"))
    p.add_argument("--x", type=int, default=2, help="number of series used")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--eval-stride", type=int,
                   help="test window stride (default: l+p, non-overlapping)")
    p.add_argument("--ewma-smoothing", type=float, default=0.3)
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("robustness",
                       help="compare models with correlated vs uncorrelated inputs")
    common(p)
    _add_csv_flags(p, required=False)
    synth_flags(p)
    p.add_argument("--l", type=int, default=50)
    p.add_argument("--p", type=int, default=25)
    p.add_argument("--seeds", default="0")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("gridsearch", help="rank hyper-parameter cells by validation loss")
    common(p)
    _add_csv_flags(p)
    p.add_argument("--model", choices=("crnn", "aecrnn"), default="crnn")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--grid", help="key=value file overriding the default axes "
                                  "(stages, filters, filter-size, hidden)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("gradcheck", help="verify analytic gradients by finite differences")
    common(p)
    p.add_argument("--model", choices=("crnn", "aecrnn", "rnn", "lstm"), default="crnn")
    p.add_argument("--small", action="store_true",
                   help="use the small reference configuration")
    p.add_argument("--x", type=int, default=2)
    p.add_argument("--l", type=int, default=8)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--tolerance", type=float, default=1e-5)
    _add_model_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        cfg_path = _config_path(argv)
        if cfg_path is not None:
            values = _read_config_file(cfg_path)
            # defaults live on the subcommand parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sp in action.choices.items():
                        if name in argv:
                            _apply_config_defaults(sp, values)
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ShapeError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
