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
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (SYNTHETIC_KINDS, TRAIN_FRAC, VAL_FRACTION, CorrelatedSet, DataError,
                   Normalizer, SyntheticConfig, generate_synthetic, ingest_csv, prepare,
                   read_input, write_csv)
from .evaluation import (METHODS, REPORT_FILE, ExperimentSpec, MetricReport, fit,
                         robustness_experiment, run_experiment)
from .models import (BASELINE_FEATURES, CELL_KINDS, CONV_ACTIVATIONS, GRID_AXES, MODELS,
                     RNN_LAYOUTS, BaselineConfig, ModelConfig, load_checkpoint,
                     model_from_checkpoint, save_checkpoint)
from .tensor import NumericError, ShapeError, Tensor
from .training import GRADCHECK_TOLERANCE, OPTIMIZERS, TrainConfig, gradcheck

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

OUTPUT_ROOT_ENV = "CRNN_FORECAST_OUT"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -N and -N.N as negative-number values; take the
        # exponent forms (-1e-2, -1.5E+3, -.5e1) and -inf, -infinity and -nan
        # in any case, as float() reads them, so that they reach the option's
        # own check. Subparsers are built with this class.
        self._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|(?i:inf|infinity|nan))$")

    def error(self, message):  # argparse would exit(2); route to our codes
        raise UsageError(message)


# -- configuration plumbing ------------------------------------------------------


def _read_config_file(path: str) -> dict[str, str]:
    """The key=value lines of ``path``; a key given twice is a usage error."""
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
        key, value = key.strip(), value.strip()
        if key in values:
            raise UsageError(f"{path}:{line_no}: {key} is set again, to {value!r}, "
                             f"after {values[key]!r}")
        values[key] = value
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
    keys: dict[str, str] = {}  # option -> the key that set it
    for key, raw in values.items():
        dest = key.replace("-", "_")
        if dest in keys:
            raise UsageError(f"config file sets both {keys[dest]} and {key}, "
                             f"which name one option")
        keys[dest] = key
        action = actions.get(dest)
        if action is None:
            raise UsageError(f"config file sets unknown option {key!r}")
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            value = raw.lower() in ("1", "true", "yes")
        elif action.type is not None:
            value = action.type(raw)
        else:
            value = raw
        # argparse checks choices on the command line only, not on defaults
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"config file sets {key}={raw}, not one of "
                             f"{', '.join(map(str, action.choices))}")
        parser.set_defaults(**{dest: value})
        action.required = False  # satisfied from the config file


# run placement and parser internals stay out of the frozen configuration
_NON_CONFIG_KEYS = {"command", "config", "func", "out"}


def write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                   inputs: dict[str, bytes], outputs: dict[str, Path]) -> Path:
    """Write manifest.txt: the resolved flags, the sha256 of each input's
    bytes as the command parsed them, and the names of the outputs."""
    lines = [f"run.command={command}", f"run.version={__version__}"]
    for key in sorted(name for name in vars(args) if name not in _NON_CONFIG_KEYS):
        value = getattr(args, key)
        if value is None:
            continue
        flag = key.replace("_", "-")
        if isinstance(value, bool):
            value = int(value)
        lines.append(f"{flag}={value}")
    for name, raw in sorted(inputs.items()):
        lines.append(f"run.digest.{name}={hashlib.sha256(raw).hexdigest()}")
    for name, path in sorted(outputs.items()):
        lines.append(f"run.output.{name}={path.name}")
    manifest = out_dir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def _out_path(args, command: str) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs")) / command


def _out_dir(args, command: str) -> Path:
    """The output directory, made. A command makes it once its inputs have
    been read and checked, so a usage or data error leaves none behind."""
    path = _out_path(args, command)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- data helpers ----------------------------------------------------------------


def _parse_columns(text: str | None) -> list[str]:
    if not text:
        return []
    return [c.strip() for c in text.split(",") if c.strip()]


def _load_dataset(args, inputs: dict[str, bytes]) -> CorrelatedSet:
    """Ingest the CSV named by --data, honoring --columns/--target/--timestamp.
    The file is read once; its bytes go to ``inputs["data"]`` for the manifest."""
    inputs["data"] = read_input(args.data)
    return ingest_csv(args.data, columns=_parse_columns(args.columns),
                      timestamp=args.timestamp, target=args.target, raw=inputs["data"])


def _seed_list(text: str) -> tuple[int, ...]:
    """The distinct non-negative seeds of --seeds, in the order given."""
    try:
        seeds = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"--seeds expects comma-separated integers, got {text!r}") from None
    if not seeds:
        raise UsageError("--seeds needs at least one seed")
    if min(seeds) < 0:
        raise UsageError(f"--seeds takes seeds >= 0, got {min(seeds)}")
    if len(set(seeds)) < len(seeds):
        raise UsageError(f"--seeds repeats a seed: {text!r}")
    return seeds


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


# The hyper-parameters under the names every builder in ``models.MODELS``
# reads (those of the checkpoint header) -> the flag that sets each, by its
# attribute name. The geometry and the seed are not among them: ``fit`` takes
# them from the windows and the training config.
_MODEL_FLAGS = dict(
    conv_pool_stages="stages", filters_per_layer="filters", filter_size="filter_size",
    rnn_hidden="hidden", cell_kind="cell", rnn_layout="layout",
    conv_activation="conv_activation", features="features", allow_off_grid="allow_off_grid")


def _model_fields(args) -> dict[str, object]:
    """The hyper-parameter flags under the names of ``_MODEL_FLAGS``."""
    return {name: getattr(args, dest) for name, dest in _MODEL_FLAGS.items()}


def _prepare(args, cset: CorrelatedSet):
    return prepare(cset, args.l, args.p, train_frac=args.train_frac,
                   val_fraction=args.val_frac)


# -- commands --------------------------------------------------------------------


def cmd_generate(args) -> int:
    cset = generate_synthetic(_synthetic_from_args(args))
    out = _out_dir(args, "generate")
    data_path = out / "data.csv"
    write_csv(cset, data_path)
    write_manifest(out, "generate", args, {}, {"data": data_path})
    print(f"wrote {data_path} ({cset.num_series} series x {cset.length} values)")
    return EXIT_OK


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stages", type=int, default=ModelConfig.conv_pool_stages,
                   help="convolution+pooling stages (grid: 1,2,3)")
    p.add_argument("--filters", type=int, default=ModelConfig.filters_per_layer,
                   help="filters per convolution layer")
    p.add_argument("--filter-size", type=int, default=ModelConfig.filter_size,
                   help="convolution filter size")
    p.add_argument("--hidden", type=int, default=ModelConfig.rnn_hidden,
                   help="recurrent hidden state size")
    p.add_argument("--cell", choices=CELL_KINDS, default=ModelConfig.cell_kind,
                   help="recurrent cell for crnn/aecrnn")
    p.add_argument("--layout", choices=RNN_LAYOUTS, default=ModelConfig.rnn_layout,
                   help="how pooled features feed the recurrent cell")
    p.add_argument("--conv-activation", choices=CONV_ACTIVATIONS,
                   default=ModelConfig.conv_activation)
    p.add_argument("--features", choices=BASELINE_FEATURES, default=BaselineConfig.features,
                   help="inputs seen by the rnn/lstm baselines")
    p.add_argument("--allow-off-grid", action="store_true",
                   help="accept hyper-parameters outside the default search grid")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--optimizer", choices=OPTIMIZERS, default=TrainConfig.optimizer)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate, help="learning rate")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs,
                   help="maximum training epochs")
    p.add_argument("--patience", type=int, default=TrainConfig.patience,
                   help="epochs without validation improvement before stopping")
    p.add_argument("--val-frac", type=float, default=VAL_FRACTION,
                   help="fraction of training windows held out for validation")
    p.add_argument("--train-frac", type=float, default=TRAIN_FRAC,
                   help="chronological fraction of data used for training+validation")


def _add_csv_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--data", required=required, help="input CSV file")
    p.add_argument("--columns", help="comma-separated column names or indices; first is the target")
    p.add_argument("--target", help="column name or file column index; moved to front")
    p.add_argument("--timestamp", help="timestamp column (checked for uniform spacing)")


def cmd_train(args) -> int:
    inputs: dict[str, bytes] = {}
    prepared = _prepare(args, _load_dataset(args, inputs))
    model, report = fit(args.model, _model_fields(args), prepared, _train_config(args))
    out = _out_dir(args, "train")
    ckpt_path = out / "checkpoint.txt"
    save_checkpoint(ckpt_path, model, extra_tensors=prepared.norm.tensors())
    report_path = out / "train_report.tsv"
    report_path.write_text(report.to_table(), encoding="ascii")
    write_manifest(out, "train", args, inputs,
                   {"checkpoint": ckpt_path, "train_report": report_path})
    print(report.summary())
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


def cmd_forecast(args) -> int:
    inputs = {"checkpoint": read_input(args.checkpoint)}
    fields, tensors = load_checkpoint(args.checkpoint, inputs["checkpoint"])
    model, extras = model_from_checkpoint(fields, tensors)
    n, length = model.config.num_series, model.config.input_length
    norm = Normalizer.from_tensors(extras)
    if norm.mins.size != n:
        raise DataError(f"checkpoint tensor norm.min holds {norm.mins.size} values, "
                        f"for a model of {n} series")
    cset = _load_dataset(args, inputs)
    if cset.num_series != n:
        raise DataError(f"checkpoint expects {n} series, data has {cset.num_series}")
    offset = args.offset if args.offset is not None else cset.length - length
    if offset < 0 or offset + length > cset.length:
        raise DataError(
            f"window [{offset}, {offset + length}) outside series of length {cset.length}")
    window_set = norm.transform(cset.slice_time(offset, offset + length))
    forecast, _ = model.forward(Tensor(window_set.values_matrix()))
    values = norm.inverse_target(forecast.values)
    out = _out_dir(args, "forecast")
    pred_path = out / "predictions.tsv"
    lines = ["step\tvalue"] + ["%d\t%.17g" % (i + 1, v) for i, v in enumerate(values)]
    pred_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    write_manifest(out, "forecast", args, inputs, {"predictions": pred_path})
    print(f"wrote {pred_path} ({values.size} steps)")
    return EXIT_OK


def _experiment_spec(args, **extra) -> ExperimentSpec:
    return ExperimentSpec(
        input_length=args.l, horizon=args.p, train_frac=args.train_frac,
        val_fraction=args.val_frac, train=_train_config(args),
        hparams=_model_fields(args), **extra)


def cmd_evaluate(args) -> int:
    inputs: dict[str, bytes] = {}
    cset = _load_dataset(args, inputs) if args.data else None
    synthetic = None if args.data else _synthetic_from_args(args)
    seeds = _seed_list(args.seeds)
    if args.x < 1:
        raise UsageError(f"num_series must be >= 1, got {args.x}")
    spec = _experiment_spec(args, eval_stride=args.eval_stride,
                            ewma_smoothing=args.ewma_smoothing)
    if cset is not None:
        prepared = spec.prepare(cset.take(args.x))
        runs = [(seed, prepared) for seed in seeds]
    else:  # seed k draws its own set with data seed --seed + k, prepared in its turn
        runs = ((seed, spec.prepare(generate_synthetic(
            dataclasses.replace(synthetic, seed=args.seed + seed)).take(args.x)))
            for seed in seeds)
    out = _out_path(args, "evaluate")
    report = run_experiment(args.method, spec, runs, out_dir=out)  # makes out at the end
    write_manifest(out, "evaluate", args, inputs, {"report": out / REPORT_FILE})
    print(MetricReport.TABLE_HEADER)
    print(report.table_row())
    return EXIT_OK


def cmd_robustness(args) -> int:
    inputs: dict[str, bytes] = {}
    cset = (_load_dataset(args, inputs) if args.data
            else generate_synthetic(_synthetic_from_args(args)))
    report = robustness_experiment(cset, _experiment_spec(args), _seed_list(args.seeds))
    out = _out_dir(args, "robustness")
    table_path = out / "robustness.tsv"
    table_path.write_text(report.table(), encoding="ascii")
    write_manifest(out, "robustness", args, inputs, {"robustness": table_path})
    print(report.table(), end="")
    return EXIT_OK


# Grid-file axis, named as its flag -> the hyper-parameter it sets, for every
# axis that some model kind is searched over; the report's columns, in order.
_GRID_AXIS_FIELDS = {_MODEL_FLAGS[name].replace("_", "-"): name
                     for axes in GRID_AXES.values() for name in axes}


def _parse_grid_file(path: str) -> dict[str, tuple[int, ...]]:
    values = {}
    for key, raw in _read_config_file(path).items():
        try:
            values[key] = tuple(int(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise UsageError(f"grid file {path}: axis {key} takes integers, got {raw!r}") from None
        twice = [v for n, v in enumerate(values[key]) if v in values[key][:n]]
        if twice:
            raise UsageError(f"grid file {path}: axis {key} gives the value {twice[0]} twice")
    unknown = set(values) - set(_GRID_AXIS_FIELDS)
    if unknown:
        raise UsageError(f"grid file sets unknown axes: {sorted(unknown)}")
    empty = sorted(key for key, axis in values.items() if not axis)
    if empty:
        raise UsageError(f"grid file gives no value for axes: {empty}")
    return values


def _grid_cells(args) -> list[dict[str, int]]:
    """The hyper-parameters of each grid cell, by field name, in report order:
    each axis that the model kind reads (``models.GRID_AXES``) at its
    ``--grid`` or default values, and every other axis at its flag's value.
    A grid file that sets an axis the kind does not read is a usage error."""
    read = GRID_AXES[args.model]
    axes = {name: read.get(name, (getattr(args, _MODEL_FLAGS[name]),))
            for name in _GRID_AXIS_FIELDS.values()}
    if args.grid:
        for axis, values in _parse_grid_file(args.grid).items():
            if _GRID_AXIS_FIELDS[axis] not in read:
                raise UsageError(f"grid file {args.grid}: model {args.model} does not read "
                                 f"axis {axis}")
            axes[_GRID_AXIS_FIELDS[axis]] = values
    return [dict(zip(axes, cell)) for cell in itertools.product(*axes.values())]


# What every cell of a gridsearch run shares: (model kind, hyper-parameter
# flags, prepared windows, training config). A worker process receives it
# once, from the pool's initializer, and not with each cell.
_grid_run = None


def _share_grid_run(run) -> None:
    global _grid_run
    _grid_run = run


def _grid_cell_worker(cell, run=None):
    """Train one grid cell on the windows of ``run``, by default the shared
    one; returns (cell, model, TrainReport), or (cell, None, failure note)."""
    kind, hparams, prepared, config = run or _grid_run
    try:
        return (cell, *fit(kind, {**hparams, **cell}, prepared, config))
    except (ValueError, ArithmeticError) as exc:
        return cell, None, f"{type(exc).__name__}: {exc}"


def cmd_gridsearch(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    cells = _grid_cells(args)
    inputs: dict[str, bytes] = {}
    prepared = _prepare(args, _load_dataset(args, inputs))
    if not prepared.val:
        raise DataError("not enough windows for a train/validation split")
    run = (args.model, _model_fields(args), prepared, _train_config(args))
    if args.jobs > 1:
        import multiprocessing  # here, not at load: it adds ~8 ms to every start-up
        with multiprocessing.Pool(args.jobs, _share_grid_run, (run,)) as pool:
            results = pool.map(_grid_cell_worker, cells)
    else:
        results = [_grid_cell_worker(cell, run) for cell in cells]

    out = _out_dir(args, "gridsearch")
    ranked = sorted((r for r in results if r[1] is not None),
                    key=lambda r: r[2].best_val_j1)
    rows = [("rank", *(_MODEL_FLAGS[name] for name in _GRID_AXIS_FIELDS.values()),
             "val_j1", "status")]
    for rank, (cell, _, report) in enumerate(ranked, 1):
        rows.append((rank, *cell.values(), "%.17g" % report.best_val_j1, report.stopping_reason))
    failed = [(cell, note) for cell, model, note in results if model is None]
    rows.extend(("-", *cell.values(), "-", f"FAILED: {note}") for cell, note in failed)
    lines = ["\t".join(map(str, row)) for row in rows]
    report_path = out / "grid_report.tsv"
    report_path.write_text("\n".join(lines) + "\n", encoding="ascii")

    outputs = {"grid_report": report_path}
    if ranked:
        best_cell, model, _ = ranked[0]
        for name, value in best_cell.items():  # the manifest records the best cell
            setattr(args, _MODEL_FLAGS[name], value)
        ckpt_path = out / "best_checkpoint.txt"
        save_checkpoint(ckpt_path, model, extra_tensors=prepared.norm.tensors())
        outputs["best_checkpoint"] = ckpt_path
    write_manifest(out, "gridsearch", args, inputs, outputs)
    print(f"grid: {len(cells)} cells, {len(failed)} failed; report: {report_path}")
    return EXIT_OK


# The geometry of gradcheck --small. Unset, these flags read None, so that
# one given beside --small is refused; without --small they default to these
# values, but hidden to ModelConfig's as in every command.
_SMALL_GRADCHECK = dict(x=2, l=8, p=2, stages=1, filters=2, filter_size=3, hidden=3)


def cmd_gradcheck(args) -> int:
    given = [key for key in _SMALL_GRADCHECK if getattr(args, key) is not None]
    if args.small and given:
        raise UsageError(f"--{given[0].replace('_', '-')} cannot be given with --small, "
                         f"which sets it")
    defaults = (_SMALL_GRADCHECK if args.small
                else {**_SMALL_GRADCHECK, "hidden": ModelConfig.rnn_hidden})
    for key, value in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    model = MODELS[args.model]({**_model_fields(args), "num_series": args.x,
                                "input_length": args.l, "horizon": args.p,
                                "seed": args.seed})
    rng = np.random.default_rng(args.seed)
    x = rng.uniform(0.0, 1.0, (1, args.x, args.l))
    y = rng.uniform(0.0, 1.0, (1, args.p))
    report = gradcheck(model, x, y, tolerance=args.tolerance)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_NUMERIC


# -- parser ----------------------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser, writes_files: bool) -> None:
    if writes_files:
        p.add_argument("--out", help="output directory (default: $%s/<command>)"
                                     % OUTPUT_ROOT_ENV)
    p.add_argument("--config", help="key=value file; CLI flags take precedence")
    p.add_argument("--seed", type=int, default=0)


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=SYNTHETIC_KINDS, default=SyntheticConfig.kind)
    p.add_argument("--len", type=int, default=SyntheticConfig.length, help="series length")
    p.add_argument("--lag", type=int, default=SyntheticConfig.lag,
                   help="steps by which the driver leads the target")
    p.add_argument("--noise", type=float, default=SyntheticConfig.noise)
    p.add_argument("--base", type=float, default=SyntheticConfig.base)
    p.add_argument("--period", type=int, default=SyntheticConfig.season_period)
    p.add_argument("--season-amp", type=float, default=SyntheticConfig.season_amplitude)
    p.add_argument("--stoch-amp", type=float, default=SyntheticConfig.stoch_amplitude)
    p.add_argument("--ar", type=float, default=SyntheticConfig.ar_coeff)


def _train_flags(p: argparse.ArgumentParser) -> None:
    _add_csv_flags(p)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--l", type=int, required=True, help="input window length")
    p.add_argument("--p", type=int, required=True, help="forecast horizon")
    _add_model_flags(p)
    _add_train_flags(p)


def _forecast_flags(p: argparse.ArgumentParser) -> None:
    _add_csv_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--offset", type=int,
                   help="window start index (default: last full window)")


def _evaluate_flags(p: argparse.ArgumentParser) -> None:
    _add_csv_flags(p, required=False)
    _add_synth_flags(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--x", type=int, default=2, help="number of series used")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--eval-stride", type=int,
                   help="test window stride (default: l+p, non-overlapping)")
    p.add_argument("--ewma-smoothing", type=float, default=ExperimentSpec.ewma_smoothing)
    _add_model_flags(p)
    _add_train_flags(p)


def _robustness_flags(p: argparse.ArgumentParser) -> None:
    _add_csv_flags(p, required=False)
    _add_synth_flags(p)
    p.add_argument("--l", type=int, default=50)
    p.add_argument("--p", type=int, default=25)
    p.add_argument("--seeds", default="0")
    _add_model_flags(p)
    _add_train_flags(p)


def _gridsearch_flags(p: argparse.ArgumentParser) -> None:
    _add_csv_flags(p)
    p.add_argument("--model", choices=MODELS, default="crnn")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--grid", help="key=value file overriding the default axes "
                                  "(stages, filters, filter-size, hidden; "
                                  "rnn and lstm read hidden only)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    _add_model_flags(p)
    _add_train_flags(p)


def _gradcheck_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=MODELS, default="crnn")
    p.add_argument("--small", action="store_true",
                   help="check the small reference model; refuses the flags it sets")
    p.add_argument("--x", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--tolerance", type=float, default=GRADCHECK_TOLERANCE)
    _add_model_flags(p)
    p.set_defaults(**dict.fromkeys(_SMALL_GRADCHECK))


# Command name -> (help, adder of the flags beyond the common ones, handler),
# in the order the help lists them.
COMMANDS = {
    "generate": ("write a synthetic correlated pair as CSV", _add_synth_flags, cmd_generate),
    "train": ("train a model and save its checkpoint", _train_flags, cmd_train),
    "forecast": ("forecast from a checkpoint and a data window", _forecast_flags,
                 cmd_forecast),
    "evaluate": ("run one experiment cell across seeds", _evaluate_flags, cmd_evaluate),
    "robustness": ("compare models with correlated vs uncorrelated inputs",
                   _robustness_flags, cmd_robustness),
    "gridsearch": ("rank hyper-parameter cells by validation loss", _gridsearch_flags,
                   cmd_gridsearch),
    "gradcheck": ("verify analytic gradients by finite differences", _gradcheck_flags,
                  cmd_gradcheck),
}


def _named_command(argv: list[str]) -> str | None:
    """The command argv names, or None when it names none. It is the first
    token that is not an option: no top-level option takes a value."""
    for token in argv:
        if not token.startswith("-"):
            return token if token in COMMANDS else None
    return None


def build_parser(argv: list[str] | None = None) -> _Parser:
    """The command-line parser. It registers the command that ``argv`` names
    only, or every command when ``argv`` is None or names none (``-h``,
    ``--version``, an unknown command), so that help and the error for an
    unknown command list them all. A process parses one command line, so the
    other commands' parsers would be built for nothing."""
    parser = _Parser(prog="crnn-forecast",
                     description="Correlated time series forecasting toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    named = _named_command(argv or [])
    for name, (help_text, add_flags, handler) in COMMANDS.items():
        if named in (None, name):
            p = sub.add_parser(name, help=help_text)
            # gradcheck writes no file, so it takes no --out
            _add_common_flags(p, writes_files=name != "gradcheck")
            add_flags(p)
            p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv)
    try:
        cfg_path = _config_path(argv)
        if cfg_path is not None:
            values = _read_config_file(cfg_path)
            command = _named_command(argv)
            if command is not None:
                # defaults live on the subcommand parser
                sub = next(a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction))
                _apply_config_defaults(sub.choices[command], values)
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, ShapeError, OSError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # models.ConfigError among them
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
