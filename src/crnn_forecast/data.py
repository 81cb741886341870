"""Data pipeline: ingestion, normalization, windowing, and synthetic sources.

``prepare`` is the one pipeline that training, grid search and evaluation
use: split the raw series set chronologically, fit min-max normalization on
the training segment only, normalize both segments with those statistics,
then cut sliding windows and carve the last of them off for validation.

Windows are cut as :class:`Windows`: read-only array views of the normalized
matrix, with inputs X of shape (N, num_series, input_length), targets Y of
shape (N, horizon) and the offset of each window, in time order. No window is
copied until ``stack_samples`` gathers a set into contiguous batches.
Values are checked once. A :class:`TimeSeries` copies and checks the values
its caller gives; ``ingest_csv`` and ``with_values`` check one matrix whose
read-only rows become the series, and ``slice_time`` returns views of them.
A series is its name and values, one per time step; no time base is kept,
and a timestamp column (``--timestamp``) is only checked for uniform spacing.
"""

from __future__ import annotations

import csv
import io
import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor

__all__ = [
    "CorrelatedSet",
    "DataError",
    "Normalizer",
    "Prepared",
    "SYNTHETIC_KINDS",
    "SyntheticConfig",
    "TimeSeries",
    "WindowSample",
    "Windows",
    "generate_synthetic",
    "ingest_csv",
    "make_uncorrelated",
    "pearson",
    "prepare",
    "read_input",
    "segment",
    "split",
    "stack_samples",
    "train_val_split",
    "write_csv",
]

log = logging.getLogger(__name__)

# time steps per block in write_csv and _latent_signal, which go through a
# long series block by block so as not to hold one Python float per value
_BLOCK = 4096

TRAIN_FRAC = 0.84  # default share of a series set, from its start, for training+validation
VAL_FRACTION = 0.15  # default share of the training windows, the last ones, for validation


class DataError(ValueError):
    """Raised when input data violates the ingestion contract."""


@dataclass(frozen=True)
class TimeSeries:
    """A named measurement sequence, one value per time step. It keeps a
    private read-only copy of the values it is given, so the caller's array
    stays writable and no later write to it reaches the series."""

    id: str
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise DataError(f"series {self.id!r} must be a non-empty vector")
        if not np.isfinite(v).all():
            raise DataError(f"series {self.id!r} has missing or non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class CorrelatedSet:
    """An ordered collection of equally long series, step i of each taken at
    the same time; the first one is the target."""

    series: tuple[TimeSeries, ...]

    def __post_init__(self):
        if not self.series:
            raise DataError("a correlated set needs at least one series")
        first = self.series[0]
        for s in self.series[1:]:
            if len(s) != len(first):
                raise DataError(
                    f"series {s.id!r} has length {len(s)}, expected {len(first)}")
        object.__setattr__(self, "series", tuple(self.series))

    @property
    def num_series(self) -> int:
        return len(self.series)

    @property
    def length(self) -> int:
        return len(self.series[0])

    @property
    def target(self) -> TimeSeries:
        return self.series[0]

    def values_matrix(self) -> np.ndarray:
        """All series stacked as rows: shape (num_series, length)."""
        return np.stack([s.values for s in self.series])

    def take(self, k: int) -> "CorrelatedSet":
        """Keep the first k series (the target always stays)."""
        if not 1 <= k <= self.num_series:
            raise DataError(f"cannot take {k} of {self.num_series} series")
        return CorrelatedSet(self.series[:k])

    def slice_time(self, start: int, stop: int) -> "CorrelatedSet":
        """Steps [start, stop) of each series: views, no copy, no new check."""
        if not 0 <= start < stop <= self.length:
            raise DataError(f"invalid time slice [{start}, {stop})")
        return CorrelatedSet(tuple(_series_view(s.id, s.values[start:stop]) for s in self.series))

    def with_values(self, matrix: np.ndarray) -> "CorrelatedSet":
        """Same identities, replaced values (e.g. normalized), copied and checked once."""
        if matrix.shape != (self.num_series, self.length):
            raise DataError(f"replacement matrix shape {matrix.shape} does not match")
        return _rows_as_set([s.id for s in self.series], np.array(matrix, np.float64, order="C"))


def _series_view(id: str, values: np.ndarray) -> TimeSeries:
    """A series over ``values``, read-only and checked already, kept as they are."""
    series = object.__new__(TimeSeries)
    series.__dict__.update(id=id, values=values)  # a frozen dataclass's fields
    return series


def _rows_as_set(ids: Sequence[str], m: np.ndarray) -> CorrelatedSet:
    """The series ``ids`` over the rows of ``m``, a C-ordered float64 matrix
    no caller holds, made read-only. DataError names the first non-finite one."""
    finite = np.isfinite(m).all(axis=-1)
    if not finite.all():
        raise DataError(f"series {ids[int(np.argmin(finite))]!r} has missing or non-finite values")
    m.setflags(write=False)
    return CorrelatedSet(tuple(map(_series_view, ids, m)))


@dataclass(frozen=True)
class WindowSample:
    """One supervised case: an input block and the target values that follow it."""

    offset: int
    input: Tensor            # (num_series, input_length)
    target: np.ndarray       # (horizon,)

    def __post_init__(self):
        t = np.asarray(self.target, dtype=np.float64)
        t.setflags(write=False)
        object.__setattr__(self, "target", t)


@dataclass(frozen=True, eq=False)
class Windows(Sequence):
    """Supervised windows of one series set, in time order, as arrays.

    ``x`` (N, num_series, input_length) and ``y`` (N, horizon) are read-only
    views; ``offsets`` (N,) holds the start index of each window. Item ``i``
    is built on demand as a :class:`WindowSample`, and a slice is again a
    ``Windows``.
    """

    x: np.ndarray
    y: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Windows(self.x[i], self.y[i], self.offsets[i])
        return WindowSample(int(self.offsets[i]), Tensor(self.x[i]), self.y[i])


class Normalizer:
    """Per-series min-max scaling fitted on the training segment only.

    Constant series keep a unit denominator so the transform stays invertible.
    Test values may fall outside [0, 1]; they are passed through unchanged.
    """

    def __init__(self, mins: np.ndarray, maxs: np.ndarray):
        self.mins = np.asarray(mins, dtype=np.float64)
        self.maxs = np.asarray(maxs, dtype=np.float64)
        span = self.maxs - self.mins
        self.spans = np.where(span > 0, span, 1.0)

    @classmethod
    def fit(cls, train: CorrelatedSet) -> "Normalizer":
        m = train.values_matrix()
        return cls(m.min(axis=1), m.max(axis=1))

    def transform(self, cset: CorrelatedSet) -> CorrelatedSet:
        m = cset.values_matrix()
        return cset.with_values((m - self.mins[:, None]) / self.spans[:, None])

    def inverse_target(self, values: np.ndarray) -> np.ndarray:
        """Map normalized target-series values back to original units."""
        return np.asarray(values, dtype=np.float64) * self.spans[0] + self.mins[0]

    def tensors(self) -> dict[str, np.ndarray]:
        """Serializable form, stored alongside model checkpoints."""
        return {"norm.min": self.mins.copy(), "norm.max": self.maxs.copy()}

    @classmethod
    def from_tensors(cls, tensors) -> "Normalizer":
        """The normalizer ``tensors`` stores. DataError when it stores none,
        or naming the tensor when ``norm.min`` or ``norm.max`` is not a
        vector, not finite, or of another length than the other, or when
        ``norm.max`` lies below ``norm.min`` or so far above it that the span
        overflows."""
        try:
            mins, maxs = tensors["norm.min"], tensors["norm.max"]
        except KeyError as exc:
            raise DataError("checkpoint carries no normalization statistics") from exc
        for name, values in (("norm.min", mins), ("norm.max", maxs)):
            if np.ndim(values) != 1:
                raise DataError(f"checkpoint tensor {name} has shape {np.shape(values)}, "
                                f"not one value per series")
            if not np.isfinite(values).all():
                raise DataError(f"checkpoint tensor {name} holds non-finite values")
        if len(mins) != len(maxs):
            raise DataError(f"checkpoint tensor norm.min holds {len(mins)} values, "
                            f"norm.max {len(maxs)}")
        with np.errstate(over="ignore"):
            span = np.subtract(maxs, mins, dtype=np.float64)
        if (span < 0.0).any():
            raise DataError(f"checkpoint tensor norm.max lies below norm.min at series "
                            f"{int(np.argmax(span < 0.0))}")
        if np.isinf(span).any():
            raise DataError(f"checkpoint tensor norm.max lies too far above norm.min at "
                            f"series {int(np.argmax(np.isinf(span)))}: the span overflows")
        return cls(mins, maxs)


def split(cset: CorrelatedSet,
          train_frac: float = TRAIN_FRAC) -> tuple[CorrelatedSet, CorrelatedSet]:
    """Chronological prefix/suffix split at floor(train_frac * length)."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must be inside (0, 1), got {train_frac}")
    cut = int(train_frac * cset.length)
    if cut < 1 or cut >= cset.length:
        raise DataError(
            f"series of length {cset.length} is too short to split at {train_frac}")
    return cset.slice_time(0, cut), cset.slice_time(cut, cset.length)


def segment(cset: CorrelatedSet, input_length: int, horizon: int,
            stride: int = 1) -> Windows:
    """Cut sliding supervised windows: inputs of l values, targets of the next p.

    Window ``i`` starts at ``offsets[i] = i * stride``; its input is
    ``m[:, o:o+l]`` and its target ``m[0, o+l:o+l+p]`` of the values matrix
    ``m``. Both are read-only views of one copy of ``m``, cut without a loop.
    Returns no windows (with a warning) when the segment is shorter than
    input_length + horizon.
    """
    if input_length < 1 or horizon < 1 or stride < 1:
        raise ValueError("input_length, horizon and stride must be positive")
    total = input_length + horizon
    if cset.length < total:
        log.warning("segment of length %d is shorter than l + p = %d; no windows",
                    cset.length, total)
        x = np.empty((0, cset.num_series, input_length))
        y = np.empty((0, horizon))
        x.setflags(write=False)
        y.setflags(write=False)
        return Windows(x, y, np.arange(0))
    matrix = cset.values_matrix()
    count = cset.length - total + 1  # windows at stride 1
    x = sliding_window_view(matrix, input_length, axis=1)[:, :count:stride]
    y = sliding_window_view(matrix[0], horizon)[input_length:input_length + count:stride]
    return Windows(x.transpose(1, 0, 2), y, np.arange(0, count, stride))


def train_val_split(windows: Windows,
                    val_fraction: float = VAL_FRACTION) -> tuple[Windows, Windows]:
    """Chronological carve-out: the last fraction of windows becomes validation.

    ``windows`` are in time order, as ``segment`` cuts them; the split is two
    slices of them.
    """
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in [0, 1), got {val_fraction}")
    cut = len(windows) - int(len(windows) * val_fraction)
    return windows[:cut], windows[cut:]


def stack_samples(windows: Windows) -> tuple[np.ndarray, np.ndarray]:
    """Gather windows into dense batches X (N, n, l) and Y (N, p): one copy
    each, C-contiguous and writable; batches cut from strided views would be
    slower to compute on."""
    if not windows:
        raise ValueError("cannot stack an empty window set")
    return np.array(windows.x, order="C"), np.array(windows.y, order="C")


@dataclass(frozen=True)
class Prepared:
    """Windows of one series set, normalized with its training statistics."""

    norm: Normalizer
    train: Windows
    val: Windows
    test: Windows


def prepare(cset: CorrelatedSet, input_length: int, horizon: int, *,
            train_frac: float, val_fraction: float,
            test_stride: int | None = None) -> Prepared:
    """Split, normalize on the training part, and cut stride-1 training
    windows whose last ``val_fraction`` become validation. Test windows are
    cut at ``test_stride`` when it is given, and are empty otherwise.

    Raises DataError when there is no training window, or no test window
    although one was asked for.
    """
    train_set, test_set = split(cset, train_frac)
    norm = Normalizer.fit(train_set)
    windows = segment(norm.transform(train_set), input_length, horizon, stride=1)
    if not windows:
        raise DataError(
            f"training segment of length {train_set.length} is too short for "
            f"l+p = {input_length + horizon}")
    tr, val = train_val_split(windows, val_fraction)
    test = windows[:0]
    if test_stride is not None:
        test = segment(norm.transform(test_set), input_length, horizon, stride=test_stride)
        if not test:
            raise DataError("test segment is too short for a single evaluation window")
    return Prepared(norm, tr, val, test)


# -- CSV ingestion --------------------------------------------------------------


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _resolve_column(spec: str | int, header: list[str] | None, path: str) -> int:
    if isinstance(spec, int) or (isinstance(spec, str) and spec.lstrip("-").isdigit()):
        return int(spec)
    if header is None:
        raise DataError(f"{path}: column {spec!r} given by name but the file has no header")
    matches = [i for i, name in enumerate(header) if name == spec]
    if not matches:
        raise DataError(f"{path}: no column named {spec!r} (header: {header})")
    if len(matches) > 1:
        raise DataError(f"{path}: the name {spec!r} heads columns "
                        f"{', '.join(map(str, matches))}; select one by index")
    return matches[0]


def _raise_row_error(path, text: str, skip: int, width: int, indices: list[int],
                     ts_index: int | None) -> None:
    """Raise the DataError for the first data row of ``text`` that is ragged or
    holds a selected cell that float() rejects, cut and numbered by the line it
    starts on as csv.reader reads them, past ``skip`` non-blank header rows."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, start = [], 1
    for row in reader:
        if "".join(row).strip():
            rows.append((start, row))
        start = reader.line_num + 1
    for line, row in rows[skip:]:
        if len(row) != width:
            raise DataError(f"{path}: row {line} has {len(row)} cells, expected {width}")
        for idx in indices:
            # float() skips only the spaces it knows; str.strip() also drops
            # control separators such as \x1f, so the test reads the raw cell
            cell = row[idx]
            if not cell.strip():
                raise DataError(f"{path}: row {line} has a blank cell in column {idx}")
            if not _parses(cell):
                raise DataError(f"{path}: row {line} column {idx} is not numeric: "
                                f"{cell.strip()!r}") from None
        if ts_index is not None and not _parses(row[ts_index]):
            raise DataError(f"{path}: row {line} has a non-numeric timestamp") from None


def read_input(path) -> bytes:
    """The bytes of the input file at ``path``. A command reads each input
    once and hands the bytes to the parser and to the manifest digest, so a
    pipe such as ``<(cat data.csv)`` is parsed and hashed alike."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


# A comma and every character str.strip() strips: what a blank record's line holds
_BLANK = (",\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
          "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def _quote_free_lines(text: str) -> list[str] | None:
    """The lines of ``text`` if csv.reader would read each as one record of the
    cells between its commas; None if the text holds a quote, a NUL, a line end
    of str.splitlines that csv.reader keeps in a cell, or an overlong line."""
    if any(c in text for c in '"\0\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'):
        return None
    lines = text.splitlines()
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    return lines


def ingest_csv(path, *, columns: Sequence[str | int] = (), timestamp: str | int | None = None,
               target: str | int | None = None, raw: bytes | None = None) -> CorrelatedSet:
    """Read an aligned series set from a comma-separated UTF-8 file, or from
    ``raw``, its bytes already read from ``path``. A leading byte-order mark,
    as spreadsheet exports write, is skipped.

    Each column is named by its header name or by its file column index
    (an int or a string of digits). ``columns`` selects the series to read,
    in order, the first being the forecast target; empty, it selects every
    column but the ``timestamp`` one. A ``target`` is moved to the front of
    the selection, or put there when it is not among it. ``timestamp``
    names a column that is checked for uniform spacing and not read; neither
    ``columns`` nor ``target`` may select it. A name that heads more than one
    column is refused; such a column is selected by index.

    The bytes are decoded as UTF-8 in one piece, so a decode error names the
    bad byte's offset in the file, mark included. Quote-free text is cut into
    lines, its non-blank ones joined and split at commas once; other text
    goes through csv.reader, so quoted cells are read and a malformed input
    gets csv's error. Both give one flat list of cells, column i being
    ``flat[i::width]``, and one cast reads the selected columns.

    A cell is read as float() reads it. Any blank or non-numeric cell,
    ragged row, column selected twice, or non-uniform timestamp column aborts
    ingestion; a bad row is named by the file line it starts on. The series
    keep no time base.
    """
    raw = read_input(path) if raw is None else raw
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = _quote_free_lines(text)
    if lines is not None:  # a row is a line, its cells the line cut at commas
        rows = [line for line in lines if line.strip(_BLANK)]
    else:  # line breaks left to csv.reader, as open(newline="") does
        try:
            rows = [r for r in csv.reader(io.StringIO(text, newline="")) if "".join(r).strip()]
        except csv.Error as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
    head = (rows[0].split(",") if lines is not None else rows[0]) if rows else []
    header = None if all(map(_parses, head)) else head
    data_rows = rows[1:] if header is not None else rows
    if not data_rows:
        raise DataError(f"{path}: file holds no data rows")
    if lines is not None:
        width = data_rows[0].count(",") + 1
        ragged = any(row.count(",") != width - 1 for row in data_rows)
        flat = ",".join(data_rows).split(",")
    else:
        width = len(data_rows[0])
        ragged = any(len(row) != width for row in data_rows)
        flat = [cell for row in data_rows for cell in row]

    specs = list(columns) if columns else list(range(width))
    ts_index = None
    if timestamp is not None:
        ts_index = _resolve_column(timestamp, header, str(path))
        if not columns:
            specs = [i for i in range(width) if i != ts_index]
    indices = [_resolve_column(s, header, str(path)) for s in specs]
    if len(set(indices)) < len(indices):
        twice = next(idx for n, idx in enumerate(indices) if idx in indices[:n])
        name = f" ({header[twice]})" if header is not None and 0 <= twice < len(header) else ""
        raise DataError(f"{path}: column {twice}{name} is selected twice")
    if ts_index in indices:
        raise DataError(f"{path}: column {ts_index} is the timestamp column")
    if target is not None:
        first = _resolve_column(target, header, str(path))
        if first == ts_index:
            raise DataError(f"{path}: the target column {first} is the timestamp column")
        indices = [first] + [i for i in indices if i != first]
    selected = indices + ([ts_index] if ts_index is not None else [])
    for idx in selected:
        if not 0 <= idx < width:
            raise DataError(f"{path}: column index {idx} outside row width {width}")

    # One cast of the selected columns, i as flat[i::width]; numpy reads a str with float()
    try:
        if ragged:
            raise ValueError("ragged row")  # named below, as a bad cell is
        values = np.array([flat[idx::width] for idx in selected], dtype=np.float64)
    except ValueError:  # only a bad row pays for cutting rows into cells and numbering lines
        _raise_row_error(path, text, len(rows) - len(data_rows), width, indices, ts_index)
        raise

    if ts_index is not None and not np.isfinite(values[-1]).all():
        raise DataError(f"{path}: timestamp column {ts_index} holds a non-finite value")
    if ts_index is not None and len(data_rows) > 1:
        deltas = np.diff(values[-1])
        interval = float(deltas[0])
        if interval <= 0 or not np.allclose(deltas, interval, rtol=1e-9, atol=0.0):
            raise DataError(f"{path}: timestamp column is not uniformly spaced")

    unnamed = [i for i in indices if header is not None and i >= len(header)]
    if unnamed:
        raise DataError(f"{path}: the header has no name for column {unnamed[0]}")
    names = [header[i] if header is not None else f"col{i}" for i in indices]
    return _rows_as_set(names, values[:len(indices)])


def write_csv(cset: CorrelatedSet, path) -> None:
    """Write a series set with a header row; values round-trip bit-exactly.

    ``csv.writer`` writes the header, whose names may need quoting. The values
    go ``_BLOCK`` time steps at a time: one ``%`` formats a block from Python
    floats (``tolist``), a ``%.17g`` field per value, commas between and
    ``\\r\\n`` after each row. The excel dialect never quotes a ``%.17g``
    field, so the bytes are those ``csv.writer`` writes row by row.
    """
    matrix = cset.values_matrix()
    row = ",".join(["%.17g"] * cset.num_series) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([s.id for s in cset.series])
        for start in range(0, cset.length, _BLOCK):
            block = matrix[:, start:start + _BLOCK].T
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


# -- synthetic sources -----------------------------------------------------------


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Sample Pearson correlation coefficient."""
    return float(np.corrcoef(np.asarray(a, float), np.asarray(b, float))[0, 1])


SURROGATE_ATTEMPTS = 100  # draws make_uncorrelated tries before it gives up


def make_uncorrelated(reference: TimeSeries, seed: int) -> TimeSeries:
    """Build a surrogate with the reference's length, mean, and variance but
    randomized phase, so it carries no information about the reference.

    Regenerates with a fresh seed until |corr| with the reference drops
    below 0.1 (almost always the first attempt), at most SURROGATE_ATTEMPTS
    times. DataError when the reference is constant, whose correlation with
    any series is undefined, or when every attempt fails.
    """
    v = reference.values
    if v.min() == v.max():
        raise DataError(f"series {reference.id!r} is constant; "
                        f"it has no uncorrelated surrogate")
    n = len(v)
    mean = float(v.mean())
    std = float(v.std())
    spectrum = np.abs(np.fft.rfft(v - mean))
    for attempt in range(SURROGATE_ATTEMPTS):
        rng = np.random.default_rng((seed, attempt))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=spectrum.size)
        phases[0] = 0.0
        if n % 2 == 0:
            phases[-1] = 0.0
        surrogate = np.fft.irfft(spectrum * np.exp(1j * phases), n=n)
        surrogate = (surrogate - surrogate.mean()) / surrogate.std() * std + mean
        if abs(pearson(surrogate, v)) < 0.1:
            return TimeSeries(f"{reference.id}-uncorrelated", surrogate)
    raise DataError("could not generate an uncorrelated surrogate; series too short?")


SYNTHETIC_KINDS = ("lagged", "independent")  # in the CLI's order; the first is the default


@dataclass
class SyntheticConfig:
    """Two-series benchmark generator.

    ``lagged`` couples the pair through a shared latent signal: the driver
    shows the latent signal ``lag`` steps early, the target shows it with
    observation noise. ``independent`` draws two unrelated signals.
    """

    kind: str = SYNTHETIC_KINDS[0]
    length: int = 2000
    lag: int = 5
    noise: float = 0.05
    seed: int = 0
    base: float = 5.0
    season_period: int = 40
    season_amplitude: float = 1.0
    stoch_amplitude: float = 0.7
    ar_coeff: float = 0.9

    def __post_init__(self):
        if self.kind not in SYNTHETIC_KINDS:
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if self.length < 2 or self.lag < 0:
            raise ValueError("length must be >= 2 and lag >= 0")
        if not self.season_period > 0:
            raise ValueError(f"season_period must be positive, got {self.season_period}")
        for name in ("noise", "base", "season_amplitude", "stoch_amplitude", "ar_coeff"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _latent_signal(cfg: SyntheticConfig, rng: np.random.Generator, n: int,
                   period_scale: float = 1.0) -> np.ndarray:
    """Seasonal plus AR(1) signal of ``n`` values around ``cfg.base``.

    The recurrence ``ar[i] = ar_coeff * ar[i-1] + scale * innovation[i]`` runs
    over Python floats, ``_BLOCK`` steps at a time. Each step is the binary64
    multiply, multiply and add of a numpy-scalar loop, each rounded once, and
    the vectorised ``scale * innovations`` rounds as the scalar product does,
    so the values are bit-identical to that loop's.

    Raises ValueError naming ``ar_coeff`` when the recurrence overflows, as
    it does for ``|ar_coeff| > 1`` over enough steps. Only the last value is
    checked: an infinite value times a non-zero coefficient stays infinite.
    """
    t = np.arange(n, dtype=np.float64)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    period = cfg.season_period * period_scale
    season = cfg.season_amplitude * np.sin(2.0 * np.pi * t / period + phase)
    innovations = rng.normal(0.0, 1.0, size=n)
    ar = np.empty(n)
    scale = cfg.stoch_amplitude * np.sqrt(max(1.0 - cfg.ar_coeff ** 2, 1e-12))
    ar[0] = cfg.stoch_amplitude * innovations[0]
    a, prev = float(cfg.ar_coeff), float(ar[0])
    for start in range(1, n, _BLOCK):
        steps = (scale * innovations[start:start + _BLOCK]).tolist()
        ar[start:start + len(steps)] = [prev := a * prev + e for e in steps]
    if not np.isfinite(prev):
        raise ValueError(f"ar_coeff={cfg.ar_coeff} with stoch_amplitude={cfg.stoch_amplitude} "
                         f"makes the AR(1) signal overflow within {n} steps")
    return cfg.base + season + ar


def generate_synthetic(cfg: SyntheticConfig) -> CorrelatedSet:
    """Deterministic two-series set: target first, driver second."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.kind == "lagged":
        latent = _latent_signal(cfg, rng, cfg.length + cfg.lag)
        target = latent[:cfg.length] + rng.normal(0.0, cfg.noise, size=cfg.length)
        driver = latent[cfg.lag:cfg.lag + cfg.length]
    else:
        target = _latent_signal(cfg, rng, cfg.length) + rng.normal(
            0.0, cfg.noise, size=cfg.length)
        # incommensurate period keeps two same-family seasonals uncorrelated
        driver = _latent_signal(cfg, rng, cfg.length, period_scale=1.618)
    return CorrelatedSet((
        TimeSeries("target", target),
        TimeSeries("driver", driver),
    ))
