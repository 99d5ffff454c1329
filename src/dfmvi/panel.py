"""Possibly-incomplete multivariate time series panels.

A panel is a T x n matrix of observations in which a NaN cell is missing:
its availability mask is derived from the values, so missingness is held
once.  All downstream math is driven by that mask, never by sentinel
comparisons.  Columns with zero available observations are retained: their
parameters simply stay at their priors during estimation.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, PanelFormatError


@dataclass(frozen=True)
class TimeSeriesPanel:
    """Immutable T x n panel; a NaN cell is missing.

    Attributes
    ----------
    values : (T, n) float array, NaN where the observation is missing.
    names : variable names, length n; ``var1`` to ``varn`` when None.
    """

    values: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DomainError("panel values must be a T x n matrix with T, n >= 1")
        default = (f"var{i + 1}" for i in range(values.shape[1]))
        names = tuple(str(v) for v in (default if self.names is None else self.names))
        if len(names) != values.shape[1]:
            raise DomainError("number of names does not match number of columns")
        repeated = [v for v, k in Counter(names).items() if k > 1]
        if repeated:
            raise DomainError(f"variable name {repeated[0]!r} appears more than once")
        _refuse_non_finite(values, np.isinf(values), names)
        object.__setattr__(self, "values", read_only(values.copy()))
        object.__setattr__(self, "names", names)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    # Panel-only arrays that every fit iteration and Gibbs sweep reads;
    # computed once per panel and read-only.

    @cached_property
    def mask(self) -> np.ndarray:
        """True where the observation is available: the cells not NaN."""
        return read_only(~np.isnan(self.values))

    @cached_property
    def mask_float(self) -> np.ndarray:
        """The mask as 1.0 (available) and 0.0 (missing)."""
        return read_only(self.mask.astype(float))

    @cached_property
    def zero_filled(self) -> np.ndarray:
        """Values with missing cells set to 0.0."""
        return read_only(np.where(self.mask, self.values, 0.0))

    @cached_property
    def counts(self) -> np.ndarray:
        """Available observations per column, as floats."""
        return read_only(self.mask_float.sum(axis=0))

    @cached_property
    def sums_of_squares(self) -> np.ndarray:
        """Sum of the squared available values per column."""
        return read_only((self.mask_float * self.zero_filled**2).sum(axis=0))


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it."""
    a.flags.writeable = False
    return a


def _refuse_non_finite(values: np.ndarray, bad: np.ndarray, names) -> None:
    """Raise naming the first cell flagged in ``bad``, in row order."""
    cells = np.argwhere(bad)
    if cells.size:
        t, j = cells[0]
        raise DomainError(
            f"available cell at time step {t + 1}, column {names[j]!r} "
            f"holds {values[t, j]}; available cells must be finite"
        )


def load_csv(path, data: bytes | None = None) -> TimeSeriesPanel:
    """Read a panel from a UTF-8 CSV file with a header of variable names.

    Each subsequent row is one time step.  An empty cell (after stripping
    surrounding whitespace) is missing.  A leading UTF-8 byte-order mark is
    dropped.  ``data``, when given, is the file's content already read;
    ``path`` then only names it in errors.

    Raises
    ------
    PanelFormatError
        On bytes that are not UTF-8, an empty file, ragged rows (a blank
        line counts as a row of zero fields unless only blank lines follow
        it), or non-empty cells that do not parse as a number (the error
        names the row and column).
    DomainError
        On a cell that parses to NaN or an infinite value (names the time
        step and column) or a variable name that appears twice.
    """
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise PanelFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    while rows and not rows[-1]:
        rows.pop()  # blank lines after the last data row
    if not rows:
        raise PanelFormatError(f"{path}: empty file, expected a header row")
    names = [c.strip() for c in rows[0]]
    n = len(names)
    if n == 0:
        raise PanelFormatError(f"{path}: header row has no columns")
    body = rows[1:]
    if not body:
        raise PanelFormatError(f"{path}: no data rows after the header")
    if any(len(row) != n for row in body):
        _raise_first_format_error(path, names, body)
    cells = [c.strip() for row in body for c in row]
    try:
        values = np.fromiter(map(float, [c or "nan" for c in cells]), float, len(cells))
    except ValueError:
        _raise_first_format_error(path, names, body)
    values = values.reshape(-1, n)
    # An empty cell reads as NaN, the missing marker, so a cell that reads as
    # NaN itself is refused with the infinite ones, the first in file order.
    filled = np.fromiter(map(bool, cells), bool, len(cells)).reshape(-1, n)
    _refuse_non_finite(values, filled & ~np.isfinite(values), names)
    return TimeSeriesPanel(values, names)


def _raise_first_format_error(path, names, body) -> None:
    """Raise the error of the first ragged row or unparsable cell, in file order."""
    for r, row in enumerate(body, start=2):
        if len(row) != len(names):
            raise PanelFormatError(
                f"{path}: row {r} has {len(row)} fields, expected {len(names)}"
            )
        for name, cell in zip(names, row):
            cell = cell.strip()
            if not cell:
                continue
            try:
                float(cell)
            except ValueError:
                raise PanelFormatError(
                    f"{path}: row {r}, column {name!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None


def write_csv(panel: TimeSeriesPanel, path) -> None:
    """Write a panel in the format read by :func:`load_csv`.

    Floats are written with ``repr`` so a write/load round trip reproduces
    values bit-exactly, and a missing cell is empty.  The bytes are those of
    :class:`csv.writer`, built a row at a time: the header goes through it,
    and a row of one missing cell is written as it writes one, a quoted
    empty field, not a blank line.
    """
    missing = '""' if panel.n == 1 else ""
    lines = []
    for values, present in zip(panel.values.tolist(), panel.mask.tolist()):
        cells = [repr(v) if ok else missing for v, ok in zip(values, present)]
        lines.append(",".join(cells) + "\r\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(panel.names)
        fh.write("".join(lines))


@dataclass(frozen=True)
class StandardizationRecord:
    """Per-column location/scale used to invert standardization.

    ``degenerate[i]`` flags columns with at most one available observation,
    which are passed through with identity scaling.
    """

    mean: np.ndarray
    scale: np.ndarray
    degenerate: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                "mean": [float(v) for v in self.mean],
                "scale": [float(v) for v in self.scale],
                "degenerate": [bool(v) for v in self.degenerate],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "StandardizationRecord":
        obj = json.loads(text)
        return cls(
            mean=np.asarray(obj["mean"], dtype=float),
            scale=np.asarray(obj["scale"], dtype=float),
            degenerate=np.asarray(obj["degenerate"], dtype=bool),
        )


def standardize(panel: TimeSeriesPanel) -> tuple[TimeSeriesPanel, StandardizationRecord]:
    """Rescale each column to mean 0, sample stdev 1 over its available cells.

    The sample standard deviation uses denominator T_i - 1.  Columns with
    T_i <= 1 are passed through unchanged and flagged in the returned
    record.  Missing cells stay NaN.

    Raises
    ------
    DomainError
        If a column with T_i >= 2 has zero sample variance (names the column).
    """
    counts = panel.mask.sum(axis=0)
    mean = np.zeros(panel.n)
    scale = np.ones(panel.n)
    degenerate = counts <= 1
    for i in range(panel.n):
        if degenerate[i]:
            continue
        col = panel.values[panel.mask[:, i], i]
        mu = col.mean()
        sd = col.std(ddof=1)
        if sd == 0.0:
            raise DomainError(
                f"column {panel.names[i]!r} has zero variance over its "
                f"{counts[i]} available cells and cannot be standardized"
            )
        mean[i] = mu
        scale[i] = sd
    record = StandardizationRecord(mean=mean, scale=scale, degenerate=degenerate)
    return TimeSeriesPanel((panel.values - mean) / scale, panel.names), record


def unstandardize(values: np.ndarray, record: StandardizationRecord) -> np.ndarray:
    """Invert :func:`standardize` on an array whose last axis indexes columns."""
    return np.asarray(values) * record.scale + record.mean
