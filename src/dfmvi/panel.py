"""Possibly-incomplete multivariate time series panels.

A panel is a T x n matrix of observations with an explicit boolean
availability mask.  Missing cells hold NaN, but all downstream math is
driven by the mask, never by sentinel comparisons.  Columns with zero
available observations are retained: their parameters simply stay at
their priors during estimation.
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
    """Immutable T x n panel with per-cell availability.

    Attributes
    ----------
    values : (T, n) float array, NaN where the mask is False.
    mask : (T, n) bool array, True where the observation is available.
    names : variable names, length n.
    """

    values: np.ndarray
    mask: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DomainError("panel values must be a T x n matrix with T, n >= 1")
        if mask.shape != values.shape:
            raise DomainError("mask shape does not match values shape")
        if len(self.names) != values.shape[1]:
            raise DomainError("number of names does not match number of columns")
        names = tuple(str(v) for v in self.names)
        repeated = [v for v, k in Counter(names).items() if k > 1]
        if repeated:
            raise DomainError(f"variable name {repeated[0]!r} appears more than once")
        bad = np.argwhere(mask & ~np.isfinite(values))
        if bad.size:
            t, j = bad[0]
            raise DomainError(
                f"available cell at time step {t + 1}, column {str(self.names[j])!r} "
                f"holds {values[t, j]}; available cells must be finite"
            )
        if np.any(~np.isnan(values[~mask])):
            raise DomainError("missing cells must hold the NaN marker")
        object.__setattr__(self, "values", read_only(values.copy()))
        object.__setattr__(self, "mask", read_only(mask.copy()))
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


def from_arrays(values: np.ndarray, names=None) -> TimeSeriesPanel:
    """Build a panel from a float matrix, treating NaN cells as missing."""
    values = np.asarray(values, dtype=float)
    if names is None:
        names = [f"var{i + 1}" for i in range(values.shape[1])]
    return TimeSeriesPanel(values=values, mask=~np.isnan(values), names=tuple(names))


def load_csv(path, missing_token: str = "", data: bytes | None = None) -> TimeSeriesPanel:
    """Read a panel from a UTF-8 CSV file with a header of variable names.

    Each subsequent row is one time step.  Cells equal to ``missing_token``
    (after stripping surrounding whitespace) are treated as missing.  A
    leading UTF-8 byte-order mark is dropped.  ``data``, when given, is the
    file's content already read; ``path`` then only names it in errors.

    Raises
    ------
    PanelFormatError
        On bytes that are not UTF-8, an empty file, ragged rows (a blank
        line counts as a row of zero fields unless only blank lines follow
        it), or cells that parse as neither a number nor the missing token
        (the error names the row and column).
    DomainError
        On a cell that parses to an infinite value (names the time step and
        column) or a variable name that appears twice.
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
        _raise_first_format_error(path, names, body, missing_token)
    cells = [c.strip() for row in body for c in row]
    present = [c != missing_token for c in cells]
    parsed = map(float, [c if keep else "nan" for c, keep in zip(cells, present)])
    try:
        values = np.fromiter(parsed, float, len(cells))
    except ValueError:
        _raise_first_format_error(path, names, body, missing_token)
    return TimeSeriesPanel(
        values=values.reshape(-1, n),
        mask=np.fromiter(present, bool, len(cells)).reshape(-1, n),
        names=names,
    )


def _raise_first_format_error(path, names, body, missing_token) -> None:
    """Raise the error of the first ragged row or unparsable cell, in file order."""
    for r, row in enumerate(body, start=2):
        if len(row) != len(names):
            raise PanelFormatError(
                f"{path}: row {r} has {len(row)} fields, expected {len(names)}"
            )
        for name, cell in zip(names, row):
            cell = cell.strip()
            if cell == missing_token:
                continue
            try:
                float(cell)
            except ValueError:
                raise PanelFormatError(
                    f"{path}: row {r}, column {name!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None


def write_csv(panel: TimeSeriesPanel, path, missing_token: str = "") -> None:
    """Write a panel in the format read by :func:`load_csv`.

    Floats are written with ``repr`` so a write/load round trip reproduces
    values bit-exactly.  The bytes are those of :class:`csv.writer`, built a
    row at a time: the header and the missing token go through it (a token
    holding a comma, quote or line break is quoted), and so does a row of one
    missing cell, which it writes as a quoted empty field, not a blank line.
    """
    missing = _csv_row([missing_token])[:-2] if missing_token or panel.n == 1 else ""
    lines = [_csv_row(panel.names)]
    for values, present in zip(panel.values.tolist(), panel.mask.tolist()):
        cells = [repr(v) if ok else missing for v, ok in zip(values, present)]
        lines.append(",".join(cells) + "\r\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))


def _csv_row(cells) -> str:
    """One row as :class:`csv.writer` writes it, line terminator included."""
    out = io.StringIO()
    csv.writer(out).writerow(cells)
    return out.getvalue()


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
    record.  Missing cells are untouched.

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
    out = (panel.values - mean) / scale
    out = np.where(panel.mask, out, np.nan)
    record = StandardizationRecord(mean=mean, scale=scale, degenerate=degenerate)
    return (
        TimeSeriesPanel(values=out, mask=panel.mask, names=panel.names),
        record,
    )


def unstandardize(values: np.ndarray, record: StandardizationRecord) -> np.ndarray:
    """Invert :func:`standardize` on an array whose last axis indexes columns."""
    return np.asarray(values) * record.scale + record.mean
