"""Raw CSV ingestion, spline gap-filling, and IQR outlier flagging.

Cleaning never deletes data: gaps are filled with a natural cubic spline on
the integer week grid, and fence violations are flagged (and by default
retained).  An optional winsorize mode clamps flagged values to the fences.
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import io
import math
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import BinaryIO

import numpy as np

from .descriptive import quantile
from .errors import DataIntegrityError, InsufficientDataError, SchemaError
from .series import (
    FLAGS,
    MarketTable,
    PointFlag,
    Variable,
    WeekKey,
    WeeklySeries,
    _week_numbers,
)

DATE_FORMATS = {"iso": "%Y-%m-%d", "dmy": "%d/%m/%Y"}
# Largest accepted cell value.  Cells lie in [0, MAX_CELL], so every deviation
# from a mean is at most 1e75 and its fourth power at most 1e300: the central
# moments, squared DTW distances and regression cross-products of any series
# this size stay finite in float64 (max about 1.8e308).
MAX_CELL = 1e75

_OBSERVED, _INTERPOLATED, _OUTLIER_RETAINED = (
    FLAGS.index(f)
    for f in (PointFlag.OBSERVED, PointFlag.INTERPOLATED, PointFlag.OUTLIER_RETAINED)
)


@dataclass(frozen=True)
class ColumnSchema:
    """Column-name map for the input CSV plus the accepted date format."""

    date: str = "date"
    arrivals: str = "arrivals"
    price: str = "modal_price"
    date_format: str = "iso"

    def __post_init__(self) -> None:
        if self.date_format not in DATE_FORMATS:
            raise ValueError(
                f"date_format must be one of {sorted(DATE_FORMATS)}, got {self.date_format!r}"
            )


class Fence(str, Enum):
    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True)
class OutlierWeek:
    week: WeekKey
    value: float
    fence_violated: Fence


@dataclass(frozen=True)
class CleaningReport:
    """What cleaning did to one variable's series.

    missing_fraction = interpolated weeks / total span weeks.  Outlier values
    recorded here are the original observed values even in winsorize mode.
    """

    variable: Variable
    interpolated_weeks: tuple[WeekKey, ...]
    outlier_weeks: tuple[OutlierWeek, ...]
    missing_fraction: float
    clamped_weeks: tuple[WeekKey, ...] = field(default_factory=tuple)
    winsorized: bool = False


def _parse_cell(raw: str, column: str, line_no: int) -> float:
    raw = raw.strip()
    if raw == "":
        return math.nan
    try:
        value = float(raw)
    except ValueError:
        raise DataIntegrityError(
            f"line {line_no}: cannot parse {column} value {raw!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise DataIntegrityError(
            f"line {line_no}: {column} value {raw!r} is not a finite number"
        )
    if value < 0:
        raise DataIntegrityError(f"line {line_no}: negative {column} value {value}")
    if value > MAX_CELL:
        raise DataIntegrityError(
            f"line {line_no}: {column} value {raw!r} exceeds {MAX_CELL:g}"
        )
    return value


def _parse_row(
    row: list[str], line_no: int, width: int, cols: tuple[int, int, int], schema: ColumnSchema
) -> tuple[int, float, float]:
    """(week number, arrivals, price) of one data row, blank cells as NaN,
    or the DataIntegrityError that names what is wrong with it."""
    if len(row) != width:
        raise DataIntegrityError(
            f"line {line_no}: {len(row)} fields where the header has {width}"
        )
    raw_date = row[cols[0]].strip()
    try:
        day = dt.datetime.strptime(raw_date, DATE_FORMATS[schema.date_format]).date()
    except ValueError:
        raise DataIntegrityError(
            f"line {line_no}: cannot parse date {raw_date!r} with format "
            f"{schema.date_format!r}"
        ) from None
    return (
        (day.toordinal() - 1) // 7,
        _parse_cell(row[cols[1]], schema.arrivals, line_no),
        _parse_cell(row[cols[2]], schema.price, line_no),
    )


def _cell_value(raw: str) -> float:
    """float(raw), NaN for a blank cell, and -inf (rejected like any value
    outside [0, MAX_CELL]) for text that float() refuses or reads as NaN."""
    try:
        value = float(raw)
    except ValueError:
        return -math.inf if raw and not raw.isspace() else math.nan
    return value if value == value else -math.inf


def _cells(column: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(value of each cell, whether the value passes `_parse_cell`)."""
    values = np.fromiter(map(_cell_value, column), np.float64, len(column))
    return values, np.isnan(values) | ((values >= 0) & (values <= MAX_CELL))


_FIRST_DAY, _LAST_DAY = np.datetime64("0001-01-01", "D"), np.datetime64("9999-12-31", "D")


def _dates(column: tuple[str, ...], date_format: str) -> tuple[np.ndarray, np.ndarray]:
    """(week number of each date cell, whether the cell is the date's own text
    in `date_format`: a day of years 1..9999 with zero-padded fields)."""
    texts = [t.strip() for t in column]
    iso = texts if date_format == "iso" else [f"{t[6:]}-{t[3:5]}-{t[:2]}" for t in texts]
    # numpy warns about some texts it reads (time zones); the round trip
    # below rejects every one of them.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            days = np.array(iso, dtype="datetime64[D]")
        except ValueError:  # some text is no date at all: find which, one by one
            days = np.array([_day_or_nat(t) for t in iso], dtype="datetime64[D]")
    written = days.astype(str)
    if date_format == "dmy":
        written = np.array([f"{s[8:]}/{s[5:7]}/{s[:4]}" for s in written.tolist()])
    ok = (written == np.array(texts)) & (days >= _FIRST_DAY) & (days <= _LAST_DAY)
    return _week_numbers(days), ok


def _day_or_nat(text: str) -> np.datetime64:
    try:
        return np.datetime64(text, "D")
    except ValueError:
        return np.datetime64("NaT", "D")


def parse_market_csv(
    data: bytes | BinaryIO, schema: ColumnSchema = ColumnSchema()
) -> MarketTable:
    """The data rows of a UTF-8 CSV with a header, as week and value columns.

    Blank value cells read as NaN, which become gaps when a per-variable
    series is built; fully blank lines are skipped.  Each row must have as
    many fields as the header.  A row that breaks a rule is reported with its
    1-based line number (header = line 1, blank lines not counted).

    Every cell is read in one vectorised pass.  Only the rows that pass
    rejects go through the per-row rule (`_parse_row`), in file order; it
    accepts a row the pass is too strict for (say, a date that is not
    zero-padded) or raises that row's error.
    """
    raw = data if isinstance(data, bytes) else data.read()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        offset = exc.start + (len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0)
        raise DataIntegrityError(
            f"input is not UTF-8: byte 0x{raw[offset]:02x} at offset {offset}"
        ) from None
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        cols = None if header is None else _column_indices(header, schema)
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise DataIntegrityError(f"CSV line {reader.line_num}: {exc}") from None
    if not rows:
        return MarketTable(np.empty(0, np.int64), np.empty(0), np.empty(0))
    width = len(header)
    shaped = np.fromiter(map(len, rows), np.int64, len(rows)) == width
    # Rows of another width are blanked for the column pass; _parse_row rejects them.
    fitted = rows if shaped.all() else [
        row if ok else [""] * width for row, ok in zip(rows, shaped.tolist())
    ]
    columns = list(zip(*fitted))
    weeks, ok = _dates(columns[cols[0]], schema.date_format)
    arrivals, arrivals_ok = _cells(columns[cols[1]])
    prices, prices_ok = _cells(columns[cols[2]])
    for i in np.flatnonzero(~(shaped & ok & arrivals_ok & prices_ok)).tolist():
        weeks[i], arrivals[i], prices[i] = _parse_row(rows[i], i + 2, width, cols, schema)
    return MarketTable(weeks, arrivals, prices)


def _column_indices(header: list[str], schema: ColumnSchema) -> tuple[int, int, int]:
    """Indices of the date, arrivals and price columns; a repeated name
    means its last column."""
    index = {name: i for i, name in enumerate(header)}
    for col in (schema.date, schema.arrivals, schema.price):
        if col not in index:
            raise SchemaError(f"column {col!r} not found in CSV header {header}")
    return index[schema.date], index[schema.arrivals], index[schema.price]


def find_missing_weeks(series: WeeklySeries) -> list[WeekKey]:
    """Weeks strictly inside the series span with no observation, in order."""
    if len(series) < 2:
        return []
    first, _, missing = _gap_offsets(series)
    return [WeekKey.from_number(first + k) for k in missing.tolist()]


def _gap_offsets(series: WeeklySeries) -> tuple[int, np.ndarray, np.ndarray]:
    """(first week number, each point's offset from it, the offsets strictly
    inside the span that have no point, in order)."""
    first = int(series.numbers[0])
    offsets = series.numbers - first
    gap = np.ones(offsets[-1] + 1, dtype=bool)
    gap[offsets] = False
    return first, offsets, np.flatnonzero(gap)


def natural_spline_second_derivatives(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivatives of the natural cubic spline through (x, y).

    Solves the standard tridiagonal system with the Thomas algorithm; the
    natural boundary condition pins the second derivative to zero at both
    ends.  Knots must be strictly increasing.
    """
    n = x.size
    if n < 4:
        raise InsufficientDataError(f"natural cubic spline needs >= 4 knots, got {n}")
    h = np.diff(x)
    if np.any(h <= 0):
        raise ValueError("spline knots must be strictly increasing")
    # interior equations: (h[i-1]/6) m[i-1] + ((h[i-1]+h[i])/3) m[i] + (h[i]/6) m[i+1] = rhs[i]
    # The recurrences run on Python floats: the same IEEE operations as on
    # numpy scalars, without their per-operation cost.
    diag = ((h[:-1] + h[1:]) / 3.0).tolist()
    lower = (h[:-1] / 6.0).tolist()
    upper = (h[1:] / 6.0).tolist()
    rhs = np.diff(y) / h
    rhs = (rhs[1:] - rhs[:-1]).tolist()
    k = n - 2
    cp = [0.0] * k
    dp = [0.0] * k
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, k):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    m = [0.0] * n
    m[k] = dp[k - 1]
    for i in range(k - 1, 0, -1):
        m[i] = dp[i - 1] - cp[i - 1] * m[i + 1]
    return np.array(m)


def natural_spline_eval(
    x: np.ndarray, y: np.ndarray, m: np.ndarray, xq: np.ndarray
) -> np.ndarray:
    """Evaluate the natural cubic spline with second derivatives `m` at `xq`."""
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    h = x[idx + 1] - x[idx]
    a = (x[idx + 1] - xq) / h
    b = (xq - x[idx]) / h
    return (
        a * y[idx]
        + b * y[idx + 1]
        + ((a**3 - a) * m[idx] + (b**3 - b) * m[idx + 1]) * h**2 / 6.0
    )


def spline_fill(series: WeeklySeries) -> tuple[WeeklySeries, CleaningReport]:
    """Dense series with gaps filled by a natural cubic spline.

    Observed points pass through untouched (the spline interpolates, so knots
    are reproduced exactly).  Weeks are mapped to consecutive integers across
    the span, so sampling is uniform by construction.  Negative interpolants
    are clamped to 0 and listed in the report.
    """
    if len(series) < 4:
        raise InsufficientDataError(
            f"spline fill needs >= 4 observed points, got {len(series)}"
        )
    first, offsets, missing = _gap_offsets(series)
    if not missing.size:
        report = CleaningReport(series.variable, (), (), 0.0)
        return series, report

    x_obs = offsets.astype(float)
    y_obs = series.values()
    m2 = natural_spline_second_derivatives(x_obs, y_obs)
    filled = natural_spline_eval(x_obs, y_obs, m2, missing.astype(float))
    missing_weeks = [WeekKey.from_number(first + k) for k in missing.tolist()]
    clamped = [w for w, v in zip(missing_weeks, filled.tolist()) if v < 0]

    span = int(offsets[-1]) + 1
    values = np.empty(span)
    values[offsets] = y_obs
    values[missing] = np.maximum(filled, 0.0)
    flags = np.full(span, _INTERPOLATED, dtype=np.uint8)
    flags[offsets] = series.flags
    report = CleaningReport(
        variable=series.variable,
        interpolated_weeks=tuple(missing_weeks),
        outlier_weeks=(),
        missing_fraction=len(missing) / span,
        clamped_weeks=tuple(clamped),
    )
    return WeeklySeries(series.variable, first + np.arange(span), values, flags), report


def iqr_outliers(
    values: np.ndarray | list[float], k: float = 3.0
) -> list[tuple[int, Fence]]:
    """Indices of values strictly outside [Q1 - k*IQR, Q3 + k*IQR].

    Flag only; nothing is mutated.  Quantiles use the same linear-interpolation
    rule as the descriptive summaries.
    """
    v = np.asarray(values, dtype=float)
    lo, hi = _iqr_fences(v, k)
    low = v < lo
    flagged = np.flatnonzero(low | (v > hi))
    return [(int(i), Fence.LOW if low[i] else Fence.HIGH) for i in flagged]


def _iqr_fences(v: np.ndarray, k: float) -> tuple[float, float]:
    """(Q1 - k*IQR, Q3 + k*IQR) of the values."""
    if v.size < 4:
        raise InsufficientDataError(f"IQR fences need >= 4 values, got {v.size}")
    q1 = quantile(v, 0.25)
    q3 = quantile(v, 0.75)
    iqr = q3 - q1
    return q1 - k * iqr, q3 + k * iqr


def clean_series(
    series: WeeklySeries, k: float = 3.0, winsorize: bool = False
) -> tuple[WeeklySeries, CleaningReport]:
    """Full cleaning pass: spline-fill gaps, then flag IQR outliers.

    Fences come from the observed (pre-interpolation) values only.  Flagged
    points keep their value and get the OUTLIER_RETAINED flag; with
    ``winsorize=True`` the value is clamped to the violated fence instead
    (the report still records the original value).
    """
    dense, report = spline_fill(series)
    observed_values = series.values()
    flags = iqr_outliers(observed_values, k=k)
    if not flags:
        return dense, report
    if winsorize:
        lo, hi = _iqr_fences(observed_values, k)
        fence_value = {Fence.LOW: lo, Fence.HIGH: hi}

    first = int(dense.numbers[0])
    values = dense.values().copy()
    codes = dense.flags.copy()
    outliers = []
    for i, fence in flags:
        number = int(series.numbers[i])
        outliers.append(OutlierWeek(WeekKey.from_number(number), float(observed_values[i]), fence))
        if series.flags[i] == _OBSERVED:
            if winsorize:
                values[number - first] = fence_value[fence]
            codes[number - first] = _OUTLIER_RETAINED
    report = replace(report, outlier_weeks=tuple(outliers), winsorized=winsorize)
    return WeeklySeries(dense.variable, dense.numbers, values, codes), report
