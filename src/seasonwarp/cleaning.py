"""Raw CSV ingestion, spline gap-filling, and IQR outlier flagging.

Cleaning never deletes data: gaps are filled with a natural cubic spline on
the integer week grid, and values outside the 3×IQR fences (`FENCE_K`) are
flagged (and by default retained).  An optional winsorize mode clamps
flagged values to the fences.
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import io
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import compress, islice
from typing import BinaryIO

import numpy as np

from .descriptive import _sorted_quantile
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
# Tukey's far-out fences: a value is flagged strictly outside
# [Q1 - FENCE_K * IQR, Q3 + FENCE_K * IQR].
FENCE_K = 3.0

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


def _cells(column: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(value of each cell, whether the value passes `_parse_cell`).

    The builtin float reads the whole column at once.  A column that holds a
    cell float refuses (blank or not a number) or reads as NaN (`nan` text)
    is read again cell by cell with `_cell_value`; float gives the same
    value as `_cell_value` for every other cell.
    """
    try:
        values = np.fromiter(map(float, column), np.float64, len(column))
    except ValueError:
        values = None
    if values is None or np.isnan(values).any():
        values = np.fromiter(map(_cell_value, column), np.float64, len(column))
    return values, np.isnan(values) | ((values >= 0) & (values <= MAX_CELL))


_FIRST_DAY, _LAST_DAY = np.datetime64("0001-01-01", "D"), np.datetime64("9999-12-31", "D")


# Each date format's ten characters ("d" is an ASCII digit), and the places
# that spell the day as yyyy-mm-dd.
_DATE_SHAPES = {
    "iso": (b"dddd-dd-dd", list(range(10))),
    "dmy": (b"dd/dd/dddd", [6, 7, 8, 9, 2, 3, 4, 5, 0, 1]),
}


def _dates(column: list[str], date_format: str) -> tuple[np.ndarray, np.ndarray]:
    """(week number of each date cell, whether the cell is the date's own text
    in `date_format`: a day of years 1..9999 with zero-padded fields).

    A stripped cell is its day's own text when it has exactly the shape
    `dddd-dd-dd` (iso) or `dd/dd/dddd` (dmy) with ASCII digits, checked one
    byte per character, and numpy reads it as a day in that range (numpy
    writes such a day as that same text).  The week number of any other
    cell is meaningless.
    """
    texts = [t.strip() for t in column]
    ten = np.fromiter(map(len, texts), np.intp, len(texts)) == 10
    # The texts of ten characters, one byte each: a non-ASCII character becomes "?".
    chars = "".join(compress(texts, ten.tolist())).encode("ascii", "replace")
    pattern, order = _DATE_SHAPES[date_format]
    places = np.frombuffer(pattern, np.uint8)
    cells = np.frombuffer(chars, np.uint8).reshape(-1, 10)
    # Unsigned bytes: one below "0" wraps round above "9".
    shaped = np.where(places == ord("d"), cells - ord("0") <= 9, cells == places).all(axis=1)
    iso = np.take(cells[shaped], order, axis=1)
    iso[:, [4, 7]] = ord("-")
    iso = iso.view("S10").ravel()
    try:
        parsed = iso.astype("datetime64[D]")
    except ValueError:  # some shaped text is no day (month 13, say): find which, one by one
        parsed = np.array([_day_or_nat(t) for t in iso.tolist()], dtype="datetime64[D]")
    at = np.flatnonzero(ten)[shaped]
    weeks = np.zeros(len(texts), np.int64)
    ok = np.zeros(len(texts), dtype=bool)
    weeks[at] = _week_numbers(parsed)
    ok[at] = (parsed >= _FIRST_DAY) & (parsed <= _LAST_DAY)
    return weeks, ok


def _day_or_nat(text: bytes) -> np.datetime64:
    try:
        return np.datetime64(text.decode(), "D")
    except ValueError:
        return np.datetime64("NaT", "D")


def parse_market_csv(
    data: bytes | BinaryIO, schema: ColumnSchema = ColumnSchema()
) -> MarketTable:
    """The data rows of a UTF-8 CSV with a header, as week and value columns.

    Blank value cells read as NaN, which become gaps when a per-variable
    series is built; fully blank lines are skipped.  Each row must have as
    many fields as the header.  A row that breaks a rule is reported with the
    1-based number of the physical line it ends on (`csv.reader.line_num`:
    header = line 1, blank lines and line breaks inside quoted fields count).

    One pass of the reader puts each row's date, arrivals and price cells in
    three columns, and every column is checked in one vectorised pass: a date
    must have exactly the zero-padded shape of `date_format` (see `_dates`).
    Only the rows that pass rejects go through the per-row rule
    (`_parse_row`), in file order, on a second read of the text; it accepts a
    row the pass is too strict for (say, a date that is not zero-padded) or
    raises that row's error.
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
    dates: list[str] = []
    arrivals_text: list[str] = []
    prices_text: list[str] = []
    try:
        header = next(reader, None)
        if header is None:
            return MarketTable(np.empty(0, np.int64), np.empty(0), np.empty(0))
        cols = _column_indices(header, schema)
        width = len(header)
        for row in reader:
            if len(row) == width:
                dates.append(row[cols[0]])
                arrivals_text.append(row[cols[1]])
                prices_text.append(row[cols[2]])
            elif row:  # a blank date: the row goes to _parse_row, which rejects its width
                dates.append("")
                arrivals_text.append("")
                prices_text.append("")
    except csv.Error as exc:
        raise DataIntegrityError(f"CSV line {reader.line_num}: {exc}") from None
    del reader  # and its StringIO, a four-byte-per-character copy of the text
    weeks, ok = _dates(dates, schema.date_format)
    arrivals, arrivals_ok = _cells(arrivals_text)
    prices, prices_ok = _cells(prices_text)
    rejected = set(np.flatnonzero(~(ok & arrivals_ok & prices_ok)).tolist())
    if rejected:  # read again for physical line numbers, only when a row needs one
        reader = csv.reader(io.StringIO(text))
        next(reader)
        for i, row in enumerate(row for row in reader if row):
            if i in rejected:
                weeks[i], arrivals[i], prices[i] = _parse_row(
                    row, reader.line_num, width, cols, schema
                )
    return MarketTable(weeks, arrivals, prices)


def _column_indices(header: list[str], schema: ColumnSchema) -> tuple[int, int, int]:
    """Indices of the date, arrivals and price columns; a repeated name
    means its last column."""
    index = {name: i for i, name in enumerate(header)}
    for col in (schema.date, schema.arrivals, schema.price):
        if col not in index:
            raise SchemaError(f"column {col!r} not found in CSV header {header}")
    return index[schema.date], index[schema.arrivals], index[schema.price]


def _gap_offsets(series: WeeklySeries) -> tuple[int, np.ndarray, np.ndarray]:
    """(first week number, each point's offset from it, the offsets strictly
    inside the span that have no point, in order)."""
    first = int(series.numbers[0])
    offsets = series.numbers - first
    gap = np.ones(offsets[-1] + 1, dtype=bool)
    gap[offsets] = False
    return first, offsets, np.flatnonzero(gap)


# A run of at least this many equal rows is solved until its factors settle,
# a shorter one row by row.  Factors settle within about 17 rows of any even
# spacing, so a shorter run would save too few rows to pay for its bookkeeping.
_SETTLING_RUN = 32


def natural_spline_second_derivatives(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivatives of the natural cubic spline through (x, y).

    Solves the standard tridiagonal system with the Thomas algorithm; the
    natural boundary condition pins the second derivative to zero at both
    ends.  Knots must be strictly increasing.

    Row i's pivot is diag[i] - lower[i] * factor[i-1] and its factor is
    upper[i] / pivot.  In a run of rows with the same (lower, diag, upper),
    which on the weekly grid is every row but those beside a gap, the
    factors settle: once a factor equals the one before it (the same float,
    not zero), every later row of the run repeats the same IEEE operations
    on the same operands, so its pivot and factor are the same floats.  They
    are copied, not computed (1.1k of the 15.6k rows of a 300-year weekly
    history with 60 gaps are computed).  The substitutions then run over
    every row with the same operations in the same order as the plain
    Thomas loop, so the result is bit-identical to it.
    """
    n = x.size
    if n < 4:
        raise InsufficientDataError(f"natural cubic spline needs >= 4 knots, got {n}")
    h = np.diff(x)
    if np.any(h <= 0):
        raise ValueError("spline knots must be strictly increasing")
    # interior equations: (h[i-1]/6) m[i-1] + ((h[i-1]+h[i])/3) m[i] + (h[i]/6) m[i+1] = rhs[i]
    lower, diag, upper = h[:-1] / 6.0, (h[:-1] + h[1:]) / 3.0, h[1:] / 6.0
    rhs = np.diff(y) / h
    factors, dp = _forward_sweep(lower, diag, upper, (rhs[1:] - rhs[:-1]).tolist())
    # Back substitution: m[i] = dp[i-1] - factors[i-1] * m[i+1], from m[n-2] = dp[-1] down.
    mi = dp[-1]
    rows = zip(islice(reversed(dp), 1, None), islice(reversed(factors), 1, None))
    back = [mi] + [(mi := d - c * mi) for d, c in rows]
    m = np.zeros(n)
    m[-2:0:-1] = back
    return m


def _forward_sweep(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: list[float]
) -> tuple[list[float], list[float]]:
    """(factor, eliminated right-hand side dp) of each row of the Thomas
    forward sweep, dp[i] = (rhs[i] - lower[i] * dp[i-1]) / pivot[i]; a run
    of at least `_SETTLING_RUN` equal rows is solved until its factors settle.

    The recurrences run on Python floats: the same IEEE operations as on
    numpy scalars, without their per-operation cost.
    """
    k = diag.size
    edges = np.flatnonzero(
        (lower[1:] != lower[:-1]) | (diag[1:] != diag[:-1]) | (upper[1:] != upper[:-1])
    ) + 1
    edges = np.concatenate(([0], edges, [k]))
    settling = np.diff(edges) >= _SETTLING_RUN
    lows = lower.tolist()
    pivots = [float(diag[0])]
    factors = [float(upper[0]) / pivots[0]]
    factor = factors[0]
    done = 1
    for start, stop in zip(edges[:-1][settling].tolist(), edges[1:][settling].tolist()):
        start = max(start, done)
        factor = _eliminate(
            zip(lows[done:start], diag[done:start].tolist(), upper[done:start].tolist()),
            factor, pivots, factors,
        )
        lo, di, up = lows[start], float(diag[start]), float(upper[start])
        for left in range(stop - start - 1, -1, -1):
            previous = factor
            pivot = di - lo * factor
            factor = up / pivot
            pivots.append(pivot)
            factors.append(factor)
            if factor == previous != 0.0:  # 0.0 == -0.0, and they are not the same float
                pivots += [pivot] * left
                factors += [factor] * left
                break
        done = stop
    _eliminate(zip(lows[done:], diag[done:].tolist(), upper[done:].tolist()),
               factor, pivots, factors)
    d = rhs[0] / pivots[0]
    rows = zip(islice(lows, 1, None), islice(pivots, 1, None), islice(rhs, 1, None))
    dp = [d] + [(d := (r - lo * d) / p) for lo, p, r in rows]
    return factors, dp


def _eliminate(rows, factor: float, pivots: list[float], factors: list[float]) -> float:
    """Append the pivot and factor of each (lower, diag, upper) row, the
    first eliminated against `factor`; return the last factor."""
    for lo, di, up in rows:
        pivot = di - lo * factor
        factor = up / pivot
        pivots.append(pivot)
        factors.append(factor)
    return factor


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
            f"spline fill needs >= 4 observed points for {series.variable.value}, "
            f"got {len(series)}"
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


def _iqr_fences(v: np.ndarray) -> tuple[float, float]:
    """(Q1 - FENCE_K * IQR, Q3 + FENCE_K * IQR) of the values, the quartiles
    by the same linear-interpolation rule as the descriptive summaries."""
    if v.size < 4:
        raise InsufficientDataError(f"IQR fences need >= 4 values, got {v.size}")
    s = np.sort(v)
    q1, q3 = _sorted_quantile(s, 0.25), _sorted_quantile(s, 0.75)
    iqr = q3 - q1
    return q1 - FENCE_K * iqr, q3 + FENCE_K * iqr


def flag_outliers(
    series: WeeklySeries,
    dense: WeeklySeries,
    report: CleaningReport,
    winsorize: bool = False,
) -> tuple[WeeklySeries, CleaningReport]:
    """The outlier pass over `spline_fill(series)`'s (dense, report).

    The fences are `FENCE_K` IQRs beyond the quartiles of the observed
    (pre-interpolation) values only, and a value strictly outside them is
    flagged.  Flagged points keep their value and get the OUTLIER_RETAINED
    flag; with ``winsorize=True`` the value is clamped to the violated fence
    instead (the report still records the original value).  Without a
    flagged point the fill is returned as it is.
    """
    observed_values = series.values()
    lo, hi = _iqr_fences(observed_values)
    low = observed_values < lo
    flagged = np.flatnonzero(low | (observed_values > hi))
    if not flagged.size:
        return dense, report
    first = int(dense.numbers[0])
    values = dense.values().copy()
    codes = dense.flags.copy()
    outliers = []
    for i in flagged.tolist():
        fence = Fence.LOW if low[i] else Fence.HIGH
        number = int(series.numbers[i])
        outliers.append(OutlierWeek(WeekKey.from_number(number), float(observed_values[i]), fence))
        if series.flags[i] == _OBSERVED:
            if winsorize:
                values[number - first] = lo if fence is Fence.LOW else hi
            codes[number - first] = _OUTLIER_RETAINED
    report = replace(report, outlier_weeks=tuple(outliers), winsorized=winsorize)
    return WeeklySeries(dense.variable, dense.numbers, values, codes), report


def clean_series(
    series: WeeklySeries, winsorize: bool = False
) -> tuple[WeeklySeries, CleaningReport]:
    """Full cleaning pass: `spline_fill` the gaps, then `flag_outliers`."""
    return flag_outliers(series, *spline_fill(series), winsorize)
