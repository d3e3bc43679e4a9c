"""Raw CSV ingestion, spline gap-filling, and IQR outlier flagging.

Cleaning never deletes data: gaps are filled with a natural cubic spline on
the integer week grid, and fence violations are flagged (and by default
retained).  An optional winsorize mode clamps flagged values to the fences.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import BinaryIO

import numpy as np

from .descriptive import quantile
from .errors import DataIntegrityError, InsufficientDataError, SchemaError
from .series import (
    PointFlag,
    SeriesPoint,
    Variable,
    WeekKey,
    WeeklyObservation,
    WeeklySeries,
    iso_week_of,
    week_range,
)

DATE_FORMATS = {"iso": "%Y-%m-%d", "dmy": "%d/%m/%Y"}


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

    def to_dict(self) -> dict:
        return {
            "variable": self.variable.value,
            "interpolated_weeks": [[w.iso_year, w.iso_week] for w in self.interpolated_weeks],
            "outlier_weeks": [
                {
                    "week": [o.week.iso_year, o.week.iso_week],
                    "value": o.value,
                    "fence_violated": o.fence_violated.value,
                }
                for o in self.outlier_weeks
            ],
            "missing_fraction": self.missing_fraction,
            "clamped_weeks": [[w.iso_year, w.iso_week] for w in self.clamped_weeks],
            "winsorized": self.winsorized,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CleaningReport":
        return cls(
            variable=Variable(d["variable"]),
            interpolated_weeks=tuple(WeekKey(y, w) for y, w in d["interpolated_weeks"]),
            outlier_weeks=tuple(
                OutlierWeek(
                    WeekKey(o["week"][0], o["week"][1]), o["value"], Fence(o["fence_violated"])
                )
                for o in d["outlier_weeks"]
            ),
            missing_fraction=d["missing_fraction"],
            clamped_weeks=tuple(WeekKey(y, w) for y, w in d["clamped_weeks"]),
            winsorized=d["winsorized"],
        )


def _parse_cell(raw: str, column: str, line_no: int) -> float | None:
    raw = raw.strip()
    if raw == "":
        return None
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
    return value


def parse_market_csv(
    data: bytes | BinaryIO, schema: ColumnSchema = ColumnSchema()
) -> list[WeeklyObservation]:
    """One WeeklyObservation per data row of a UTF-8 CSV with a header.

    Blank value cells yield observations with that variable absent, which
    become gaps when a per-variable series is built.  Rows that cannot be
    parsed are reported with their 1-based line number (header = line 1).
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8-sig")
    else:
        text = data.read().decode("utf-8-sig")
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        return []
    for col in (schema.date, schema.arrivals, schema.price):
        if col not in reader.fieldnames:
            raise SchemaError(
                f"column {col!r} not found in CSV header {reader.fieldnames}"
            )
    fmt = DATE_FORMATS[schema.date_format]
    records: list[WeeklyObservation] = []
    for line_no, row in enumerate(reader, start=2):
        raw_date = (row[schema.date] or "").strip()
        try:
            day = dt.datetime.strptime(raw_date, fmt).date()
        except ValueError:
            raise DataIntegrityError(
                f"line {line_no}: cannot parse date {raw_date!r} with format "
                f"{schema.date_format!r}"
            ) from None
        arrivals = _parse_cell(row[schema.arrivals] or "", schema.arrivals, line_no)
        price = _parse_cell(row[schema.price] or "", schema.price, line_no)
        records.append(WeeklyObservation(iso_week_of(day), arrivals, price))
    return records


def find_missing_weeks(series: WeeklySeries) -> list[WeekKey]:
    """Weeks strictly inside the series span with no observation, in order."""
    if len(series) < 2:
        return []
    have = set(series.weeks())
    return [
        w
        for w in week_range(series.first_week(), series.last_week())
        if w not in have
    ]


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
    m = np.zeros(n)
    # interior equations: (h[i-1]/6) m[i-1] + ((h[i-1]+h[i])/3) m[i] + (h[i]/6) m[i+1] = rhs[i]
    diag = (h[:-1] + h[1:]) / 3.0
    lower = h[:-1] / 6.0
    upper = h[1:] / 6.0
    rhs = np.diff(y) / h
    rhs = rhs[1:] - rhs[:-1]
    k = n - 2
    cp = np.zeros(k)
    dp = np.zeros(k)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, k):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    m[k] = dp[k - 1]
    for i in range(k - 1, 0, -1):
        m[i] = dp[i - 1] - cp[i - 1] * m[i + 1]
    return m


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
    span = list(week_range(series.first_week(), series.last_week()))
    position = {w: i for i, w in enumerate(span)}
    have = {p.week: p for p in series.points}
    missing = [w for w in span if w not in have]
    if not missing:
        report = CleaningReport(series.variable, (), (), 0.0)
        return series, report

    x_obs = np.array([position[p.week] for p in series.points], dtype=float)
    y_obs = series.values()
    m2 = natural_spline_second_derivatives(x_obs, y_obs)
    x_fill = np.array([position[w] for w in missing], dtype=float)
    filled = natural_spline_eval(x_obs, y_obs, m2, x_fill)

    clamped = [w for w, v in zip(missing, filled) if v < 0]
    filled = np.maximum(filled, 0.0)
    by_week = {w: float(v) for w, v in zip(missing, filled)}

    points = tuple(
        have[w] if w in have else SeriesPoint(w, by_week[w], PointFlag.INTERPOLATED)
        for w in span
    )
    report = CleaningReport(
        variable=series.variable,
        interpolated_weeks=tuple(missing),
        outlier_weeks=(),
        missing_fraction=len(missing) / len(span),
        clamped_weeks=tuple(clamped),
    )
    return WeeklySeries(series.variable, points), report


def iqr_outliers(
    values: np.ndarray | list[float], k: float = 3.0
) -> list[tuple[int, Fence]]:
    """Indices of values strictly outside [Q1 - k*IQR, Q3 + k*IQR].

    Flag only; nothing is mutated.  Quantiles use the same linear-interpolation
    rule as the descriptive summaries.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        raise InsufficientDataError(f"IQR fences need >= 4 values, got {v.size}")
    q1 = quantile(v, 0.25)
    q3 = quantile(v, 0.75)
    iqr = q3 - q1
    lo = q1 - k * iqr
    hi = q3 + k * iqr
    out: list[tuple[int, Fence]] = []
    for i, val in enumerate(v):
        if val < lo:
            out.append((i, Fence.LOW))
        elif val > hi:
            out.append((i, Fence.HIGH))
    return out


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

    q1 = quantile(observed_values, 0.25)
    q3 = quantile(observed_values, 0.75)
    iqr = q3 - q1
    fence_value = {Fence.LOW: q1 - k * iqr, Fence.HIGH: q3 + k * iqr}

    obs_weeks = series.weeks()
    outliers = tuple(
        OutlierWeek(obs_weeks[i], float(observed_values[i]), fence) for i, fence in flags
    )
    flagged_weeks = {o.week: o for o in outliers}
    points = []
    for p in dense.points:
        o = flagged_weeks.get(p.week)
        if o is None or p.flag is not PointFlag.OBSERVED:
            points.append(p)
            continue
        value = fence_value[o.fence_violated] if winsorize else p.value
        points.append(SeriesPoint(p.week, value, PointFlag.OUTLIER_RETAINED))
    report = CleaningReport(
        variable=report.variable,
        interpolated_weeks=report.interpolated_weeks,
        outlier_weeks=outliers,
        missing_fraction=report.missing_fraction,
        clamped_weeks=report.clamped_weeks,
        winsorized=winsorize,
    )
    return WeeklySeries(dense.variable, tuple(points)), report
