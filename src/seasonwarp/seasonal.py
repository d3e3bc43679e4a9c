"""Weekly seasonal indices on the ISO-week grid, base 100.

Two methods, both labeled in the output table:

* ``weekly-mean`` (default): index(w) = 100 * mean of week-w values across
  complete years / grand mean of all complete-year values.
* ``moving-average``: ratio to a centered 52-week moving average (half
  weights at both ends), averaged per week, then rescaled so the
  support-weighted mean is exactly 100.

Week 53 is computed from the 53-week years only and carries their (lower)
support count; pooling it into week 52 would bias week 52.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError
from .series import Variable, WeekKey, WeeklySeries, slice_year, weeks_in_iso_year

METHODS = ("weekly-mean", "moving-average")

MA_HALF_SPAN = 26  # centered 52-week window: 0.5*v[t-26] + ... + 0.5*v[t+26]


@dataclass(frozen=True)
class WeekIndexEntry:
    iso_week: int
    index: float
    support: int


@dataclass(frozen=True)
class SeasonalIndexTable:
    variable: Variable
    method: str
    entries: tuple[WeekIndexEntry, ...]


def _weekly_mean_entries(weeks: list[int], values: list[float]) -> list[WeekIndexEntry]:
    total = 0.0
    by_week: dict[int, list[float]] = {}
    for week, value in zip(weeks, values):
        total += value
        by_week.setdefault(week, []).append(value)
    grand_mean = total / len(values)
    if grand_mean == 0.0:
        raise DegenerateDataError("seasonal index undefined for zero grand mean")
    return [
        WeekIndexEntry(w, 100.0 * (sum(vals) / len(vals)) / grand_mean, len(vals))
        for w, vals in sorted(by_week.items())
    ]


def _moving_average_entries(
    series: WeeklySeries, iso_weeks: np.ndarray, keep: np.ndarray
) -> list[WeekIndexEntry]:
    iso_weeks, keep = iso_weeks.tolist(), keep.tolist()
    values = series.values().tolist()
    n = len(values)
    # ratio to the centered 52-week moving average wherever the window fits
    ratios: dict[int, list[float]] = {}
    for t in range(MA_HALF_SPAN, n - MA_HALF_SPAN):
        if not keep[t]:
            continue
        window = (
            0.5 * values[t - MA_HALF_SPAN]
            + sum(values[t - MA_HALF_SPAN + 1 : t + MA_HALF_SPAN])
            + 0.5 * values[t + MA_HALF_SPAN]
        )
        ma = window / (2 * MA_HALF_SPAN)
        if ma == 0.0:
            week = WeekKey.from_number(int(series.numbers[t]))
            raise DegenerateDataError(f"zero moving average at {week}; cannot form ratio")
        ratios.setdefault(iso_weeks[t], []).append(values[t] / ma)
    raw = {w: sum(r) / len(r) for w, r in ratios.items()}
    support = {w: len(r) for w, r in ratios.items()}
    # rescale so the support-weighted mean is exactly 100
    weighted = sum(raw[w] * support[w] for w in raw) / sum(support.values())
    return [
        WeekIndexEntry(w, 100.0 * raw[w] / weighted, support[w])
        for w in sorted(raw)
    ]


def seasonal_index(
    series: WeeklySeries, years: list[int], method: str = "weekly-mean"
) -> SeasonalIndexTable:
    """Per-ISO-week index table of a dense series over `years`: at least two
    ISO years, each held in full, such as the series' complete years.  A
    year with a missing week raises as `slice_year` does.

    support(w) counts the years contributing to week w; week 53 appears only
    when one of the years has 53 weeks.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    years = set(years)
    if len(years) < 2:
        raise InsufficientDataError(
            f"seasonal index needs >= 2 complete ISO years for {series.variable.value}, "
            f"got {len(years)}"
        )
    iso_years, iso_weeks = series.iso_calendar()
    keep = np.isin(iso_years, list(years))
    # Points never repeat a week, so only a short year makes the count fall short.
    if np.count_nonzero(keep) != sum(map(weeks_in_iso_year, years)):
        for year in sorted(years):
            slice_year(series, year)  # raises for the first year held short
    if method == "weekly-mean":
        entries = _weekly_mean_entries(iso_weeks[keep].tolist(), series.values()[keep].tolist())
    else:
        entries = _moving_average_entries(series, iso_weeks, keep)
    return SeasonalIndexTable(series.variable, method, tuple(entries))


def index_weighted_mean(table: SeasonalIndexTable) -> float:
    """Support-weighted mean of the indices.

    Equals 100 (to float tolerance) whenever every contributing year is
    complete; a deviation signals broken normalization upstream.
    """
    if not table.entries:
        raise InsufficientDataError("empty seasonal index table")
    total_support = sum(e.support for e in table.entries)
    return sum(e.index * e.support for e in table.entries) / total_support
