"""Domain types and ISO-week calendar arithmetic for weekly market series.

ISO weeks run Monday..Sunday; the week-ending date of an observation is the
Sunday.  A calendar year maps to 52 or 53 ISO weeks, and everything downstream
(seasonal indices, year slicing, DTW year pairs) keys off that grid.

All types are immutable; all functions are pure.
"""

from __future__ import annotations

import datetime as dt
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataIntegrityError, InsufficientDataError


def weeks_in_iso_year(iso_year: int) -> int:
    """Number of ISO weeks (52 or 53) in the given ISO year.

    December 28 always falls in the last ISO week of its year.
    """
    return dt.date(iso_year, 12, 28).isocalendar()[1]


@dataclass(frozen=True, order=True)
class WeekKey:
    """One ISO week, totally ordered by (iso_year, iso_week)."""

    iso_year: int
    iso_week: int

    def __post_init__(self) -> None:
        if not 1 <= self.iso_week <= 53:
            raise ValueError(f"iso_week must be in 1..53, got {self.iso_week}")
        if self.iso_week == 53 and weeks_in_iso_year(self.iso_year) != 53:
            raise ValueError(f"ISO year {self.iso_year} has no week 53")

    @property
    def number(self) -> int:
        """Consecutive week index: ISO weeks are 7-day blocks from a Monday and day
        1 (0001-01-01) is a Monday, so week n is days 7n+1..7n+7, across year ends."""
        return dt.date.fromisocalendar(self.iso_year, self.iso_week, 1).toordinal() // 7

    @classmethod
    def from_number(cls, number: int) -> "WeekKey":
        """The week whose `number` is `number`."""
        iso = dt.date.fromordinal(7 * number + 1).isocalendar()
        return cls(iso[0], iso[1])

    def next(self) -> "WeekKey":
        return WeekKey.from_number(self.number + 1)

    def prev(self) -> "WeekKey":
        return WeekKey.from_number(self.number - 1)

    def end_date(self) -> dt.date:
        """The week-ending date (Sunday) of this ISO week."""
        return dt.date.fromisocalendar(self.iso_year, self.iso_week, 7)

    def __str__(self) -> str:
        return f"{self.iso_year}-W{self.iso_week:02d}"


def iso_week_of(day: dt.date) -> WeekKey:
    """ISO-8601 week-numbering year and week containing `day`."""
    if not isinstance(day, dt.date):
        raise TypeError(f"expected datetime.date, got {type(day).__name__}")
    iso = day.isocalendar()
    return WeekKey(iso[0], iso[1])


def week_range(first: WeekKey, last: WeekKey) -> Iterator[WeekKey]:
    """Every WeekKey from `first` to `last` inclusive, in order."""
    if last < first:
        raise ValueError(f"week range end {last} precedes start {first}")
    return map(WeekKey.from_number, range(first.number, last.number + 1))


class Variable(str, Enum):
    ARRIVALS = "arrivals"
    MODAL_PRICE = "modal_price"


class PointFlag(str, Enum):
    """Provenance of one series point.

    OBSERVED          value came straight from the input data
    INTERPOLATED      value was filled by the cleaning spline
    OUTLIER_RETAINED  observed value beyond the IQR fences, kept as genuine
    """

    OBSERVED = "observed"
    INTERPOLATED = "interpolated"
    OUTLIER_RETAINED = "outlier_retained"


@dataclass(frozen=True)
class WeeklyObservation:
    """One raw market record.  A variable may be absent (blank cell)."""

    week: WeekKey
    arrivals: float | None
    modal_price: float | None

    def __post_init__(self) -> None:
        if self.arrivals is not None and self.arrivals < 0:
            raise ValueError(f"arrivals must be >= 0, got {self.arrivals} at {self.week}")
        if self.modal_price is not None and self.modal_price < 0:
            raise ValueError(f"modal_price must be >= 0, got {self.modal_price} at {self.week}")

    def value(self, variable: Variable) -> float | None:
        return self.arrivals if variable is Variable.ARRIVALS else self.modal_price


@dataclass(frozen=True)
class SeriesPoint:
    week: WeekKey
    value: float
    flag: PointFlag


@dataclass(frozen=True)
class WeeklySeries:
    """Ordered weekly series for one variable; may contain calendar gaps.

    Points are strictly increasing in WeekKey. After cleaning the coverage is
    dense (consecutive weeks with no gaps).
    """

    variable: Variable
    points: tuple[SeriesPoint, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.points, self.points[1:]):
            if not a.week < b.week:
                raise DataIntegrityError(
                    f"series points not strictly increasing at {b.week}"
                )

    def __len__(self) -> int:
        return len(self.points)

    def weeks(self) -> tuple[WeekKey, ...]:
        return tuple(p.week for p in self.points)

    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.points], dtype=float)

    def first_week(self) -> WeekKey:
        return self.points[0].week

    def last_week(self) -> WeekKey:
        return self.points[-1].week

    def value_at(self, week: WeekKey) -> float:
        i = bisect_left(self.points, week, key=_WEEK)
        if i == len(self.points) or self.points[i].week != week:
            raise KeyError(str(week))
        return self.points[i].value


_WEEK = attrgetter("week")


@dataclass(frozen=True)
class YearSlice:
    """All values of one ISO year in week order (length 52 or 53)."""

    iso_year: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        expected = weeks_in_iso_year(self.iso_year)
        if len(self.values) != expected:
            raise ValueError(
                f"ISO year {self.iso_year} has {expected} weeks, "
                f"got {len(self.values)} values"
            )


def build_weekly_series(
    records: Iterable[WeeklyObservation], variable: Variable
) -> WeeklySeries:
    """Sorted Observed-flagged series for one variable.

    Records with the variable absent are skipped (their weeks become gaps).
    Duplicate weeks are a data-integrity error.
    """
    present = [r for r in records if r.value(variable) is not None]
    present.sort(key=lambda r: r.week)
    for a, b in zip(present, present[1:]):
        if a.week == b.week:
            raise DataIntegrityError(f"duplicate observation for week {a.week}")
    points = tuple(
        SeriesPoint(r.week, float(r.value(variable)), PointFlag.OBSERVED)
        for r in present
    )
    return WeeklySeries(variable, points)


def slice_year(series: WeeklySeries, iso_year: int) -> YearSlice:
    """Exactly the year's 52/53 values in week order.

    The series must cover every ISO week of the year (clean first).
    """
    expected = weeks_in_iso_year(iso_year)
    lo = bisect_left(series.points, WeekKey(iso_year, 1), key=_WEEK)
    hi = bisect_left(series.points, WeekKey(iso_year + 1, 1), lo, key=_WEEK)
    window = series.points[lo:hi]
    if len(window) != expected:
        have = {p.week.iso_week for p in window}
        missing = [WeekKey(iso_year, w) for w in range(1, expected + 1) if w not in have]
        raise DataIntegrityError(
            f"ISO year {iso_year} incomplete in series; missing weeks: "
            + ", ".join(str(w) for w in missing)
        )
    return YearSlice(iso_year, tuple(p.value for p in window))


def complete_years(series: WeeklySeries) -> list[int]:
    """ISO years fully covered by the series, ascending."""
    have: dict[int, int] = {}
    for p in series.points:
        have[p.week.iso_year] = have.get(p.week.iso_year, 0) + 1
    return sorted(y for y, n in have.items() if n == weeks_in_iso_year(y))


def log_diff(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """First differences of natural logs: out[t] = ln(v[t+1]) - ln(v[t])."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError("log_diff expects a 1-D sequence")
    if v.size < 2:
        raise InsufficientDataError("log_diff needs at least 2 values")
    if np.any(v <= 0):
        bad = int(np.argmax(v <= 0))
        raise ValueError(f"log_diff requires positive values; value {v[bad]} at index {bad}")
    return np.diff(np.log(v))
