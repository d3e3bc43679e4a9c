"""Domain types and ISO-week calendar arithmetic for weekly market series.

ISO weeks run Monday..Sunday; the week-ending date of an observation is the
Sunday.  A calendar year maps to 52 or 53 ISO weeks, and everything downstream
(seasonal indices, year slicing, DTW year pairs) keys off that grid.

A series is a set of aligned arrays keyed by `WeekKey.number`; `WeekKey`
objects are made only for messages and reports.  Dataclasses are frozen and
series arrays read-only; all functions are pure.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import DataIntegrityError, InsufficientDataError, finite_sample


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

    def end_date(self) -> dt.date:
        """The week-ending date (Sunday) of this ISO week."""
        return dt.date.fromisocalendar(self.iso_year, self.iso_week, 7)

    def __str__(self) -> str:
        return f"{self.iso_year}-W{self.iso_week:02d}"


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


FLAGS = tuple(PointFlag)
"""The PointFlag of each uint8 code a WeeklySeries stores: code i is FLAGS[i]."""

# datetime64 day 0 (1970-01-01) has date ordinal 719163, and week number n
# covers ordinals 7n+1 .. 7n+7 (Monday .. Sunday).
_EPOCH_ORDINAL = 719163


def _week_numbers(days: np.ndarray) -> np.ndarray:
    """`WeekKey.number` of each datetime64[D] day: (ordinal - 1) // 7."""
    return (days.astype(np.int64) + (_EPOCH_ORDINAL - 1)) // 7


def _week_days(numbers: np.ndarray, iso_weekday: int) -> np.ndarray:
    """Day `iso_weekday` (1 = Monday .. 7 = Sunday) of each numbered week, as datetime64[D]."""
    return (numbers * 7 + (iso_weekday - _EPOCH_ORDINAL)).astype("datetime64[D]")


def _iso_years(numbers: np.ndarray) -> np.ndarray:
    """ISO year of each numbered week: the calendar year of its Thursday."""
    return _week_days(numbers, 4).astype("datetime64[Y]").astype(np.int64) + 1970


def _read_only(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class MarketTable:
    """The data rows of one market CSV as aligned columns, in file order.

    ``weeks`` holds the `WeekKey.number` of each row's date; a blank value
    cell is NaN in its column.
    """

    weeks: np.ndarray
    arrivals: np.ndarray
    modal_price: np.ndarray

    def __len__(self) -> int:
        return len(self.weeks)

    def column(self, variable: Variable) -> np.ndarray:
        return self.arrivals if variable is Variable.ARRIVALS else self.modal_price

    def in_years(self, first: int, last: int) -> "MarketTable":
        """The rows dated in ISO years `first` .. `last`; only years 1..9999 hold dates."""
        first, last = max(first, 1), min(last, 9999)
        if first > last:
            keep = np.zeros(len(self), dtype=bool)
        else:
            start = WeekKey(first, 1).number
            stop = WeekKey(last, weeks_in_iso_year(last)).number
            keep = (self.weeks >= start) & (self.weeks <= stop)
        return MarketTable(self.weeks[keep], self.arrivals[keep], self.modal_price[keep])


class WeeklySeries:
    """Ordered weekly series for one variable; may contain calendar gaps.

    Held as three aligned read-only arrays: ``numbers`` (int64
    `WeekKey.number` of each point, strictly increasing), the float64 values
    (``values()``) and ``flags`` (uint8 codes into `FLAGS`; all OBSERVED when
    omitted).  After cleaning the coverage is dense (consecutive numbers).
    """

    __slots__ = ("variable", "numbers", "_values", "flags")

    def __init__(self, variable: Variable, numbers, values, flags=None) -> None:
        numbers = _read_only(numbers, np.int64)
        values = _read_only(values, np.float64)
        flags = _read_only(np.zeros(len(numbers)) if flags is None else flags, np.uint8)
        if numbers.ndim != 1 or values.shape != numbers.shape or flags.shape != numbers.shape:
            raise ValueError("week numbers, values and flags must be 1-D and of one length")
        unordered = np.flatnonzero(np.diff(numbers) <= 0)
        if unordered.size:
            week = WeekKey.from_number(int(numbers[unordered[0] + 1]))
            raise DataIntegrityError(f"series points not strictly increasing at {week}")
        self.variable = variable
        self.numbers = numbers
        self._values = values
        self.flags = flags

    def __len__(self) -> int:
        return len(self.numbers)

    def values(self) -> np.ndarray:
        return self._values

    def first_week(self) -> WeekKey:
        return WeekKey.from_number(int(self.numbers[0]))

    def last_week(self) -> WeekKey:
        return WeekKey.from_number(int(self.numbers[-1]))

    def iso_calendar(self) -> tuple[np.ndarray, np.ndarray]:
        """(ISO year, ISO week) of each point, as int64 arrays."""
        years = _iso_years(self.numbers)
        # January 4 always lies in ISO week 1.
        jan4 = (years - 1970).astype("datetime64[Y]").astype("datetime64[D]") + 3
        return years, self.numbers - _week_numbers(jan4) + 1

    def end_dates(self) -> np.ndarray:
        """The week-ending Sunday of each point, as datetime64[D]."""
        return _week_days(self.numbers, 7)


def build_weekly_series(table: MarketTable, variable: Variable) -> WeeklySeries:
    """Sorted Observed-flagged series for one variable.

    Rows with the variable blank are skipped (their weeks become gaps).
    Duplicate weeks are a data-integrity error.
    """
    values = table.column(variable)
    present = ~np.isnan(values)
    weeks = table.weeks[present]
    order = np.argsort(weeks, kind="stable")
    weeks = weeks[order]
    duplicate = np.flatnonzero(np.diff(weeks) == 0)
    if duplicate.size:
        week = WeekKey.from_number(int(weeks[duplicate[0]]))
        raise DataIntegrityError(f"duplicate observation for week {week}")
    return WeeklySeries(variable, weeks, values[present][order])


def slice_year(series: WeeklySeries, iso_year: int) -> np.ndarray:
    """Exactly the year's 52/53 values in week order, as a read-only view
    into the series.

    The series must cover every ISO week of the year (clean first).
    """
    expected = weeks_in_iso_year(iso_year)
    start = WeekKey(iso_year, 1).number
    lo, hi = np.searchsorted(series.numbers, (start, start + expected)).tolist()
    if hi - lo != expected:
        have = set((series.numbers[lo:hi] - start).tolist())
        missing = [WeekKey(iso_year, k + 1) for k in range(expected) if k not in have]
        raise DataIntegrityError(
            f"ISO year {iso_year} incomplete in series; missing weeks: "
            + ", ".join(str(w) for w in missing)
        )
    return series.values()[lo:hi]


def complete_years(series: WeeklySeries) -> list[int]:
    """ISO years fully covered by the series, ascending."""
    years, counts = np.unique(_iso_years(series.numbers), return_counts=True)
    return [y for y, n in zip(years.tolist(), counts.tolist()) if n == weeks_in_iso_year(y)]


def log_diff(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """First differences of natural logs: out[t] = ln(v[t+1]) - ln(v[t])."""
    v = finite_sample(values, "log_diff")
    if v.size < 2:
        raise InsufficientDataError("log_diff needs at least 2 values")
    if np.any(v <= 0):
        bad = int(np.argmax(v <= 0))
        raise DataIntegrityError(
            f"log_diff requires positive values; value {v[bad]} at index {bad}"
        )
    return np.diff(np.log(v))
