import datetime as dt
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    iso_week_oracle,
    next_week_oracle,
    slice_year_message_oracle,
    week_range_oracle,
    weeks_of,
)
from seasonwarp.errors import DataIntegrityError, InsufficientDataError
from seasonwarp.series import (
    FLAGS,
    MarketTable,
    PointFlag,
    Variable,
    WeekKey,
    WeeklySeries,
    build_weekly_series,
    complete_years,
    log_diff,
    slice_year,
    week_range,
    weeks_in_iso_year,
)


class TestWeeksInIsoYear:
    def test_known_long_years(self):
        # Long years between 2004 and 2032.
        long_years = {2004, 2009, 2015, 2020, 2026, 2032}
        for year in range(2004, 2033):
            expected = 53 if year in long_years else 52
            assert weeks_in_iso_year(year) == expected, year

    def test_agrees_with_first_thursday_rule(self):
        # An ISO year spills a few days into the neighbouring calendar years,
        # so count oracle-attributed days over a padded window.
        for year in range(1990, 2060):
            start = dt.date(year, 1, 1) - dt.timedelta(days=7)
            end = dt.date(year, 12, 31) + dt.timedelta(days=7)
            n = sum(
                1
                for ord_ in range((end - start).days + 1)
                if iso_week_oracle(start + dt.timedelta(days=ord_))[0] == year
            )
            assert weeks_in_iso_year(year) * 7 == n


class TestWeekKey:
    def test_ordering(self):
        assert WeekKey(2020, 53) < WeekKey(2021, 1)
        assert WeekKey(2021, 1) < WeekKey(2021, 2)
        assert WeekKey(2021, 2) == WeekKey(2021, 2)

    def test_week_bounds(self):
        with pytest.raises(ValueError):
            WeekKey(2021, 0)
        with pytest.raises(ValueError):
            WeekKey(2021, 54)

    def test_week_53_only_in_long_years(self):
        assert WeekKey(2015, 53).iso_week == 53
        assert WeekKey(2020, 53).iso_week == 53
        with pytest.raises(ValueError):
            WeekKey(2021, 53)

    def test_consecutive_numbers_roundtrip(self):
        # Consecutive numbers are consecutive ISO weeks, and each number
        # names the ISO week of its Monday.
        start = WeekKey(2014, 50).number
        seen = [WeekKey.from_number(n) for n in range(start, start + 161)]
        for k, w in enumerate(seen):
            assert w.number == start + k
            monday = dt.date.fromordinal(7 * w.number + 1)
            assert monday.isocalendar()[:3] == (w.iso_year, w.iso_week, 1)
        for a, b in zip(seen, seen[1:]):
            assert b == next_week_oracle(a)

    def test_next_crosses_year_boundary(self):
        assert WeekKey.from_number(WeekKey(2015, 53).number + 1) == WeekKey(2016, 1)
        assert WeekKey.from_number(WeekKey(2016, 52).number + 1) == WeekKey(2017, 1)
        assert WeekKey.from_number(WeekKey(2021, 1).number - 1) == WeekKey(2020, 53)

    def test_numbers_consecutive_across_every_year_end(self):
        for year in range(1, 9999):
            last = WeekKey(year, weeks_in_iso_year(year))
            first_next = WeekKey(year + 1, 1)
            assert last.number + 1 == first_next.number, year
            assert WeekKey.from_number(last.number) == last
            assert WeekKey.from_number(first_next.number) == first_next

    def test_number_counts_weeks_from_first_monday(self):
        rng = random.Random(5)
        lo, hi = dt.date(1, 1, 1).toordinal(), dt.date(9999, 12, 26).toordinal()
        for ordinal in [lo, hi] + [rng.randint(lo, hi) for _ in range(20000)]:
            day = dt.date.fromordinal(ordinal)
            assert WeekKey(*day.isocalendar()[:2]).number == (ordinal - 1) // 7, day

    def test_next_past_last_representable_week_raises(self):
        with pytest.raises(ValueError):
            WeekKey.from_number(WeekKey(9999, 52).number + 1)

    def test_end_date_is_sunday(self):
        for y, w in [(2010, 1), (2015, 53), (2020, 30), (2024, 52)]:
            end = WeekKey(y, w).end_date()
            assert end.weekday() == 6
            assert end.isocalendar()[:2] == (y, w)

    def test_str_format(self):
        assert str(WeekKey(2023, 7)) == "2023-W07"
        assert str(WeekKey(2020, 53)) == "2020-W53"


class TestWeekOfDay:
    """`WeekKey.from_number` of a day's week number, (ordinal - 1) // 7, is
    the ISO week holding the day."""

    def test_year_boundary_examples(self):
        cases = {
            dt.date(2015, 12, 31): (2015, 53),
            dt.date(2016, 1, 3): (2015, 53),
            dt.date(2016, 1, 4): (2016, 1),
            dt.date(2021, 1, 1): (2020, 53),
            dt.date(2024, 1, 4): (2024, 1),
            dt.date(2010, 1, 3): (2009, 53),
        }
        for day, (y, w) in cases.items():
            assert WeekKey.from_number((day.toordinal() - 1) // 7) == WeekKey(y, w)
            assert WeekKey(y, w).number == (day.toordinal() - 1) // 7

    def test_matches_first_thursday_oracle_exhaustively(self):
        day = dt.date(2000, 1, 1)
        last = dt.date(2030, 12, 31)
        while day <= last:
            got = WeekKey.from_number((day.toordinal() - 1) // 7)
            assert (got.iso_year, got.iso_week) == iso_week_oracle(day), day
            day += dt.timedelta(days=1)


class TestWeekRange:
    def test_inclusive_and_ordered(self):
        ws = list(week_range(WeekKey(2015, 51), WeekKey(2016, 2)))
        assert ws == [
            WeekKey(2015, 51),
            WeekKey(2015, 52),
            WeekKey(2015, 53),
            WeekKey(2016, 1),
            WeekKey(2016, 2),
        ]

    def test_single_week(self):
        assert list(week_range(WeekKey(2020, 9), WeekKey(2020, 9))) == [WeekKey(2020, 9)]

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            list(week_range(WeekKey(2021, 2), WeekKey(2021, 1)))

    def test_full_span_length(self):
        # 2010-W01 .. 2024-W52: thirteen 52-week years and two 53-week ones.
        n = sum(1 for _ in week_range(WeekKey(2010, 1), WeekKey(2024, 52)))
        assert n == 13 * 52 + 2 * 53

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        start=st.integers(dt.date(1990, 1, 1).toordinal() // 7, dt.date(2040, 1, 1).toordinal() // 7),
        length=st.integers(0, 300),
    )
    def test_matches_stepping_oracle(self, start, length):
        first, last = WeekKey.from_number(start), WeekKey.from_number(start + length)
        expected = week_range_oracle(first, last)
        assert len(expected) == length + 1
        assert list(week_range(first, last)) == expected


def _table(*rows):
    """MarketTable of (iso_year, iso_week, arrivals, price) rows; None is a blank cell."""
    years, weeks, arrivals, prices = zip(*rows)
    return MarketTable(
        np.array([WeekKey(y, w).number for y, w in zip(years, weeks)]),
        np.array(arrivals, dtype=float),
        np.array(prices, dtype=float),
    )


class TestBuildWeeklySeries:
    def test_sorts_and_flags_observed(self):
        table = _table((2021, 3, 5.0, 100.0), (2021, 1, 7.0, 90.0))
        s = build_weekly_series(table, Variable.ARRIVALS)
        assert weeks_of(s) == (WeekKey(2021, 1), WeekKey(2021, 3))
        assert list(s.values()) == [7.0, 5.0]
        assert [FLAGS[code] for code in s.flags] == [PointFlag.OBSERVED] * 2

    def test_input_order_is_irrelevant(self):
        rows = [(2021, w, float(w), 10.0 * w) for w in range(1, 20)]
        rng = random.Random(7)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        a = build_weekly_series(_table(*rows), Variable.MODAL_PRICE)
        b = build_weekly_series(_table(*shuffled), Variable.MODAL_PRICE)
        for x, y in ((a.numbers, b.numbers), (a.values(), b.values()), (a.flags, b.flags)):
            assert np.array_equal(x, y)

    def test_blank_cells_become_gaps(self):
        table = _table((2021, 1, 1.0, None), (2021, 2, 2.0, 50.0))
        prices = build_weekly_series(table, Variable.MODAL_PRICE)
        assert weeks_of(prices) == (WeekKey(2021, 2),)
        arrivals = build_weekly_series(table, Variable.ARRIVALS)
        assert len(arrivals) == 2

    def test_duplicate_week_rejected(self):
        table = _table((2021, 1, 1.0, 10.0), (2021, 1, 2.0, 20.0))
        with pytest.raises(DataIntegrityError, match="duplicate"):
            build_weekly_series(table, Variable.ARRIVALS)


def _series_of(weeks, value_of=lambda w: 1.0):
    return WeeklySeries(Variable.ARRIVALS, [w.number for w in weeks], [value_of(w) for w in weeks])


def _dense_series(first, last, value_of):
    return _series_of(list(week_range(first, last)), value_of)


class TestWeeklySeries:
    def test_monotonicity_enforced(self):
        with pytest.raises(DataIntegrityError):
            _series_of([WeekKey(2021, 2), WeekKey(2021, 1)])

    def test_arrays_are_read_only_copies(self):
        numbers, values = np.array([3, 4]), np.array([1.0, 2.0])
        s = WeeklySeries(Variable.ARRIVALS, numbers, values)
        values[0] = 9.0
        assert s.values().tolist() == [1.0, 2.0]
        for array in (s.numbers, s.values(), s.flags):
            with pytest.raises(ValueError):
                array[0] = 0



def _span(y1, w1, y2, w2):
    return week_range_oracle(WeekKey(y1, w1), WeekKey(y2, w2))


class TestSliceYear:
    def test_lengths_52_and_53(self):
        s = _dense_series(WeekKey(2014, 1), WeekKey(2016, 52), lambda w: float(w.iso_week))
        assert len(slice_year(s, 2014)) == 52
        assert len(slice_year(s, 2015)) == 53
        assert len(slice_year(s, 2016)) == 52

    def test_values_in_week_order(self):
        s = _dense_series(
            WeekKey(2015, 1), WeekKey(2015, 53), lambda w: float(w.iso_week) ** 2
        )
        ys = slice_year(s, 2015)
        assert ys.tolist() == [float(w) ** 2 for w in range(1, 54)]
        # A read-only view into the series, not a copy.
        assert np.shares_memory(ys, s.values())
        assert not ys.flags.writeable

    def test_slices_concatenate_to_series(self):
        s = _dense_series(
            WeekKey(2019, 1),
            WeekKey(2021, 52),
            lambda w: w.iso_year + w.iso_week / 100.0,
        )
        concat = []
        for year in (2019, 2020, 2021):
            concat.extend(slice_year(s, year).tolist())
        assert concat == s.values().tolist()

    @pytest.mark.parametrize(
        "weeks,year",
        [
            pytest.param(_span(2021, 2, 2021, 52), 2021, id="missing-W01"),
            pytest.param(
                [w for w in _span(2019, 1, 2021, 52) if w != WeekKey(2020, 53)],
                2020,
                id="gap-at-2020-W53",
            ),
            pytest.param(_span(2021, 20, 2022, 52), 2021, id="starts-mid-year"),
            pytest.param(_span(2020, 1, 2021, 30), 2021, id="ends-mid-year"),
            pytest.param(
                _span(2018, 1, 2019, 52) + _span(2021, 1, 2021, 52), 2020, id="year-without-points"
            ),
            pytest.param(_span(2014, 1, 2017, 52)[::5], 2015, id="sparse"),
        ],
    )
    def test_incomplete_year_rejected_with_missing_weeks_named(self, weeks, year):
        s = _series_of(weeks)
        with pytest.raises(DataIntegrityError) as err:
            slice_year(s, year)
        assert str(err.value) == slice_year_message_oracle(s, year)


class TestCompleteYears:
    def test_partial_edges_excluded(self):
        s = _dense_series(WeekKey(2019, 30), WeekKey(2022, 10), lambda w: 1.0)
        assert complete_years(s) == [2020, 2021]

    def test_interior_gap_breaks_year(self):
        weeks = week_range(WeekKey(2021, 1), WeekKey(2022, 52))
        s = _series_of([w for w in weeks if w != WeekKey(2021, 30)])
        assert complete_years(s) == [2022]

    def test_empty_series(self):
        assert complete_years(WeeklySeries(Variable.ARRIVALS, [], [])) == []


class TestLogDiff:
    def test_geometric_sequence_constant_diff(self):
        v = [3.0 * 1.5**k for k in range(10)]
        out = log_diff(v)
        assert out.shape == (9,)
        assert np.allclose(out, math.log(1.5), rtol=0, atol=1e-12)

    def test_matches_elementwise_logs(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(0.5, 9.0, size=40)
        expected = [math.log(v[i + 1]) - math.log(v[i]) for i in range(39)]
        assert np.allclose(log_diff(v), expected, rtol=0, atol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DataIntegrityError,
                           match=r"^log_diff requires positive values; value 0\.0 at index 1$"):
            log_diff([1.0, 0.0, 2.0])
        with pytest.raises(DataIntegrityError, match=r"value -3\.0 at index 1$"):
            log_diff([1.0, -3.0])

    def test_rejects_short_input(self):
        with pytest.raises(InsufficientDataError):
            log_diff([5.0])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            log_diff(np.ones((3, 3)))
