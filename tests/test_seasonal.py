import json
import math
import random

import numpy as np
import pytest

from _oracles import seasonal_oracle, weeks_of
from seasonwarp.errors import DataIntegrityError, InsufficientDataError
from seasonwarp.report import to_json
from seasonwarp.seasonal import (
    index_weighted_mean,
    seasonal_index,
)
from seasonwarp.series import (
    Variable,
    WeekKey,
    WeeklySeries,
    complete_years,
    week_range,
    weeks_in_iso_year,
)


def _dense(first_year, last_year, value_of, variable=Variable.ARRIVALS, pad=0):
    first = WeekKey.from_number(WeekKey(first_year, 1).number - pad)
    last = WeekKey.from_number(WeekKey(last_year, weeks_in_iso_year(last_year)).number + pad)
    weeks = list(week_range(first, last))
    return WeeklySeries(variable, [w.number for w in weeks], [value_of(w) for w in weeks])


class TestWeeklyMeanMethod:
    def test_constant_series_gives_flat_100(self):
        s = _dense(2021, 2023, lambda w: 7.5)
        table = seasonal_index(s, complete_years(s))
        assert len(table.entries) == 52
        for e in table.entries:
            assert e.index == 100.0
            assert e.support == 3

    def test_doubled_week_oracle(self):
        # Two 52-week years, value 10 everywhere except week 10 at 20.
        # Grand mean = (102*10 + 2*20)/104; index(10) = 100*20/gm.
        s = _dense(2021, 2022, lambda w: 20.0 if w.iso_week == 10 else 10.0)
        table = seasonal_index(s, complete_years(s))
        gm = (102 * 10.0 + 2 * 20.0) / 104.0
        index = {e.iso_week: e.index for e in table.entries}
        assert index[10] == pytest.approx(100.0 * 20.0 / gm, rel=1e-14)
        assert index[9] == pytest.approx(100.0 * 10.0 / gm, rel=1e-14)

    def test_matches_direct_averaging_oracle(self):
        rng = random.Random(12)
        s = _dense(2018, 2022, lambda w: rng.uniform(50, 150))
        table = seasonal_index(s, complete_years(s))
        want = seasonal_oracle(
            {(w.iso_year, w.iso_week): v for w, v in zip(weeks_of(s), s.values().tolist())}
        )
        assert len(table.entries) == 53
        for e in table.entries:
            assert e.index == pytest.approx(want[e.iso_week], rel=1e-12)

    def test_week_53_support_counts_long_years_only(self):
        s = _dense(2014, 2021, lambda w: float(w.iso_week))
        table = seasonal_index(s, complete_years(s))
        # 2015 and 2020 are the long years in range.
        assert {e.iso_week: e.index for e in table.entries}[53] > 0
        by_week = {e.iso_week: e.support for e in table.entries}
        assert by_week[53] == 2
        assert by_week[52] == 8

    def test_incomplete_edge_years_ignored(self):
        rng = random.Random(13)
        values = {}

        def value_of(w):
            return values.setdefault(w, rng.uniform(10, 30))

        padded = _dense(2020, 2022, value_of, pad=11)
        exact = _dense(2020, 2022, value_of)
        years = complete_years(padded)
        assert years == complete_years(exact) == [2020, 2021, 2022]
        assert seasonal_index(padded, years) == seasonal_index(exact, years)

    def test_support_weighted_mean_is_100(self):
        rng = random.Random(14)
        s = _dense(2013, 2021, lambda w: rng.uniform(1, 9))
        table = seasonal_index(s, complete_years(s))
        assert index_weighted_mean(table) == pytest.approx(100.0, abs=1e-6)

    def test_scale_invariance(self):
        rng = random.Random(15)
        vals = {}

        def value_of(w):
            return vals.setdefault(w, rng.uniform(100, 200))

        s = _dense(2021, 2023, value_of)
        a = seasonal_index(s, complete_years(s))
        s = _dense(2021, 2023, lambda w: 1000.0 * value_of(w))
        b = seasonal_index(s, complete_years(s))
        for ea, eb in zip(a.entries, b.entries):
            assert eb.index == pytest.approx(ea.index, rel=1e-9)
            assert eb.support == ea.support

    def test_needs_two_complete_years(self):
        s = _dense(2021, 2021, lambda w: 5.0)
        for years in (complete_years(s), [2021, 2021]):
            with pytest.raises(InsufficientDataError) as err:
                seasonal_index(s, years)
            assert str(err.value) == (
                "seasonal index needs >= 2 complete ISO years for arrivals, got 1")

    @pytest.mark.parametrize("method", ["weekly-mean", "moving-average"])
    @pytest.mark.parametrize("years, message", [
        # The padding holds the last 11 weeks of 2019 and the first 11 of 2023.
        ([2019, 2020, 2021], "ISO year 2019 incomplete in series; missing weeks: 2019-W01, "),
        ([2020, 2021, 2022], "ISO year 2021 incomplete in series; missing weeks: 2021-W10$"),
        ([2022, 2023], "ISO year 2023 incomplete in series; missing weeks: 2023-W12, "),
        ([2022, 2024], "ISO year 2024 incomplete in series; missing weeks: 2024-W01, "),
    ])
    def test_year_not_held_in_full_raises(self, method, years, message):
        full = _dense(2020, 2022, lambda w: 5.0, pad=11)
        keep = [n for n in full.numbers.tolist() if n != WeekKey(2021, 10).number]
        s = WeeklySeries(Variable.ARRIVALS, keep, [5.0] * len(keep))
        with pytest.raises(DataIntegrityError, match=message):
            seasonal_index(s, years, method)


class TestMovingAverageMethod:
    def test_constant_series_gives_flat_100(self):
        s = _dense(2020, 2023, lambda w: 42.0)
        table = seasonal_index(s, complete_years(s), method="moving-average")
        for e in table.entries:
            assert e.index == pytest.approx(100.0, rel=1e-12)

    def test_support_weighted_mean_is_exactly_100(self):
        rng = random.Random(16)
        s = _dense(2016, 2023, lambda w: rng.uniform(20, 60))
        table = seasonal_index(s, complete_years(s), method="moving-average")
        assert index_weighted_mean(table) == pytest.approx(100.0, abs=1e-9)

    def test_removes_linear_trend(self):
        # Strong linear growth with a flat seasonal shape: the weekly-mean
        # method absorbs the trend into the indices; the MA method must not.
        grid = {w: i for i, w in enumerate(week_range(WeekKey(2016, 1), WeekKey(2023, 52)))}
        s = _dense(2016, 2023, lambda w: 100.0 + 2.0 * grid[w])
        ma = seasonal_index(s, complete_years(s), method="moving-average")
        spread_ma = max(e.index for e in ma.entries) - min(e.index for e in ma.entries)
        wm = seasonal_index(s, complete_years(s), method="weekly-mean")
        spread_wm = max(e.index for e in wm.entries) - min(e.index for e in wm.entries)
        assert spread_ma < 1.0
        assert spread_wm > 10.0

    def test_recovers_multiplicative_seasonality(self):
        shape = {w: 1.0 + 0.3 * math.sin(2 * math.pi * w / 52.0) for w in range(1, 54)}
        s = _dense(2016, 2023, lambda w: 500.0 * shape[w.iso_week])
        table = seasonal_index(s, complete_years(s), method="moving-average")
        for e in table.entries:
            if e.iso_week == 53:
                continue
            assert e.index == pytest.approx(100.0 * shape[e.iso_week] / 1.0, rel=0.02)

    def test_method_recorded_in_table(self):
        s = _dense(2020, 2023, lambda w: 42.0)
        years = complete_years(s)
        assert seasonal_index(s, years).method == "weekly-mean"
        assert seasonal_index(s, years, method="moving-average").method == "moving-average"

    def test_unknown_method(self):
        s = _dense(2020, 2023, lambda w: 42.0)
        with pytest.raises(ValueError):
            seasonal_index(s, complete_years(s), method="median-ratio")


class TestTableValidation:
    def test_roundtrip(self, cleaned42):
        series, _ = cleaned42[Variable.MODAL_PRICE]
        table = seasonal_index(series, complete_years(series))
        assert json.loads(to_json(table)) == {
            "variable": "modal_price",
            "method": "weekly-mean",
            "entries": [
                {"iso_week": e.iso_week, "index": e.index, "support": e.support}
                for e in table.entries
            ],
        }


class TestFixtureSeasonality:
    def test_seed42_peak_and_trough(self, cleaned42):
        arrivals, _ = cleaned42[Variable.ARRIVALS]
        prices, _ = cleaned42[Variable.MODAL_PRICE]
        a = seasonal_index(arrivals, complete_years(arrivals))
        p = seasonal_index(prices, complete_years(prices))
        a_peak = max(a.entries, key=lambda e: e.index).iso_week
        p_trough = min(p.entries, key=lambda e: e.index).iso_week
        # Harvest-glut anticorrelation: arrivals peak where prices bottom out.
        assert a_peak == 44
        assert p_trough == 44

    def test_seed42_tables_cover_all_weeks(self, cleaned42):
        for var in Variable:
            series, _ = cleaned42[var]
            table = seasonal_index(series, complete_years(series))
            weeks = [e.iso_week for e in table.entries]
            assert weeks == list(range(1, 54))
            support = {e.iso_week: e.support for e in table.entries}
            assert support[53] == 2
            assert support[1] == 15
