import numpy as np
import pytest

from seasonwarp.cleaning import ColumnSchema, parse_market_csv, spline_fill
from seasonwarp.descriptive import describe
from seasonwarp.fixture import FIRST_YEAR, GAP_COUNT, N_YEARS, generate_fixture
from seasonwarp.series import (
    Variable,
    WeekKey,
    build_weekly_series,
    complete_years,
    week_range,
    weeks_in_iso_year,
)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = generate_fixture(seed=42)
        b = generate_fixture(seed=42)
        assert a.csv_text == b.csv_text
        assert a.gap_weeks == b.gap_weeks
        assert a.arrival_spike_weeks == b.arrival_spike_weeks

    def test_different_seed_different_bytes(self):
        assert generate_fixture(seed=42).csv_text != generate_fixture(seed=7).csv_text


class TestStructure:
    def test_row_count_is_span_minus_gaps(self, fixture42):
        total_weeks = sum(
            weeks_in_iso_year(y) for y in range(FIRST_YEAR, FIRST_YEAR + N_YEARS)
        )
        rows = fixture42.csv_text.strip().splitlines()
        assert rows[0] == "date,arrivals,modal_price"
        assert len(rows) - 1 == total_weeks - GAP_COUNT
        assert total_weeks == 782

    def test_gap_weeks_absent_from_csv(self, fixture42, table42):
        weeks = set(table42.weeks.tolist())
        assert len(fixture42.gap_weeks) == GAP_COUNT
        for w in fixture42.gap_weeks:
            assert w.number not in weeks

    def test_gaps_are_interior_and_recoverable(self, fixture42, table42):
        series = build_weekly_series(table42, Variable.ARRIVALS)
        assert list(spline_fill(series)[1].interpolated_weeks) == sorted(fixture42.gap_weeks)

    def test_dates_are_week_ending_sundays(self, fixture42):
        import datetime as dt

        for line in fixture42.csv_text.strip().splitlines()[1:]:
            day = dt.date.fromisoformat(line.split(",")[0])
            assert day.weekday() == 6

    def test_weeks_cover_span_in_order(self, table42):
        first = WeekKey(FIRST_YEAR, 1)
        last = WeekKey(FIRST_YEAR + N_YEARS - 1, 52)
        assert table42.weeks[0] == first.number
        assert table42.weeks[-1] == last.number
        assert (np.diff(table42.weeks) >= 0).all()

    def test_values_are_positive_integers(self, table42):
        arrivals, prices = table42.arrivals, table42.modal_price
        assert (arrivals >= 1).all() and (arrivals == np.trunc(arrivals)).all()
        assert (prices >= 50).all() and (prices == np.trunc(prices)).all()

    def test_all_interior_years_complete(self, table42):
        series = build_weekly_series(table42, Variable.MODAL_PRICE)
        years = complete_years(series)
        # Gap years (2011, 2014, 2019) are incomplete before cleaning.
        assert years == [
            y
            for y in range(FIRST_YEAR, FIRST_YEAR + N_YEARS)
            if y not in (2011, 2014, 2019)
        ]


class TestCalibration:
    # The bundled dataset must look like a real wholesale market series:
    # arrivals swing harder than prices, both are right-skewed and heavy
    # tailed enough to fail any normality screen.
    def test_dispersion_windows(self, cleaned42):
        arrivals, _ = cleaned42[Variable.ARRIVALS]
        prices, _ = cleaned42[Variable.MODAL_PRICE]
        a, p = describe(arrivals), describe(prices)
        assert 78.0 <= a.cv_percent <= 118.0
        assert 67.0 <= p.cv_percent <= 87.0
        assert a.cv_percent > p.cv_percent

    def test_right_skew_and_nonnormality(self, cleaned42):
        for var in Variable:
            series, _ = cleaned42[var]
            s = describe(series)
            assert s.skewness > 1.0
            assert s.excess_kurtosis > 3.0
            assert s.jarque_bera_p < 1e-10

    def test_planted_spikes_produce_fence_violations(self, fixture42, cleaned42):
        # Spikes planted off-season sit below the global fences (the seasonal
        # peaks dominate), so membership is partial, never empty.
        _, report = cleaned42[Variable.ARRIVALS]
        flagged = {o.week for o in report.outlier_weeks}
        assert flagged & set(fixture42.arrival_spike_weeks)
        _, preport = cleaned42[Variable.MODAL_PRICE]
        pflagged = {o.week for o in preport.outlier_weeks}
        assert pflagged & set(fixture42.price_spike_weeks)

    def test_reported_outliers_lie_strictly_outside_fences(
        self, table42, cleaned42
    ):
        from seasonwarp.descriptive import quantile

        for var in Variable:
            observed = build_weekly_series(table42, var).values()
            q1, q3 = quantile(observed, 0.25), quantile(observed, 0.75)
            lo, hi = q1 - 3 * (q3 - q1), q3 + 3 * (q3 - q1)
            _, report = cleaned42[var]
            assert report.outlier_weeks
            for o in report.outlier_weeks:
                assert o.value < lo or o.value > hi

    def test_outlier_counts_stay_modest(self, cleaned42):
        for var in Variable:
            _, report = cleaned42[var]
            assert 4 <= len(report.outlier_weeks) <= 40

    def test_seeds_other_than_default_stay_calibrated(self):
        # A handful of seeds must keep the headline dispersion in-window so
        # the generator is robust, not tuned to one lucky draw.
        from seasonwarp.cleaning import clean_series

        for seed in (1, 7, 99):
            fx = generate_fixture(seed=seed)
            table = parse_market_csv(fx.csv_bytes(), ColumnSchema())
            arrivals, _ = clean_series(build_weekly_series(table, Variable.ARRIVALS))
            prices, _ = clean_series(build_weekly_series(table, Variable.MODAL_PRICE))
            assert 78.0 <= describe(arrivals).cv_percent <= 118.0, seed
            assert 67.0 <= describe(prices).cv_percent <= 87.0, seed
