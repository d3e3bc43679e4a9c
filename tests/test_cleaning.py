import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import quantile_oracle, spline_oracle, week_range_oracle
from seasonwarp.cleaning import (
    ColumnSchema,
    Fence,
    CleaningReport,
    clean_series,
    find_missing_weeks,
    iqr_outliers,
    natural_spline_eval,
    natural_spline_second_derivatives,
    parse_market_csv,
    spline_fill,
)
from seasonwarp.errors import (
    DataIntegrityError,
    InsufficientDataError,
    SchemaError,
)
from seasonwarp.series import (
    PointFlag,
    SeriesPoint,
    Variable,
    WeekKey,
    WeeklySeries,
    build_weekly_series,
    week_range,
)


def _csv(*rows, header="date,arrivals,modal_price"):
    return ("\n".join([header, *rows]) + "\n").encode()


class TestParseMarketCsv:
    def test_basic_rows(self):
        records = parse_market_csv(_csv("2022-03-06,120,1500", "2022-03-13,90,1480"))
        assert len(records) == 2
        assert records[0].week == WeekKey(2022, 9)
        assert records[0].arrivals == 120.0
        assert records[1].modal_price == 1480.0

    def test_blank_cells_are_absent_values(self):
        records = parse_market_csv(_csv("2022-03-06,,1500", "2022-03-13,90,"))
        assert records[0].arrivals is None
        assert records[0].modal_price == 1500.0
        assert records[1].modal_price is None

    def test_bad_number_reports_line(self):
        with pytest.raises(DataIntegrityError, match="line 3"):
            parse_market_csv(_csv("2022-03-06,120,1500", "2022-03-13,oops,1480"))

    def test_bad_date_reports_line(self):
        with pytest.raises(DataIntegrityError, match="line 2"):
            parse_market_csv(_csv("06-03-2022,120,1500"))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", "NaN", "1e300", "1.5e308"])
    def test_non_finite_value_rejected(self, cell):
        with pytest.raises(DataIntegrityError, match=f"line 3: modal_price value '{cell}'"):
            parse_market_csv(_csv("2022-03-06,120,1500", f"2022-03-13,90,{cell}"))

    def test_negative_value_rejected(self):
        with pytest.raises(DataIntegrityError, match="negative"):
            parse_market_csv(_csv("2022-03-06,-5,1500"))

    def test_missing_column_is_schema_error(self):
        data = _csv("2022-03-06,120", header="date,arrivals")
        with pytest.raises(SchemaError, match="modal_price"):
            parse_market_csv(data)

    def test_custom_column_names_and_dmy_dates(self):
        data = _csv(
            "06/03/2022,120,1500",
            header="when,qty,price",
        )
        schema = ColumnSchema(date="when", arrivals="qty", price="price", date_format="dmy")
        records = parse_market_csv(data, schema)
        assert records[0].week == WeekKey(2022, 9)

    def test_unknown_date_format_rejected(self):
        with pytest.raises(ValueError):
            ColumnSchema(date_format="mdy")

    def test_utf8_bom_tolerated(self):
        data = b"\xef\xbb\xbf" + _csv("2022-03-06,120,1500")
        assert len(parse_market_csv(data)) == 1

    def test_empty_input(self):
        assert parse_market_csv(b"") == []


def _series(weeks_values, variable=Variable.ARRIVALS):
    points = tuple(
        SeriesPoint(w, float(v), PointFlag.OBSERVED) for w, v in weeks_values
    )
    return WeeklySeries(variable, points)


class TestFindMissingWeeks:
    def test_no_gaps(self):
        weeks = list(week_range(WeekKey(2021, 1), WeekKey(2021, 10)))
        s = _series((w, 1.0) for w in weeks)
        assert find_missing_weeks(s) == []

    def test_interior_gaps_in_order(self):
        keep = {1, 2, 5, 6, 9}
        s = _series((WeekKey(2021, w), 1.0) for w in sorted(keep))
        assert find_missing_weeks(s) == [
            WeekKey(2021, 3),
            WeekKey(2021, 4),
            WeekKey(2021, 7),
            WeekKey(2021, 8),
        ]

    def test_gap_across_year_boundary(self):
        s = _series([(WeekKey(2022, 52), 1.0), (WeekKey(2023, 2), 2.0)])
        assert find_missing_weeks(s) == [WeekKey(2023, 1)]

    def test_gap_across_long_year_boundary(self):
        s = _series([(WeekKey(2020, 52), 1.0), (WeekKey(2021, 1), 2.0)])
        assert find_missing_weeks(s) == [WeekKey(2020, 53)]

    def test_short_series(self):
        assert find_missing_weeks(_series([(WeekKey(2021, 1), 1.0)])) == []


class TestNaturalSpline:
    def test_frozen_cubic_example(self):
        # Knots on y = x^3 at x = 0,1,3,4; the classic worked example.
        x = np.array([0.0, 1.0, 3.0, 4.0])
        y = np.array([0.0, 1.0, 27.0, 64.0])
        m = natural_spline_second_derivatives(x, y)
        assert np.allclose(m, [0.0, 4.5, 22.5, 0.0], rtol=0, atol=1e-12)
        s2 = natural_spline_eval(x, y, m, np.array([2.0]))
        assert abs(s2[0] - 7.25) < 1e-12

    def test_natural_boundary_conditions(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0, 50, size=12))
        y = rng.normal(size=12)
        m = natural_spline_second_derivatives(x, y)
        assert m[0] == 0.0 and m[-1] == 0.0

    def test_reproduces_knots_exactly(self):
        rng = np.random.default_rng(4)
        x = np.arange(20, dtype=float)
        y = rng.uniform(10, 500, size=20)
        m = natural_spline_second_derivatives(x, y)
        got = natural_spline_eval(x, y, m, x)
        assert np.array_equal(got, y)

    def test_linear_data_reproduced_between_knots(self):
        x = np.array([0.0, 2.0, 5.0, 6.0, 9.0])
        y = 3.0 * x - 1.0
        m = natural_spline_second_derivatives(x, y)
        xq = np.linspace(0, 9, 91)
        assert np.allclose(natural_spline_eval(x, y, m, xq), 3.0 * xq - 1.0, atol=1e-12)

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(4, 40))
            x = np.sort(rng.choice(np.arange(200, dtype=float), size=n, replace=False))
            y = rng.uniform(-100, 100, size=n)
            xq = rng.uniform(x[0], x[-1], size=25)
            m = natural_spline_second_derivatives(x, y)
            got = natural_spline_eval(x, y, m, xq)
            want = spline_oracle(x, y, xq)
            assert np.allclose(got, want, rtol=0, atol=1e-9)

    def test_too_few_knots(self):
        with pytest.raises(InsufficientDataError):
            natural_spline_second_derivatives(np.array([0.0, 1.0, 2.0]), np.zeros(3))

    def test_non_increasing_knots(self):
        with pytest.raises(ValueError):
            natural_spline_second_derivatives(
                np.array([0.0, 1.0, 1.0, 2.0]), np.zeros(4)
            )


_SPAN_2014_2016 = week_range_oracle(WeekKey(2014, 40), WeekKey(2016, 10))


class TestSplineFill:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        gaps=st.sets(st.integers(1, len(_SPAN_2014_2016) - 2), max_size=len(_SPAN_2014_2016) - 4),
        values=st.lists(
            st.floats(0.0, 1e4), min_size=len(_SPAN_2014_2016), max_size=len(_SPAN_2014_2016)
        ),
    )
    def test_random_gaps_across_long_year_match_stepping_positions(self, gaps, values):
        span = _SPAN_2014_2016
        observed = [(i, w, v) for i, (w, v) in enumerate(zip(span, values)) if i not in gaps]
        series = _series((w, v) for _, w, v in observed)
        dense, report = spline_fill(series)

        assert dense.weeks() == tuple(week_range(span[0], span[-1]))
        assert list(report.interpolated_weeks) == find_missing_weeks(series)
        for _, w, v in observed:
            assert dense.value_at(w) == v
        x_obs = np.array([i for i, _, _ in observed], dtype=float)
        y_obs = np.array([v for _, _, v in observed])
        x_fill = np.array(sorted(gaps), dtype=float)
        m2 = natural_spline_second_derivatives(x_obs, y_obs)
        expected = np.maximum(natural_spline_eval(x_obs, y_obs, m2, x_fill), 0.0)
        assert [dense.value_at(span[i]) for i in sorted(gaps)] == expected.tolist()

    def test_fills_only_missing_weeks(self):
        weeks = list(week_range(WeekKey(2021, 1), WeekKey(2021, 12)))
        gaps = {WeekKey(2021, 4), WeekKey(2021, 9)}
        s = _series(
            (w, float(i * i)) for i, w in enumerate(weeks) if w not in gaps
        )
        dense, report = spline_fill(s)
        assert dense.weeks() == tuple(weeks)
        assert report.interpolated_weeks == (WeekKey(2021, 4), WeekKey(2021, 9))
        assert report.missing_fraction == pytest.approx(2 / 12)
        for p in dense.points:
            expected_flag = (
                PointFlag.INTERPOLATED if p.week in gaps else PointFlag.OBSERVED
            )
            assert p.flag is expected_flag

    def test_observed_values_bit_exact(self):
        rng = np.random.default_rng(6)
        weeks = list(week_range(WeekKey(2020, 1), WeekKey(2021, 52)))
        vals = rng.uniform(100, 900, size=len(weeks))
        drop = set(rng.choice(len(weeks), size=10, replace=False).tolist())
        s = _series((w, vals[i]) for i, w in enumerate(weeks) if i not in drop)
        dense, _ = spline_fill(s)
        for i, w in enumerate(weeks):
            if i not in drop:
                assert dense.value_at(w) == vals[i]

    def test_filled_values_match_direct_spline(self):
        weeks = list(week_range(WeekKey(2021, 1), WeekKey(2021, 20)))
        gaps = {3, 4, 11}
        y = np.array([np.cos(i / 3.0) * 50 + 100 for i in range(20)])
        s = _series((w, y[i]) for i, w in enumerate(weeks) if i not in gaps)
        dense, _ = spline_fill(s)
        x_obs = np.array([i for i in range(20) if i not in gaps], dtype=float)
        want = spline_oracle(x_obs, y[[i for i in range(20) if i not in gaps]], sorted(gaps))
        got = [dense.value_at(weeks[i]) for i in sorted(gaps)]
        assert np.allclose(got, want, rtol=0, atol=1e-9)

    def test_negative_interpolants_clamped_and_reported(self):
        # A deep V with the bottom removed makes the spline undershoot zero.
        weeks = list(week_range(WeekKey(2021, 1), WeekKey(2021, 9)))
        vals = [400.0, 300.0, 200.0, 2.0, None, 2.0, 200.0, 300.0, 400.0]
        s = _series((w, v) for w, v in zip(weeks, vals) if v is not None)
        dense, report = spline_fill(s)
        assert report.clamped_weeks == (WeekKey(2021, 5),)
        assert dense.value_at(WeekKey(2021, 5)) == 0.0

    def test_gap_free_input_is_identity(self):
        weeks = list(week_range(WeekKey(2021, 1), WeekKey(2021, 8)))
        s = _series((w, float(i)) for i, w in enumerate(weeks))
        dense, report = spline_fill(s)
        assert dense == s
        assert report.interpolated_weeks == ()
        assert report.missing_fraction == 0.0

    def test_too_few_points(self):
        s = _series([(WeekKey(2021, 1), 1.0), (WeekKey(2021, 5), 2.0)])
        with pytest.raises(InsufficientDataError):
            spline_fill(s)


class TestIqrOutliers:
    def test_single_high_outlier(self):
        assert iqr_outliers([1.0, 2.0, 3.0, 4.0, 100.0]) == [(4, Fence.HIGH)]

    def test_constant_data_has_no_outliers(self):
        assert iqr_outliers([7.0] * 6) == []

    def test_low_and_high(self):
        v = [10.0] * 10 + [-500.0, 900.0]
        flags = dict(iqr_outliers(v))
        assert flags[10] is Fence.LOW
        assert flags[11] is Fence.HIGH

    def test_fences_are_strict(self):
        # v = 0..7 plus 100: Q1 = 2, Q3 = 6, IQR = 4.  k = 23.5 puts the high
        # fence exactly at 100, which must not be flagged; k = 23.4 must.
        v = [0.0, 1, 2, 3, 4, 5, 6, 7, 100.0]
        assert iqr_outliers(v, k=23.5) == []
        assert iqr_outliers(v, k=23.4) == [(8, Fence.HIGH)]

    def test_flag_count_monotone_in_k(self):
        rng = np.random.default_rng(8)
        v = rng.standard_t(df=3, size=300) * 50 + 100
        counts = [len(iqr_outliers(v, k=k)) for k in (0.5, 1.0, 1.5, 3.0, 6.0)]
        assert counts == sorted(counts, reverse=True)

    def test_huge_k_flags_nothing(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=50)
        assert iqr_outliers(v, k=1e9) == []

    def test_too_few_values(self):
        with pytest.raises(InsufficientDataError):
            iqr_outliers([1.0, 2.0, 3.0])

    def test_matches_per_value_rule(self):
        rng = np.random.default_rng(10)
        for k in (0.5, 1.5, 3.0):
            v = np.round(rng.standard_t(df=2, size=400) * 20.0)
            q1, q3 = quantile_oracle(v, 0.25), quantile_oracle(v, 0.75)
            lo, hi = q1 - k * (q3 - q1), q3 + k * (q3 - q1)
            want = [(i, Fence.LOW) for i, x in enumerate(v) if x < lo]
            want += [(i, Fence.HIGH) for i, x in enumerate(v) if x > hi]
            got = iqr_outliers(v, k=k)
            assert got == sorted(want)
            assert {f for _, f in got} == {Fence.LOW, Fence.HIGH}
            assert all(type(i) is int for i, _ in got)


class TestCleanSeries:
    def _gappy_series_with_spike(self):
        weeks = list(week_range(WeekKey(2021, 1), WeekKey(2021, 26)))
        vals = {w: 100.0 + i for i, w in enumerate(weeks)}
        vals[WeekKey(2021, 20)] = 5000.0
        del vals[WeekKey(2021, 7)]
        return _series(sorted(vals.items()))

    def test_flags_retained_by_default(self):
        cleaned, report = clean_series(self._gappy_series_with_spike())
        spike = WeekKey(2021, 20)
        assert cleaned.value_at(spike) == 5000.0
        flags = {p.week: p.flag for p in cleaned.points}
        assert flags[spike] is PointFlag.OUTLIER_RETAINED
        assert flags[WeekKey(2021, 7)] is PointFlag.INTERPOLATED
        assert report.outlier_weeks[0].week == spike
        assert report.outlier_weeks[0].fence_violated is Fence.HIGH
        assert not report.winsorized

    def test_winsorize_clamps_to_fence_keeps_original_in_report(self):
        series = self._gappy_series_with_spike()
        cleaned, report = clean_series(series, winsorize=True)
        spike = WeekKey(2021, 20)
        clamped = cleaned.value_at(spike)
        assert clamped < 5000.0
        assert report.winsorized
        assert report.outlier_weeks[0].value == 5000.0
        # Clamp target is the high fence computed from observed values.
        obs = series.values()
        from seasonwarp.descriptive import quantile

        q1, q3 = quantile(obs, 0.25), quantile(obs, 0.75)
        assert clamped == pytest.approx(q3 + 3.0 * (q3 - q1), rel=0, abs=1e-12)

    def test_fences_computed_once(self, monkeypatch):
        import seasonwarp.cleaning as cleaning

        calls = []
        real_quantile = cleaning.quantile
        monkeypatch.setattr(
            cleaning, "quantile", lambda v, q: calls.append(q) or real_quantile(v, q)
        )
        _, report = clean_series(self._gappy_series_with_spike())
        assert report.outlier_weeks
        assert calls == [0.25, 0.75]

    def test_fences_use_observed_values_only(self):
        # The interpolated week must not influence the fences: same fences as
        # cleaning the gap-free observed subset.
        series = self._gappy_series_with_spike()
        _, report = clean_series(series)
        _, report_nogap = clean_series(
            _series((p.week, p.value) for p in series.points)
        )
        assert [o.week for o in report.outlier_weeks] == [
            o.week for o in report_nogap.outlier_weeks
        ]

    def test_interpolated_points_never_flagged(self):
        cleaned, _ = clean_series(self._gappy_series_with_spike())
        for p in cleaned.points:
            if p.week == WeekKey(2021, 7):
                assert p.flag is PointFlag.INTERPOLATED

    def test_report_roundtrip(self):
        _, report = clean_series(self._gappy_series_with_spike(), winsorize=True)
        again = CleaningReport.from_dict(report.to_dict())
        assert again == report


class TestFixtureCleaning:
    def test_seed42_gap_weeks(self, records42, cleaned42):
        _, report = cleaned42[Variable.ARRIVALS]
        assert report.interpolated_weeks == (
            WeekKey(2011, 21),
            WeekKey(2011, 37),
            WeekKey(2014, 5),
            WeekKey(2014, 11),
            WeekKey(2019, 1),
            WeekKey(2019, 26),
        )
        series = build_weekly_series(records42, Variable.ARRIVALS)
        assert find_missing_weeks(series) == list(report.interpolated_weeks)

    def test_seed42_dense_span(self, cleaned42):
        for var in Variable:
            series, report = cleaned42[var]
            assert len(series) == 782
            assert find_missing_weeks(series) == []
            assert report.missing_fraction == pytest.approx(6 / 782)
