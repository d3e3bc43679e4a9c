import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    parse_market_csv_oracle,
    quantile_oracle,
    spline_oracle,
    spline_second_derivatives_oracle,
    value_at,
    week_range_oracle,
    weeks_of,
)
import seasonwarp.series
from seasonwarp.cleaning import (
    ColumnSchema,
    Fence,
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
from seasonwarp.report import to_json
from seasonwarp.series import (
    FLAGS,
    PointFlag,
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
        table = parse_market_csv(_csv("2022-03-06,120,1500", "2022-03-13,90,1480"))
        assert len(table) == 2
        assert table.weeks.tolist() == [WeekKey(2022, 9).number, WeekKey(2022, 10).number]
        assert table.arrivals.tolist() == [120.0, 90.0]
        assert table.modal_price.tolist() == [1500.0, 1480.0]

    def test_blank_cells_are_absent_values(self):
        table = parse_market_csv(_csv("2022-03-06,,1500", "2022-03-13,90,"))
        assert np.isnan(table.arrivals[0])
        assert table.modal_price[0] == 1500.0
        assert np.isnan(table.modal_price[1])

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
        table = parse_market_csv(data, schema)
        assert table.weeks.tolist() == [WeekKey(2022, 9).number]

    def test_unknown_date_format_rejected(self):
        with pytest.raises(ValueError):
            ColumnSchema(date_format="mdy")

    def test_utf8_bom_tolerated(self):
        data = b"\xef\xbb\xbf" + _csv("2022-03-06,120,1500")
        assert len(parse_market_csv(data)) == 1

    def test_empty_input(self):
        assert len(parse_market_csv(b"")) == 0

    @pytest.mark.parametrize("row,fields", [("2022-03-13,90", 2), ("2022-03-13,90,1480,7", 4)])
    def test_row_with_other_field_count_rejected(self, row, fields):
        with pytest.raises(DataIntegrityError) as err:
            parse_market_csv(_csv("2022-03-06,120,1500", row))
        assert str(err.value) == f"line 3: {fields} fields where the header has 3"

    def test_blank_lines_skipped_and_not_counted(self):
        data = b"date,arrivals,modal_price\r\n\r\n2022-03-06,120,1500\n\n\n2022-03-13,x,1\n"
        with pytest.raises(DataIntegrityError, match="^line 3: cannot parse arrivals value 'x'"):
            parse_market_csv(data)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_non_utf8_input_names_byte_offset(self, bom):
        data = bom + _csv("2022-03-06,120,1500").replace(b"120", b"1\xe90")
        offset = data.index(b"\xe9")
        with pytest.raises(DataIntegrityError) as err:
            parse_market_csv(data)
        assert str(err.value) == f"input is not UTF-8: byte 0xe9 at offset {offset}"

    def test_oversized_field_is_data_error(self):
        with pytest.raises(DataIntegrityError, match="^CSV line 2: field larger than field limit"):
            parse_market_csv(_csv("2022-03-06,120," + "9" * 200_000))

    def test_no_week_key_per_row(self, monkeypatch):
        day = dt.date(1725, 1, 7)
        rows = [f"{day + dt.timedelta(weeks=k)},{k % 97},{100 + k % 13}" for k in range(15_000)]
        data = _csv(*rows)
        made = []
        post_init = seasonwarp.series.WeekKey.__post_init__
        monkeypatch.setattr(
            seasonwarp.series.WeekKey, "__post_init__", lambda w: made.append(w) or post_init(w)
        )
        table = parse_market_csv(data)
        series = build_weekly_series(table, Variable.MODAL_PRICE)
        assert len(table) == len(series) == 15_000
        assert made == []
        monkeypatch.undo()
        assert series.numbers.tolist() == [
            ((day + dt.timedelta(weeks=k)).toordinal() - 1) // 7 for k in range(15_000)
        ]


def _iso(day):
    return f"{day.year:04d}-{day.month:02d}-{day.day:02d}"


def _dmy(day):
    return f"{day.day:02d}/{day.month:02d}/{day.year:04d}"


_DAYS = st.dates(dt.date(1, 1, 1), dt.date(9999, 12, 31))
_BROKEN_DATES = [
    "", "oops", "2020-13-01", "2020-02-30", "0000-01-01", "10000-01-01", "2020-01-05T00",
    "NaT", "today", "05/01/20", "2020/01/05", "06-03-2022",
]
_ODD_CELLS = [
    "", " ", "12.5", "1e3", "+3", "1_000", "-0", "0.0", ".5", "5.", "１２", "\xa07\xa0", "1e75",
]
_BROKEN_CELLS = [
    "abc", "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "-1", "-0.5", "1e76", "1e300",
    "1e400", "1.5e308", "0x10", "1,5",
]


def _date_text(draw, date_format):
    """Mostly the day in `date_format`; sometimes not zero-padded (which
    strptime reads), in the other format, or no date at all."""
    day = draw(_DAYS)
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return draw(st.sampled_from(_BROKEN_DATES))
    if kind == 1:
        return f"{day.year}-{day.month}-{day.day}" if date_format == "iso" else (
            f"{day.day}/{day.month}/{day.year}")
    if kind == 2:
        return _dmy(day) if date_format == "iso" else _iso(day)
    if kind == 3:
        return "２０２０-01-05" if date_format == "iso" else "05/01/２０２０"
    return _iso(day) if date_format == "iso" else _dmy(day)


def _cell_text(draw):
    """Mostly a plain number; sometimes blank, an unusual spelling float()
    reads, or a cell of every rejected kind."""
    kind = draw(st.integers(0, 29))
    if kind == 0:
        return draw(st.sampled_from(_BROKEN_CELLS))
    if kind < 5:
        return draw(st.sampled_from(_ODD_CELLS))
    if kind < 15:
        return repr(draw(st.floats(0, 1e6, allow_nan=False)))
    return str(draw(st.integers(0, 10**6)))


@st.composite
def _market_csv(draw):
    """A CSV and its date format: valid and broken cells of every kind,
    padded or quoted fields, blank lines, CRLF and a BOM."""
    date_format = draw(st.sampled_from(["iso", "dmy"]))
    names = draw(st.permutations(["date", "arrivals", "modal_price"]))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 12))):
        cells = {"date": _date_text(draw, date_format), "arrivals": _cell_text(draw),
                 "modal_price": _cell_text(draw)}
        fields = []
        for name in names:
            text = draw(st.sampled_from(["", "", " ", "  "])) + cells[name] + draw(
                st.sampled_from(["", "", " "]))
            if "," in text or draw(st.integers(0, 3)) == 0:
                text = '"' + text + '"'
            fields.append(text)
        lines.append(",".join(fields))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = (newline.join(lines) + newline).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    return data, date_format


def _parse_outcome(parse, *args):
    try:
        weeks, arrivals, prices = parse(*args)
    except (DataIntegrityError, ValueError) as exc:
        return type(exc), str(exc)
    return (
        np.asarray(weeks, dtype=np.int64).tobytes(),
        np.asarray(arrivals, dtype=float).tobytes(),
        np.asarray(prices, dtype=float).tobytes(),
    )


class TestParseMatchesRowReader:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(case=_market_csv())
    def test_same_columns_or_same_error(self, case):
        data, date_format = case
        schema = ColumnSchema(date_format=date_format)

        def columnar(data):
            table = parse_market_csv(data, schema)
            return table.weeks, table.arrivals, table.modal_price

        got = _parse_outcome(columnar, data)
        want = _parse_outcome(
            lambda d: parse_market_csv_oracle(d, date_format=date_format), data
        )
        assert got == want


def _series(weeks_values, variable=Variable.ARRIVALS):
    weeks, values = zip(*weeks_values)
    return WeeklySeries(variable, [w.number for w in weeks], values)


def _flags(series):
    return dict(zip(weeks_of(series), (FLAGS[code] for code in series.flags)))


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

    @pytest.mark.parametrize("n", [4, 5, 57, 15_500])
    def test_equals_numpy_scalar_solve(self, n):
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.integers(1, 4, size=n)).astype(float)
        y = rng.uniform(0.0, 1e4, size=n)
        got = natural_spline_second_derivatives(x, y)
        assert got.dtype == np.float64
        assert np.array_equal(got, spline_second_derivatives_oracle(x, y))

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

        assert weeks_of(dense) == tuple(week_range(span[0], span[-1]))
        assert list(report.interpolated_weeks) == find_missing_weeks(series)
        for _, w, v in observed:
            assert value_at(dense, w) == v
        x_obs = np.array([i for i, _, _ in observed], dtype=float)
        y_obs = np.array([v for _, _, v in observed])
        x_fill = np.array(sorted(gaps), dtype=float)
        m2 = natural_spline_second_derivatives(x_obs, y_obs)
        expected = np.maximum(natural_spline_eval(x_obs, y_obs, m2, x_fill), 0.0)
        assert [value_at(dense, span[i]) for i in sorted(gaps)] == expected.tolist()

    def test_fills_only_missing_weeks(self):
        weeks = list(week_range(WeekKey(2021, 1), WeekKey(2021, 12)))
        gaps = {WeekKey(2021, 4), WeekKey(2021, 9)}
        s = _series(
            (w, float(i * i)) for i, w in enumerate(weeks) if w not in gaps
        )
        dense, report = spline_fill(s)
        assert weeks_of(dense) == tuple(weeks)
        assert report.interpolated_weeks == (WeekKey(2021, 4), WeekKey(2021, 9))
        assert report.missing_fraction == pytest.approx(2 / 12)
        for week, flag in _flags(dense).items():
            assert flag is (PointFlag.INTERPOLATED if week in gaps else PointFlag.OBSERVED)

    def test_observed_values_bit_exact(self):
        rng = np.random.default_rng(6)
        weeks = list(week_range(WeekKey(2020, 1), WeekKey(2021, 52)))
        vals = rng.uniform(100, 900, size=len(weeks))
        drop = set(rng.choice(len(weeks), size=10, replace=False).tolist())
        s = _series((w, vals[i]) for i, w in enumerate(weeks) if i not in drop)
        dense, _ = spline_fill(s)
        for i, w in enumerate(weeks):
            if i not in drop:
                assert value_at(dense, w) == vals[i]

    def test_filled_values_match_direct_spline(self):
        weeks = list(week_range(WeekKey(2021, 1), WeekKey(2021, 20)))
        gaps = {3, 4, 11}
        y = np.array([np.cos(i / 3.0) * 50 + 100 for i in range(20)])
        s = _series((w, y[i]) for i, w in enumerate(weeks) if i not in gaps)
        dense, _ = spline_fill(s)
        x_obs = np.array([i for i in range(20) if i not in gaps], dtype=float)
        want = spline_oracle(x_obs, y[[i for i in range(20) if i not in gaps]], sorted(gaps))
        got = [value_at(dense, weeks[i]) for i in sorted(gaps)]
        assert np.allclose(got, want, rtol=0, atol=1e-9)

    def test_negative_interpolants_clamped_and_reported(self):
        # A deep V with the bottom removed makes the spline undershoot zero.
        weeks = list(week_range(WeekKey(2021, 1), WeekKey(2021, 9)))
        vals = [400.0, 300.0, 200.0, 2.0, None, 2.0, 200.0, 300.0, 400.0]
        s = _series((w, v) for w, v in zip(weeks, vals) if v is not None)
        dense, report = spline_fill(s)
        assert report.clamped_weeks == (WeekKey(2021, 5),)
        assert value_at(dense, WeekKey(2021, 5)) == 0.0

    def test_gap_free_input_is_identity(self):
        weeks = list(week_range(WeekKey(2021, 1), WeekKey(2021, 8)))
        s = _series((w, float(i)) for i, w in enumerate(weeks))
        dense, report = spline_fill(s)
        assert dense is s
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
        assert value_at(cleaned, spike) == 5000.0
        flags = _flags(cleaned)
        assert flags[spike] is PointFlag.OUTLIER_RETAINED
        assert flags[WeekKey(2021, 7)] is PointFlag.INTERPOLATED
        assert report.outlier_weeks[0].week == spike
        assert report.outlier_weeks[0].fence_violated is Fence.HIGH
        assert not report.winsorized

    def test_winsorize_clamps_to_fence_keeps_original_in_report(self):
        series = self._gappy_series_with_spike()
        cleaned, report = clean_series(series, winsorize=True)
        spike = WeekKey(2021, 20)
        clamped = value_at(cleaned, spike)
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
            _series(zip(weeks_of(series), series.values()))
        )
        assert [o.week for o in report.outlier_weeks] == [
            o.week for o in report_nogap.outlier_weeks
        ]

    def test_interpolated_points_never_flagged(self):
        cleaned, _ = clean_series(self._gappy_series_with_spike())
        assert _flags(cleaned)[WeekKey(2021, 7)] is PointFlag.INTERPOLATED

    def test_report_roundtrip(self):
        # The JSON form is the report's fields, weeks as [iso_year, iso_week].
        _, report = clean_series(self._gappy_series_with_spike(), winsorize=True)
        assert json.loads(to_json(report)) == {
            "variable": "arrivals",
            "interpolated_weeks": [[2021, 7]],
            "outlier_weeks": [{"week": [2021, 20], "value": 5000.0, "fence_violated": "high"}],
            "missing_fraction": 1 / 26,
            "clamped_weeks": [],
            "winsorized": True,
        }


class TestFixtureCleaning:
    def test_seed42_gap_weeks(self, table42, cleaned42):
        _, report = cleaned42[Variable.ARRIVALS]
        assert report.interpolated_weeks == (
            WeekKey(2011, 21),
            WeekKey(2011, 37),
            WeekKey(2014, 5),
            WeekKey(2014, 11),
            WeekKey(2019, 1),
            WeekKey(2019, 26),
        )
        series = build_weekly_series(table42, Variable.ARRIVALS)
        assert find_missing_weeks(series) == list(report.interpolated_weeks)

    def test_seed42_dense_span(self, cleaned42):
        for var in Variable:
            series, report = cleaned42[var]
            assert len(series) == 782
            assert find_missing_weeks(series) == []
            assert report.missing_fraction == pytest.approx(6 / 782)
