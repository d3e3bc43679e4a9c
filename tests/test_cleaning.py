import datetime as dt
import json
import tracemalloc

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
    CleaningReport,
    ColumnSchema,
    Fence,
    _cell_value,
    _cells,
    _parse_cell,
    clean_series,
    flag_outliers,
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

    def test_blank_lines_skipped_and_counted_as_lines(self):
        data = b"date,arrivals,modal_price\r\n\r\n2022-03-06,120,1500\n\n\n2022-03-13,x,1\n"
        with pytest.raises(DataIntegrityError, match="^line 6: cannot parse arrivals value 'x'"):
            parse_market_csv(data)

    def test_row_named_by_the_physical_line_it_ends_on(self):
        data = _csv('2022-03-06,120,1500,"two\nlines"', "2022-03-13,x,1,",
                    header="date,arrivals,modal_price,note")
        with pytest.raises(DataIntegrityError, match="^line 4: cannot parse arrivals value"):
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

    @pytest.mark.parametrize("rows, bound", [(15_593, 7_000_000), (62_553, 28_000_000)])
    def test_memory_of_a_long_history(self, rows, bound):
        # The cells go straight into one list per column: a list per row,
        # transposed afterwards, made the parse of 15,593 rows peak at 8.7 MB.
        day = dt.date(1725, 1, 7)
        data = _csv(*(f"{day + dt.timedelta(weeks=k)},{1000 + 37 * k % 9000},{50 + 11 * k % 2000}"
                      for k in range(rows)))
        tracemalloc.start()
        try:
            table = parse_market_csv(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == rows
        assert peak < bound

    @pytest.mark.parametrize("rows", [15_593, 62_553])
    def test_memory_after_the_first_read(self, rows):
        # The first reader and its StringIO (four bytes per character of the
        # text) are let go before the columns are checked: with them held,
        # the parse peaked at 17.9 and 17.5 bytes per input byte.
        day = dt.date(1725, 1, 7)
        data = _csv(*(f"{day + dt.timedelta(weeks=k)},{1000 + 37 * k % 9000},{50 + 11 * k % 2000}"
                      for k in range(rows)))
        tracemalloc.start()
        try:
            parse_market_csv(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * len(data)


# Cells the builtin float reads as numbers, so a column of only these (and
# plain numbers) is read in one pass, and cells it refuses or reads as NaN,
# so their column is read again cell by cell.
_NUMBER_CELLS = [
    " 42 ", "\t7\n", "\xa07\xa0", "1_000", "-0", "-0.0", "+3", "5.", ".5", "1e75", "1e76",
    "1e-320", "inf", "-inf", "-3", "١٢٣", "１２",
]
_REREAD_CELLS = ["", " ", "nan", "NaN", "-nan", "abc", "0x10", "1,5", "١٢x"]


def _cell_column(seed):
    """A column of plain numbers mixed with odd cells; every other seed also
    mixes in cells that send the column to the cell-by-cell read."""
    rng = np.random.default_rng(seed)
    odd = _NUMBER_CELLS + (_REREAD_CELLS if seed % 2 else [])
    column = []
    for _ in range(int(rng.integers(1, 200))):
        kind = rng.random()
        if kind < 0.3:
            column.append(str(rng.choice(odd)))
        elif kind < 0.6:
            column.append(repr(float(rng.uniform(0.0, 1e6))))
        else:
            column.append(str(int(rng.integers(0, 10**6))))
    return column


class TestCells:
    def test_same_as_cell_by_cell(self):
        rereads = 0
        for seed in range(400):
            column = _cell_column(seed)
            values, ok = _cells(column)
            want = np.array([_cell_value(cell) for cell in column])
            assert np.array_equal(values, want, equal_nan=True), seed
            assert np.array_equal(np.signbit(values), np.signbit(want)), seed
            passes = []
            for i, cell in enumerate(column):
                try:
                    value = _parse_cell(cell, "x", 1)
                except DataIntegrityError:
                    passes.append(False)
                else:
                    passes.append(True)
                    assert value == values[i] or np.isnan(value) and np.isnan(values[i]), seed
            assert ok.tolist() == passes, seed
            rereads += any(cell.strip() in _REREAD_CELLS for cell in column)
        assert 100 < rereads < 300  # both reads ran


def _iso(day):
    return f"{day.year:04d}-{day.month:02d}-{day.day:02d}"


def _dmy(day):
    return f"{day.day:02d}/{day.month:02d}/{day.year:04d}"


_DAYS = st.dates(dt.date(1, 1, 1), dt.date(9999, 12, 31))
_BROKEN_DATES = [
    "", "oops", "2020-13-01", "2020-02-30", "0000-01-01", "10000-01-01", "2020-01-05T00",
    "NaT", "today", "05/01/20", "2020/01/05", "06-03-2022",
]
# Ten characters that are not the date's own text, so the shape check sends
# them to strptime: a full-width digit, a sign, the other separators, digits
# in the wrong places, and a space-padded day (which strptime reads).
_TEN_CHARACTER_DATES = {
    "iso": ["2020-01-0\uff15", "+020-01-05", "2020/01/05", "20200-1-05", "2020-01- 5"],
    "dmy": ["05/01/202\uff15", "+5/01/2020", "05-01-2020", "05/1/02020", "2020/01/05"],
}
_ODD_CELLS = [
    "", " ", "12.5", "1e3", "+3", "1_000", "-0", "0.0", ".5", "5.", "１２", "\xa07\xa0", "1e75",
]
_BROKEN_CELLS = [
    "abc", "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "-1", "-0.5", "1e76", "1e300",
    "1e400", "1.5e308", "0x10", "1,5",
]


def _date_text(draw, date_format):
    """Mostly the day in `date_format`; sometimes not zero-padded (which
    strptime reads), in the other format, ten characters of another shape,
    or no date at all."""
    day = draw(_DAYS)
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return draw(st.sampled_from(_BROKEN_DATES))
    if kind in (4, 5):
        return draw(st.sampled_from(_TEN_CHARACTER_DATES[date_format]))
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
    padded or quoted fields (some spanning two lines), rows of another
    width, blank lines (some trailing), CRLF and a BOM."""
    date_format = draw(st.sampled_from(["iso", "dmy"]))
    names = draw(st.permutations(["date", "arrivals", "modal_price"]))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 12))):
        cells = {"date": _date_text(draw, date_format), "arrivals": _cell_text(draw),
                 "modal_price": _cell_text(draw)}
        fields = []
        for name in names:
            text = draw(st.sampled_from(["", "", " ", "  ", "\n"])) + cells[name] + draw(
                st.sampled_from(["", "", " ", "\n"]))
            if "," in text or "\n" in text or draw(st.integers(0, 3)) == 0:
                text = '"' + text + '"'
            fields.append(text)
        odd = draw(st.integers(0, 14))
        if odd == 0:
            fields = fields[:2]  # one field short
        elif odd == 1:
            fields.append("7")  # one field too many
        lines.append(",".join(fields))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    lines += [""] * draw(st.integers(0, 2))
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


def _interpolated(series):
    return list(spline_fill(series)[1].interpolated_weeks)


class TestInterpolatedWeeks:
    def test_no_gaps(self):
        weeks = list(week_range(WeekKey(2021, 1), WeekKey(2021, 10)))
        s = _series((w, 1.0) for w in weeks)
        assert _interpolated(s) == []

    def test_interior_gaps_in_order(self):
        keep = {1, 2, 5, 6, 9}
        s = _series((WeekKey(2021, w), 1.0) for w in sorted(keep))
        assert _interpolated(s) == [
            WeekKey(2021, 3),
            WeekKey(2021, 4),
            WeekKey(2021, 7),
            WeekKey(2021, 8),
        ]

    def test_gap_across_year_boundary(self):
        s = _series([(WeekKey(2022, 50), 1.0), (WeekKey(2022, 51), 2.0),
                     (WeekKey(2022, 52), 1.0), (WeekKey(2023, 2), 2.0)])
        assert _interpolated(s) == [WeekKey(2023, 1)]

    def test_gap_across_long_year_boundary(self):
        s = _series([(WeekKey(2020, 50), 1.0), (WeekKey(2020, 51), 2.0),
                     (WeekKey(2020, 52), 1.0), (WeekKey(2021, 1), 2.0)])
        assert _interpolated(s) == [WeekKey(2020, 53)]


def _runs_and_gaps(run_lengths, gaps):
    """Spacings: runs of 1-week steps, each followed by one step of its gap."""
    return np.concatenate([np.r_[np.ones(run), gap] for run, gap in zip(run_lengths, gaps)])


def _long_history_spacings():
    # The knots of a 300-year weekly history with 60 one-week gaps on a
    # coarse grid, like the long-history benchmark input.
    rng = np.random.default_rng(501)
    gaps = np.sort(rng.choice(np.arange(1, 15_652 // 13 - 1), size=60, replace=False)) * 13
    return np.diff(np.delete(np.arange(15_653), gaps))


_SETTLING_SPACINGS = {
    "spacing-1 runs broken by 2- to 9-week gaps": lambda: _runs_and_gaps(
        np.random.default_rng(11).integers(33, 300, size=40),
        np.random.default_rng(12).integers(2, 10, size=40),
    ),
    # Runs up to about 16 rows end before they settle; runs of 31 to 33 rows
    # sit on either side of the shortest run solved until it settles.
    "runs too short to settle": lambda: _runs_and_gaps(
        [*range(1, 41), 15, 16, 17, 31, 32, 33], [2, 3, 9] * 15 + [2]
    ),
    "gaps beside the first and last interior rows": lambda: np.r_[
        5.0, np.ones(100), 7.0, 1.0, 1.0, 3.0, np.ones(60), 2.0, 1.0
    ],
    "alternating spacing 1, 2": lambda: np.tile([1.0, 2.0], 2_000),
    "4 knots, equal spacing": lambda: np.ones(3),
    "4 knots, unequal spacing": lambda: np.array([2.0, 1.0, 3.0]),
    "long history": _long_history_spacings,
}


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

    @pytest.mark.parametrize("case", sorted(_SETTLING_SPACINGS))
    def test_settled_factors_equal_scalar_solve(self, case):
        # Runs of equal rows whose factors settle (or do not), beside rows
        # that break them; each case must match the scalar loop bit for bit.
        spacings = _SETTLING_SPACINGS[case]()
        x = 3.0 + np.concatenate(([0.0], np.cumsum(spacings, dtype=float)))
        y = np.random.default_rng(len(x)).uniform(0.0, 1e4, size=x.size)
        got = natural_spline_second_derivatives(x, y)
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
        assert list(report.interpolated_weeks) == [span[i] for i in sorted(gaps)]
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


def _outliers(values):
    """(index, fence) of each value `flag_outliers` flags, on a series of
    consecutive weeks holding `values`."""
    first = WeekKey(2001, 1).number
    s = WeeklySeries(Variable.ARRIVALS, first + np.arange(len(values)), values)
    _, report = flag_outliers(s, s, CleaningReport(s.variable, (), (), 0.0))
    return [(o.week.number - first, o.fence_violated) for o in report.outlier_weeks]


class TestOutlierFences:
    def test_single_high_outlier(self):
        assert _outliers([1.0, 2.0, 3.0, 4.0, 100.0]) == [(4, Fence.HIGH)]

    def test_constant_data_has_no_outliers(self):
        assert _outliers([7.0] * 6) == []

    def test_low_and_high(self):
        v = [10.0] * 10 + [-500.0, 900.0]
        flags = dict(_outliers(v))
        assert flags[10] is Fence.LOW
        assert flags[11] is Fence.HIGH

    def test_fences_are_strict(self):
        # v = -10, 1..7, 18: Q1 = 2, Q3 = 6, IQR = 4, so the 3 x IQR fences
        # lie exactly at -10 and 18, which must not be flagged; the next
        # doubles beyond them must.
        v = [-10.0, 1, 2, 3, 4, 5, 6, 7, 18.0]
        assert _outliers(v) == []
        v[0], v[-1] = np.nextafter(-10.0, -np.inf), np.nextafter(18.0, np.inf)
        assert _outliers(v) == [(0, Fence.LOW), (8, Fence.HIGH)]

    def test_too_few_values(self):
        with pytest.raises(InsufficientDataError):
            _outliers([1.0, 2.0, 3.0])

    def test_matches_per_value_rule(self):
        rng = np.random.default_rng(10)
        for _ in range(3):
            v = np.round(rng.standard_t(df=2, size=400) * 20.0)
            q1, q3 = quantile_oracle(v, 0.25), quantile_oracle(v, 0.75)
            lo, hi = q1 - 3.0 * (q3 - q1), q3 + 3.0 * (q3 - q1)
            want = [(i, Fence.LOW) for i, x in enumerate(v) if x < lo]
            want += [(i, Fence.HIGH) for i, x in enumerate(v) if x > hi]
            got = _outliers(v)
            assert got == sorted(want)
            assert {f for _, f in got} == {Fence.LOW, Fence.HIGH}


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

    @pytest.mark.parametrize("winsorize", [False, True])
    def test_fences_computed_once(self, monkeypatch, winsorize):
        import seasonwarp.cleaning as cleaning

        calls, sorted_samples = [], set()
        real_quantile = cleaning._sorted_quantile

        def counting_quantile(v, q):
            calls.append(q)
            sorted_samples.add(id(v))
            return real_quantile(v, q)

        monkeypatch.setattr(cleaning, "_sorted_quantile", counting_quantile)
        _, report = clean_series(self._gappy_series_with_spike(), winsorize=winsorize)
        assert report.outlier_weeks
        # Both quartiles are read from one sort of the observed values.
        assert calls == [0.25, 0.75]
        assert len(sorted_samples) == 1

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
        observed = set(weeks_of(series))
        span = week_range(series.first_week(), series.last_week())
        assert [w for w in span if w not in observed] == list(report.interpolated_weeks)

    def test_seed42_dense_span(self, cleaned42):
        for var in Variable:
            series, report = cleaned42[var]
            assert len(series) == 782
            assert _interpolated(series) == []
            assert report.missing_fraction == pytest.approx(6 / 782)
