import base64
import csv
import hashlib
import io
import json
import math
import re
import struct
import xml.etree.ElementTree as ET
import zlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seasonwarp.cleaning import Fence, OutlierWeek
from seasonwarp.descriptive import describe
from seasonwarp.errors import DataIntegrityError
from seasonwarp.dtw import (
    DtwOptions,
    DtwResult,
    Normalization,
    PairSet,
    WarpPath,
    dtw_align,
    rank_pairs,
    rank_summaries,
)
from seasonwarp.report import (
    matrix_csv,
    pair_label,
    records_csv,
    series_csv,
    stats_csv,
    to_json,
)
from seasonwarp.seasonal import seasonal_index
from seasonwarp.series import Variable, WeekKey, complete_years, log_diff, slice_year
from seasonwarp.svg import _Frame, _points, _zlib_stream, bar_chart, dtw_figure, line_chart
from seasonwarp.unitroot import adf_test

from _oracles import (
    dtw_heatmap_cells_oracle,
    dtw_heatmap_exact_oracle,
    fixed_huffman_bits_oracle,
    polyline_points_oracle,
    ranking_csv_oracle,
    seasonal_csv_oracle,
    stats_csv_oracle,
    to_json_oracle,
)


@pytest.fixture(scope="module")
def bundle42(cleaned42):
    cleaning = {}
    summaries = {}
    seasonal = {}
    dtw = {}
    for var in Variable:
        series, report = cleaned42[var]
        cleaning[var.value] = report
        summaries[var.value] = describe(series)
        seasonal[var.value] = seasonal_index(series, complete_years(series))
        opts = DtwOptions(normalize_input=Normalization.ZSCORE)
        results = []
        for y0, y1 in [(2020, 2021), (2021, 2022)]:
            a = slice_year(series, y0)
            b = slice_year(series, y1)
            results.append(((y0, y1), dtw_align(a, b, opts)))
        dtw[var.value] = rank_pairs(results)
    prices, _ = cleaned42[Variable.MODAL_PRICE]
    adf = adf_test(log_diff(prices.values()))
    return {"cleaning": cleaning, "summaries": summaries, "seasonal": seasonal, "dtw": dtw,
            "adf_log_price_diff": adf}


@dataclass(frozen=True)
class _Record:
    name: object
    value: object


def _warp_path(moves: list[tuple[int, int]]) -> WarpPath:
    steps = [(1, 1)]
    for di, dj in moves:
        steps.append((steps[-1][0] + di, steps[-1][1] + dj))
    return WarpPath(tuple(steps))


def _aligned_with_matrix(x, y, band):
    """(result, cumulative-cost matrix) of the pair (x, y), as `PairSet.align`
    hands them to its emit for the CLI's figures."""
    emitted = []
    PairSet({0: x, 1: y}, [(0, 1)], DtwOptions(band_radius=band)).align(
        lambda pair, result, d, g: emitted.append((result, g)))
    return emitted[0]


_json_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e308])
# Every code point, lone surrogates included, and the characters json escapes.
_json_text = st.text(st.characters(exclude_categories=()) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\b", "\u2028", "é", "\U0001f600", "\ud800"]),
    max_size=12)
_week_keys = st.builds(WeekKey, st.integers(1, 9999), st.integers(1, 52))
_warp_paths = st.lists(st.sampled_from([(1, 0), (0, 1), (1, 1)]), max_size=40).map(_warp_path)
_json_leaves = (
    st.none() | st.booleans() | st.integers(-10**40, 10**40) | _json_floats | _json_text
    | st.sampled_from(list(Fence) + list(Normalization)) | _week_keys | _warp_paths
    | st.builds(DtwResult, total_cost=_json_floats, path=_warp_paths,
                options=st.builds(DtwOptions, band_radius=st.none() | st.integers(0, 9),
                                  normalize_input=st.sampled_from(Normalization)))
    | st.builds(OutlierWeek, _week_keys, _json_floats, st.sampled_from(Fence))
)
_json_payloads = st.recursive(
    _json_leaves,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(_json_text, children, max_size=5)
                      | st.builds(_Record, children, children)),
    max_leaves=30,
)


class TestJson:
    def test_sorted_keys_and_trailing_newline(self):
        s = to_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert s.endswith("\n")
        assert s.index('"a"') < s.index('"b"')
        assert json.loads(s) == {"b": 1, "a": {"d": 2, "c": 3}}

    def test_bundle_roundtrip(self, bundle42):
        # The bundle is a plain dict, each record in its own JSON form.
        payload = json.loads(to_json(bundle42))
        assert payload == {
            "cleaning": {k: json.loads(to_json(v)) for k, v in bundle42["cleaning"].items()},
            "summaries": {k: json.loads(to_json(v)) for k, v in bundle42["summaries"].items()},
            "seasonal": {k: json.loads(to_json(v)) for k, v in bundle42["seasonal"].items()},
            "dtw": {k: json.loads(to_json(v)) for k, v in bundle42["dtw"].items()},
            "adf_log_price_diff": json.loads(to_json(bundle42["adf_log_price_diff"])),
        }
        assert set(payload["cleaning"]) == {"arrivals", "modal_price"}
        assert payload["adf_log_price_diff"]["regression"] == "c"

    def test_deterministic_bytes(self, bundle42):
        assert to_json(bundle42) == to_json(bundle42)

    def test_other_objects_rejected(self):
        with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
            to_json({"values": np.zeros(2)})

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(payload=_json_payloads)
    @example(payload={"a": [], "b": {}, "c": (), "d": [[{}]]})
    @example(payload=[-0.0, 5e-324, 1e16, 1e308])
    @example(payload={'"\\\x00\x1f\x7f\u2028\ud800\U0001f600': "é\udfff"})
    # A result's path is its move string; a bare WarpPath is a plain dataclass.
    @example(payload=[DtwResult(1.5, _warp_path([(1, 1), (1, 0), (0, 1)]), DtwOptions()),
                      _warp_path([])])
    def test_same_bytes_as_json_dumps(self, payload):
        assert to_json(payload) == to_json_oracle(payload)

    @pytest.mark.parametrize("payload, message", [
        ({"summaries": {"modal_price": {"count": 3, "skewness": math.nan}}},
         "non-finite number nan at summaries.modal_price.skewness"),
        ([1.5, (2.5, math.inf)], "non-finite number inf at [1][1]"),
        ({"b": [{"c": [0.0, -math.inf]}], "a": 1.0}, "non-finite number -inf at b[0].c[1]"),
        (math.nan, "non-finite number nan"),
        ({"r": _Record(1.0, [math.inf])}, "non-finite number inf at r.value[0]"),
        ({"results": [DtwResult(math.nan, _warp_path([(1, 1)]), DtwOptions())]},
         "non-finite number nan at results[0].mean_cost"),
    ])
    def test_non_finite_rejected_with_key_path(self, payload, message):
        # json.dumps would write NaN and Infinity, which are not JSON; a
        # report refuses them, naming where the first one sits.
        with pytest.raises(DataIntegrityError) as raised:
            to_json(payload)
        assert str(raised.value) == message

    @pytest.mark.parametrize("payload", [{"a": 0, 2: "b"}, {("a",): 0}])
    def test_non_str_keys_rejected(self, payload):
        # Keys that cannot be sorted together, or are not str, int, float,
        # bool or None, are refused as json.dumps refuses them.
        with pytest.raises(TypeError):
            to_json(payload)

    @pytest.mark.parametrize("payload", [{1: "a"}, {None: 0}, [{1.5: 0}], {True: 0}])
    def test_scalar_keys_written_as_json_dumps_writes_them(self, payload):
        # No report has such keys; json.dumps writes them as strings.
        assert to_json(payload) == json.dumps(payload, sort_keys=True) + "\n"


def _stored_stream(raw: bytes) -> bytes:
    """raw as a zlib stream of stored deflate blocks: header 78 01, blocks of
    at most 65,535 bytes, each led by its final-block bit, LEN and NLEN, and
    the Adler-32."""
    blocks = [raw[k:k + 65535] for k in range(0, len(raw), 65535)]
    return b"".join([b"\x78\x01"] + [
        struct.pack("<BHH", k == len(blocks) - 1, len(b), len(b) ^ 0xFFFF) + b
        for k, b in enumerate(blocks)] + [struct.pack(">I", zlib.adler32(raw))])


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestCsv:
    def test_crlf_row_endings(self, bundle42):
        text = stats_csv(bundle42["summaries"], bundle42["adf_log_price_diff"])
        assert "\r\n" in text and "\n" == text[-1]

    def test_stats_shape(self, bundle42):
        rows = _parse_csv(stats_csv(bundle42["summaries"], bundle42["adf_log_price_diff"]))
        assert rows[0] == ["metric", "arrivals", "modal_price"]
        metrics = [r[0] for r in rows[1:]]
        assert metrics[:4] == ["count", "mean", "std", "cv_percent"]
        assert "adf_statistic_log_price_diff" in metrics
        # ADF rows describe the price series only; the arrivals cell is blank.
        adf_row = rows[metrics.index("adf_statistic_log_price_diff") + 1]
        assert adf_row[1] == ""
        assert float(adf_row[2]) == bundle42["adf_log_price_diff"].statistic

    def test_stats_without_adf(self, bundle42):
        rows = _parse_csv(stats_csv(bundle42["summaries"], None))
        assert len(rows) == 1 + 13

    def test_seasonal_csv_values_roundtrip(self, bundle42):
        table = bundle42["seasonal"]["arrivals"]
        rows = _parse_csv(records_csv(table.entries))
        assert rows[0] == ["iso_week", "index", "support"]
        assert len(rows) == 1 + len(table.entries)
        for row, e in zip(rows[1:], table.entries):
            assert int(row[0]) == e.iso_week
            assert float(row[1]) == e.index
            assert int(row[2]) == e.support

    def test_ranking_csv(self, bundle42):
        ranking = bundle42["dtw"]["modal_price"]
        rows = _parse_csv(records_csv(ranking.entries))
        assert rows[0] == ["year_pair", "total_cost", "mean_cost", "path_length", "rank"]
        assert rows[1][0] == "2020-2021"
        assert float(rows[1][1]) == ranking.entries[0].total_cost

    @pytest.mark.parametrize("method", ["weekly-mean", "moving-average"])
    @pytest.mark.parametrize("var", list(Variable))
    def test_records_csv_seasonal_bytes(self, cleaned42, var, method):
        series = cleaned42[var][0]
        table = seasonal_index(series, complete_years(series), method)
        assert table.entries[-1].iso_week == 53  # 2015 and 2020 have 53 weeks
        assert records_csv(table.entries) == seasonal_csv_oracle(table)

    def test_records_csv_ranking_bytes_with_ties(self, bundle42):
        ranking = rank_summaries([
            ((2012, 2013), 5.0, 0.1, 50),
            ((2010, 2011), 5.0, 0.1, 50),
            ((2011, 2012), 5.0, 0.0625, 80),
            ((2013, 2014), 0.1 + 0.2, 1e-17, 53),
            ((2010, 2014), 5.0, 0.1, 50),
        ])
        assert sorted(e.rank for e in ranking.entries) == [1, 2, 3, 4, 5]
        for ranking in (ranking, *bundle42["dtw"].values()):
            assert records_csv(ranking.entries) == ranking_csv_oracle(ranking)

    @pytest.mark.parametrize("variables, with_adf", [
        (("arrivals", "modal_price"), True),
        (("arrivals", "modal_price"), False),
        (("arrivals",), False),
        (("modal_price",), True),
    ])
    def test_stats_csv_bytes(self, bundle42, variables, with_adf):
        summaries = {v: bundle42["summaries"][v] for v in variables}
        adf = bundle42["adf_log_price_diff"] if with_adf else None
        assert stats_csv(summaries, adf) == stats_csv_oracle(summaries, adf)

    def test_series_csv(self, cleaned42):
        series, _ = cleaned42[Variable.ARRIVALS]
        rows = _parse_csv(series_csv(series))
        assert rows[0] == ["iso_year", "iso_week", "week_ending", "value", "flag"]
        assert len(rows) == 1 + 782
        assert rows[1][:3] == ["2010", "1", "2010-01-10"]
        flags = {r[4] for r in rows[1:]}
        assert flags == {"observed", "interpolated", "outlier_retained"}

    def test_matrix_csv(self):
        text = matrix_csv(np.array([[1.0, 2.5], [3.0, 4.0]]))
        assert _parse_csv(text) == [["1.0", "2.5"], ["3.0", "4.0"]]


class TestSvg:
    def test_line_chart_is_valid_xml(self):
        xs = list(range(10))
        ys = [float(x * x) for x in xs]
        text = line_chart(
            [("squares", xs, ys)],
            title="squares",
            x_label="x",
            y_label="y",
            metadata={"kind": "demo"},
        )
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert "polyline" in text

    def test_deterministic_output(self):
        xs = list(range(40))
        ys = [float((x * 7) % 11) for x in xs]
        a = line_chart([("s", xs, ys)], title="t", x_label="x", y_label="y", metadata={})
        b = line_chart([("s", xs, ys)], title="t", x_label="x", y_label="y", metadata={})
        assert a == b

    def test_metadata_embedded(self):
        text = line_chart(
            [("s", [0, 1], [0.0, 1.0])],
            title="t",
            x_label="x",
            y_label="y",
            metadata={"seed": 42},
        )
        assert '"seed": 42' in text

    def test_dtw_figure_renders_path_and_band(self):
        rng = np.random.default_rng(20)
        x, y = rng.normal(size=12), rng.normal(size=15)
        res, g = _aligned_with_matrix(x, y, 6)
        text = dtw_figure(
            g, res.path.steps, (x, y), ("2020", "2021"), title="demo", metadata={}
        )
        ET.fromstring(text)
        assert "polyline" in text

    def test_dtw_figure_draws_aligned_values_along_path(self):
        # The overlay panel is the warped pair: step k of its two curves
        # plots x[i_k] and y[j_k] of the path's k-th step, on one y scale.
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=9), rng.normal(size=11)
        steps = dtw_align(x, y).path.steps
        text = dtw_figure(np.zeros((9, 11)), steps, (x, y), ("a", "b"), title="t", metadata={})
        curves = [[float(point.split(",")[1]) for point in line.get("points").split()]
                  for line in ET.fromstring(text).iter("{http://www.w3.org/2000/svg}polyline")
                  if line.get("stroke-width") == "1.50"]
        assert [len(c) for c in curves] == [len(steps)] * 2
        values = [x[i - 1] for i, _ in steps] + [y[j - 1] for _, j in steps]
        slope, offset = np.polyfit(values, curves[0] + curves[1], 1)
        assert slope < 0
        assert np.allclose(np.multiply(slope, values) + offset, curves[0] + curves[1], atol=0.01)

    @pytest.mark.parametrize(
        "xs, ys",
        [
            (list(range(20)), [float((x * 7) % 11) for x in range(20)]),
            ([2010 + k / 53 for k in range(60)], [0.1 * k ** 1.5 for k in range(60)]),
            ([1.0, 2.0, 3.0, 4.0], [0.0, 1e75, 9.999999e74, 1e75]),
            ([3], [2.5]),
            ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]),
        ],
        ids=["int-xs", "float-xs", "max-cell", "single-point", "flat"],
    )
    def test_polyline_points_match_per_point_format(self, xs, ys):
        frame = _Frame(64.0, 40.0, 878.0, 354.0, min(xs), max(xs), min(ys), max(ys))
        line = frame.polyline(xs, ys, "#000000")
        assert re.search(r'points="([^"]*)"', line)[1] == polyline_points_oracle(frame, xs, ys)

    def test_polyline_points_negative_zero(self):
        # A frame at the canvas origin: -0.0 inputs and points a hair outside
        # the frame format as -0.00, as the per-point path writes them.
        frame = _Frame(0.0, 0.0, 878.0, 354.0, 0.0, 2.0, 0.0, 1.0)
        xs, ys = [-0.0, -1e-6, 0.0, 2.0], [-0.0, 1.0, 1.000001, 0.0]
        line = frame.polyline(xs, ys, "#000000")
        assert re.search(r'points="([^"]*)"', line)[1] == polyline_points_oracle(frame, xs, ys)
        assert "-0.00," in line and ",-0.00" in line

    def test_points_match_per_point_format(self):
        # Lengths 1..200; magnitudes up to 1e6, decimal ties x.xx5 and -0.0.
        rng = np.random.default_rng(14)
        for n in range(1, 201):
            vals = rng.uniform(-1, 1, size=(2, n)) * 10.0 ** rng.integers(-3, 7, size=(2, n))
            kind = rng.integers(0, 4, size=(2, n))
            vals = np.where(kind == 1, np.trunc(vals * 100) / 100 + 0.005, vals)
            vals = np.where(kind == 2, -0.0, vals)
            xs, ys = vals.tolist()
            assert _points(vals[0], vals[1]) == " ".join(map("{:.2f},{:.2f}".format, xs, ys))

    @staticmethod
    def _heatmap_fills(g, steps, pair):
        """Draw g, decode its heatmap, the one <image> of the figure, and
        return each cell's fill, row by row.

        The image covers exactly the 400 x 374 panel at (56, 40) and is an
        indexed-colour PNG of n x m pixels: chunks IHDR, PLTE, IDAT and IEND
        with every CRC holding, a 256-entry palette, IDAT a zlib stream of
        one fixed-Huffman block or stored blocks, whichever is shorter, and
        every scanline filter byte 0 and m indices.
        """
        text = dtw_figure(g, steps, pair, ("2020", "2021"), title="demo", metadata={})
        n, m = g.shape
        # The background and the two panel frames; no heatmap <rect>.
        assert text.count("<rect") == 3
        images = list(ET.fromstring(text).iter("{http://www.w3.org/2000/svg}image"))
        assert len(images) == 1
        image = images[0]
        assert [image.get(k) for k in ("x", "y", "width", "height", "preserveAspectRatio")] \
            == ["56.00", "40.00", "400.00", "374.00", "none"]
        prefix = "data:image/png;base64,"
        href = image.get("{http://www.w3.org/1999/xlink}href")
        assert href.startswith(prefix)
        png = base64.b64decode(href[len(prefix):], validate=True)
        assert png[:8] == b"\x89PNG\r\n\x1a\n"
        chunks, pos = [], 8
        while pos < len(png):
            (length,) = struct.unpack(">I", png[pos:pos + 4])
            kind, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + length]
            (crc,) = struct.unpack(">I", png[pos + 8 + length:pos + 12 + length])
            assert crc == zlib.crc32(kind + data), f"{kind} CRC"
            chunks.append((kind, data))
            pos += 12 + length
        assert pos == len(png)
        assert [kind for kind, _ in chunks] == [b"IHDR", b"PLTE", b"IDAT", b"IEND"]
        assert struct.unpack(">IIBBBBB", chunks[0][1]) == (m, n, 8, 3, 0, 0, 0)
        palette = chunks[1][1]
        assert len(palette) == 768
        stream = chunks[2][1]
        raw = zlib.decompress(stream)
        assert len(raw) == n * (1 + m)
        assert stream[:2] == b"\x78\x01"
        fixed = 2 + (fixed_huffman_bits_oracle(raw) + 7) // 8 + 4
        assert len(stream) == min(fixed, len(_stored_stream(raw)))
        rows = [raw[i * (1 + m):(i + 1) * (1 + m)] for i in range(n)]
        assert [row[0] for row in rows] == [0] * n
        return ["#" + palette[3 * k:3 * k + 3].hex() for row in rows for k in row[1:]]

    @staticmethod
    def _assert_within_one_unit(fills, g):
        """Every fill is within 1 per channel of the exact ramp colour."""
        exact = dtw_heatmap_exact_oracle(g.tolist())
        assert len(fills) == len(exact)
        off = [(k, a, b) for k, (a, b) in enumerate(zip(fills, exact))
               if max(abs(int(a[c:c + 2], 16) - int(b[c:c + 2], 16)) for c in (1, 3, 5)) > 1]
        assert not off, f"{len(off)} cells off the exact ramp, first {off[:3]}"

    HEATMAP_CASES = ["banded", "unbanded", "all-zero", "half-way ties", "level ties", "1x1",
                     "all-inf", "inf row 600 wide", "160x160", "256x256"]

    @staticmethod
    def _heatmap_case(case):
        """(g, path steps, aligned pair) of one named heatmap case."""
        rng = np.random.default_rng(52)
        x, y = rng.normal(size=52).cumsum(), rng.normal(size=53).cumsum()
        band = 4 if case == "banded" else None
        res, g = _aligned_with_matrix(x, y, band)
        if case == "all-zero":
            g = np.zeros((6, 7))
        elif case == "half-way ties":
            # v = k / 478 puts the exact ramp's red channel on .5 for 236 cells.
            g = np.minimum(np.arange(480.0), 478.0).reshape(20, 24)
        elif case == "level ties":
            # v / 508 * 254 lands exactly on j + .5 for the 254 odd v: half
            # to even and half up pick different levels for 127 of them.
            g = np.minimum(np.arange(510.0), 508.0).reshape(17, 30)
        elif case == "1x1":
            g = np.array([[3.5]])
        elif case == "all-inf":
            g = np.full((5, 4), np.inf)
        elif case == "inf row 600 wide":
            # A grey run of 600 bytes, longer than two matches of 258.
            g = np.vstack([np.full(600, np.inf), np.arange(600.0)])
        elif case == "160x160":
            # 160 scanlines of 161 bytes: 25,760 raw bytes of random levels,
            # which fixed Huffman codes do not shrink, in one stored block.
            g = rng.uniform(0.0, 100.0, size=(160, 160))
        elif case == "256x256":
            # 256 scanlines of 257 bytes: 65,792 raw bytes, two stored blocks.
            g = rng.uniform(0.0, 100.0, size=(256, 256))
        assert (case in ("banded", "all-inf", "inf row 600 wide")) == bool(np.isinf(g).any())
        return g, res.path.steps, (x, y)

    @pytest.mark.parametrize("case", HEATMAP_CASES)
    def test_dtw_figure_cells_match_ramp_bytes(self, case):
        g, steps, pair = self._heatmap_case(case)
        assert self._heatmap_fills(g, steps, pair) == dtw_heatmap_cells_oracle(g.tolist())

    @pytest.mark.parametrize("case", HEATMAP_CASES)
    def test_dtw_figure_cells_within_one_unit_of_exact_ramp(self, case):
        g, steps, pair = self._heatmap_case(case)
        self._assert_within_one_unit(self._heatmap_fills(g, steps, pair), g)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        shape=st.tuples(st.integers(1, 60), st.integers(1, 60)),
        band=st.none() | st.integers(0, 120),
        ties=st.booleans(),
        data=st.data(),
    )
    def test_dtw_figure_runs_property(self, shape, band, ties, data):
        n, m = shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if ties:
            g = rng.integers(0, data.draw(st.integers(0, 4)) + 1, size=shape).astype(float)
        else:
            g = rng.uniform(0.0, 10.0 ** data.draw(st.integers(-3, 9)), size=shape)
        i, j = np.indices(shape)
        if band is not None:
            g[np.abs(i - j) > min(band, n + m)] = np.inf
        special = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.05, 0.5]))
        g[special] = rng.choice([np.inf, -np.inf], size=int(special.sum()))
        # A monotone staircase from (1, 1) to (n, m); the heatmap ignores it.
        steps = [(1 + k * (n - 1) // (n + m), 1 + k * (m - 1) // (n + m))
                 for k in range(n + m + 1)]
        fills = self._heatmap_fills(g, steps, (rng.normal(size=n), rng.normal(size=m)))
        assert fills == dtw_heatmap_cells_oracle(g.tolist())
        self._assert_within_one_unit(fills, g)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(runs=st.lists(st.tuples(st.integers(0, 255), st.integers(1, 600) | st.sampled_from(
        [3, 4, 258, 259, 260, 517, 518, 519])), min_size=1, max_size=12))
    @example(runs=[(7, 1)])
    @example(runs=[(255, 600)])
    @example(runs=[(k * 37 % 256, n) for k, n in enumerate([3, 4, 258, 259, 260, 517, 518, 519])])
    @example(runs=[(k * 7 % 256, 1) for k in range(66000)])
    def test_zlib_stream_round_trip(self, runs):
        # Each run of equal bytes is a literal and matches of 3 to 258 at
        # distance 1 in one final fixed-Huffman block (BFINAL 1, BTYPE 01),
        # unless the stored blocks are no longer; then they are written.
        raw = b"".join(bytes([byte]) * length for byte, length in runs)
        stream = _zlib_stream(raw)
        inflate = zlib.decompressobj()
        assert inflate.decompress(stream) == raw
        assert inflate.eof and not inflate.unused_data
        stored = _stored_stream(raw)
        fixed = 2 + (fixed_huffman_bits_oracle(raw) + 7) // 8 + 4
        assert len(stream) == min(fixed, len(stored))
        if stream != stored:
            assert stream[:2] == b"\x78\x01" and stream[2] & 0b111 == 0b011

    def test_dtw_figure_rejects_negative_costs(self):
        with pytest.raises(ValueError, match="non-negative"):
            dtw_figure(
                np.array([[0.0, -1.0], [1.0, 2.0]]),
                [(1, 1), (2, 2)],
                ([0.0, 1.0], [0.0, 1.0]),
                ("a", "b"),
                title="t",
                metadata={},
            )

    @staticmethod
    def _banded_figure():
        rng = np.random.default_rng(52)
        x, y = rng.normal(size=52).cumsum(), rng.normal(size=53).cumsum()
        res, g = _aligned_with_matrix(x, y, 4)
        assert np.isinf(g).any()
        return dtw_figure(g, res.path.steps, (x, y),
                          ("2020", "2021"), title="DTW alignment, price 2020 vs 2021",
                          metadata={"chart": "dtw_alignment", "band": 4})

    # sha256 of each chart's UTF-8 bytes, pinned so that a change to how a
    # chart is drawn is a declared byte change, never a silent one.
    GOLDEN = {
        "line_chart": (
            lambda: line_chart(
                [("a & <b>", list(range(12)), [float((k * 7) % 11) for k in range(12)]),
                 ("c > d", list(range(12)), [0.5 * k - 1.0 for k in range(12)])],
                title="Index & <base 100>", x_label="week <k>", y_label="value & more",
                metadata={"chart": "demo", "note": "<&>"}),
            "b76d5e63fb7adaca56b2ceac958a1d620692cfe6667f374255aa2126a741cdfb",
        ),
        "dtw_figure banded 52x53": (
            lambda: TestSvg._banded_figure(),
            "69196efe629c499572d468055ddec389b6e0984af8c4f8c713fc87789bcbaff4",
        ),
        "dtw_figure 1x1": (
            lambda: dtw_figure(np.array([[3.5]]), [(1, 1)], ([2.0], [4.0]), ("2019", "2020"),
                               title="one cell", metadata={}),
            "05a9ea10fce35942dbcf68eaf0fe5047ea40d0d63c1fd94267591f84170823c4",
        ),
        "bar_chart": (
            lambda: bar_chart([("2010-2011", 12.5), ("2011-2012", 0.0), ("2012-2013", 3.25)],
                              title="costs & ranks", y_label="total cost",
                              metadata={"chart": "dtw_ranking"}),
            "8a0a7d05009b956e2ba4507f16cbb9ecabb0c16b0e94947426361036f3b30ac8",
        ),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_chart_bytes_golden(self, name):
        draw, digest = self.GOLDEN[name]
        assert hashlib.sha256(draw().encode("utf-8")).hexdigest() == digest

    def test_bar_chart(self, bundle42):
        ranking = bundle42["dtw"]["arrivals"]
        bars = [(pair_label(e.year_pair), e.total_cost) for e in ranking.entries]
        text = bar_chart(bars, title="t", y_label="cost", metadata={})
        ET.fromstring(text)
        assert "rect" in text
