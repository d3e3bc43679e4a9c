import base64
import csv
import io
import json
import re
import struct
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasonwarp.descriptive import describe
from seasonwarp.dtw import (
    DtwOptions,
    Normalization,
    cumulative_cost,
    dtw_align,
    local_distance_matrix,
    rank_pairs,
)
from seasonwarp.report import (
    AnalysisBundle,
    matrix_csv,
    ranking_csv,
    seasonal_csv,
    series_csv,
    stats_csv,
    to_json,
)
from seasonwarp.seasonal import seasonal_index
from seasonwarp.series import Variable, log_diff, slice_year
from seasonwarp.svg import _Frame, bar_chart, dtw_figure, line_chart
from seasonwarp.unitroot import adf_test

from _oracles import dtw_heatmap_cells_oracle, polyline_points_oracle


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
        seasonal[var.value] = seasonal_index(series)
        opts = DtwOptions(normalize_input=Normalization.ZSCORE)
        results = []
        for y0, y1 in [(2020, 2021), (2021, 2022)]:
            a = slice_year(series, y0)
            b = slice_year(series, y1)
            results.append(((y0, y1), dtw_align(a, b, opts)))
        dtw[var.value] = rank_pairs(results)
    prices, _ = cleaned42[Variable.MODAL_PRICE]
    adf = adf_test(log_diff(prices.values()), regression="c")
    return AnalysisBundle(cleaning, summaries, seasonal, dtw, adf)


class TestJson:
    def test_sorted_keys_and_trailing_newline(self):
        s = to_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert s.endswith("\n")
        assert s.index('"a"') < s.index('"b"')
        assert json.loads(s) == {"b": 1, "a": {"d": 2, "c": 3}}

    def test_bundle_roundtrip(self, bundle42):
        # The bundle is its fields, each record in its own JSON form.
        payload = json.loads(to_json(bundle42))
        assert payload == {
            "cleaning": {k: json.loads(to_json(v)) for k, v in bundle42.cleaning.items()},
            "summaries": {k: json.loads(to_json(v)) for k, v in bundle42.summaries.items()},
            "seasonal": {k: json.loads(to_json(v)) for k, v in bundle42.seasonal.items()},
            "dtw": {k: json.loads(to_json(v)) for k, v in bundle42.dtw.items()},
            "adf_log_price_diff": json.loads(to_json(bundle42.adf_log_price_diff)),
        }
        assert set(payload["cleaning"]) == {"arrivals", "modal_price"}
        assert payload["adf_log_price_diff"]["regression"] == "c"

    def test_deterministic_bytes(self, bundle42):
        assert to_json(bundle42) == to_json(bundle42)

    def test_other_objects_rejected(self):
        with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
            to_json({"values": np.zeros(2)})


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestCsv:
    def test_crlf_row_endings(self, bundle42):
        text = stats_csv(bundle42.summaries, bundle42.adf_log_price_diff)
        assert "\r\n" in text and "\n" == text[-1]

    def test_stats_shape(self, bundle42):
        rows = _parse_csv(stats_csv(bundle42.summaries, bundle42.adf_log_price_diff))
        assert rows[0] == ["metric", "arrivals", "modal_price"]
        metrics = [r[0] for r in rows[1:]]
        assert metrics[:4] == ["count", "mean", "std", "cv_percent"]
        assert "adf_statistic_log_price_diff" in metrics
        # ADF rows describe the price series only; the arrivals cell is blank.
        adf_row = rows[metrics.index("adf_statistic_log_price_diff") + 1]
        assert adf_row[1] == ""
        assert float(adf_row[2]) == bundle42.adf_log_price_diff.statistic

    def test_stats_without_adf(self, bundle42):
        rows = _parse_csv(stats_csv(bundle42.summaries, None))
        assert len(rows) == 1 + 13

    def test_seasonal_csv_values_roundtrip(self, bundle42):
        table = bundle42.seasonal["arrivals"]
        rows = _parse_csv(seasonal_csv(table))
        assert rows[0] == ["iso_week", "index", "support"]
        assert len(rows) == 1 + len(table.entries)
        for row, e in zip(rows[1:], table.entries):
            assert int(row[0]) == e.iso_week
            assert float(row[1]) == e.index
            assert int(row[2]) == e.support

    def test_ranking_csv(self, bundle42):
        ranking = bundle42.dtw["modal_price"]
        rows = _parse_csv(ranking_csv(ranking))
        assert rows[0] == ["year_pair", "total_cost", "mean_cost", "path_length", "rank"]
        assert rows[1][0] == "2020-2021"
        assert float(rows[1][1]) == ranking.entries[0].total_cost

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
        res = dtw_align(x, y, DtwOptions(band_radius=6))
        g = cumulative_cost(local_distance_matrix(x, y), band_radius=6)
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

    @staticmethod
    def _check_heatmap(g, steps, pair):
        """Draw g and decode its heatmap, the one <image> of the figure.

        The image covers exactly the 400 x 374 panel at (56, 40) and is an
        8-bit RGB PNG of n x m pixels: every chunk CRC holds, IDAT is a zlib
        stream of stored deflate blocks, and every scanline has filter byte 0.
        Each pixel has the fill of the per-cell oracle.
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
        assert [kind for kind, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
        assert struct.unpack(">IIBBBBB", chunks[0][1]) == (m, n, 8, 2, 0, 0, 0)
        stream = chunks[1][1]
        raw = zlib.decompress(stream)
        assert len(raw) == n * (1 + 3 * m)
        # Header 78 01, five header bytes per stored block of at most 65,535
        # bytes, and the Adler-32.
        assert stream[:2] == b"\x78\x01"
        assert len(stream) == 2 + 5 * -(-len(raw) // 65535) + len(raw) + 4
        rows = [raw[i * (1 + 3 * m):(i + 1) * (1 + 3 * m)] for i in range(n)]
        assert [row[0] for row in rows] == [0] * n
        fills = ["#" + row[1 + 3 * j:4 + 3 * j].hex() for row in rows for j in range(m)]
        assert fills == dtw_heatmap_cells_oracle(g.tolist())

    @pytest.mark.parametrize("case", ["banded", "unbanded", "all-zero", "half-way ties",
                                      "1x1", "all-inf", "160x160"])
    def test_dtw_figure_cells_match_ramp_bytes(self, case):
        rng = np.random.default_rng(52)
        x, y = rng.normal(size=52).cumsum(), rng.normal(size=53).cumsum()
        band = 4 if case == "banded" else None
        res = dtw_align(x, y, DtwOptions(band_radius=band))
        g = cumulative_cost(local_distance_matrix(x, y), band)
        if case == "all-zero":
            g = np.zeros((6, 7))
        elif case == "half-way ties":
            # v = k / 478 puts the red channel exactly on .5 for 236 cells.
            g = np.minimum(np.arange(480.0), 478.0).reshape(20, 24)
        elif case == "1x1":
            g = np.array([[3.5]])
        elif case == "all-inf":
            g = np.full((5, 4), np.inf)
        elif case == "160x160":
            # 160 scanlines of 481 bytes: 76,960 raw bytes, two stored blocks.
            g = rng.uniform(0.0, 100.0, size=(160, 160))
        assert (case in ("banded", "all-inf")) == bool(np.isinf(g).any())
        self._check_heatmap(g, res.path.steps, (x, y))

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
        self._check_heatmap(g, steps, (rng.normal(size=n), rng.normal(size=m)))

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

    def test_bar_chart(self, bundle42):
        ranking = bundle42.dtw["arrivals"]
        bars = [
            (f"{e.year_pair[0]}-{e.year_pair[1]}", e.total_cost)
            for e in ranking.entries
        ]
        text = bar_chart(bars, title="t", y_label="cost", metadata={})
        ET.fromstring(text)
        assert "rect" in text
