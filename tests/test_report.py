import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from seasonwarp.descriptive import describe
from seasonwarp.dtw import (
    DtwOptions,
    Normalization,
    dtw_align,
    dtw_align_with_matrices,
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
from seasonwarp.svg import bar_chart, dtw_figure, line_chart
from seasonwarp.unitroot import adf_test


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
            a = slice_year(series, y0).values
            b = slice_year(series, y1).values
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
        text = to_json(bundle42.to_dict())
        again = AnalysisBundle.from_dict(json.loads(text))
        assert again == bundle42

    def test_deterministic_bytes(self, bundle42):
        assert to_json(bundle42.to_dict()) == to_json(bundle42.to_dict())


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
        from seasonwarp.dtw import cumulative_cost, local_distance_matrix

        g = cumulative_cost(local_distance_matrix(x, y), band_radius=6)
        text = dtw_figure(
            g,
            list(res.path.steps),
            (list(res.warped_pair[0]), list(res.warped_pair[1])),
            ("2020", "2021"),
            title="demo",
            metadata={},
        )
        ET.fromstring(text)
        assert "polyline" in text

    @staticmethod
    def _reference_cells(g) -> list[str]:
        """One <rect> per cell, straight from the ramp formula: channels run
        linearly from (247, 251, 255) at 0 to (8, 48, 107) at the largest
        finite cost and round half to even; non-finite cells are grey."""
        n, m = len(g), len(g[0])
        finite = [v for row in g for v in row if math.isfinite(v)]
        vmax = max(finite) if finite and max(finite) > 0 else 1.0
        cw, ch = 400.0 / m, 374.0 / n
        cells = []
        for i in range(n):
            for j in range(m):
                v = float(g[i][j])
                if math.isfinite(v):
                    u = v / vmax
                    rgb = (round(247 - u * 239), round(251 - u * 203), round(255 - u * 148))
                    fill = "#%02x%02x%02x" % rgb
                else:
                    fill = "#dddddd"
                cells.append(
                    f'<rect x="{56 + j * cw:.2f}" y="{40 + i * ch:.2f}" '
                    f'width="{cw:.2f}" height="{ch:.2f}" fill="{fill}"/>'
                )
        return cells

    @pytest.mark.parametrize("case", ["banded", "unbanded", "all-zero", "half-way ties"])
    def test_dtw_figure_cells_match_ramp_bytes(self, case):
        rng = np.random.default_rng(52)
        x, y = rng.normal(size=52).cumsum(), rng.normal(size=53).cumsum()
        band = 4 if case == "banded" else None
        res, _, g = dtw_align_with_matrices(x, y, DtwOptions(band_radius=band))
        if case == "all-zero":
            g = np.zeros((6, 7))
        elif case == "half-way ties":
            # v = k / 478 puts the red channel exactly on .5 for 236 cells.
            g = np.minimum(np.arange(480.0), 478.0).reshape(20, 24)
        assert (case == "banded") == bool(np.isinf(g).any())
        text = dtw_figure(
            g,
            list(res.path.steps),
            (list(res.warped_pair[0]), list(res.warped_pair[1])),
            ("2020", "2021"),
            title="demo",
            metadata={},
        )
        rects = [line for line in text.splitlines() if line.startswith("<rect")]
        cells = [line for line in rects[1:] if 'fill="none"' not in line]
        assert cells == self._reference_cells(g.tolist())

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
