"""Report assembly and deterministic serialization (JSON / CSV).

JSON is emitted with sorted keys and two-space indentation; CSV uses
RFC-4180 quoting with CRLF row endings.  Identical inputs give identical
bytes, which the golden-file tests rely on.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields, is_dataclass

from .cleaning import CleaningReport
from .descriptive import DescriptiveSummary
from .dtw import PairRanking
from .seasonal import SeasonalIndexTable
from .series import FLAGS, WeekKey, WeeklySeries
from .unitroot import AdfResult


def to_json(payload) -> str:
    """``payload`` as JSON by one rule: a `WeekKey` is ``[iso_year, iso_week]``,
    a record with a ``to_dict`` is that dict, and any other dataclass is its
    fields.  Keys are sorted, so field order never reaches the bytes."""
    return json.dumps(_plain(payload), indent=2, sort_keys=True) + "\n"


def _plain(value):
    """``value`` with every record replaced by its JSON form.  Done before
    encoding, not as the encoder's ``default``: each object ``default``
    converts nests the encoder's generators two levels deeper, and every
    line of a DTW path then passes through both."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, WeekKey):
        return [value.iso_year, value.iso_week]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC-4180: CRLF endings, minimal quoting
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class AnalysisBundle:
    """Everything one full pipeline run produces, keyed by variable name."""

    cleaning: dict[str, CleaningReport]
    summaries: dict[str, DescriptiveSummary]
    seasonal: dict[str, SeasonalIndexTable]
    dtw: dict[str, PairRanking]
    adf_log_price_diff: AdfResult | None


_STAT_ROWS = (
    ("count", "count"),
    ("mean", "mean"),
    ("std", "std"),
    ("cv_percent", "cv_percent"),
    ("skewness", "skewness"),
    ("excess_kurtosis", "excess_kurtosis"),
    ("min", "minimum"),
    ("p25", "p25"),
    ("median", "median"),
    ("p75", "p75"),
    ("max", "maximum"),
    ("jb_statistic", "jarque_bera"),
    ("jb_p_value", "jarque_bera_p"),
)


def stats_csv(
    summaries: dict[str, DescriptiveSummary], adf: AdfResult | None
) -> str:
    """Fixed-shape metric table: metric, arrivals, modal_price columns."""
    rows: list[list] = [["metric", "arrivals", "modal_price"]]
    arr = summaries.get("arrivals")
    pri = summaries.get("modal_price")

    def cell(summary: DescriptiveSummary | None, attr: str):
        return "" if summary is None else getattr(summary, attr)

    for label, attr in _STAT_ROWS:
        rows.append([label, cell(arr, attr), cell(pri, attr)])
    if adf is not None:
        rows.append(["adf_statistic_log_price_diff", "", adf.statistic])
        rows.append(["adf_p_value_log_price_diff", "", adf.pvalue])
        rows.append(["adf_lags_used", "", adf.used_lag])
        rows.append(["adf_n_effective", "", adf.nobs])
    return _csv_text(rows)


def seasonal_csv(table: SeasonalIndexTable) -> str:
    rows: list[list] = [["iso_week", "index", "support"]]
    for e in table.entries:
        rows.append([e.iso_week, e.index, e.support])
    return _csv_text(rows)


def ranking_csv(ranking: PairRanking) -> str:
    rows: list[list] = [["year_pair", "total_cost", "mean_cost", "path_length", "rank"]]
    for e in ranking.entries:
        rows.append(
            [
                f"{e.year_pair[0]}-{e.year_pair[1]}",
                e.total_cost,
                e.mean_cost,
                e.path_length,
                e.rank,
            ]
        )
    return _csv_text(rows)


def series_csv(series: WeeklySeries) -> str:
    years, weeks = series.iso_calendar()
    flags = [flag.value for flag in FLAGS]
    rows: list = [["iso_year", "iso_week", "week_ending", "value", "flag"]]
    rows += zip(
        years.tolist(),
        weeks.tolist(),
        series.end_dates().astype(str).tolist(),
        series.values().tolist(),
        [flags[code] for code in series.flags.tolist()],
    )
    return _csv_text(rows)


def matrix_csv(matrix) -> str:
    return _csv_text([[float(v) for v in row] for row in matrix])
