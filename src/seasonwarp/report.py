"""Report assembly and deterministic serialization (JSON / CSV).

JSON is one line, as ``json.dumps`` writes it with sorted keys, and a NaN
or an infinity, which JSON cannot hold, is refused; CSV uses RFC-4180
quoting with CRLF row endings, and a table of records has one row per
record and one column per field.  Identical inputs give identical bytes,
which the golden-file tests rely on.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import fields, is_dataclass

from .descriptive import DescriptiveSummary
from .errors import DataIntegrityError
from .series import FLAGS, WeekKey, WeeklySeries
from .unitroot import AdfResult


def to_json(payload) -> str:
    """``payload`` as ``json.dumps`` writes it with sorted keys, on one line,
    plus a newline, with each record in its JSON form (`_record`).  NaN or an
    infinity raises DataIntegrityError naming its key path, as in
    ``non-finite number nan at summaries.modal_price.skewness``."""
    try:
        return json.dumps(payload, sort_keys=True, allow_nan=False, default=_record) + "\n"
    except ValueError:
        found = next(_non_finite(payload, ""), None)
        if found is None:
            raise
        value, at = found
        where = f" at {at.removeprefix('.')}" if at else ""
        raise DataIntegrityError(f"non-finite number {value}{where}") from None


def _record(value):
    """A record's JSON form: a `WeekKey` is ``[iso_year, iso_week]``, a
    record with a ``to_dict`` is that dict, and any other dataclass is its
    fields."""
    if isinstance(value, WeekKey):
        return [value.iso_year, value.iso_week]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _non_finite(value, path: str):
    """Each NaN or infinity in ``value`` with its key path, in the order
    ``to_json`` writes them."""
    if isinstance(value, float):
        if not math.isfinite(value):
            yield value, path
    elif isinstance(value, dict):
        for k in sorted(value):
            yield from _non_finite(value[k], f"{path}.{k}")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _non_finite(v, f"{path}[{i}]")
    elif value is not None and not isinstance(value, (str, int)):
        yield from _non_finite(_record(value), path)


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC-4180: CRLF endings, minimal quoting
    writer.writerows(rows)
    return buf.getvalue()


# The stats rows whose metric label is not the field's name.
_STAT_LABELS = {"minimum": "min", "maximum": "max",
                "jarque_bera": "jb_statistic", "jarque_bera_p": "jb_p_value"}


def stats_csv(
    summaries: dict[str, DescriptiveSummary], adf: AdfResult | None
) -> str:
    """Fixed-shape metric table: metric, arrivals, modal_price columns, one
    row per `DescriptiveSummary` field, then the ADF rows."""
    rows: list[list] = [["metric", "arrivals", "modal_price"]]
    columns = [summaries.get("arrivals"), summaries.get("modal_price")]
    for f in fields(DescriptiveSummary):
        rows.append([_STAT_LABELS.get(f.name, f.name),
                     *("" if s is None else getattr(s, f.name) for s in columns)])
    if adf is not None:
        rows.append(["adf_statistic_log_price_diff", "", adf.statistic])
        rows.append(["adf_p_value_log_price_diff", "", adf.pvalue])
        rows.append(["adf_lags_used", "", adf.used_lag])
        rows.append(["adf_n_effective", "", adf.nobs])
    return _csv_text(rows)


def pair_label(pair: tuple[int, int]) -> str:
    """A year pair as ``a-b``: its CSV cell, bar label and file-name part."""
    return f"{pair[0]}-{pair[1]}"


def records_csv(records) -> str:
    """One row per record and one column per field of the records'
    dataclass, under a header of the field names; a year pair is written
    ``a-b``.  ``records`` is a non-empty sequence of one dataclass."""
    names = [f.name for f in fields(records[0])]
    rows: list[list] = [names]
    for record in records:
        cells = [getattr(record, name) for name in names]
        rows.append([pair_label(c) if isinstance(c, tuple) else c for c in cells])
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
