"""Report assembly and deterministic serialization (JSON / CSV).

JSON is emitted with sorted keys and two-space indentation, byte for byte
as ``json.dumps`` writes it with those settings, and a NaN or an infinity,
which JSON cannot hold, is refused; CSV uses
RFC-4180 quoting with CRLF row endings, and a table of records has one row
per record and one column per field.  Identical inputs give identical
bytes, which the golden-file tests rely on.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote

from .descriptive import DescriptiveSummary
from .errors import DataIntegrityError
from .series import FLAGS, WeekKey, WeeklySeries
from .unitroot import AdfResult


def to_json(payload) -> str:
    """``payload`` as ``json.dumps`` writes it with two-space indentation
    and sorted keys, plus a newline, once every record is in its JSON form:
    a `WeekKey` is ``[iso_year, iso_week]``, a record with a ``to_dict`` is
    that dict, and any other dataclass is its fields.  Sorted keys keep
    field order out of the bytes; a key that is not a str raises TypeError.
    NaN or an infinity raises DataIntegrityError naming its key path, as in
    ``non-finite number nan at summaries.modal_price.skewness``."""
    try:
        return _json(payload, "\n") + "\n"
    except _NonFinite as exc:
        at = "".join(reversed(exc.path)).removeprefix(".")
        where = f" at {at}" if at else ""
        raise DataIntegrityError(f"non-finite number {exc.value}{where}") from None


class _NonFinite(Exception):
    """A non-finite float, and the steps to it, innermost first, which each
    container adds as the exception leaves it: a successful write builds no path."""

    def __init__(self, value: float):
        self.value, self.path = value, []


def _json(value, nl: str) -> str:
    """The JSON text of ``value``, one pass, no copy of the payload.  ``nl``
    is the newline and indentation of the line the value starts on."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value or value in (math.inf, -math.inf):
            raise _NonFinite(value)
        return float.__repr__(value)
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for k in sorted(value):
            try:
                items.append(_quote(k) + ": " + _json(value[k], inner))
            except _NonFinite as exc:
                exc.path.append("." + k)
                raise
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = []
        for i, v in enumerate(value):
            try:
                items.append(_json(v, inner))
            except _NonFinite as exc:
                exc.path.append(f"[{i}]")
                raise
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(value, WeekKey):
        return _json([value.iso_year, value.iso_week], nl)
    if hasattr(value, "to_dict"):
        return _json(value.to_dict(), nl)
    if is_dataclass(value):
        return _json({f.name: getattr(value, f.name) for f in fields(value)}, nl)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


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
