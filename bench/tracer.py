"""Outside-in tracing of seasonwarp's layers.

Each public function of each ``seasonwarp`` module is wrapped once, where it
is defined, and every ``seasonwarp.*`` module attribute that holds the same
function object is rebound to that one wrapper.  ``cli`` imports names with
``from .x import``, so a call gets exactly one span whichever module it is
reached through, and the trace keeps working when code moves between modules.

Spans stay in memory as ``[name, parent, start, end, done]``: ``end`` closes the
call itself, ``done`` also covers the tracer's own counting afterwards, so
counting time belongs to no layer.  A layer's self time is its span time minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "cleaning", "series", "descriptive", "unitroot", "seasonal",
          "dtw", "report", "svg", "fixture")


def band_cells(n: int, m: int, radius: int | None) -> int:
    """Cells of an n x m matrix with |i - j| <= radius (all cells if None)."""
    if radius is None:
        return n * m
    return sum(min(m - 1, i + radius) - max(0, i - radius) + 1
               for i in range(n) if i - radius <= m - 1)


def _dtw_figure(tr, result, *args, **kwargs):
    tr.counts["svg.dtw_figure.bytes"] += len(result.encode("utf-8"))
    tr.counts["svg.dtw_figure.rects"] += result.count("<rect")


def _cumulative_cost(tr, result, d, band_radius=None):
    n, m = result.shape
    tr.counts["dtw.cumulative_cost.cells"] += band_cells(n, m, band_radius)
    key = hashlib.blake2b(np.ascontiguousarray(d, dtype=float).tobytes()).digest()
    tr.distinct["dtw.cumulative_cost"].add((key, band_radius))


def _slice_year(tr, result, series, iso_year):
    tr.distinct["series.slice_year"].add((series.variable.value, iso_year))


def _parse_market_csv(tr, result, *args, **kwargs):
    tr.counts["cleaning.parse_market_csv.rows"] += len(result)


def _text_bytes(metric):
    def count(tr, result, *args, **kwargs):
        tr.counts[metric] += len(result.encode("utf-8"))
    return count


# Work counters, keyed by traced function.  Each takes the tracer, the return
# value and the traced call's own arguments.
COUNTERS = {
    "svg.dtw_figure": _dtw_figure,
    "dtw.cumulative_cost": _cumulative_cost,
    "series.slice_year": _slice_year,
    "cleaning.parse_market_csv": _parse_market_csv,
    "report.to_json": _text_bytes("report.to_json.bytes"),
}


def _is_csv_emitter(name: str) -> bool:
    return name.startswith("report.") and name.endswith("_csv")


class Tracer:
    """Spans and work counts for the public functions of seasonwarp."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget the spans and counts recorded so far."""
        self.spans.clear()
        self.counts.clear()
        self.distinct.clear()

    def wrap(self, name: str, fn):
        """`fn` recording one span named `name` per call."""
        spans, stack, clock = self.spans, self._stack, self.clock
        counter = COUNTERS.get(name)
        if counter is None and _is_csv_emitter(name):
            counter = _text_bytes("report.csv.bytes")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = span[4] = clock()
                stack.pop()
            if counter is not None:
                counter(self, result, *args, **kwargs)
                span[4] = clock()
            return result

        return traced

    def install(self) -> None:
        """Wrap every public seasonwarp function and rebind all its aliases."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"seasonwarp.{layer}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
        modules = [m for n, m in list(sys.modules.items())
                   if n == "seasonwarp" or n.startswith("seasonwarp.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        """Put every original function back."""
        for module, attr, value in self._rebound:
            setattr(module, attr, value)
        self._rebound.clear()

    def self_times(self) -> dict[str, float]:
        """Self seconds per traced function over the recorded spans."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, _, done in self.spans:
            if parent >= 0:
                covered[parent] += done - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return dict(out)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# Functions whose self time is reported on its own, as "<function>.self_s".
SELF_TIMED = (
    "svg.dtw_figure", "svg.line_chart", "svg.bar_chart",
    "dtw.cumulative_cost", "dtw.backtrack", "dtw.local_distance_matrix",
    "dtw.dtw_align", "dtw.rank_pairs",
    "series.slice_year", "series.build_weekly_series", "series.complete_years",
    "cleaning.parse_market_csv", "cleaning.clean_series", "cleaning.spline_fill",
    "cleaning.iqr_outliers",
    "unitroot.adf_test", "descriptive.describe", "seasonal.seasonal_index",
    "report.to_json",
)


def invocation_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans recorded for one CLI invocation.

    ``report.csv`` sums every ``*_csv`` emitter.  ``cli.main`` covers the
    whole cli layer: main's dispatch helpers (``cmd_*``, ``build_parser``) are
    glue of the same kind as option resolution and file writes.
    """
    times = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    out = {f"{name}.self_s": times.get(name, 0.0) for name in SELF_TIMED}
    out["report.csv.self_s"] = sum(v for k, v in times.items() if _is_csv_emitter(k))
    out["cli.main.self_s"] = sum(v for k, v in times.items() if k.startswith("cli."))
    out.update({
        "svg.dtw_figure.calls": calls["svg.dtw_figure"],
        "svg.dtw_figure.bytes": counts["svg.dtw_figure.bytes"],
        "svg.dtw_figure.rects": counts["svg.dtw_figure.rects"],
        "dtw.cumulative_cost.calls": calls["dtw.cumulative_cost"],
        "dtw.cumulative_cost.cells": counts["dtw.cumulative_cost.cells"],
        "dtw.cumulative_cost.useful": _ratio(len(tracer.distinct["dtw.cumulative_cost"]),
                                             calls["dtw.cumulative_cost"]),
        "series.slice_year.calls": calls["series.slice_year"],
        "series.slice_year.useful": _ratio(len(tracer.distinct["series.slice_year"]),
                                           calls["series.slice_year"]),
        "cleaning.parse_market_csv.rows": counts["cleaning.parse_market_csv.rows"],
        "report.to_json.bytes": counts["report.to_json.bytes"],
        "report.csv.bytes": counts["report.csv.bytes"],
        "trace.self_s": sum(times.values()),
    })
    return out
