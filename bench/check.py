"""Correctness checks on CLI output trees, and the oracles behind them.

The oracles are written from the defining rules, not from seasonwarp's code
paths: cleaned values come from a natural cubic spline solved here with the
Thomas algorithm, and DTW cost comes from a row-wise prefix-minimum scan
instead of the cell-by-cell recurrence.  Checks read only the input the
benchmark generated, its planted ground truth and the output tree.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

VARIABLES = ("arrivals", "modal_price")
REL_TOL = 1e-9


def tree_digest(root: Path) -> tuple[str, int, int]:
    """(sha256 over every file's relative path and contents, file count, bytes)."""
    h = hashlib.sha256()
    files = size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        with path.open("rb") as f:
            content = hashlib.file_digest(f, "sha256").digest()
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + content)
        files += 1
        size += path.stat().st_size
    return h.hexdigest(), files, size


def natural_spline(x: np.ndarray, y: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Natural cubic spline through (x, y), evaluated at xq."""
    n = len(x)
    h = np.diff(x)
    # Tridiagonal system for the second derivatives at interior knots.
    sub, diag, sup = h[:-1], 2.0 * (h[:-1] + h[1:]), h[1:]
    rhs = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
    c, d = np.empty(n - 2), np.empty(n - 2)
    c[0], d[0] = sup[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, n - 2):
        denom = diag[i] - sub[i] * c[i - 1]
        c[i] = sup[i] / denom
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / denom
    m2 = np.zeros(n)
    m2[n - 2] = d[-1]
    for i in range(n - 4, -1, -1):
        m2[i + 1] = d[i] - c[i] * m2[i + 2]
    k = np.searchsorted(x, xq) - 1
    hk = h[k]
    a = (x[k + 1] - xq) / hk
    b = (xq - x[k]) / hk
    return a * y[k] + b * y[k + 1] + ((a**3 - a) * m2[k] + (b**3 - b) * m2[k + 1]) * hk**2 / 6.0


def cleaned_years(csv_text: str, gap_weeks) -> tuple[int, dict[str, dict[int, np.ndarray]]]:
    """(span length in weeks, per variable: ISO year -> cleaned weekly values).

    The gaps are the only missing weeks and lie inside the span, so the span
    is the sorted union of observed and gap weeks.  Cleaning fills gaps with
    the spline through the observed points, clamped at zero; outliers keep
    their values.
    """
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    observed = [dt.date.fromisoformat(r[0]).isocalendar()[:2] for r in rows]
    gaps = [tuple(g) for g in gap_weeks]
    span = sorted(observed + gaps)
    position = {w: i for i, w in enumerate(span)}
    x_obs = np.array([position[w] for w in observed], dtype=float)
    x_gap = np.array([position[w] for w in gaps], dtype=float)
    out = {}
    for col, var in enumerate(VARIABLES, start=1):
        values = np.empty(len(span))
        y_obs = np.array([float(r[col]) for r in rows])
        values[x_obs.astype(int)] = y_obs
        values[x_gap.astype(int)] = np.maximum(natural_spline(x_obs, y_obs, x_gap), 0.0)
        by_year: dict[int, list[float]] = {}
        for (year, _), v in zip(span, values):
            by_year.setdefault(year, []).append(v)
        out[var] = {year: np.array(v) for year, v in by_year.items()}
    return len(span), out


def dtw_cost(x: np.ndarray, y: np.ndarray, band: int | None = None) -> float:
    """Minimal DTW path cost under |x - y| local cost, cost only.

    Row i of the cumulative matrix is g[j] = S[j] + min over k <= j of
    (c[k] - S[k]), where c[k] = d[i, k] + min(diagonal, vertical) and S is
    the running sum of d[i] along the row: a horizontal run of steps from k.
    """
    n, m = len(x), len(y)
    prev = np.full(m + 1, np.inf)  # prev[j + 1] is row i - 1 at column j
    prev[0] = 0.0  # the path enters (0, 0) diagonally from (-1, -1)
    for i in range(n):
        lo, hi = (0, m - 1) if band is None else (max(0, i - band), min(m - 1, i + band))
        d = np.abs(x[i] - y[lo:hi + 1])
        c = d + np.minimum(prev[lo:hi + 1], prev[lo + 1:hi + 2])
        s = np.cumsum(d)
        row = np.full(m + 1, np.inf)
        row[lo + 1:hi + 2] = s + np.minimum.accumulate(c - s)
        prev = row
    return float(prev[m])


@dataclass(frozen=True)
class Expected:
    """What a correct output tree of one workload run holds."""

    files: frozenset[str]
    gap_weeks: list[list[int]]
    span_weeks: int
    means: dict[str, float]
    dtw_costs: dict[str, float]


def build_expected(workload, csv_text: str, gap_weeks) -> Expected:
    """Oracle values for `workload` on the generated input.

    Both commands run with their default formats: report-all writes JSON, CSV
    and SVG, stats writes JSON and CSV.
    """
    span_weeks, years = cleaned_years(csv_text, gap_weeks)
    files = {"stats.json", "stats.csv"}
    dtw_costs = {}
    if workload.command == "report-all":
        files |= {"seasonal.json", "seasonal.svg", "bundle.json"}
        for v in VARIABLES:
            files |= {f"cleaned_{v}.csv", f"cleaning_{v}.json", f"series_{v}.svg",
                      f"seasonal_{v}.csv", f"dtw_ranking_{v}.json", f"dtw_ranking_{v}.csv",
                      f"dtw_ranking_{v}.svg"}
            order = sorted(years[v])
            pairs = combinations(order, 2) if workload.all_pairs else zip(order, order[1:])
            for y1, y2 in pairs:
                dtw_costs[f"dtw_{v}_{y1}-{y2}.json"] = dtw_cost(years[v][y1], years[v][y2],
                                                                 workload.band)
                files.add(f"dtw_{v}_{y1}-{y2}.svg")
        files |= set(dtw_costs)
    return Expected(
        files=frozenset(files),
        gap_weeks=sorted([w[0], w[1]] for w in gap_weeks),
        span_weeks=span_weeks,
        means={v: float(np.concatenate(list(years[v].values())).mean()) for v in VARIABLES},
        dtw_costs=dtw_costs,
    )


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def check_tree(tree: Path, expected: Expected) -> list[str]:
    """Every way the output tree differs from a correct one; empty if none."""
    present = {p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file()}
    problems = []
    if present != expected.files:
        missing = sorted(expected.files - present)[:5]
        extra = sorted(present - expected.files)[:5]
        problems.append(f"file set differs: missing {missing}, unexpected {extra}")
    docs = {}
    for name in sorted(present):
        if name.endswith(".json"):
            try:
                docs[name] = json.loads((tree / name).read_text(encoding="utf-8"),
                                        parse_constant=_reject_constant)
            except ValueError as exc:
                problems.append(f"{name}: {exc}")
    for v in VARIABLES:
        report = docs.get(f"cleaning_{v}.json")
        if report is not None and report.get("interpolated_weeks") != expected.gap_weeks:
            problems.append(f"cleaning_{v}.json: interpolated_weeks are not the planted gaps")
    stats = docs.get("stats.json")
    if stats is not None:
        for v in VARIABLES:
            summary = stats.get("summaries", {}).get(v, {})
            if summary.get("count") != expected.span_weeks:
                problems.append(f"stats.json: {v} count {summary.get('count')} != {expected.span_weeks}")
            if not _close(summary.get("mean"), expected.means[v]):
                problems.append(f"stats.json: {v} mean {summary.get('mean')} != oracle {expected.means[v]}")
        if stats.get("adf_log_price_diff") is None:
            problems.append("stats.json: ADF result missing")
    for name, cost in expected.dtw_costs.items():
        doc = docs.get(name)
        got = None if doc is None else doc.get("result", {}).get("total_cost")
        if doc is not None and not _close(got, cost):
            problems.append(f"{name}: total_cost {got} != oracle {cost}")
    return problems
