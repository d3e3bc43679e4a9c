"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the defining rule, not from the
library's code path: brute-force sums, dense linear solves, exhaustive path
enumeration.  Slow is fine; these only run in tests.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
import operator
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np

from seasonwarp.errors import (
    DataIntegrityError,
    DegenerateDataError,
    InsufficientDataError,
    SchemaError,
)
from seasonwarp.series import WeekKey, WeeklySeries, weeks_in_iso_year
from seasonwarp.unitroot import AdfResult


def iso_week_oracle(day: dt.date) -> tuple[int, int]:
    """ISO week via the first-Thursday rule, using only weekday arithmetic."""
    thursday = day + dt.timedelta(days=3 - day.weekday())
    year = thursday.year
    jan1 = dt.date(year, 1, 1)
    first_thursday = jan1 + dt.timedelta(days=(3 - jan1.weekday()) % 7)
    week = 1 + (thursday - first_thursday).days // 7
    return year, week


def next_week_oracle(w: WeekKey) -> WeekKey:
    """The following ISO week, stepping the year at its 52nd or 53rd week."""
    if w.iso_week < weeks_in_iso_year(w.iso_year):
        return WeekKey(w.iso_year, w.iso_week + 1)
    return WeekKey(w.iso_year + 1, 1)


def week_range_oracle(first: WeekKey, last: WeekKey) -> list[WeekKey]:
    """Every week from `first` to `last` inclusive, by stepping one at a time."""
    weeks = [first]
    while weeks[-1] < last:
        weeks.append(next_week_oracle(weeks[-1]))
    return weeks


def weeks_of(series: WeeklySeries) -> tuple[WeekKey, ...]:
    """The week of each point of a series, in order."""
    return tuple(WeekKey.from_number(n) for n in series.numbers.tolist())


def value_at(series: WeeklySeries, week: WeekKey) -> float:
    """The value a series holds for one week."""
    i = int(np.searchsorted(series.numbers, week.number))
    if i == len(series.numbers) or series.numbers[i] != week.number:
        raise KeyError(str(week))
    return float(series.values()[i])


def slice_year_message_oracle(series: WeeklySeries, iso_year: int) -> str:
    """The incomplete-year error of a year slice, from a scan of the whole series."""
    wanted = week_range_oracle(WeekKey(iso_year, 1), WeekKey(iso_year, weeks_in_iso_year(iso_year)))
    have = set(weeks_of(series))
    missing = [w for w in wanted if w not in have]
    return f"ISO year {iso_year} incomplete in series; missing weeks: " + ", ".join(
        str(w) for w in missing
    )


def parse_market_csv_oracle(
    data: bytes, date_col="date", arrivals_col="arrivals", price_col="modal_price",
    date_format="iso",
) -> tuple[list[int], list[float], list[float]]:
    """(week numbers, arrivals, prices) of a market CSV, read one `csv.reader`
    row at a time as a dict keyed by the header, with `strptime`; a blank
    cell is NaN.

    This is the row-by-row reader the columnar parser replaced, so its errors
    are the reference messages, with the row-shape rule added: a row with
    another number of fields than the header is an error.
    """
    fmt = {"iso": "%Y-%m-%d", "dmy": "%d/%m/%Y"}[date_format]

    def cell(raw: str, column: str, line_no: int) -> float:
        raw = raw.strip()
        if raw == "":
            return math.nan
        try:
            value = float(raw)
        except ValueError:
            raise DataIntegrityError(
                f"line {line_no}: cannot parse {column} value {raw!r} as a number"
            ) from None
        if not math.isfinite(value):
            raise DataIntegrityError(f"line {line_no}: {column} value {raw!r} is not a finite number")
        if value < 0:
            raise DataIntegrityError(f"line {line_no}: negative {column} value {value}")
        if value > 1e75:
            raise DataIntegrityError(f"line {line_no}: {column} value {raw!r} exceeds 1e+75")
        return value

    reader = csv.reader(io.StringIO(data.decode("utf-8-sig")))
    weeks: list[int] = []
    arrivals: list[float] = []
    prices: list[float] = []
    header = next(reader, None)
    if header is None:
        return weeks, arrivals, prices
    for col in (date_col, arrivals_col, price_col):
        if col not in header:
            raise SchemaError(f"column {col!r} not found in CSV header {header}")
    for fields in reader:
        if not fields:
            continue
        line_no = reader.line_num  # the physical line the row ends on
        if len(fields) != len(header):
            raise DataIntegrityError(
                f"line {line_no}: {len(fields)} fields where the header has {len(header)}"
            )
        row = dict(zip(header, fields))
        raw_date = row[date_col].strip()
        try:
            day = dt.datetime.strptime(raw_date, fmt).date()
        except ValueError:
            raise DataIntegrityError(
                f"line {line_no}: cannot parse date {raw_date!r} with format {date_format!r}"
            ) from None
        arrivals.append(cell(row[arrivals_col], arrivals_col, line_no))
        prices.append(cell(row[price_col], price_col, line_no))
        # Week n runs from the Monday of ordinal 7n + 1 to the Sunday after it.
        weeks.append((day - dt.timedelta(days=day.weekday())).toordinal() // 7)
    return weeks, arrivals, prices


def spline_second_derivatives_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Natural-spline second derivatives by the Thomas algorithm run on numpy
    scalars, the same operations in the same order as the production solve."""
    n = x.size
    h = np.diff(x)
    m = np.zeros(n)
    diag = (h[:-1] + h[1:]) / 3.0
    lower = h[:-1] / 6.0
    upper = h[1:] / 6.0
    rhs = np.diff(y) / h
    rhs = rhs[1:] - rhs[:-1]
    k = n - 2
    cp = np.zeros(k)
    dp = np.zeros(k)
    cp[0] = upper[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, k):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
    m[k] = dp[k - 1]
    for i in range(k - 1, 0, -1):
        m[i] = dp[i - 1] - cp[i - 1] * m[i + 1]
    return m


def cumulative_cost_oracle(d, band_radius: int | None = None) -> np.ndarray:
    """DTW cumulative-cost matrix by a row scan over Python lists.

    gamma(1,1) = d(1,1), the first row and column are running sums, and
    gamma(i,j) = d(i,j) + min(diagonal, vertical, horizontal), the minimum
    taken by ``<`` so that ties keep the diagonal, then the vertical.  Cells
    with |i - j| > band_radius are +inf.
    """
    rows = np.asarray(d, dtype=float).tolist()
    n, m = len(rows), len(rows[0])
    g = [[math.inf] * m for _ in range(n)]
    for i in range(n):
        drow = rows[i]
        grow = g[i]
        if band_radius is None:
            lo, hi = 0, m - 1
        else:
            lo = max(0, i - band_radius)
            hi = min(m - 1, i + band_radius)
        gprev = g[i - 1] if i > 0 else None
        for j in range(lo, hi + 1):
            c = drow[j]
            if i == 0:
                grow[j] = c if j == 0 else grow[j - 1] + c
            elif j == 0:
                grow[0] = gprev[0] + c
            else:
                best = gprev[j - 1]
                if gprev[j] < best:
                    best = gprev[j]
                if grow[j - 1] < best:
                    best = grow[j - 1]
                grow[j] = c + best
    return np.array(g, dtype=float)


def enum_dtw_min_cost(d: list[list[float]]) -> float:
    """Minimum path cost by exhaustive enumeration of every monotone path."""
    n, m = len(d), len(d[0])
    best = math.inf

    def walk(i: int, j: int, acc: float) -> None:
        nonlocal best
        acc = acc + d[i][j]
        if i == n - 1 and j == m - 1:
            if acc < best:
                best = acc
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best


def moments_oracle(values) -> tuple[float, float, float, float]:
    """(mean, sample std, skewness, excess kurtosis) by direct summation."""
    vs = [float(v) for v in values]
    n = len(vs)
    mean = sum(vs) / n
    s2 = s3 = s4 = 0.0
    for v in vs:
        d = v - mean
        s2 += d * d
        s3 += d * d * d
        s4 += d * d * d * d
    m2 = s2 / n
    m3 = s3 / n
    m4 = s4 / n
    std = math.sqrt(s2 / (n - 1))
    return mean, std, m3 / m2**1.5, m4 / m2**2 - 3.0


def quantile_oracle(values, q: float) -> float:
    """Closest-ranks linear interpolation at fractional rank (n-1)*q."""
    vs = sorted(float(v) for v in values)
    n = len(vs)
    if n == 1:
        return vs[0]
    h = (n - 1) * q
    lo = int(math.floor(h))
    if lo >= n - 1:
        return vs[n - 1]
    frac = h - lo
    return vs[lo] + frac * (vs[lo + 1] - vs[lo])


def spline_oracle(x, y, xq) -> np.ndarray:
    """Natural cubic spline by a dense linear solve plus per-piece cubics.

    The second-derivative system is assembled as a full matrix and solved
    with numpy; evaluation expands each piece into polynomial coefficients,
    a different algebraic route than the production form.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    h = np.diff(x)
    a = np.zeros((n, n))
    b = np.zeros(n)
    a[0, 0] = 1.0
    a[n - 1, n - 1] = 1.0
    for i in range(1, n - 1):
        a[i, i - 1] = h[i - 1] / 6.0
        a[i, i] = (h[i - 1] + h[i]) / 3.0
        a[i, i + 1] = h[i] / 6.0
        b[i] = (y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1]
    m = np.linalg.solve(a, b)

    out = np.empty(len(xq))
    for k, t in enumerate(np.asarray(xq, dtype=float)):
        i = int(np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 2))
        hi = h[i]
        c1 = (y[i + 1] - y[i]) / hi - hi * (2.0 * m[i] + m[i + 1]) / 6.0
        c2 = m[i] / 2.0
        c3 = (m[i + 1] - m[i]) / (6.0 * hi)
        u = t - x[i]
        out[k] = y[i] + u * (c1 + u * (c2 + u * c3))
    return out


def seasonal_oracle(week_values: dict[tuple[int, int], float]) -> dict[int, float]:
    """Base-100 weekly index by direct averaging over (year, week) values."""
    grand = sum(week_values.values()) / len(week_values)
    by_week: dict[int, list[float]] = {}
    for (_, w), v in week_values.items():
        by_week.setdefault(w, []).append(v)
    return {w: 100.0 * (sum(vs) / len(vs)) / grand for w, vs in by_week.items()}


# MacKinnon's (1994) response surface for the single-series constant-only
# case, transcribed apart from `unitroot`'s copy: the p-value is 0 below
# -18.83 and 1 above 2.74; the small-p polynomial applies up to -1.61, the
# large-p one above.
_MACKINNON_C = (-18.83, 2.74, -1.61, (2.1659, 1.4412, 0.038269),
                (1.7339, 0.93202, -0.12745, -0.010368))


def mackinnon_pvalue_oracle(statistic: float) -> float:
    """The constant-only MacKinnon p-value: Phi of the polynomial in the
    statistic, summed in ascending powers as `unitroot` sums it."""
    lo, hi, star, small, large = _MACKINNON_C
    if statistic > hi:
        return 1.0
    if statistic < lo:
        return 0.0
    z = 0.0  # not sum(), which compensates its rounding from Python 3.12 on
    for p, c in enumerate(small if statistic <= star else large):
        z += c * statistic**p
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def adf_oracle(values, maxlag: int | None = None):
    """ADF test of the constant-only regression by refitting every candidate
    lag with its own lstsq solve.

    Each lag 0..maxlag gets a freshly built design on the sample trimmed at
    maxlag and a separate ``np.linalg.lstsq`` fit; a design that lstsq ranks
    deficient (singular values <= sigma_max * max(M, N) * eps) or a fit that
    leaves no residual (SSR <= (rows * eps)^2 * ||response||^2) raises
    DegenerateDataError.  AIC = rows*log(SSR/rows) + 2k picks the lag, strict
    ``<`` so ties keep the smaller one.  The winner is refit on its own full
    sample by an SVD of its design with each column scaled to unit norm,
    X = U S V^T, so beta = V S^-1 U^T y and the variance factor of y_{t-1}'s
    coefficient is sum_j (V[0, j] / s_j)^2; the t-ratio does not change when
    a column is scaled.  The statistic agrees with ``adf_test``'s to
    rounding, not bit for bit.  The p-value is `mackinnon_pvalue_oracle`'s.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        raise InsufficientDataError("too short")
    if np.ptp(v) == 0.0:
        raise DegenerateDataError("constant")
    if maxlag is None:
        maxlag = int(12.0 * (n / 100.0) ** 0.25)
    maxlag = max(0, min(maxlag, (n - 1) // 2 - 2))
    dy = np.diff(v)

    def design(lag: int, trim: int):
        rows = dy.size - trim
        cols = [v[trim : trim + rows]]
        cols += [dy[trim - i : trim - i + rows] for i in range(1, lag + 1)]
        cols.append(np.ones(rows))
        return np.column_stack(cols), dy[trim:]

    rows = dy.size - maxlag
    if rows < 20:
        raise InsufficientDataError("too few rows")
    best_lag, best_aic = 0, math.inf
    for lag in range(maxlag + 1):
        x, resp = design(lag, maxlag)
        beta, _, rank, _ = np.linalg.lstsq(x, resp, rcond=None)
        if rank < x.shape[1]:
            raise DegenerateDataError("rank-deficient candidate design")
        resid = resp - x @ beta
        ssr = float(resid @ resid)
        if ssr <= (rows * np.finfo(float).eps) ** 2 * float(resp @ resp):
            raise DegenerateDataError("perfect fit")
        aic = rows * math.log(ssr / rows) + 2 * x.shape[1]
        if aic < best_aic:
            best_lag, best_aic = lag, aic

    x, resp = design(best_lag, best_lag)
    nobs, k = x.shape
    if nobs <= k:
        raise InsufficientDataError("too few rows for the refit")
    # Columns of levels, differences and ones differ in size by orders of
    # magnitude; unscaled, the SVD lost digits of a near-zero statistic
    # (1.8e-10 relative on a seasonal random walk).
    x = x / np.linalg.norm(x, axis=0)
    u, sv, vt = np.linalg.svd(x, full_matrices=False)
    beta = vt.T @ ((u.T @ resp) / sv)
    resid = resp - x @ beta
    var0 = float(resid @ resid) / (nobs - k) * float(np.sum((vt[:, 0] / sv) ** 2))
    if var0 <= 0:
        raise DegenerateDataError("zero residual variance")
    stat = float(beta[0] / math.sqrt(var0))
    return AdfResult(
        statistic=stat,
        pvalue=mackinnon_pvalue_oracle(stat),
        used_lag=best_lag,
        nobs=resp.size,
        regression="c",
    )


def _integers(x) -> list[int]:
    """The float64 values of `x` as integers, all scaled by one power of two."""
    ratios = [float(t).as_integer_ratio() for t in x]
    scale = max(d for _, d in ratios)
    return [n * (scale // d) for n, d in ratios]


def adf_tratio_exact(values, lag: int) -> float:
    """The constant-only ADF t-ratio of y_{t-1} at `lag` on its full sample,
    in exact arithmetic, rounded once at the end.

    The design's float64 entries are taken as exact: each column is scaled
    to integers by a power of two, which leaves the t-ratio unchanged.  The
    Gram matrix of [1, lags, y_{t-1}, response] is formed in Python integers
    and reduced by fraction-free (Bareiss) elimination, whose pivots are its
    leading principal minors D_1 .. D_{k+1}.  With k regressors, nobs rows
    and a the minor of the first k - 1 rows plus the response row over the
    first k columns, beta = a / D_k, SSR = D_{k+1} / D_k and
    t^2 = (nobs - k) a^2 / (D_{k-1} D_{k+1}), with the sign of a.
    """
    v = np.asarray(values, dtype=float)
    dy = np.diff(v)
    rows = dy.size - lag
    vi, dyi = _integers(v), _integers(dy)
    cols = [[1] * rows]
    cols += [dyi[lag - i : lag - i + rows] for i in range(1, lag + 1)]
    cols += [vi[lag : lag + rows], dyi[lag:]]
    m = [[sum(map(operator.mul, a, b)) for b in cols] for a in cols]
    k = len(cols) - 1
    minors = [1]
    for p in range(k + 1):
        for i in range(p + 1, k + 1):
            for j in range(p + 1, k + 1):
                m[i][j] = (m[i][j] * m[p][p] - m[i][p] * m[p][j]) // minors[-1]
        minors.append(m[p][p])
    a = m[k][k - 1]  # left as it was after the constant and lag pivots
    t = math.sqrt(Fraction((rows - k) * a * a, minors[k - 1] * minors[k + 1]))
    return t if a > 0 else -t


def _heatmap_fills(g, ramp) -> list[str]:
    """The fill of each heatmap cell, row by row: ramp(u) for a finite cost
    at u = cost / the largest finite cost (1.0 if that is 0), grey if not
    finite."""
    finite = [v for row in g for v in row if math.isfinite(v)]
    vmax = max(finite) if finite and max(finite) > 0 else 1.0
    fills = []
    for row in g:
        for v in map(float, row):
            fills.append("#%02x%02x%02x" % ramp(v / vmax) if math.isfinite(v) else "#dddddd")
    return fills


def dtw_heatmap_exact_oracle(g) -> list[str]:
    """The fill of each dtw_figure heatmap cell on the exact ramp: channels
    run linearly from (247, 251, 255) at 0 to (8, 48, 107) at the largest
    finite cost and round half to even; non-finite cells are grey."""
    return _heatmap_fills(g, lambda u: (round(247 - u * 239), round(251 - u * 203),
                                        round(255 - u * 148)))


def dtw_heatmap_cells_oracle(g) -> list[str]:
    """The fill dtw_figure gives each heatmap cell: the exact ramp taken at
    the nearest of 255 levels, level k = round(u * 254) being k / 254 of the
    way to the dark end; every rounding is half to even."""
    def level(u):
        t = round(u * 254) / 254
        return round(247 - t * 239), round(251 - t * 203), round(255 - t * 148)
    return _heatmap_fills(g, level)


def polyline_points_oracle(frame, xs, ys) -> str:
    """A _Frame polyline's points, one Python-float point at a time."""
    return " ".join(f"{format(frame.px(x), '.2f')},{format(frame.py(y), '.2f')}"
                    for x, y in zip(xs, ys))


def warp_steps_oracle(moves: str) -> list[tuple[int, int]]:
    """The 1-based cells a move string walks from (1, 1): ``D`` adds (1, 1),
    ``V`` (1, 0) and ``H`` (0, 1); any other letter raises KeyError."""
    steps = [(1, 1)]
    for letter in moves:
        di, dj = {"D": (1, 1), "V": (1, 0), "H": (0, 1)}[letter]
        steps.append((steps[-1][0] + di, steps[-1][1] + dj))
    return steps


def to_json_oracle(payload) -> str:
    """report.to_json by its defining rule: a copy of the payload with every
    record in its JSON form, then json.dumps(indent=2, sort_keys=True) and a
    newline."""
    return json.dumps(_json_plain(payload), indent=2, sort_keys=True) + "\n"


def _json_plain(value):
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, dict):
        return {k: _json_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_plain(v) for v in value]
    if isinstance(value, WeekKey):
        return [value.iso_year, value.iso_week]
    if hasattr(value, "to_dict"):
        return _json_plain(value.to_dict())
    if is_dataclass(value):
        return {f.name: _json_plain(getattr(value, f.name)) for f in fields(value)}
    return value


# The report tables as each CSV emitter once wrote them, row layout by hand.
def _csv_oracle(rows: list[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


_STAT_ROWS_ORACLE = (
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


def stats_csv_oracle(summaries: dict, adf: AdfResult | None) -> str:
    rows: list[list] = [["metric", "arrivals", "modal_price"]]
    arr, pri = summaries.get("arrivals"), summaries.get("modal_price")
    for label, attr in _STAT_ROWS_ORACLE:
        rows.append([label, "" if arr is None else getattr(arr, attr),
                     "" if pri is None else getattr(pri, attr)])
    if adf is not None:
        rows.append(["adf_statistic_log_price_diff", "", adf.statistic])
        rows.append(["adf_p_value_log_price_diff", "", adf.pvalue])
        rows.append(["adf_lags_used", "", adf.used_lag])
        rows.append(["adf_n_effective", "", adf.nobs])
    return _csv_oracle(rows)


def seasonal_csv_oracle(table) -> str:
    rows: list[list] = [["iso_week", "index", "support"]]
    rows += [[e.iso_week, e.index, e.support] for e in table.entries]
    return _csv_oracle(rows)


def ranking_csv_oracle(ranking) -> str:
    rows: list[list] = [["year_pair", "total_cost", "mean_cost", "path_length", "rank"]]
    rows += [[f"{e.year_pair[0]}-{e.year_pair[1]}", e.total_cost, e.mean_cost,
              e.path_length, e.rank] for e in ranking.entries]
    return _csv_oracle(rows)
