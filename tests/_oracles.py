"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the defining rule, not from the
library's code path: brute-force sums, dense linear solves, exhaustive path
enumeration.  Slow is fine; these only run in tests.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math

import numpy as np

from seasonwarp.errors import (
    DataIntegrityError,
    DegenerateDataError,
    InsufficientDataError,
    SchemaError,
)
from seasonwarp.series import WeekKey, WeeklySeries, iso_week_of, weeks_in_iso_year
from seasonwarp.unitroot import AdfResult, mackinnon_pvalue


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


def slice_year_message_oracle(series: WeeklySeries, iso_year: int) -> str:
    """The incomplete-year error of a year slice, from a scan of the whole series."""
    wanted = week_range_oracle(WeekKey(iso_year, 1), WeekKey(iso_year, weeks_in_iso_year(iso_year)))
    have = set(series.weeks())
    missing = [w for w in wanted if w not in have]
    return f"ISO year {iso_year} incomplete in series; missing weeks: " + ", ".join(
        str(w) for w in missing
    )


def parse_market_csv_oracle(
    data: bytes, date_col="date", arrivals_col="arrivals", price_col="modal_price",
    date_format="iso",
) -> tuple[list[int], list[float], list[float]]:
    """(week numbers, arrivals, prices) of a market CSV, read one `csv.DictReader`
    row at a time with `strptime`; a blank cell is NaN.

    This is the row-by-row reader the columnar parser replaced, so its errors
    are the reference messages.  It predates the row-shape rule: a short row
    reads as blank cells and an extra field is ignored.
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

    reader = csv.DictReader(io.StringIO(data.decode("utf-8-sig")))
    weeks: list[int] = []
    arrivals: list[float] = []
    prices: list[float] = []
    if reader.fieldnames is None:
        return weeks, arrivals, prices
    for col in (date_col, arrivals_col, price_col):
        if col not in reader.fieldnames:
            raise SchemaError(f"column {col!r} not found in CSV header {reader.fieldnames}")
    for line_no, row in enumerate(reader, start=2):
        raw_date = (row[date_col] or "").strip()
        try:
            day = dt.datetime.strptime(raw_date, fmt).date()
        except ValueError:
            raise DataIntegrityError(
                f"line {line_no}: cannot parse date {raw_date!r} with format {date_format!r}"
            ) from None
        arrivals.append(cell(row[arrivals_col] or "", arrivals_col, line_no))
        prices.append(cell(row[price_col] or "", price_col, line_no))
        weeks.append(iso_week_of(day).number)
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


def adf_oracle(values, regression: str = "c", maxlag: int | None = None):
    """ADF test by refitting every candidate lag with its own lstsq solve.

    Each lag 0..maxlag gets a freshly built design on the sample trimmed at
    maxlag and a separate ``np.linalg.lstsq`` fit; a design that lstsq ranks
    deficient (singular values <= sigma_max * max(M, N) * eps) or a fit that
    leaves no residual (SSR <= (rows * eps)^2 * ||response||^2) raises
    DegenerateDataError.  AIC = rows*log(SSR/rows) + 2k picks the lag, strict
    ``<`` so ties keep the smaller one.  The winner is refit on its own full
    sample through the normal equations, the t-ratio of y_{t-1} taken from
    the inverse, so the result can be compared with ``==``.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 2:
        raise InsufficientDataError("too short")
    if np.ptp(v) == 0.0:
        raise DegenerateDataError("constant")
    ntrend = {"n": 0, "c": 1, "ct": 2}[regression]
    if maxlag is None:
        maxlag = int(12.0 * (n / 100.0) ** 0.25)
    maxlag = max(0, min(maxlag, (n - 1) // 2 - ntrend - 1))
    dy = np.diff(v)

    def design(lag: int, trim: int):
        rows = dy.size - trim
        cols = [v[trim : trim + rows]]
        cols += [dy[trim - i : trim - i + rows] for i in range(1, lag + 1)]
        if ntrend >= 1:
            cols.append(np.ones(rows))
        if ntrend == 2:
            cols.append(np.arange(1.0, rows + 1.0))
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
    try:
        xtx_inv = np.linalg.inv(x.T @ x)
    except np.linalg.LinAlgError:
        raise DegenerateDataError("singular refit") from None
    beta = xtx_inv @ (x.T @ resp)
    resid = resp - x @ beta
    var0 = float(resid @ resid) / (nobs - k) * xtx_inv[0, 0]
    if var0 <= 0:
        raise DegenerateDataError("zero residual variance")
    stat = float(beta[0] / math.sqrt(var0))
    return AdfResult(
        statistic=stat,
        pvalue=mackinnon_pvalue(stat, regression),
        used_lag=best_lag,
        nobs=resp.size,
        regression=regression,
    )
