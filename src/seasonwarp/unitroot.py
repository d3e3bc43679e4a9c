"""Augmented Dickey-Fuller unit-root test with AIC lag selection.

The regression is Delta y_t = alpha + gamma * y_{t-1}
+ sum_i beta_i * Delta y_{t-i} + e_t, with a constant and no trend, and the
test statistic is the t-ratio of gamma-hat.  P-values come from the
MacKinnon (1994) response-surface approximation for the single-series,
constant-only case.

The test prices every candidate from one triangular factor: with the
constant first, each candidate lag's design is a column prefix of the maxlag
design, so the R of a QR of that design with the response appended yields
every candidate's SSR.  R is built in a stream of row blocks (a TSQR-style
update), so the search never holds the whole maxlag design.  The chosen lag's
refit on its own full sample starts from the same R: its leading block stands
for the common sample, and only the rows the search trimmed are added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError, check_finite

# The one regression: a constant, no trend (MacKinnon's "c" case).
REGRESSION = "c"

# Rows of the maxlag design added per QR step of the lag search, so the search
# holds one block and R, never the whole design, whatever the series length.
# A 15-year weekly series fits in one block, one QR of the whole design.  On a
# 15.6k-row series, heights from 256 to 4,096 timed alike, within noise.
BLOCK_ROWS = 1024

# MacKinnon (1994) response-surface coefficients, single-series constant-only
# case.  Outside [_TAU_LO, _TAU_HI] the p-value saturates at 0 or 1; up to
# _TAU_STAR the small-p polynomial applies, above it the large-p one.
# Polynomials are in ascending powers of the test statistic and feed a
# standard-normal CDF.
_TAU_STAR, _TAU_LO, _TAU_HI = -1.61, -18.83, 2.74
_TAU_SMALLP = (2.1659, 1.4412, 0.038269)
_TAU_LARGEP = (1.7339, 0.93202, -0.12745, -0.010368)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def mackinnon_pvalue(statistic: float) -> float:
    """Approximate asymptotic p-value for an ADF t-statistic of the
    constant-only regression."""
    if statistic > _TAU_HI:
        return 1.0
    if statistic < _TAU_LO:
        return 0.0
    coef = _TAU_SMALLP if statistic <= _TAU_STAR else _TAU_LARGEP
    z = 0.0
    for power, c in enumerate(coef):
        z += c * statistic**power
    return _norm_cdf(z)


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    pvalue: float
    used_lag: int
    nobs: int
    regression: str

    @property
    def reject_at_1pct(self) -> bool:
        return self.pvalue < 0.01


def _fill_rows(out: np.ndarray, v: np.ndarray, dy: np.ndarray, first: int) -> None:
    """Fill `out` with the design rows of the responses Delta y_t, t = first ..

    Columns are [1, y_{t-1}, Delta y_{t-1} .. Delta y_{t-p}, Delta y_t], the
    constant first and the response last, with p lags to fill the width of
    `out`.  Here y_{t-1} is v[t]: `dy` is np.diff(v).
    """
    rows, width = out.shape
    p = width - 3
    out[:, 0] = 1.0
    out[:, 1] = v[first : first + rows]
    windows = np.lib.stride_tricks.sliding_window_view(dy, p + 1)
    lags = windows[first - p : first - p + rows, ::-1]
    out[:, 2:-1] = lags[:, 1:]
    out[:, -1] = lags[:, 0]


def _prefix_ssr(v: np.ndarray, dy: np.ndarray, maxlag: int) -> tuple[np.ndarray, np.ndarray]:
    """SSR of every column prefix of the maxlag design on its common sample,
    and the R it is read from.

    The design is `_fill_rows`'s with maxlag lags on the responses t = maxlag
    .., so lag L is its first 2 + L columns.  Entry k of the SSRs is the
    k-column prefix's: the tail sum sum_{i>=k} R[i, K]^2 of the last column
    of R from a QR of [design | response].  Entry 0 is the response's
    own sum of squares.  R is found block by block: each step factors the
    previous R stacked on the next BLOCK_ROWS rows and keeps only the new R.
    A design of at most BLOCK_ROWS rows is one QR of the whole matrix.
    """
    ncols = 2 + maxlag
    rows = dy.size - maxlag
    r = np.empty((0, ncols + 1))
    try:
        for start in range(0, rows, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, rows)
            aug = np.empty((len(r) + stop - start, ncols + 1))
            aug[: len(r)] = r
            _fill_rows(aug[len(r) :], v, dy, maxlag + start)
            r = np.linalg.qr(aug, mode="r")
        sv = np.linalg.svd(r[:ncols, :ncols], compute_uv=False)
    except np.linalg.LinAlgError:
        raise DegenerateDataError("singular ADF regression; series may be constant") from None
    # lstsq's rank rule on the design's singular values, read off R.
    eps = np.finfo(float).eps
    if not sv[-1] > sv[0] * max(rows, ncols) * eps:
        raise DegenerateDataError("singular ADF regression; series may be constant")
    ssr = np.cumsum(r[::-1, ncols] ** 2)[::-1]
    if not ssr[ncols] > (rows * eps) ** 2 * ssr[0]:
        raise DegenerateDataError("degenerate ADF regression; the lags fit exactly")
    return ssr, r


def _gamma_tratio(
    v: np.ndarray, dy: np.ndarray, r: np.ndarray, ssr: np.ndarray, lag: int, maxlag: int
) -> float:
    """t-ratio of gamma-hat with `lag` lags on its own full sample.

    With k = 2 + lag, [[R[:k, :k], R[:k, -1]], [0, sqrt(ssr[k])]] from the
    search's R has the Gram matrix of the lag's [design | response] on the
    common sample.  Stacked on the maxlag - lag rows the search trimmed
    (t = lag ..) and factored once, it gives the full-sample fit's R'.  With
    y_{t-1} moved last among the regressors, gamma-hat is R'[k-1, k] /
    R'[k-1, k-1] and its standard error s / |R'[k-1, k-1]|, where s =
    |R'[k, k]| / sqrt(nobs - k), so the ratio needs no solve (and s no
    power, which would call the libm's `pow`).
    """
    k = 2 + lag
    stack = np.zeros((k + 1 + maxlag - lag, k + 1))
    stack[:k, :k] = r[:k, :k]
    stack[:k, k] = r[:k, -1]
    stack[k, k] = math.sqrt(ssr[k])
    _fill_rows(stack[k + 1 :], v, dy, lag)
    order = [0, *range(2, k), 1, k]
    rr = np.linalg.qr(stack[:, order], mode="r")
    s = abs(rr[k, k]) / math.sqrt(dy.size - lag - k)
    return float(rr[k - 1, k] * np.sign(rr[k - 1, k - 1]) / s)


def adf_test(values: np.ndarray | list[float], maxlag: int | None = None) -> AdfResult:
    """ADF test of the constant-only regression with the lag order chosen
    by AIC.

    The default lag ceiling is floor(12 * (n/100)^0.25).  Candidate lags
    0..maxlag are compared on the common sample trimmed at maxlag using
    AIC = n*log(SSR/n) + 2k (ties go to the smaller lag), then the winner's
    t-ratio is taken on its own full sample.  All candidate SSRs come from
    the R of one QR of the maxlag design, built in row blocks (see
    `_prefix_ssr`), and the winner's fit from the same R with the trimmed
    rows added (see `_gamma_tratio`).  DegenerateDataError is raised when a
    candidate design is rank-deficient by lstsq's rule (sigma_min <=
    sigma_max * max(M, N) * eps).  One check on the maxlag design covers
    every candidate: each is a column subset of it, so its sigma_min is no
    smaller and its tolerance no larger.  It is also raised when the
    regressors fit the differences exactly (SSR at rounding level, where
    log(SSR) is void).  The winner's full-sample fit needs no check of its
    own: it has more rows, so its sigma_min and SSR are no smaller.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d sample, got shape {v.shape}")
    # LAPACK reports non-finite input on stderr before failing: reject it here.
    check_finite(v, "ADF test")
    n = v.size
    if n < 2:
        raise InsufficientDataError(f"ADF test needs >= 2 observations, got {n}")
    if np.ptp(v) == 0.0:
        raise DegenerateDataError("ADF test undefined for a constant series")

    if maxlag is None:
        maxlag = int(12.0 * (n / 100.0) ** 0.25)
    ceiling = (n - 1) // 2 - 2
    maxlag = max(0, min(maxlag, ceiling))

    dy = np.diff(v)
    # Select the lag on the maxlag-trimmed common sample so every candidate
    # sees identical observations, then fit the winner on its full sample.
    rows = dy.size - maxlag
    if rows < 20:
        raise InsufficientDataError(
            "ADF test needs >= 20 observations after differencing and lag "
            f"trimming, got {rows}"
        )
    ssr, r = _prefix_ssr(v, dy, maxlag)
    best_lag = 0
    best_aic = math.inf
    for lag in range(maxlag + 1):
        k = 2 + lag
        aic = rows * math.log(ssr[k] / rows) + 2 * k
        if aic < best_aic:
            best_aic = aic
            best_lag = lag

    stat = _gamma_tratio(v, dy, r, ssr, best_lag, maxlag)
    return AdfResult(
        statistic=stat,
        pvalue=mackinnon_pvalue(stat),
        used_lag=best_lag,
        nobs=dy.size - best_lag,
        regression=REGRESSION,
    )
