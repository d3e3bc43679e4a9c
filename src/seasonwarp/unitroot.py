"""Augmented Dickey-Fuller unit-root test with AIC lag selection.

The regression is Delta y_t = [trend terms] + gamma * y_{t-1}
+ sum_i beta_i * Delta y_{t-i} + e_t and the test statistic is the t-ratio
of gamma-hat.  P-values come from the MacKinnon (1994) response-surface
approximation for the single-series case.

The lag search prices every candidate from one factorisation: with the trend
terms first, each candidate lag's design is a column prefix of the maxlag
design, so one QR of that design with the response appended yields every
candidate's SSR.  Only the chosen lag is refit, for its t-ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataIntegrityError, DegenerateDataError, InsufficientDataError

REGRESSIONS = ("n", "c", "ct")

# MacKinnon (1994) response-surface coefficients, single-series case.
# Outside [tau_lo, tau_hi] the p-value saturates at 0 or 1; below tau_star
# the small-p polynomial applies, above it the large-p one.  Polynomials are
# in ascending powers of the test statistic and feed a standard-normal CDF.
_MACKINNON = {
    "n": {
        "star": -1.04,
        "lo": -19.04,
        "hi": math.inf,
        "small": (0.6344, 1.2378, 0.032496),
        "large": (0.4797, 0.93557, -0.06999, 0.033066),
    },
    "c": {
        "star": -1.61,
        "lo": -18.83,
        "hi": 2.74,
        "small": (2.1659, 1.4412, 0.038269),
        "large": (1.7339, 0.93202, -0.12745, -0.010368),
    },
    "ct": {
        "star": -2.89,
        "lo": -16.18,
        "hi": 0.7,
        "small": (3.2512, 1.6047, 0.049588),
        "large": (2.5261, 0.61654, -0.37956, -0.060285),
    },
}


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def mackinnon_pvalue(statistic: float, regression: str = "c") -> float:
    """Approximate asymptotic p-value for an ADF t-statistic."""
    if regression not in REGRESSIONS:
        raise ValueError(f"regression must be one of {REGRESSIONS}, got {regression!r}")
    table = _MACKINNON[regression]
    if statistic > table["hi"]:
        return 1.0
    if statistic < table["lo"]:
        return 0.0
    coef = table["small"] if statistic <= table["star"] else table["large"]
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

    @property
    def reject_at_5pct(self) -> bool:
        return self.pvalue < 0.05


def _ols_tstat0(x: np.ndarray, y: np.ndarray) -> float:
    """t-stat of the first coefficient of an OLS fit of y on x."""
    nobs, k = x.shape
    if nobs <= k:
        raise InsufficientDataError(
            f"ADF regression needs more observations ({nobs}) than regressors ({k})"
        )
    xtx = x.T @ x
    try:
        xtx_inv = np.linalg.inv(xtx)
    except np.linalg.LinAlgError:
        raise DegenerateDataError(
            "singular ADF regression; series may be constant"
        ) from None
    beta = xtx_inv @ (x.T @ y)
    resid = y - x @ beta
    ssr = float(resid @ resid)
    sigma2 = ssr / (nobs - k)
    var0 = sigma2 * xtx_inv[0, 0]
    if var0 <= 0:
        raise DegenerateDataError("degenerate ADF regression; zero residual variance")
    return float(beta[0] / math.sqrt(var0))


def _prefix_ssr(v: np.ndarray, dy: np.ndarray, maxlag: int, ntrend: int) -> np.ndarray:
    """SSR of every column prefix of the maxlag design on its common sample.

    Columns are [trend terms, y_{t-1}, Delta y_{t-1} .. Delta y_{t-maxlag}],
    so lag L is the first ntrend + 1 + L of them.  Entry k of the result is
    the k-column prefix's SSR: the tail sum sum_{i>=k} R[i, K]^2 of the last
    column of R from one QR of [design | response].  Entry 0 is the
    response's own sum of squares.
    """
    rows = dy.size - maxlag
    ncols = ntrend + 1 + maxlag
    aug = np.empty((rows, ncols + 1))
    if ntrend >= 1:
        aug[:, 0] = 1.0
    if ntrend == 2:
        aug[:, 1] = np.arange(1.0, rows + 1.0)
    aug[:, ntrend] = v[maxlag : maxlag + rows]
    for i in range(1, maxlag + 1):
        aug[:, ntrend + i] = dy[maxlag - i : maxlag - i + rows]
    aug[:, ncols] = dy[maxlag:]
    try:
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
    return ssr


def _design(y: np.ndarray, dy: np.ndarray, lag: int, trim: int, regression: str):
    """Design matrix and response for the refit of the chosen lag.

    Columns: y_{t-1}, then the `lag` differenced lags, then the trend terms,
    so the first coefficient is gamma.
    """
    n = dy.size
    rows = n - trim
    resp = dy[trim:]
    cols = [y[trim : trim + rows]]
    for i in range(1, lag + 1):
        cols.append(dy[trim - i : trim - i + rows])
    if regression in ("c", "ct"):
        cols.append(np.ones(rows))
    if regression == "ct":
        cols.append(np.arange(1.0, rows + 1.0))
    return np.column_stack(cols), resp


def adf_test(
    values: np.ndarray | list[float],
    regression: str = "c",
    maxlag: int | None = None,
) -> AdfResult:
    """ADF test with the lag order chosen by AIC.

    The default lag ceiling is floor(12 * (n/100)^0.25).  Candidate lags
    0..maxlag are compared on the common sample trimmed at maxlag using
    AIC = n*log(SSR/n) + 2k (ties go to the smaller lag), then the winner is
    refit on its own full sample.  All candidate SSRs come from one QR of the
    maxlag design (see `_prefix_ssr`).  DegenerateDataError is raised when a
    candidate design is rank-deficient by lstsq's rule (sigma_min <=
    sigma_max * max(M, N) * eps).  One check on the maxlag design covers every
    candidate: each is a column subset of it, so its sigma_min is no smaller
    and its tolerance no larger.  It is also raised when the regressors fit
    the differences exactly (SSR at rounding level, where log(SSR) is void).
    """
    if regression not in REGRESSIONS:
        raise ValueError(f"regression must be one of {REGRESSIONS}, got {regression!r}")
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d sample, got shape {v.shape}")
    # LAPACK reports non-finite input on stderr before failing: reject it here.
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise DataIntegrityError(
            f"ADF test needs finite values; got {v[bad[0]]} at index {bad[0]}"
        )
    n = v.size
    if n < 2:
        raise InsufficientDataError(f"ADF test needs >= 2 observations, got {n}")
    if np.ptp(v) == 0.0:
        raise DegenerateDataError("ADF test undefined for a constant series")

    ntrend = {"n": 0, "c": 1, "ct": 2}[regression]
    if maxlag is None:
        maxlag = int(12.0 * (n / 100.0) ** 0.25)
    ceiling = (n - 1) // 2 - ntrend - 1
    maxlag = max(0, min(maxlag, ceiling))

    dy = np.diff(v)
    # Select the lag on the maxlag-trimmed common sample so every candidate
    # sees identical observations, then refit the winner on its full sample.
    rows = dy.size - maxlag
    if rows < 20:
        raise InsufficientDataError(
            "ADF test needs >= 20 observations after differencing and lag "
            f"trimming, got {rows}"
        )
    ssr = _prefix_ssr(v, dy, maxlag, ntrend)
    best_lag = 0
    best_aic = math.inf
    for lag in range(maxlag + 1):
        k = ntrend + 1 + lag
        aic = rows * math.log(ssr[k] / rows) + 2 * k
        if aic < best_aic:
            best_aic = aic
            best_lag = lag

    x, resp = _design(v, dy, best_lag, best_lag, regression)
    stat = _ols_tstat0(x, resp)
    return AdfResult(
        statistic=stat,
        pvalue=mackinnon_pvalue(stat, regression),
        used_lag=best_lag,
        nobs=resp.size,
        regression=regression,
    )
