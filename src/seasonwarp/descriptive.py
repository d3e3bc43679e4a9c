"""Descriptive statistics for weekly series: quantiles, moments, normality."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError, finite_sample


def quantile(values: np.ndarray | list[float], q: float) -> float:
    """Quantile by linear interpolation between order statistics.

    With sorted values v[0..n-1], the level-q quantile sits at fractional
    rank h = (n-1)*q and equals v[floor(h)] + (h - floor(h)) *
    (v[floor(h)+1] - v[floor(h)]).  Computed literally in that form so exact
    equality against a rank-interpolation reference holds.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    v = finite_sample(values, "quantile")
    if v.size == 0:
        raise InsufficientDataError("quantile of an empty sample")
    return _sorted_quantile(np.sort(v), q)


def _sorted_quantile(v: np.ndarray, q: float) -> float:
    """`quantile` of an already sorted, non-empty sample."""
    n = v.size
    if n == 1:
        return float(v[0])
    h = (n - 1) * q
    lo = math.floor(h)
    frac = h - lo
    if lo + 1 >= n:
        return float(v[n - 1])
    return float(v[lo] + frac * (v[lo + 1] - v[lo]))


def central_moments(
    values: np.ndarray | list[float],
) -> tuple[float, float, float, float, float]:
    """(mean, ss, m2, m3, m4): the sum of squared deviations ss and the
    central moments with 1/n denominators, m2 being ss / n.  The sample std
    sqrt(ss / (n - 1)) is bit-equal to ``np.std(values, ddof=1)``.

    The powers of the deviations d are IEEE products, not ``pow``: sq = d*d,
    then d*sq for m3 and sq*sq for m4, so the moments depend on no libm
    build.  The products overwrite d and sq, so besides the input no more
    than two sample-sized arrays are alive at once."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise InsufficientDataError("moments of an empty sample")
    mean = float(np.mean(v))
    d = v - mean
    sq = d * d
    ss = float(np.sum(sq))
    m3 = float(np.mean(np.multiply(d, sq, out=d)))
    m4 = float(np.mean(np.multiply(sq, sq, out=sq)))
    return mean, ss, ss / v.size, m3, m4


def moments(values: np.ndarray | list[float]) -> tuple[float, float, float, float]:
    """(mean, sample std, skewness, excess kurtosis) in one pass.

    Needs n >= 2 for the std, n >= 3 for skewness, n >= 4 for kurtosis, so
    the full tuple requires n >= 4.  Constant input has a well-defined std
    of 0 but no higher moments.
    """
    v = finite_sample(values, "moments")
    if v.size < 4:
        needed = {0: "mean", 1: "std", 2: "skewness", 3: "kurtosis"}[min(v.size, 3)]
        raise InsufficientDataError(
            f"moments needs >= 4 observations (first unavailable: {needed}), got {v.size}"
        )
    mean, ss, m2, m3, m4 = central_moments(v)
    if m2 == 0.0:
        raise DegenerateDataError(
            "skewness and kurtosis undefined for a constant sample"
        )
    return (mean, math.sqrt(ss / (v.size - 1)), *_shape(m2, m3, m4))


def _shape(m2: float, m3: float, m4: float) -> tuple[float, float]:
    """(skewness, excess kurtosis) from the central moments of a non-constant
    sample, by products, division and sqrt only (m2**1.5 is m2 * sqrt(m2))."""
    return m3 / (m2 * math.sqrt(m2)), m4 / (m2 * m2) - 3.0


def jarque_bera(values: np.ndarray | list[float]) -> tuple[float, float]:
    """(JB statistic, asymptotic p-value).

    JB = n/6 * (S^2 + K^2/4) with moment skewness S and excess kurtosis K;
    the p-value is the chi-squared(2) survival function exp(-JB/2).
    """
    v = finite_sample(values, "Jarque-Bera")
    if v.size < 8:
        raise InsufficientDataError(
            f"Jarque-Bera needs >= 8 observations, got {v.size}"
        )
    _, _, m2, m3, m4 = central_moments(v)
    if m2 == 0.0:
        raise DegenerateDataError("skewness undefined for a constant sample")
    return _jarque_bera(v.size, *_shape(m2, m3, m4))


def _jarque_bera(n: int, s: float, k: float) -> tuple[float, float]:
    jb = n / 6.0 * (s * s + k * k / 4.0)
    return jb, math.exp(-jb / 2.0)


@dataclass(frozen=True)
class DescriptiveSummary:
    """Headline statistics for one variable's values."""

    count: int
    mean: float
    std: float
    cv_percent: float
    skewness: float
    excess_kurtosis: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    jarque_bera: float
    jarque_bera_p: float


def describe(data) -> DescriptiveSummary:
    """Full summary of a series or raw values.

    Accepts anything ``np.asarray`` can take, plus objects with a ``values()``
    method (weekly series).  Sample std uses the n-1 denominator; CV is in
    percent of the mean.
    """
    values = data.values() if hasattr(data, "values") and callable(data.values) else data
    v = finite_sample(values, "describe")
    if v.size < 8:
        raise InsufficientDataError(f"describe needs >= 8 observations, got {v.size}")
    mean, ss, m2, m3, m4 = central_moments(v)
    if m2 == 0.0:
        raise DegenerateDataError("describe undefined for a constant sample")
    if mean == 0.0:
        raise DegenerateDataError("coefficient of variation undefined for zero mean")
    std = math.sqrt(ss / (v.size - 1))
    skew, kurt = _shape(m2, m3, m4)
    jb, jb_p = _jarque_bera(v.size, skew, kurt)
    ordered = np.sort(v)
    return DescriptiveSummary(
        count=int(v.size),
        mean=mean,
        std=std,
        cv_percent=100.0 * std / mean,
        skewness=skew,
        excess_kurtosis=kurt,
        minimum=float(np.min(v)),
        p25=_sorted_quantile(ordered, 0.25),
        median=_sorted_quantile(ordered, 0.50),
        p75=_sorted_quantile(ordered, 0.75),
        maximum=float(np.max(v)),
        jarque_bera=jb,
        jarque_bera_p=jb_p,
    )
