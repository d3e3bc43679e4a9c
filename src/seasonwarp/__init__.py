"""Weekly commodity market series toolkit.

Cleaning (spline gap fill, IQR outlier flags), descriptive statistics,
ISO-week seasonal indices, ADF unit-root testing, and Dynamic Time Warping
alignment of year slices, with a CLI front end (``seasonwarp``).
"""

from .cleaning import ColumnSchema, clean_series, parse_market_csv
from .descriptive import describe, jarque_bera, moments, quantile
from .dtw import (
    DtwOptions,
    Normalization,
    PairSet,
    dtw_align,
    local_distance_matrix,
    mean_cost,
    rank_pairs,
    rank_summaries,
)
from .errors import DataIntegrityError, InsufficientDataError, MarketDataError
from .seasonal import index_weighted_mean, seasonal_index
from .series import (
    MarketTable,
    Variable,
    WeekKey,
    WeeklySeries,
    build_weekly_series,
    complete_years,
    log_diff,
    slice_year,
    week_range,
    weeks_in_iso_year,
)
from .unitroot import adf_test

__version__ = "0.1.0"

__all__ = [
    "ColumnSchema",
    "DataIntegrityError",
    "DtwOptions",
    "InsufficientDataError",
    "MarketDataError",
    "MarketTable",
    "Normalization",
    "PairSet",
    "Variable",
    "WeekKey",
    "WeeklySeries",
    "adf_test",
    "build_weekly_series",
    "clean_series",
    "complete_years",
    "describe",
    "dtw_align",
    "index_weighted_mean",
    "jarque_bera",
    "local_distance_matrix",
    "log_diff",
    "mean_cost",
    "moments",
    "parse_market_csv",
    "quantile",
    "rank_pairs",
    "rank_summaries",
    "seasonal_index",
    "slice_year",
    "week_range",
    "weeks_in_iso_year",
]
