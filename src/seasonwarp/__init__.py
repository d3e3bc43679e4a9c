"""Weekly commodity market series toolkit.

Cleaning (spline gap fill, IQR outlier flags), descriptive statistics,
ISO-week seasonal indices, ADF unit-root testing, and Dynamic Time Warping
alignment of year slices, with a CLI front end (``seasonwarp``).

Each exported name is read from its module when it is read from the
package (PEP 562): ``import seasonwarp`` imports no module of its own, and
a name is looked up anew on every read, never kept here.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_EXPORTS = {name: module for module, names in {
    "cleaning": "ColumnSchema clean_series parse_market_csv",
    "descriptive": "describe jarque_bera moments quantile",
    "dtw": "DtwOptions Normalization PairSet dtw_align local_distance_matrix mean_cost "
           "rank_pairs rank_summaries",
    "errors": "DataIntegrityError InsufficientDataError MarketDataError",
    "seasonal": "index_weighted_mean seasonal_index",
    "series": "MarketTable Variable WeekKey WeeklySeries build_weekly_series complete_years "
              "log_diff slice_year week_range weeks_in_iso_year",
    "unitroot": "adf_test",
}.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
