"""Exception hierarchy shared across the toolkit.

Everything raised on bad *data* derives from :class:`MarketDataError` so the
CLI can map it to exit code 2.  Programming mistakes (bad flag values, out of
range parameters) raise plain ``ValueError``/``TypeError`` as usual.
"""

import numpy as np


class MarketDataError(Exception):
    """Base class for all data-level failures."""


class DataIntegrityError(MarketDataError):
    """Structurally broken input: duplicate weeks, malformed rows, missing weeks."""


def check_finite(v: np.ndarray, what: str) -> None:
    """Name v's first non-finite value and its index: ``<what> needs finite
    values; got nan at index 3``, or ``at index 0, 1`` in a matrix."""
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        at = ", ".join(map(str, np.unravel_index(bad[0], v.shape)))
        raise DataIntegrityError(f"{what} needs finite values; got {v.flat[bad[0]]} at index {at}")


def finite_sample(values, what: str) -> np.ndarray:
    """values as a 1-d float64 array whose values `check_finite` has checked;
    any other shape is a ``ValueError``, raised first."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d sample, got shape {v.shape}")
    check_finite(v, what)
    return v


class SchemaError(DataIntegrityError):
    """CSV header does not contain a configured column."""


class InsufficientDataError(MarketDataError):
    """Too few observations for the requested computation."""


class DegenerateDataError(MarketDataError):
    """Numerically degenerate input: zero variance, singular regressors."""


class NoValidPathError(MarketDataError):
    """Sakoe-Chiba band too narrow to connect the corners of the cost matrix."""
