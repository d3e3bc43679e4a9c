from __future__ import annotations

import sys
from pathlib import Path

import pytest

# tools/compare_trees.py is a script, not a package module; tests import it.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from seasonwarp.cleaning import ColumnSchema, clean_series, parse_market_csv
from seasonwarp.fixture import generate_fixture
from seasonwarp.series import Variable, build_weekly_series


@pytest.fixture(scope="session")
def fixture42():
    return generate_fixture(seed=42)


@pytest.fixture(scope="session")
def table42(fixture42):
    return parse_market_csv(fixture42.csv_bytes(), ColumnSchema())


@pytest.fixture(scope="session")
def cleaned42(table42):
    out = {}
    for var in Variable:
        series = build_weekly_series(table42, var)
        out[var] = clean_series(series)
    return out
