import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import adf_oracle, adf_tratio_exact
import seasonwarp
from seasonwarp.errors import DataIntegrityError, DegenerateDataError, InsufficientDataError
from seasonwarp.report import to_json
from seasonwarp.series import Variable, log_diff
from seasonwarp.unitroot import BLOCK_ROWS, AdfResult, _prefix_ssr, adf_test, mackinnon_pvalue


class TestMackinnonPvalue:
    def test_canonical_critical_values(self):
        # The textbook 1%/5%/10% critical values are rounded to 2 decimals,
        # so the recovered p-values are good to about a part in a thousand.
        assert mackinnon_pvalue(-3.43, "c") == pytest.approx(0.01, abs=1e-3)
        assert mackinnon_pvalue(-2.86, "c") == pytest.approx(0.05, abs=1e-3)
        assert mackinnon_pvalue(-2.57, "c") == pytest.approx(0.10, abs=1e-3)

    def test_trend_case_critical_values(self):
        assert mackinnon_pvalue(-3.96, "ct") == pytest.approx(0.01, abs=1e-3)
        assert mackinnon_pvalue(-3.41, "ct") == pytest.approx(0.05, abs=1e-3)

    def test_no_constant_case_critical_values(self):
        assert mackinnon_pvalue(-2.56, "n") == pytest.approx(0.01, abs=1e-3)
        assert mackinnon_pvalue(-1.94, "n") == pytest.approx(0.05, abs=1e-3)

    def test_monotone_decreasing_in_statistic(self):
        for reg in ("n", "c", "ct"):
            grid = np.linspace(-6.0, 1.0, 80)
            ps = [mackinnon_pvalue(float(t), reg) for t in grid]
            assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:])), reg

    def test_saturation_tails(self):
        assert mackinnon_pvalue(-25.0, "c") == 0.0
        assert mackinnon_pvalue(5.0, "c") == 1.0
        assert 0.0 <= mackinnon_pvalue(-1.0, "n") <= 1.0

    def test_bad_regression(self):
        with pytest.raises(ValueError):
            mackinnon_pvalue(-3.0, "ctt")


def _ar1(n, phi, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n, scale=scale)
    y = np.empty(n)
    y[0] = e[0]
    for t in range(1, n):
        y[t] = phi * y[t - 1] + e[t]
    return y


class TestAdfTest:
    def test_stationary_series_rejects(self):
        y = _ar1(400, 0.3, seed=0)
        res = adf_test(y, regression="c")
        assert res.statistic < -5.0
        assert res.pvalue < 0.001
        assert res.reject_at_1pct

    def test_random_walk_not_rejected(self):
        rng = np.random.default_rng(1)
        y = np.cumsum(rng.normal(size=400))
        res = adf_test(y, regression="c")
        assert res.pvalue > 0.01

    def test_constant_shift_invariance_with_constant_term(self):
        # Large offsets worsen the conditioning of the normal equations, so
        # the match is to solver precision rather than exact.
        y = _ar1(300, 0.5, seed=2)
        a = adf_test(y, regression="c")
        b = adf_test(y + 1e4, regression="c")
        assert b.statistic == pytest.approx(a.statistic, rel=1e-6)
        assert b.used_lag == a.used_lag

    def test_linear_trend_invariance_with_trend_term(self):
        y = _ar1(300, 0.5, seed=3)
        t = np.arange(300, dtype=float)
        a = adf_test(y, regression="ct")
        b = adf_test(y + 0.5 * t + 100.0, regression="ct")
        assert b.statistic == pytest.approx(a.statistic, abs=1e-7)

    def test_scale_invariance(self):
        y = _ar1(250, 0.4, seed=4)
        a = adf_test(y, regression="c")
        b = adf_test(1000.0 * y, regression="c")
        assert b.statistic == pytest.approx(a.statistic, abs=1e-8)

    def test_used_lag_within_bounds_and_nobs_consistent(self):
        y = _ar1(200, 0.5, seed=5)
        maxlag = int(12 * (200 / 100) ** 0.25)
        res = adf_test(y, regression="c")
        assert 0 <= res.used_lag <= maxlag
        # Effective sample: n-1 differences minus used_lag trimmed rows.
        assert res.nobs == 200 - 1 - res.used_lag

    def test_explicit_maxlag_zero(self):
        y = _ar1(150, 0.5, seed=6)
        res = adf_test(y, regression="c", maxlag=0)
        assert res.used_lag == 0
        assert res.nobs == 149

    def test_regression_validation(self):
        with pytest.raises(ValueError):
            adf_test(_ar1(100, 0.5, seed=7), regression="bogus")

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            adf_test(np.arange(15, dtype=float), regression="c")

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateDataError):
            adf_test(np.full(50, 3.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_before_lapack(self, capfd, bad):
        # LAPACK prints "On entry to DLASCL ..." for a NaN; none may get there.
        with pytest.raises(DataIntegrityError, match="index 2"):
            adf_test(np.array([0.0, 1.0, bad] * 20))
        assert capfd.readouterr().err == ""

    def test_result_roundtrip(self):
        res = adf_test(_ar1(120, 0.5, seed=8), regression="ct")
        assert json.loads(to_json(res)) == {
            "statistic": res.statistic,
            "pvalue": res.pvalue,
            "used_lag": res.used_lag,
            "nobs": res.nobs,
            "regression": "ct",
        }

    @pytest.mark.parametrize(
        "values, regression, maxlag",
        [
            (np.arange(60.0), "c", None),
            (np.arange(60.0), "n", None),
            (np.arange(60.0), "c", 0),
            (np.tile([1.0, -1.0], 30), "n", None),
            (np.tile([1.0, -1.0], 30), "c", None),
            # Full-rank designs of several blocks that still fit exactly.
            (np.arange(3000.0), "c", 0),
            (np.tile([1.0, -1.0], 1600), "n", 0),
        ],
    )
    def test_exact_fit_is_degenerate(self, values, regression, maxlag):
        # Each has a candidate that fits the differences exactly, where the
        # AIC's log(SSR) is undefined: a data error, not a math ValueError.
        with pytest.raises(DegenerateDataError):
            adf_test(values, regression=regression, maxlag=maxlag)

    def test_fixture_log_price_diff_rejects(self, cleaned42):
        series, _ = cleaned42[Variable.MODAL_PRICE]
        returns = log_diff(series.values())
        res = adf_test(returns, regression="c")
        assert res.statistic == pytest.approx(-11.8099, abs=5e-4)
        assert res.pvalue < 1e-10
        assert res.reject_at_1pct


class TestSizeAndPower:
    # Small Monte Carlo sanity check; the calibrated version with tighter
    # sample counts lives in the acceptance suite.
    def test_power_on_stationary_ar1(self):
        rejections = sum(
            adf_test(_ar1(300, 0.5, seed=100 + i), regression="c").pvalue < 0.01
            for i in range(40)
        )
        assert rejections >= 36

    def test_size_on_random_walks(self):
        false_alarms = 0
        for i in range(40):
            rng = np.random.default_rng(200 + i)
            y = np.cumsum(rng.normal(size=300))
            if adf_test(y, regression="c").pvalue < 0.05:
                false_alarms += 1
        assert false_alarms <= 6


def _ar_series(seed, n, phi, integrated):
    """AR(len(phi)) noise, cumulated once when `integrated`."""
    rng = np.random.default_rng(seed)
    e = rng.normal(size=n)
    y = np.empty(n)
    for t in range(n):
        y[t] = e[t] + sum(c * y[t - 1 - j] for j, c in enumerate(phi) if t - 1 - j >= 0)
    return np.cumsum(y) if integrated else y


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by class against the oracle
        return type(exc)


# adf_test reads the refit off the lag search's R and the oracle refits by
# SVD, so their statistics agree to rounding only.  The largest gap seen on
# random series of 25 to 3,000 points was 4e-11 relative.
STAT_RTOL = 1e-10


def _assert_matches(got, want):
    """`got` agrees with the oracle's `want`: the same error class, or the
    same lag, sample and regression, a statistic within STAT_RTOL and the
    p-value of that statistic."""
    if not isinstance(want, AdfResult):
        assert got == want
        return
    assert isinstance(got, AdfResult), got
    assert (got.used_lag, got.nobs, got.regression) == (want.used_lag, want.nobs, want.regression)
    assert abs(got.statistic - want.statistic) <= STAT_RTOL * abs(want.statistic)
    assert got.pvalue == mackinnon_pvalue(got.statistic, got.regression)


def _three_hundred_year_returns():
    """Weekly log-price returns: a seasonal cycle plus AR(1) noise, 300 years."""
    n = 300 * 52 + 74
    rng = np.random.default_rng(300)
    noise = np.empty(n)
    noise[0] = 0.0
    shocks = rng.normal(0.0, 0.15, n)
    for t in range(1, n):
        noise[t] = 0.6 * noise[t - 1] + shocks[t]
    season = 0.3 * np.sin(2.0 * math.pi * np.arange(n) / 52.1775)
    return np.diff(7.0 + season + noise)


def _seasonal_walk(seed):
    """A random walk of 9.7k to 18.6k weeks plus a yearly sine."""
    rng = np.random.default_rng(seed)
    n = int(math.exp(rng.uniform(math.log(9_700), math.log(18_600))))
    amplitude = rng.uniform(0.5, 20.0)
    season = amplitude * np.sin(2.0 * math.pi * np.arange(n) / 52.1775)
    return np.cumsum(rng.normal(size=n)) + season


class TestAdfMatchesOracle:
    """The one-QR lag search and refit against per-lag lstsq fits and an SVD
    refit."""

    @pytest.mark.parametrize("regression", ["n", "c", "ct"])
    @pytest.mark.parametrize(
        "seed, n, phi, integrated",
        [
            (11, 25, (0.5,), False),
            (12, 60, (0.5,), False),
            (13, 250, (0.9,), False),
            (14, 3000, (0.3,), False),
            (15, 80, (0.4, -0.3, 0.2), False),
            (16, 700, (0.5, 0.2, -0.1), False),
            (17, 40, (), True),
            (18, 400, (), True),
            (19, 1500, (0.3,), True),
        ],
    )
    def test_seeded_series(self, regression, seed, n, phi, integrated):
        y = _ar_series(seed, n, phi, integrated)
        # A ceiling-clipped maxlag on a short series may leave too few rows;
        # both must then raise the same error.
        for maxlag in (None, 0, 4, 10**6 if n <= 80 else 9):
            _assert_matches(_outcome(adf_test, y, regression, maxlag),
                            _outcome(adf_oracle, y, regression, maxlag))
        assert isinstance(adf_test(y, regression=regression, maxlag=0), AdfResult)

    @pytest.mark.parametrize("regression", ["n", "c", "ct"])
    def test_fixture_returns(self, cleaned42, regression):
        series, _ = cleaned42[Variable.MODAL_PRICE]
        returns = log_diff(series.values())
        _assert_matches(adf_test(returns, regression=regression), adf_oracle(returns, regression))

    def test_three_hundred_year_returns(self):
        returns = _three_hundred_year_returns()
        got = adf_test(returns, regression="c")
        assert got.used_lag > 0
        _assert_matches(got, adf_oracle(returns, "c"))

    def test_near_zero_statistic_of_a_seasonal_walk(self):
        # 11,309 points, lag 36 of 39, statistic 0.025: a refit by SVD of
        # the raw columns was 1.8e-10 off the exact t-ratio here (unit-norm
        # columns: 2e-13), so this pins both sides to the exact value.
        y = _seasonal_walk(30)
        got, want = adf_test(y, "n"), adf_oracle(y, "n")
        _assert_matches(got, want)
        exact = adf_tratio_exact(y, "n", got.used_lag)
        for statistic in (got.statistic, want.statistic):
            assert abs(statistic - exact) <= STAT_RTOL * abs(exact)

    @pytest.mark.parametrize("regression, first_deficient", [("n", 3), ("c", 2), ("ct", 2)])
    def test_deficient_only_above_some_lag(self, regression, first_deficient):
        # Differences that follow a second-order recurrence up to the last
        # one: the lags become collinear with each other (and with the
        # level) only from `first_deficient` lags on, and the lower lags
        # still fit with a nonzero residual.
        dy = np.cos(0.7 * np.arange(200.0))
        dy[-1] += 1.0
        y = np.concatenate([[5.0], 5.0 + np.cumsum(dy)])
        below = adf_test(y, regression=regression, maxlag=first_deficient - 1)
        _assert_matches(below, adf_oracle(y, regression, first_deficient - 1))
        for maxlag in (first_deficient, None):
            with pytest.raises(DegenerateDataError):
                adf_oracle(y, regression, maxlag)
            with pytest.raises(DegenerateDataError):
                adf_test(y, regression=regression, maxlag=maxlag)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(25, 300),
        phi=st.lists(st.floats(-0.9, 0.9), max_size=3),
        integrated=st.booleans(),
        regression=st.sampled_from(["n", "c", "ct"]),
        maxlag=st.one_of(st.none(), st.integers(0, 60)),
    )
    def test_property(self, seed, n, phi, integrated, regression, maxlag):
        # Dividing by the order keeps sum(|phi|) < 1, a stationary AR part.
        y = _ar_series(seed, n, [c / len(phi) for c in phi], integrated)
        _assert_matches(_outcome(adf_test, y, regression, maxlag),
                        _outcome(adf_oracle, y, regression, maxlag))


def _one_qr_ssr(y, dy, maxlag, regression):
    """`_prefix_ssr` by one QR of the whole stacked [design | response]."""
    rows = dy.size - maxlag
    cols = [np.ones(rows)] if regression in ("c", "ct") else []
    if regression == "ct":
        cols.append(np.arange(1.0, rows + 1.0))
    cols.append(y[maxlag : maxlag + rows])
    cols += [dy[maxlag - i : maxlag - i + rows] for i in range(1, maxlag + 1)]
    r = np.linalg.qr(np.column_stack((*cols, dy[maxlag:])), mode="r")
    return np.cumsum(r[::-1, -1] ** 2)[::-1]


class TestBlockedLagSearch:
    """The lag search factors the maxlag design BLOCK_ROWS rows at a time."""

    @pytest.mark.parametrize("regression", ["n", "c", "ct"])
    @pytest.mark.parametrize(
        "rows",
        [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS, 3 * BLOCK_ROWS + 17],
    )
    def test_block_boundaries(self, rows, regression):
        maxlag = 8
        y = _ar_series(rows, rows + maxlag + 1, (0.5, -0.2), rows % 2 == 1)
        dy = np.diff(y)
        got, _ = _prefix_ssr(y, dy, maxlag, regression)
        np.testing.assert_allclose(got, _one_qr_ssr(y, dy, maxlag, regression), rtol=1e-12)
        for lag in (None, maxlag):
            _assert_matches(adf_test(y, regression, lag), adf_oracle(y, regression, lag))

    @pytest.mark.parametrize("regression", ["n", "c", "ct"])
    def test_refit_adds_the_trimmed_rows(self, regression):
        # AR(2) differences take lag 2 of a ceiling of 40, so the refit
        # stacks the 38 rows the search trimmed under an R built from three
        # blocks; under ct those rows carry trend values at and below 0.
        y = _ar_series(21, 3 * BLOCK_ROWS, (0.5, -0.2), True)
        got = adf_test(y, regression, 40)
        assert got.used_lag < 10
        _assert_matches(got, adf_oracle(y, regression, 40))

    @pytest.mark.parametrize("regression", ["n", "c", "ct"])
    def test_rank_deficient_over_several_blocks(self, regression):
        # The collinear lags of `test_deficient_only_above_some_lag`, on
        # 3,000 rows: the rank rule reads the final R of the block stream.
        dy = np.cos(0.7 * np.arange(3000.0))
        dy[-1] += 1.0
        y = np.concatenate([[5.0], 5.0 + np.cumsum(dy)])
        with pytest.raises(DegenerateDataError):
            adf_oracle(y, regression)
        with pytest.raises(DegenerateDataError, match="singular"):
            adf_test(y, regression=regression)

    @pytest.mark.parametrize("rows", [15_609, 62_000])
    def test_memory_does_not_grow_with_rows(self, rows):
        # The whole ct design with the response is 15,609 x 46 (5.7 MB) at
        # 15,609 rows; the search holds one block with R (about 0.4 MB) and
        # its QR copies, whatever the number of rows.  The refit adds only
        # the rows the search trimmed, and adf_test the differences.
        maxlag = int(12.0 * (rows / 100.0) ** 0.25)
        y = _ar_series(rows, rows + maxlag + 1, (0.5,), False)
        dy = np.diff(y)
        for run in (lambda: _prefix_ssr(y, dy, maxlag, "ct"), lambda: adf_test(y, "ct", maxlag)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000

    def test_memory_of_a_long_lag_refit(self):
        # 300 years of returns choose 42 lags of 42 (AR(1) series above choose
        # 0), so the refit's sample is the search's: a normal-equations refit
        # would stack its 15,630 x 45 design (5.6 MB).
        returns = _three_hundred_year_returns()
        tracemalloc.start()
        try:
            got = adf_test(returns, "ct")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.used_lag == 42
        assert peak < 2_000_000


_STATISTICS_CHILD = """
from seasonwarp.unitroot import adf_test
from test_unitroot import _three_hundred_year_returns
returns = _three_hundred_year_returns()
for regression in ("n", "c", "ct"):
    print(adf_test(returns, regression).statistic.hex())
"""


def test_statistic_does_not_depend_on_blas_threads():
    # The statistic of 15.6k returns, in two processes whose BLAS runs one
    # and two threads: the digits must not depend on how LAPACK splits work.
    src = str(Path(seasonwarp.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).resolve().parent)])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _STATISTICS_CHILD], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        outs.append(proc.stdout.split())
    assert len(outs[0]) == 3
    assert outs[0] == outs[1]
