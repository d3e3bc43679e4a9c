import json
import math
import re
import warnings

import numpy as np
import pytest

from _oracles import moments_oracle, quantile_oracle
from seasonwarp.cleaning import MAX_CELL
from seasonwarp.descriptive import (
    central_moments,
    describe,
    jarque_bera,
    moments,
    quantile,
)
from seasonwarp.errors import DataIntegrityError, DegenerateDataError, InsufficientDataError
from seasonwarp.report import to_json
from seasonwarp.series import Variable


def products_moments(values) -> tuple[float, float, float, float, float]:
    """`central_moments` written out value by value: each power of a
    deviation d is a product of Python floats, d*d, (d*d)*d and
    (d*d)*(d*d), and numpy sums them as `central_moments` does."""
    v = np.asarray(values, dtype=float)
    mean = float(np.mean(v))
    ds = (v - mean).tolist()
    ss = float(np.sum([d * d for d in ds]))
    m3 = float(np.mean([d * d * d for d in ds]))
    m4 = float(np.mean([(d * d) * (d * d) for d in ds]))
    return mean, ss, ss / v.size, m3, m4


def skewness(values) -> float:
    return moments(values)[2]


def excess_kurtosis(values) -> float:
    return moments(values)[3]


class TestQuantile:
    def test_worked_example(self):
        v = [1.0, 2.0, 3.0, 4.0]
        assert quantile(v, 0.25) == 1.75
        assert quantile(v, 0.5) == 2.5
        assert quantile(v, 0.75) == 3.25

    def test_endpoints_are_min_and_max(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=37)
        assert quantile(v, 0.0) == v.min()
        assert quantile(v, 1.0) == v.max()

    def test_order_invariance(self):
        v = [9.0, 1.0, 5.0, 3.0, 7.0]
        assert quantile(v, 0.5) == 5.0
        assert quantile(sorted(v), 0.5) == 5.0

    def test_singleton(self):
        assert quantile([42.0], 0.73) == 42.0

    def test_matches_rank_interpolation_oracle_exactly(self):
        rng = np.random.default_rng(1)
        qs = np.linspace(0.0, 1.0, 101)
        for n in range(1, 9):
            for _ in range(40):
                v = rng.uniform(-1000, 1000, size=n)
                for q in qs:
                    assert quantile(v, float(q)) == quantile_oracle(v, float(q))

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            quantile([1.0, 2.0], 1.5)
        with pytest.raises(ValueError):
            quantile([1.0, 2.0], -0.1)

    def test_empty_sample(self):
        with pytest.raises(InsufficientDataError):
            quantile([], 0.5)


class TestMoments:
    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(2)
        for k in range(1001):
            # The last sample is as long as a stats-long column.
            n = int(rng.integers(4, 500)) if k < 1000 else 15_600
            scale = 10.0 ** rng.integers(-2, 5)
            v = rng.normal(loc=rng.uniform(-5, 5) * scale, scale=scale, size=n)
            got = moments(v)
            want = moments_oracle(v)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-10, abs=1e-12)

    def test_central_moments_are_products(self):
        rng = np.random.default_rng(23)
        for scale in (1e-3, 1.0, 1e6, 1e20, 1e45, 1e70):
            for n in (8, 9, 57, 600, 4097, 16_000):
                v = rng.lognormal(rng.uniform(-2, 2), rng.uniform(0.1, 1.5), size=n) * scale
                assert central_moments(v) == products_moments(v)

    @pytest.mark.parametrize("n", [8, 16_000])
    def test_fourth_powers_finite_up_to_max_cell(self, n):
        # One cell at MAX_CELL among zeros puts a deviation near MAX_CELL;
        # alternating cells put every deviation at MAX_CELL / 2.
        for v in ([0.0] * (n - 1) + [MAX_CELL], [0.0, MAX_CELL] * (n // 2)):
            got = central_moments(v)
            assert all(map(math.isfinite, got))
            assert got == products_moments(v)
            s = describe(v)
            assert math.isfinite(s.skewness) and math.isfinite(s.excess_kurtosis)
        assert s.excess_kurtosis == pytest.approx(-2.0, abs=1e-12)

    def test_std_equals_numpy_ddof1(self):
        # The std comes from the moment pass's sum of squared deviations,
        # bit-equal to numpy's own two-pass std.
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(8, 16000)) if rng.random() < 0.1 else int(rng.integers(8, 600))
            scale = 10.0 ** rng.integers(-3, 6)
            v = rng.lognormal(rng.uniform(-2, 2), rng.uniform(0.1, 1.5), size=n) * scale
            want = float(np.std(v, ddof=1))
            assert moments(v)[1] == want
            assert describe(v).std == want

    def test_skewness_translation_invariant(self):
        rng = np.random.default_rng(3)
        v = rng.gamma(2.0, size=200)
        assert skewness(v + 1e6) == pytest.approx(skewness(v), rel=1e-6)

    def test_skewness_scale_invariant_and_sign_flips(self):
        rng = np.random.default_rng(4)
        v = rng.gamma(2.0, size=200)
        assert skewness(3.0 * v) == pytest.approx(skewness(v), rel=1e-12)
        assert skewness(-v) == pytest.approx(-skewness(v), rel=1e-12)

    def test_kurtosis_of_two_point_mass_is_minus_two(self):
        # Symmetric Bernoulli has m4/m2^2 = 1, the theoretical minimum.
        v = [1.0, -1.0] * 50
        assert excess_kurtosis(v) == pytest.approx(-2.0, abs=1e-12)

    def test_symmetric_sample_has_zero_skew(self):
        v = [-3.0, -1.0, 0.0, 1.0, 3.0]
        assert skewness(v) == 0.0

    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateDataError):
            moments([5.0, 5.0, 5.0, 5.0])
        with pytest.raises(DegenerateDataError):
            skewness([5.0] * 10)

    def test_short_sample(self):
        with pytest.raises(InsufficientDataError):
            moments([1.0, 2.0, 3.0])


class TestJarqueBera:
    def test_closed_form_example(self):
        # Force S = 1 and K = 1 by construction is fiddly; instead verify the
        # formula against the component functions on a real sample.
        rng = np.random.default_rng(5)
        v = rng.lognormal(size=100)
        jb, p = jarque_bera(v)
        s, k = skewness(v), excess_kurtosis(v)
        assert jb == pytest.approx(100 / 6 * (s**2 + k**2 / 4), rel=1e-12)
        assert p == pytest.approx(math.exp(-jb / 2), rel=1e-12)

    def test_chi2_survival_at_known_points(self):
        # For chi-squared with 2 dof, sf(x) = exp(-x/2).
        rng = np.random.default_rng(6)
        v = rng.normal(size=5000)
        jb, p = jarque_bera(v)
        assert 0.0 < p <= 1.0
        assert p == pytest.approx(math.exp(-jb / 2.0), rel=1e-12)

    def test_heavy_tails_reject(self):
        rng = np.random.default_rng(7)
        v = rng.standard_t(df=2, size=2000)
        _, p = jarque_bera(v)
        assert p < 1e-6

    def test_short_sample(self):
        with pytest.raises(InsufficientDataError):
            jarque_bera([1.0] * 7)


class TestDescribe:
    def test_agrees_with_component_functions(self):
        rng = np.random.default_rng(8)
        v = rng.uniform(10, 90, size=321)
        s = describe(v)
        mean, std, skew, kurt = moments(v)
        assert s.count == 321
        assert s.mean == pytest.approx(mean, rel=1e-14)
        assert s.std == pytest.approx(std, rel=1e-14)
        assert s.cv_percent == pytest.approx(100 * std / mean, rel=1e-14)
        assert s.skewness == pytest.approx(skew, rel=1e-14)
        assert s.excess_kurtosis == pytest.approx(kurt, rel=1e-14)
        assert s.minimum == v.min()
        assert s.maximum == v.max()
        assert s.p25 == quantile(v, 0.25)
        assert s.median == quantile(v, 0.5)
        assert s.p75 == quantile(v, 0.75)
        assert (s.jarque_bera, s.jarque_bera_p) == jarque_bera(v)

    def test_accepts_weekly_series(self, cleaned42):
        series, _ = cleaned42[Variable.ARRIVALS]
        s = describe(series)
        assert s.count == 782
        assert s.mean == pytest.approx(float(np.mean(series.values())), rel=1e-14)

    def test_cv_is_percent(self):
        v = [90.0, 100.0, 110.0] * 10
        s = describe(v)
        assert s.cv_percent == pytest.approx(100.0 * s.std / 100.0, rel=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        s = describe(rng.normal(50, 5, size=64))
        assert json.loads(to_json(s)) == {
            "count": 64,
            "mean": s.mean,
            "std": s.std,
            "cv_percent": s.cv_percent,
            "skewness": s.skewness,
            "excess_kurtosis": s.excess_kurtosis,
            "minimum": s.minimum,
            "p25": s.p25,
            "median": s.median,
            "p75": s.p75,
            "maximum": s.maximum,
            "jarque_bera": s.jarque_bera,
            "jarque_bera_p": s.jarque_bera_p,
        }

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateDataError):
            describe([3.0] * 20)
        with pytest.raises(DegenerateDataError):
            describe([-1.0, 1.0] * 10)
        with pytest.raises(InsufficientDataError):
            describe([1.0, 2.0, 3.0])

    def test_one_moment_pass_and_one_sort(self, monkeypatch):
        import seasonwarp.descriptive as descriptive

        rng = np.random.default_rng(11)
        v = rng.lognormal(3.0, 0.4, size=517)
        calls = {"moments": 0, "sort": 0}
        real_moments, real_sort = descriptive.central_moments, np.sort

        def counting_moments(values):
            calls["moments"] += 1
            return real_moments(values)

        def counting_sort(a, *args, **kwargs):
            calls["sort"] += 1
            return real_sort(a, *args, **kwargs)

        monkeypatch.setattr(descriptive, "central_moments", counting_moments)
        monkeypatch.setattr(np, "sort", counting_sort)
        s = describe(v)
        assert calls == {"moments": 1, "sort": 1}
        monkeypatch.undo()
        # Bit-identical to the standalone functions, not just close.
        assert s.skewness == skewness(v)
        assert s.excess_kurtosis == excess_kurtosis(v)
        assert (s.p25, s.median, s.p75) == tuple(quantile(v, q) for q in (0.25, 0.5, 0.75))
        assert (s.jarque_bera, s.jarque_bera_p) == jarque_bera(v)
        assert s.mean == moments(v)[0]
        assert s.std == moments(v)[1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("what, entry", [
    ("describe", describe),
    ("moments", moments),
    ("Jarque-Bera", jarque_bera),
    ("quantile", lambda v: quantile(v, 0.5)),
], ids=["describe", "moments", "jarque_bera", "quantile"])
def test_non_finite_value_named(what, entry, bad):
    # Without the check, describe gave nan moments beside finite quartiles,
    # and quantile read a nan as the largest value.
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, bad, 9.0, 10.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataIntegrityError,
                           match=rf"^{what} needs finite values; got {bad} at index 7$"):
            entry(values)


@pytest.mark.parametrize("values", [[[3.0, 1.0], [2.0, 4.0]], np.arange(20.0).reshape(4, 5), 5.0])
@pytest.mark.parametrize("entry", [describe, lambda v: quantile(v, 0.5)],
                         ids=["describe", "quantile"])
def test_sample_must_be_1d(entry, values):
    # np.sort sorts each row of a matrix, so its order statistics were read
    # by a flat rank into the rows: an IndexError, or a wrong value.
    shape = np.shape(values)
    with pytest.raises(ValueError, match=rf"^expected a 1-d sample, got shape {re.escape(str(shape))}$"):
        entry(values)
