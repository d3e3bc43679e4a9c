import dataclasses
import json
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seasonwarp.dtw
from _oracles import cumulative_cost_oracle, enum_dtw_min_cost
from seasonwarp.dtw import (
    DtwOptions,
    DtwResult,
    Normalization,
    PairSet,
    backtrack,
    dtw_align,
    local_distance_matrix,
    mean_cost,
    rank_pairs,
    rank_summaries,
    zscore,
)
from seasonwarp.errors import (
    DataIntegrityError,
    DegenerateDataError,
    MarketDataError,
    NoValidPathError,
)
from seasonwarp.report import to_json
from seasonwarp.series import Variable, slice_year


class TestLocalDistanceMatrix:
    def test_scalar_absolute(self):
        d = local_distance_matrix([1.0, 4.0], [2.0, 0.0, 5.0])
        assert d.tolist() == [[1.0, 1.0, 4.0], [2.0, 4.0, 1.0]]

    def test_dimension_mismatch(self):
        # Only 1-d sequences are aligned; vectors of any dimension are not.
        with pytest.raises(ValueError, match=r"^DTW aligns 1-d sequences, got ndim 2 and 2$"):
            local_distance_matrix([[1.0, 2.0]], [[1.0, 2.0, 3.0]])

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            local_distance_matrix([], [1.0])

    def test_symmetry_of_transpose(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=9), rng.normal(size=13)
        assert np.array_equal(
            local_distance_matrix(x, y), local_distance_matrix(y, x).T
        )


def sweep_one(d, band_radius=None):
    """The kernel's cumulative-cost matrix of one local-distance matrix."""
    return seasonwarp.dtw._sweep([np.asarray(d, dtype=float)], band_radius)[0]


class TestSweep:
    def test_two_by_two_by_hand(self):
        # d = [[0, 2], [1, 1]]: gamma = [[0, 2], [1, 1]].
        g = sweep_one([[0.0, 2.0], [1.0, 1.0]])
        assert g.tolist() == [[0.0, 2.0], [1.0, 1.0]]

    def test_first_row_and_column_are_running_sums(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(0, 5, size=(6, 7))
        g = sweep_one(d)
        assert np.allclose(g[0, :], np.cumsum(d[0, :]), atol=1e-12)
        assert np.allclose(g[:, 0], np.cumsum(d[:, 0]), atol=1e-12)

    def test_single_row_is_prefix_sum(self):
        d = [[1.0, 2.0, 3.0]]
        assert sweep_one(d).tolist() == [[1.0, 3.0, 6.0]]

    def test_band_cells_outside_are_infinite(self):
        d = np.ones((5, 5))
        g = sweep_one(d, band_radius=1)
        assert math.isinf(g[0, 2])
        assert math.isinf(g[4, 0])
        assert math.isfinite(g[4, 4])

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_matches_row_scan_oracle(self, data):
        # Integer-valued distances tie often, so the min of equal
        # predecessors is exercised; the band runs from |n - m| to n + m.
        n, m = data.draw(st.one_of(
            st.tuples(st.just(1), st.integers(1, 60)),
            st.tuples(st.integers(1, 60), st.just(1)),
            st.tuples(st.sampled_from((52, 53)), st.sampled_from((52, 53))),
            st.tuples(st.integers(1, 20), st.integers(1, 20)),
        ))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        d = data.draw(st.sampled_from((
            lambda: rng.integers(0, 4, size=(n, m)).astype(float),
            lambda: rng.uniform(0.0, 1e6, size=(n, m)),
            lambda: rng.exponential(size=(n, m)) * 10.0 ** rng.integers(-300, 300),
        )))()
        band = data.draw(st.none() | st.integers(abs(n - m), n + m))
        g = sweep_one(d, band)
        assert g.shape == (n, m)
        assert g.tobytes() == cumulative_cost_oracle(d, band).tobytes()

    def test_negative_zero_distance_reads_as_positive_zero(self):
        # The row scan keeps a -0.0 at the first cell (and adds -0.0 to it
        # along the first row); the sweep starts from a +0.0 corner, so
        # every cell is +0.0 there, as if the distance were +0.0.
        d = np.array([[-0.0, -0.0], [1.0, 0.0]])
        assert np.signbit(cumulative_cost_oracle(d)[0]).all()
        g = sweep_one(d)
        assert not np.signbit(g).any()
        assert g.tobytes() == cumulative_cost_oracle(d + 0.0).tobytes()


class TestBacktrack:
    def test_identical_sequences_take_diagonal(self):
        x = [3.0, 1.0, 4.0, 1.0, 5.0]
        g = sweep_one(local_distance_matrix(x, x))
        path = backtrack(g)
        assert path.steps == tuple((k, k) for k in range(1, 6))

    def test_repeated_element_example(self):
        # x = [1,2,3], y = [1,2,2,3]: the middle 2 aligns to both copies.
        d = local_distance_matrix([1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0])
        g = sweep_one(d)
        path = backtrack(g)
        assert path.steps == ((1, 1), (2, 2), (2, 3), (3, 4))
        assert g[-1, -1] == 0.0

    def test_constant_vs_constant_shorter(self):
        d = local_distance_matrix([0.0, 0.0, 0.0], [1.0, 1.0])
        g = sweep_one(d)
        path = backtrack(g)
        assert g[-1, -1] == 3.0
        assert len(path) == 3

    def test_infinite_terminal_cell_rejected(self):
        g = np.array([[0.0, math.inf], [math.inf, math.inf]])
        with pytest.raises(NoValidPathError):
            backtrack(g)

    def test_path_length_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            d = rng.uniform(0, 3, size=(n, m))
            path = backtrack(sweep_one(d))
            assert max(n, m) <= len(path) <= n + m - 1
            assert path.steps[-1] == (n, m)


# Each public entry called on a bad first sequence x beside a good one.
_ENTRIES = {
    "local_distance_matrix": lambda x, options: local_distance_matrix(x, [1.0, 2.0]),
    "dtw_align": lambda x, options: dtw_align(x, [1.0, 2.0], options),
    "PairSet": lambda x, options: PairSet({0: x, 1: [1.0, 2.0]}, [(0, 1)], options),
}


class TestInputContract:
    """What each entry receives is checked once, before any arithmetic on
    it, so a NaN, an infinity or an empty input is named and no numpy
    warning comes first."""

    @pytest.mark.parametrize("entry, normalize", [
        ("local_distance_matrix", Normalization.NONE),
        *((entry, normalize) for entry in ("dtw_align", "PairSet") for normalize in Normalization),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None])
    def test_bad_input_named_without_warning(self, entry, normalize, bad):
        if bad is None:
            x, error, message = [], ValueError, r"^cannot align an empty sequence$"
        else:
            x, error = [1.0, bad, 3.0], DataIntegrityError
            message = rf"^DTW needs finite values; got {bad} at index 1$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                _ENTRIES[entry](x, DtwOptions(normalize_input=normalize))


class TestDtwAlign:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            x = rng.integers(0, 10, size=n).astype(float)
            y = rng.integers(0, 10, size=m).astype(float)
            res = dtw_align(x, y)
            d = local_distance_matrix(x, y).tolist()
            assert res.total_cost == enum_dtw_min_cost(d)
            # The reported path must realize the reported cost.
            realized = sum(d[i - 1][j - 1] for i, j in res.path.steps)
            assert realized == pytest.approx(res.total_cost, abs=1e-12)

    def test_self_alignment_is_free(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=30)
        res = dtw_align(x, x)
        assert res.total_cost == 0.0
        assert res.mean_cost == 0.0
        assert len(res.path) == 30

    def test_symmetric_cost(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=20), rng.normal(size=27)
        assert dtw_align(x, y).total_cost == pytest.approx(
            dtw_align(y, x).total_cost, rel=1e-12
        )

    def test_mean_cost_identity(self):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=15), rng.normal(size=18)
        res = dtw_align(x, y)
        assert res.mean_cost == mean_cost(res.total_cost, res.path_length)
        assert res.mean_cost == res.total_cost / res.path_length

    def test_zscore_normalization_applied(self):
        rng = np.random.default_rng(8)
        x = rng.normal(50, 5, size=25)
        y = rng.normal(500, 50, size=25)
        opts = DtwOptions(normalize_input=Normalization.ZSCORE)
        res = dtw_align(x, y, opts)
        raw = dtw_align(x, y)
        assert res.total_cost < raw.total_cost
        assert res == dataclasses.replace(dtw_align(zscore(x), zscore(y)), options=opts)

    def test_zscore_equals_numpy_two_pass_form(self):
        # One mean, reused for the std, gives numpy's bytes exactly.
        rng = np.random.default_rng(12)
        for n in [2, 3, 52, 53, 517] * 20:
            v = rng.lognormal(rng.uniform(-3, 8), 0.8, size=n)
            want = (v - float(np.mean(v))) / float(np.std(v))
            assert zscore(v).tobytes() == want.tobytes()

    def test_zscore_shift_scale_invariance(self):
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=22), rng.normal(size=22)
        opts = DtwOptions(normalize_input=Normalization.ZSCORE)
        a = dtw_align(x, y, opts)
        b = dtw_align(7.0 * x + 300.0, 0.1 * y - 40.0, opts)
        assert b.total_cost == pytest.approx(a.total_cost, rel=1e-9)
        assert b.path.steps == a.path.steps

    def test_constant_input_degenerate_under_zscore(self):
        opts = DtwOptions(normalize_input=Normalization.ZSCORE)
        with pytest.raises(DegenerateDataError):
            dtw_align([1.0, 1.0, 1.0], [1.0, 2.0], opts)

    def test_vector_input_rejected(self):
        x = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
        with pytest.raises(ValueError, match=r"^DTW aligns 1-d sequences, got ndim 2 and 1$"):
            dtw_align(x, [0.0, 1.0])
        with pytest.raises(ValueError, match=r"^DTW aligns 1-d sequences, got ndim 1 and 2$"):
            PairSet({0: [0.0, 1.0], 1: x}, [(0, 1)])

    def test_result_roundtrip(self):
        rng = np.random.default_rng(10)
        res = dtw_align(rng.normal(size=8), rng.normal(size=10), DtwOptions(band_radius=3))
        k = len(res.path.steps)
        assert json.loads(to_json(res)) == {
            "total_cost": res.total_cost,
            "mean_cost": res.total_cost / k,
            "path": [[i, j] for i, j in res.path.steps],
            "path_length": k,
            "options": {"band_radius": 3, "local_metric": "absolute", "normalize_input": "none"},
        }
        # path_length and mean_cost are derived from path and total_cost.
        stored = {f.name for f in dataclasses.fields(DtwResult)}
        assert stored.isdisjoint({"path_length", "mean_cost"})

    def test_result_stores_cost_path_and_options_only(self):
        # The warped pair is the path applied to the inputs, so it is
        # neither stored nor written.
        res = dtw_align([0.0, 2.0, 1.0], [0.0, 1.0])
        assert [f.name for f in dataclasses.fields(DtwResult)] == ["total_cost", "path", "options"]
        assert list(res.to_dict()) == ["total_cost", "mean_cost", "path", "path_length", "options"]
        assert res.to_dict()["path"] is res.path  # to_json writes a WarpPath as its rows
        assert [f.name for f in dataclasses.fields(DtwOptions)] == ["band_radius", "normalize_input"]
        assert res.to_dict()["options"] == {
            "band_radius": None, "local_metric": "absolute", "normalize_input": "none"}


class TestBandedAlignment:
    def test_total_cost_nonincreasing_in_radius(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n, m = int(rng.integers(5, 30)), int(rng.integers(5, 30))
            x, y = rng.normal(size=n), rng.normal(size=m)
            base = abs(n - m)
            costs = [
                dtw_align(x, y, DtwOptions(band_radius=base + extra)).total_cost
                for extra in (0, 1, 2, 4, 8, 16)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_wide_band_bit_identical_to_unbanded(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n, m = int(rng.integers(2, 25)), int(rng.integers(2, 25))
            x, y = rng.normal(size=n), rng.normal(size=m)
            banded = dtw_align(x, y, DtwOptions(band_radius=n + m))
            free = dtw_align(x, y)
            assert banded.total_cost == free.total_cost
            assert banded.path.steps == free.path.steps

    def test_zero_radius_on_equal_lengths_is_diagonal(self):
        rng = np.random.default_rng(13)
        x, y = rng.normal(size=12), rng.normal(size=12)
        res = dtw_align(x, y, DtwOptions(band_radius=0))
        assert res.path.steps == tuple((k, k) for k in range(1, 13))
        assert res.total_cost == pytest.approx(float(np.abs(x - y).sum()), rel=1e-12)

    def test_infeasible_radius_raises(self):
        with pytest.raises(NoValidPathError):
            dtw_align(np.zeros(4), np.zeros(9), DtwOptions(band_radius=2))


@st.composite
def _pair_sets(draw):
    """Integer-valued sequences (so totals tie), some 52 or 53 long, a
    sixth of them constant and a tenth holding one NaN or infinity, a list
    of pairs of distinct sequences, each followed by its reverse, and
    options with any band up to n + m.  A reversed pair ties on total cost
    but can backtrack to a path of another length, which exercises the
    mean-cost tie-break."""
    length = st.one_of(st.integers(1, 60), st.sampled_from((52, 53)))
    sequences = {}
    for key, n in enumerate(draw(st.lists(length, min_size=2, max_size=5))):
        constant = draw(st.integers(0, 5)) == 0
        values = [1] * n if constant else draw(
            st.lists(st.integers(0, 3), min_size=n, max_size=n))
        sequences[key] = np.array(values, dtype=float)
        if draw(st.integers(0, 9)) == 0:
            sequences[key][draw(st.integers(0, n - 1))] = draw(
                st.sampled_from((math.nan, math.inf, -math.inf)))
    distinct = [(a, b) for a in sequences for b in sequences if a < b]
    pairs = [pair for a, b in draw(st.lists(st.sampled_from(distinct), min_size=1,
                                            max_size=5))
             for pair in ((a, b), (b, a))]
    longest = max(len(v) for v in sequences.values())
    options = DtwOptions(
        band_radius=draw(st.none() | st.integers(0, 2) | st.integers(0, 2 * longest)),
        normalize_input=draw(st.sampled_from(Normalization)),
    )
    return sequences, pairs, options


def _oracle_alignment(x, y, options: DtwOptions) -> tuple[DtwResult, np.ndarray]:
    """One pair's result and cumulative-cost matrix from the row-scan oracle."""
    if options.normalize_input is Normalization.ZSCORE:
        x, y = zscore(x), zscore(y)
    g = cumulative_cost_oracle(np.abs(np.subtract.outer(x, y)), options.band_radius)
    return DtwResult(float(g[-1, -1]), backtrack(g), options), g


class TestBatchedKernel:
    """``PairSet`` against the scalar loop it replaces: the row-scan oracle
    on each pair in turn, and ``dtw_align``'s errors in pair order."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=_pair_sets())
    def test_matches_scalar_loop(self, case):
        sequences, pairs, options = case
        try:
            for a, b in pairs:
                dtw_align(sequences[a], sequences[b], options)
        except (ValueError, MarketDataError) as exc:
            with pytest.raises(type(exc)) as raised:
                PairSet(sequences, pairs, options)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
            return
        pair_set = PairSet(sequences, pairs, options)
        emitted = []
        ranking, unbanded_ranks = pair_set.align(lambda *pair_output: emitted.append(pair_output))
        assert [pair for pair, *_ in emitted] == pairs
        results = []
        for (a, b), batch_result, batch_d, batch_g in emitted:
            result, g = _oracle_alignment(sequences[a], sequences[b], options)
            x, y = pair_set.aligned[a], pair_set.aligned[b]
            assert batch_d.tobytes() == np.abs(np.subtract.outer(x, y)).tobytes()
            assert batch_g.shape == g.shape
            assert batch_g.tobytes() == g.tobytes()
            assert batch_result == result
            results.append(((a, b), result))
        assert ranking == rank_pairs(results)
        if options.band_radius is None:
            assert unbanded_ranks is None
            return
        # The CLI's reference: the ranks of the same pairs' unbanded alignments.
        unbanded = dataclasses.replace(options, band_radius=None)
        reference = [((a, b), _oracle_alignment(sequences[a], sequences[b], unbanded)[0])
                     for a, b in pairs]
        assert unbanded_ranks == rank_pairs(reference).ranks()

    def test_ties_break_on_backtracked_mean(self):
        # (0, 1) and (1, 0) tie on total cost 3, but backtracking prefers a
        # vertical step over a horizontal one, so their paths have 4 and 5
        # steps, and the longer path's lower mean ranks (1, 0) first.  A
        # band of 4 leaves every path free, so the unbanded ranks, taken
        # from the totals and the tied pairs' sweeps again, are the same.
        sequences = {0: np.array([1.0, 1.0, 2.0, 1.0]), 1: np.array([2.0, 0.0, 1.0])}
        pairs = [(0, 1), (1, 0), (0, 0)]
        expected = rank_pairs([(pair, dtw_align(sequences[pair[0]], sequences[pair[1]]))
                               for pair in pairs])
        assert [(e.total_cost, e.path_length) for e in expected.entries] == [
            (3.0, 4), (3.0, 5), (0.0, 4)]
        ranking, unbanded_ranks = PairSet(sequences, pairs, DtwOptions(band_radius=4)).align(
            lambda *_: None)
        assert ranking.ranks() == unbanded_ranks == expected.ranks() == (3, 2, 1)

    @pytest.mark.parametrize("size, chunk_sizes", [(5, {4, 5}), (1, {1})])
    def test_chunks_match_one_sweep(self, monkeypatch, size, chunk_sizes):
        rng = np.random.default_rng(16)
        sequences = {k: rng.normal(size=52 + k % 2) for k in range(6)}
        pairs = [(a, b) for a in sequences for b in sequences]
        pair_set = PairSet(sequences, pairs, DtwOptions(band_radius=3))

        def align():
            gs = []
            return (*pair_set.align(lambda pair, result, d, g: gs.append(g)), gs)

        monkeypatch.setattr(seasonwarp.dtw, "BATCH_PAIRS", len(pairs))
        *whole, whole_gs = align()
        monkeypatch.setattr(seasonwarp.dtw, "BATCH_PAIRS", size)  # 36 pairs
        *chunked, chunked_gs = align()
        assert [g.tobytes() for g in chunked_gs] == [g.tobytes() for g in whole_gs]
        assert {g.base.shape[-1] for g in whole_gs} == {36}
        assert {g.base.shape[-1] for g in chunked_gs} == chunk_sizes
        # The unbanded ranks come from an unbanded sweep of the same chunks.
        assert chunked == whole
        assert whole[1] == rank_pairs(
            [(pair, dtw_align(sequences[pair[0]], sequences[pair[1]])) for pair in pairs]).ranks()

    def test_first_error_in_pair_order(self):
        # The band fails on the first pair before the constant third sequence
        # would fail its z-score, as the scalar loop raises.
        sequences = {0: np.arange(52.0), 1: np.arange(53.0), 2: np.ones(52)}
        options = DtwOptions(band_radius=0, normalize_input=Normalization.ZSCORE)
        with pytest.raises(NoValidPathError, match=r"reach \(52, 53\)"):
            PairSet(sequences, [(0, 1), (0, 2)], options)
        with pytest.raises(DegenerateDataError):
            PairSet(sequences, [(0, 2), (0, 1)], options)

    @pytest.mark.parametrize("normalize", list(Normalization))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected_alike(self, bad, normalize):
        # The first non-finite value is named before any z-score, so numpy
        # warns of nothing (a RuntimeWarning fails this suite).
        x, y = [1.0, 2.0, bad, bad], [1.0, 2.0, 3.0, 4.0]
        options = DtwOptions(band_radius=1, normalize_input=normalize)
        message = rf"^DTW needs finite values; got {bad} at index 2$"
        with pytest.raises(DataIntegrityError, match=message):
            dtw_align(x, y, options)
        with pytest.raises(DataIntegrityError, match=message):
            PairSet({0: y, 1: x}, [(0, 1)], options)  # before align

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("band", [None, 4])
    def test_each_chunk_freed_before_the_next_sweep(self, monkeypatch, band, tied):
        sweep, swept = seasonwarp.dtw._sweep, []

        def checking_sweep(ds, band_radius):
            assert [ref() is None for ref in swept] == [True] * len(swept)
            gs = sweep(ds, band_radius)
            swept.append(weakref.ref(gs[0].base))
            return gs

        monkeypatch.setattr(seasonwarp.dtw, "_sweep", checking_sweep)
        monkeypatch.setattr(seasonwarp.dtw, "BATCH_PAIRS", 2)
        rng = np.random.default_rng(17)
        # Tied: all six pairs tie on their unbanded total, 53 or 0, so under
        # a band all six are swept again.
        sequences = {k: np.full(52 + k % 2, float(k % 2)) if tied else rng.normal(size=52 + k % 2)
                     for k in range(4)}
        pairs = [(a, b) for a in sequences for b in sequences if a < b]
        # An emit that keeps no pair's matrices, so only ``align`` could hold
        # an earlier chunk.
        PairSet(sequences, pairs, DtwOptions(band_radius=band)).align(lambda *_: None)
        assert len(swept) == (3 if band is None else 9 if tied else 6)

    def test_empty_pair_list_ranks_nothing(self):
        emitted = []
        with pytest.raises(ValueError, match="^nothing to rank$"):
            PairSet({}, []).align(emitted.append)
        assert emitted == []


class TestRanking:
    def test_rank_by_total_cost(self):
        ranking = rank_summaries(
            [
                ((2010, 2011), 30.0, 1.0, 30),
                ((2011, 2012), 10.0, 0.5, 20),
                ((2012, 2013), 20.0, 0.8, 25),
            ]
        )
        assert ranking.ranks() == (3, 1, 2)
        assert [e.year_pair for e in ranking.entries] == [
            (2010, 2011),
            (2011, 2012),
            (2012, 2013),
        ]

    def test_tie_breaks_by_mean_then_pair(self):
        ranking = rank_summaries(
            [
                ((2012, 2013), 10.0, 0.5, 20),
                ((2010, 2011), 10.0, 0.5, 20),
                ((2011, 2012), 10.0, 0.4, 25),
            ]
        )
        # Equal totals: 2011-2012 wins on mean; the remaining tie falls back
        # to the lexicographically smaller year pair.
        assert ranking.ranks() == (3, 2, 1)

    def test_rank_pairs_from_results(self):
        rng = np.random.default_rng(15)
        base = rng.normal(size=30)
        near = base + rng.normal(scale=0.01, size=30)
        far = rng.normal(size=30) * 5
        results = [
            ((2020, 2021), dtw_align(base, near)),
            ((2021, 2022), dtw_align(base, far)),
        ]
        ranking = rank_pairs(results)
        assert ranking.ranks() == (1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_summaries([])

    def test_roundtrip(self):
        ranking = rank_summaries([((2010, 2011), 3.0, 0.1, 30)])
        assert json.loads(to_json(ranking)) == {"entries": [
            {"year_pair": [2010, 2011], "total_cost": 3.0, "mean_cost": 0.1,
             "path_length": 30, "rank": 1}]}


class TestFixtureAlignment:
    def test_year_pair_alignment_properties(self, cleaned42):
        series, _ = cleaned42[Variable.MODAL_PRICE]
        opts = DtwOptions(normalize_input=Normalization.ZSCORE)
        x = slice_year(series, 2016)
        y = slice_year(series, 2017)
        res = dtw_align(x, y, opts)
        assert res.path.steps[-1] == (52, 52)
        assert 52 <= res.path_length <= 103
        assert res.total_cost > 0.0

    def test_band_radius_4_vs_unbanded_rank_agreement(self, cleaned42):
        # The headline band experiment: radius 4 leaves the consecutive-year
        # ranking unchanged on the bundled synthetic data.
        series, _ = cleaned42[Variable.MODAL_PRICE]
        years = [2021, 2022, 2023, 2024]
        opts_banded = DtwOptions(band_radius=4, normalize_input=Normalization.ZSCORE)
        opts_free = DtwOptions(normalize_input=Normalization.ZSCORE)
        banded, free = [], []
        for y0, y1 in zip(years, years[1:]):
            a = slice_year(series, y0)
            b = slice_year(series, y1)
            banded.append(((y0, y1), dtw_align(a, b, opts_banded)))
            free.append(((y0, y1), dtw_align(a, b, opts_free)))
        assert rank_pairs(banded).ranks() == rank_pairs(free).ranks() == (3, 1, 2)
