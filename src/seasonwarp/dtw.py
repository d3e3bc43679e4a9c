"""Dynamic Time Warping: distance matrix, cost recursion, backtracking, ranking.

The alignment cost is reported two ways and never as a single ambiguous
"distance": ``total_cost`` is the cumulative cost at the end of the warp,
``mean_cost`` is that total divided by the path length K.  DTW is not a
metric (the triangle inequality can fail), so no such property is assumed
anywhere.

One kernel, ``_sweep``, builds every cumulative-cost matrix: it pads a list
of local-distance matrices into one array and sweeps its anti-diagonals in
numpy, one vectorised step per diagonal whatever the number of matrices.
``dtw_align`` runs it on one matrix; ``PairSet.align`` aligns and ranks a
list of pairs, such as the CLI's year pairs, up to ``BATCH_PAIRS`` at a
time, each chunk's distances built once for the banded and unbanded sweeps
and let go before the next chunk is built.  A result stores the corner cost
and the path; the rest, the warped pair included, is derived from them and
the aligned inputs.

Each public entry checks what it receives once, and the core (the distance
build, ``_sweep``, the backtrack walk) trusts it.  A pair of sequences is
checked for shape (both 1-d and non-empty), then x and y each for finite
values and z-score, then the band; ``backtrack`` checks its corner.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Hashable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateDataError, NoValidPathError, check_finite

INF = math.inf

class Normalization(str, Enum):
    NONE = "none"
    ZSCORE = "zscore"


@dataclass(frozen=True)
class DtwOptions:
    """Alignment knobs.  band_radius None means a full warping window.  The
    local distance is always the absolute difference |x_i - y_j|."""

    band_radius: int | None = None
    normalize_input: Normalization = Normalization.NONE

    def __post_init__(self) -> None:
        if self.band_radius is not None and self.band_radius < 0:
            raise ValueError(f"band_radius must be >= 0, got {self.band_radius}")

    def to_dict(self) -> dict:
        return {
            "band_radius": self.band_radius,
            "local_metric": "absolute",
            "normalize_input": self.normalize_input.value,
        }


@dataclass(frozen=True)
class WarpPath:
    """Monotone, continuous 1-based index pairs from (1,1) to (n,m), as
    ``backtrack`` walks them; a path is not checked again."""

    steps: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class DtwResult:
    total_cost: float
    path: WarpPath
    options: DtwOptions

    @property
    def path_length(self) -> int:
        return len(self.path)

    @property
    def mean_cost(self) -> float:
        return mean_cost(self.total_cost, self.path_length)  # the module function

    def to_dict(self) -> dict:
        return {
            "total_cost": self.total_cost,
            "mean_cost": self.mean_cost,
            "path": self.path,
            "path_length": self.path_length,
            "options": self.options.to_dict(),
        }


def mean_cost(total_cost: float, path_length: int) -> float:
    """The reported per-step alignment cost.  Single definition, used everywhere."""
    if path_length < 1:
        raise ValueError(f"path_length must be >= 1, got {path_length}")
    return total_cost / path_length


def zscore(values) -> np.ndarray:
    """Standardize to zero mean, unit population std."""
    v = np.asarray(values, dtype=float)
    d = v - float(np.mean(v))
    std = math.sqrt(float(np.mean(d * d)))  # np.std(v), without its second mean
    if std == 0.0:
        raise DegenerateDataError("z-score undefined for a constant series")
    return d / std


def _check_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays, unless one is not 1-d or is empty."""
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1:
        raise ValueError(f"DTW aligns 1-d sequences, got ndim {xa.ndim} and {ya.ndim}")
    if xa.size == 0 or ya.size == 0:
        raise ValueError("cannot align an empty sequence")
    return xa, ya


def _aligned(v: np.ndarray, options: DtwOptions) -> np.ndarray:
    """One sequence of a checked pair as it is aligned: finite, and z-scored
    under z-score normalization."""
    check_finite(v, "DTW")
    return zscore(v) if options.normalize_input is Normalization.ZSCORE else v


def _check_band(n: int, m: int, band_radius: int | None) -> None:
    if band_radius is not None and band_radius < abs(n - m):
        raise NoValidPathError(
            f"band radius {band_radius} < |n - m| = {abs(n - m)}; no path can "
            f"reach ({n}, {m})"
        )


def local_distance_matrix(x, y) -> np.ndarray:
    """Pairwise local distances d(i, j) = |x_i - y_j| of two finite 1-d sequences."""
    return _distance_matrix(*(_aligned(v, DtwOptions()) for v in _check_pair(x, y)))


def _distance_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``local_distance_matrix`` of a checked pair, unchecked."""
    return np.abs(x[:, None] - y[None, :])


def backtrack(g) -> WarpPath:
    """Minimal-cost path recovered from the cumulative matrix, forward order.

    Ties pick the diagonal predecessor first, then vertical, then horizontal:
    deterministic, and biased toward shorter paths.  Only the cells beside
    the path are read.
    """
    ga = np.asarray(g, dtype=float)
    if ga.ndim != 2 or ga.size == 0:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {ga.shape}")
    n, m = ga.shape
    if not math.isfinite(ga[n - 1, m - 1]):
        raise NoValidPathError(f"cumulative cost at ({n}, {m}) is not finite")
    cell = ga.item
    i, j = n - 1, m - 1
    steps = [(n, m)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag = cell(i - 1, j - 1)
            vert = cell(i - 1, j)
            horiz = cell(i, j - 1)
            if diag <= vert and diag <= horiz:
                i -= 1
                j -= 1
            elif vert <= horiz:
                i -= 1
            else:
                j -= 1
        steps.append((i + 1, j + 1))
    steps.reverse()
    return WarpPath(tuple(steps))


def dtw_align(x, y, options: DtwOptions = DtwOptions()) -> DtwResult:
    """Full alignment of two 1-d sequences under the given options.

    With z-score normalization both inputs are standardized before the
    distance matrix is built.
    """
    xa, ya = (_aligned(v, options) for v in _check_pair(x, y))
    _check_band(xa.size, ya.size, options.band_radius)
    return _result(_sweep([_distance_matrix(xa, ya)], options.band_radius)[0], options)


def _result(g: np.ndarray, options: DtwOptions) -> DtwResult:
    """The alignment read from its cumulative cost matrix g: the corner cost
    and the backtracked path."""
    return DtwResult(total_cost=float(g[-1, -1]), path=backtrack(g), options=options)


# Pairs swept together at most: 32 pairs of 53 x 53 weeks pad to 0.75 MB, so a
# pair set of any size is aligned in bounded memory.
BATCH_PAIRS = 32


class PairSet:
    """A list of pairs (a, b) of 1-d ``sequences`` aligned under ``options``
    and ranked by ``align``, in place of ``dtw_align`` on each pair in turn.

    Each sequence is checked and normalized once, here, and every pair is
    checked here in order, so the error raised is the one that loop would
    raise first: the pair's shapes, x's then y's non-finite value or
    z-score, then the band.  ``aligned`` maps each key to its sequence as aligned.
    """

    def __init__(
        self,
        sequences: Mapping[Hashable, object],
        pairs: Sequence[tuple[Hashable, Hashable]],
        options: DtwOptions = DtwOptions(),
    ) -> None:
        self.pairs = tuple(pairs)
        self.options = options
        self.aligned: dict[Hashable, np.ndarray] = {}
        for a, b in self.pairs:
            for key, v in zip((a, b), _check_pair(sequences[a], sequences[b])):
                if key not in self.aligned:
                    self.aligned[key] = _aligned(v, options)
            _check_band(self.aligned[a].size, self.aligned[b].size, options.band_radius)

    def align(self, emit: Callable[..., object]) -> tuple[PairRanking, tuple[int, ...] | None]:
        """The pairs' ``rank_pairs`` ranking and, under a band, the ranks of
        their unbanded alignments (else None).  ``emit(pair, result, d, g)``
        is called for each pair in order with what ``dtw_align`` computes:
        the result, one ``backtrack``, and views d and g of the chunk's
        local-distance and cumulative-cost matrices.  Under a band, each
        chunk is first swept unbanded for its corner totals."""
        band = self.options.band_radius
        results, totals = [], []
        for chunk in _chunks(self.pairs):
            ds = self._distances(chunk)
            if band is not None:
                totals += [float(g[-1, -1]) for g in _sweep(ds, None)]
            for pair, d, g in zip(chunk, ds, _sweep(ds, band)):
                result = _result(g, self.options)
                results.append((pair, result))
                emit(pair, result, d, g)
            del ds, d, g  # before the next chunk is built
        return rank_pairs(results), None if band is None else self._unbanded_ranks(totals)

    def _unbanded_ranks(self, totals: list[float]) -> tuple[int, ...]:
        """The ranks ``rank_pairs`` gives the pairs' unbanded alignments, from
        the corner ``totals`` of their unbanded sweeps.  Only pairs whose total
        ties another's are swept again, and backtracked for the mean cost
        that breaks the tie; other totals are never compared on their mean."""
        count = Counter(totals)
        tied = [p for p, total in enumerate(totals) if count[total] > 1]
        means = {}
        for chunk in _chunks(tied):
            gs = _sweep(self._distances([self.pairs[p] for p in chunk]), None)
            means.update({p: mean_cost(totals[p], len(backtrack(g))) for p, g in zip(chunk, gs)})
            del gs  # before the next chunk is built
        return tuple(_ranks([(total, means.get(p, 0.0), pair)
                             for p, (total, pair) in enumerate(zip(totals, self.pairs))]))

    def _distances(self, pairs: Sequence[tuple[Hashable, Hashable]]) -> list[np.ndarray]:
        """The pairs' local-distance matrices; a sweep of them returns views
        into one array, freed once none of them is held."""
        return [_distance_matrix(self.aligned[a], self.aligned[b]) for a, b in pairs]


def _chunks(items: Sequence) -> Iterator[Sequence]:
    """items in even chunks of at most ``BATCH_PAIRS``."""
    chunks = -(-len(items) // BATCH_PAIRS)
    for c in range(chunks):
        yield items[len(items) * c // chunks : len(items) * (c + 1) // chunks]


def _sweep(ds: Sequence[np.ndarray], band_radius: int | None) -> list[np.ndarray]:
    """Cumulative-cost matrices of checked local-distance matrices (2-d,
    finite, non-negative, each reachable under the band), all at once.

    The matrices are padded into one (N+1, M+1, P) array, the P matrices
    side by side in each cell: row and column 0 are the +inf border the
    recursion starts from, with 0 at the corner, and cells past a smaller
    matrix's own rows and columns, or outside the band, hold +inf.  The
    distances are swept one anti-diagonal i + j = k at a time, in place: on
    the flattened (N+1)(M+1) grid a diagonal's cells lie M apart, so its
    cells and their diagonal predecessors are strided views, and so are the
    vertical ones, each cell's horizontal predecessor being the next cell's
    vertical one.  A diagonal costs three array operations whatever the
    number of matrices.  Each cell is d + min(diag, vert, horiz).
    """
    n_max = max(d.shape[0] for d in ds)
    m_max = max(d.shape[1] for d in ds)
    g = np.full((n_max + 1, m_max + 1, len(ds)), INF)
    for p, d in enumerate(ds):
        g[1 : d.shape[0] + 1, 1 : d.shape[1] + 1, p] = d
    if band_radius is not None:
        i, j = np.ogrid[: n_max + 1, : m_max + 1]
        g[np.abs(i - j) > band_radius] = INF
    g[0, 0] = 0.0
    row = m_max + 1
    flat = g.reshape(-1, len(ds))
    best = np.empty((min(n_max, m_max), len(ds)))
    if len(ds) == 1:  # numpy steps through 1-d views faster
        flat, best = flat[:, 0], best[:, 0]
    band = n_max + m_max if band_radius is None else band_radius
    for k in range(2, n_max + m_max + 1):
        # Rows of the cells on diagonal k, in the matrix and, as
        # |i - j| = |2i - k| <= band, in the band.
        lo = max(1, k - m_max, (k - band + 1) // 2)
        hi = min(n_max, k - 1, (k + band) // 2)
        if lo > hi:
            continue
        start = lo * row + k - lo
        stop = hi * row + k - hi + 1
        out = best[: hi - lo + 1]
        vert = flat[start - row : stop - row + m_max : m_max]
        np.minimum(vert[:-1], vert[1:], out=out)
        np.minimum(out, flat[start - row - 1 : stop - row - 1 : m_max], out=out)
        cells = flat[start:stop:m_max]
        np.add(cells, out, out=cells)
    return [g[1 : d.shape[0] + 1, 1 : d.shape[1] + 1, p] for p, d in enumerate(ds)]


@dataclass(frozen=True)
class RankedPair:
    year_pair: tuple[int, int]
    total_cost: float
    mean_cost: float
    path_length: int
    rank: int


@dataclass(frozen=True)
class PairRanking:
    """Alignment summaries in input order, each carrying its ascending-cost rank."""

    entries: tuple[RankedPair, ...] = field(default_factory=tuple)

    def ranks(self) -> tuple[int, ...]:
        return tuple(e.rank for e in self.entries)


def rank_summaries(
    summaries: list[tuple[tuple[int, int], float, float, int]]
) -> PairRanking:
    """Rank (year_pair, total_cost, mean_cost, path_length) rows.

    Rank 1 is the lowest total cost; ties break by ascending mean cost, then
    lexicographic year pair.  Entries keep their input order.
    """
    if not summaries:
        raise ValueError("nothing to rank")
    ranks = _ranks([(total, mean, pair) for pair, total, mean, _ in summaries])
    return PairRanking(
        entries=tuple(
            RankedPair(pair, total, mean, k, rank)
            for (pair, total, mean, k), rank in zip(summaries, ranks)
        )
    )


def _ranks(keys: list[tuple]) -> list[int]:
    """1-based position of each (total, mean, pair) key in ascending order."""
    ranks = [0] * len(keys)
    for pos, idx in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
        ranks[idx] = pos + 1
    return ranks


def rank_pairs(results: list[tuple[tuple[int, int], DtwResult]]) -> PairRanking:
    """Rank full alignment results by ascending total cost."""
    return rank_summaries(
        [(pair, r.total_cost, r.mean_cost, r.path_length) for pair, r in results]
    )

