"""Dynamic Time Warping: distance matrix, cost recursion, backtracking, ranking.

The alignment cost is reported two ways and never as a single ambiguous
"distance": ``total_cost`` is the cumulative cost at the end of the warp,
``mean_cost`` is that total divided by the path length K.  DTW is not a
metric (the triangle inequality can fail), so no such property is assumed
anywhere.

Two kernels build the cumulative-cost matrix with the same cell rule, so
their matrices are bit-equal.  ``cumulative_cost`` scans one pair's rows in
plain Python lists, which beat array round-trips for a single pair of
year-long sequences; ``dtw_align`` uses it.  ``PairSet`` serves a list of
pairs, such as the CLI's year pairs: it sweeps the anti-diagonals of up to
``BATCH_PAIRS`` pairs at once in numpy, one vectorised step per diagonal,
whatever the number of pairs, a lone one included.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Hashable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateDataError, NoValidPathError

INF = math.inf


class LocalMetric(str, Enum):
    ABSOLUTE = "absolute"
    EUCLIDEAN = "euclidean"


class Normalization(str, Enum):
    NONE = "none"
    ZSCORE = "zscore"


@dataclass(frozen=True)
class DtwOptions:
    """Alignment knobs.  band_radius None means a full warping window."""

    band_radius: int | None = None
    local_metric: LocalMetric = LocalMetric.ABSOLUTE
    normalize_input: Normalization = Normalization.NONE

    def __post_init__(self) -> None:
        if self.band_radius is not None and self.band_radius < 0:
            raise ValueError(f"band_radius must be >= 0, got {self.band_radius}")

    def to_dict(self) -> dict:
        return {
            "band_radius": self.band_radius,
            "local_metric": self.local_metric.value,
            "normalize_input": self.normalize_input.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DtwOptions":
        return cls(
            band_radius=d["band_radius"],
            local_metric=LocalMetric(d["local_metric"]),
            normalize_input=Normalization(d["normalize_input"]),
        )


@dataclass(frozen=True)
class WarpPath:
    """Monotone, continuous 1-based index pairs from (1,1) to (n,m)."""

    steps: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a warp path cannot be empty")
        if self.steps[0] != (1, 1):
            raise ValueError(f"path must start at (1, 1), got {self.steps[0]}")
        for (i0, j0), (i1, j1) in zip(self.steps, self.steps[1:]):
            if (i1 - i0, j1 - j0) not in ((1, 0), (0, 1), (1, 1)):
                raise ValueError(
                    f"illegal step from ({i0}, {j0}) to ({i1}, {j1})"
                )

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> tuple[int, int]:
        return self.steps[-1]


@dataclass(frozen=True)
class DtwResult:
    total_cost: float
    path: WarpPath
    options: DtwOptions
    warped_pair: tuple[tuple[float, ...], tuple[float, ...]]

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
            "path": [[i, j] for i, j in self.path.steps],
            "path_length": self.path_length,
            "options": self.options.to_dict(),
            "warped_pair": [list(self.warped_pair[0]), list(self.warped_pair[1])],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DtwResult":
        """Rebuild a result from its JSON form, rejecting a payload whose
        ``path_length``, ``mean_cost`` or warped pair disagrees with its path."""
        def _values(seq):
            return tuple(tuple(v) if isinstance(v, list) else v for v in seq)

        result = cls(
            total_cost=d["total_cost"],
            path=WarpPath(tuple((i, j) for i, j in d["path"])),
            options=DtwOptions.from_dict(d["options"]),
            warped_pair=(_values(d["warped_pair"][0]), _values(d["warped_pair"][1])),
        )
        k = result.path_length
        if d["path_length"] != k:
            raise ValueError(f"path_length {d['path_length']} != |path| {k}")
        if len(result.warped_pair[0]) != k or len(result.warped_pair[1]) != k:
            raise ValueError("warped_pair lists must have path_length entries")
        expected = result.mean_cost
        if abs(d["mean_cost"] - expected) > 1e-9 * max(1.0, abs(expected)):
            raise ValueError(
                f"mean_cost {d['mean_cost']} inconsistent with "
                f"total_cost/path_length = {expected}"
            )
        return result


def mean_cost(total_cost: float, path_length: int) -> float:
    """The reported per-step alignment cost.  Single definition, used everywhere."""
    if path_length < 1:
        raise ValueError(f"path_length must be >= 1, got {path_length}")
    return total_cost / path_length


def zscore(values) -> np.ndarray:
    """Standardize to zero mean, unit population std."""
    v = np.asarray(values, dtype=float)
    std = float(np.std(v))
    if std == 0.0:
        raise DegenerateDataError("z-score undefined for a constant series")
    return (v - float(np.mean(v))) / std


def local_distance_matrix(x, y, metric: LocalMetric = LocalMetric.ABSOLUTE) -> np.ndarray:
    """Pairwise local distances d(i, j) between elements of x and y.

    Scalars: |x_i - y_j| under either metric name.  Vectors of uniform
    dimension: Euclidean only; the absolute metric is a scalar notion.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size == 0 or ya.size == 0:
        raise ValueError("cannot align an empty sequence")
    if xa.ndim != ya.ndim:
        raise ValueError(f"mixed input ranks: {xa.ndim} vs {ya.ndim}")
    if xa.ndim == 1:
        return np.abs(xa[:, None] - ya[None, :])
    if xa.ndim == 2:
        if xa.shape[1] != ya.shape[1]:
            raise ValueError(
                f"vector dimensions differ: {xa.shape[1]} vs {ya.shape[1]}"
            )
        if metric is not LocalMetric.EUCLIDEAN:
            raise ValueError("vector inputs require the euclidean metric")
        diff = xa[:, None, :] - ya[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=2))
    raise ValueError(f"inputs must be 1-d or 2-d, got ndim {xa.ndim}")


def _check_band(n: int, m: int, band_radius: int | None) -> None:
    if band_radius is not None and band_radius < abs(n - m):
        raise NoValidPathError(
            f"band radius {band_radius} < |n - m| = {abs(n - m)}; no path can "
            f"reach ({n}, {m})"
        )


def cumulative_cost(d, band_radius: int | None = None) -> np.ndarray:
    """Cumulative cost matrix for the plain symmetric step set.

    gamma(1,1) = d(1,1); first row and column accumulate as running sums;
    interior gamma(i,j) = d(i,j) + min(diagonal, vertical, horizontal).
    Cells with |i - j| > band_radius hold +inf: a real unreachable marker,
    never a large finite stand-in.
    """
    da = np.asarray(d, dtype=float)
    if da.ndim != 2 or da.size == 0:
        raise ValueError(f"expected a non-empty 2-d cost matrix, got shape {da.shape}")
    if np.any(da < 0):
        raise ValueError("local distances must be non-negative")
    n, m = da.shape
    _check_band(n, m, band_radius)
    rows = da.tolist()
    g = [[INF] * m for _ in range(n)]
    for i in range(n):
        drow = rows[i]
        grow = g[i]
        if band_radius is None:
            lo, hi = 0, m - 1
        else:
            lo = max(0, i - band_radius)
            hi = min(m - 1, i + band_radius)
        gprev = g[i - 1] if i > 0 else None
        for j in range(lo, hi + 1):
            c = drow[j]
            if i == 0:
                grow[j] = c if j == 0 else grow[j - 1] + c
            elif j == 0:
                grow[0] = gprev[0] + c
            else:
                best = gprev[j - 1]
                if gprev[j] < best:
                    best = gprev[j]
                if grow[j - 1] < best:
                    best = grow[j - 1]
                grow[j] = c + best
    return np.array(g, dtype=float)


def backtrack(g) -> WarpPath:
    """Minimal-cost path recovered from the cumulative matrix, forward order.

    Ties pick the diagonal predecessor first, then vertical, then horizontal:
    deterministic, and biased toward shorter paths.
    """
    ga = np.asarray(g, dtype=float)
    if ga.ndim != 2 or ga.size == 0:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {ga.shape}")
    n, m = ga.shape
    if not math.isfinite(ga[n - 1, m - 1]):
        raise NoValidPathError(f"cumulative cost at ({n}, {m}) is not finite")
    rows = ga.tolist()
    i, j = n - 1, m - 1
    steps = [(n, m)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag = rows[i - 1][j - 1]
            vert = rows[i - 1][j]
            horiz = rows[i][j - 1]
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


def _aligned(values, options: DtwOptions) -> np.ndarray:
    """A sequence as it is aligned: z-scored under z-score normalization."""
    v = np.asarray(values, dtype=float)
    return zscore(v) if options.normalize_input is Normalization.ZSCORE else v


def dtw_align(x, y, options: DtwOptions = DtwOptions()) -> DtwResult:
    """Full alignment of two sequences under the given options.

    With z-score normalization both inputs are standardized before the
    distance matrix is built, and the warped pair reports the standardized
    values actually aligned.
    """
    return dtw_align_with_matrices(x, y, options)[0]


def dtw_align_with_matrices(
    x, y, options: DtwOptions = DtwOptions()
) -> tuple[DtwResult, np.ndarray, np.ndarray]:
    """``dtw_align`` plus the local distance matrix d and the cumulative
    cost matrix g it was computed from, for callers that draw or dump them."""
    xa = _aligned(x, options)
    ya = _aligned(y, options)
    d = local_distance_matrix(xa, ya, options.local_metric)
    g = cumulative_cost(d, options.band_radius)
    return _result(xa, ya, g, options), d, g


def _result(x, y, g, options: DtwOptions) -> DtwResult:
    """The alignment of x and y, given as aligned (already normalized), read
    from their cumulative cost matrix g: the backtracked path, the warped
    pair and the corner cost."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    path = backtrack(g)

    def _value(arr: np.ndarray, idx: int):
        if arr.ndim == 1:
            return float(arr[idx])
        return tuple(float(v) for v in arr[idx])

    warped = (
        tuple(_value(xa, i - 1) for i, _ in path.steps),
        tuple(_value(ya, j - 1) for _, j in path.steps),
    )
    return DtwResult(
        total_cost=float(g[-1, -1]),
        path=path,
        options=options,
        warped_pair=warped,
    )


# Pairs swept together at most: 32 pairs of 53 x 53 weeks pad to 0.75 MB, so a
# pair set of any size is aligned in bounded memory.
BATCH_PAIRS = 32


class PairSet:
    """A list of pairs (a, b) of 1-d ``sequences`` aligned under ``options``
    by one batched kernel, in place of ``dtw_align`` on each pair in turn.

    Each sequence is normalized once, here, and every pair is checked here
    in order, so the error raised is the one that loop would raise first:
    x's z-score, y's z-score, an empty sequence, then the band.  ``aligned``
    maps each key to its sequence as aligned.
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
            for key in (a, b):
                if key not in self.aligned:
                    self.aligned[key] = _aligned(sequences[key], options)
            x, y = self.aligned[a], self.aligned[b]
            if x.size == 0 or y.size == 0:
                raise ValueError("cannot align an empty sequence")
            if x.ndim != 1 or y.ndim != 1:
                raise ValueError(f"pair sets align 1-d sequences, got ndim {x.ndim} and {y.ndim}")
            _check_band(len(x), len(y), options.band_radius)

    def alignments(self) -> Iterator[tuple[DtwResult, np.ndarray]]:
        """Each pair's result and cumulative-cost matrix g, in pair order, as
        ``dtw_align_with_matrices`` gives them: g is bit-equal to the scalar
        ``cumulative_cost``, and one ``backtrack`` reads each path."""
        for (a, b), g in zip(self.pairs, self._costs(self.pairs, self.options.band_radius)):
            yield _result(self.aligned[a], self.aligned[b], g, self.options), g

    def unbanded_ranks(self) -> tuple[int, ...]:
        """The ranks ``rank_pairs`` gives the pairs' unbanded alignments,
        read from their corner costs.  Only the pairs whose total ties
        another's are backtracked, in a second sweep over them alone, for
        the mean cost that breaks the tie."""
        totals = [float(g[-1, -1]) for g in self._costs(self.pairs, None)]
        count = Counter(totals)
        tied = [p for p, total in enumerate(totals) if count[total] > 1]
        tied_costs = self._costs([self.pairs[p] for p in tied], None)
        means = {p: mean_cost(totals[p], len(backtrack(g))) for p, g in zip(tied, tied_costs)}
        # A total nothing ties is never compared on its mean.
        return tuple(_ranks([(total, means.get(p, 0.0), pair)
                             for p, (total, pair) in enumerate(zip(totals, self.pairs))]))

    def _costs(
        self, pairs: Sequence[tuple[Hashable, Hashable]], band_radius: int | None
    ) -> Iterator[np.ndarray]:
        """The pairs' cumulative-cost matrices, swept in even chunks of at
        most ``BATCH_PAIRS`` as they are read.  A chunk's matrices are views
        into one array that is freed once none of them is held."""
        chunks = -(-len(pairs) // BATCH_PAIRS)
        for c in range(chunks):
            chunk = pairs[len(pairs) * c // chunks : len(pairs) * (c + 1) // chunks]
            yield from _sweep([(self.aligned[a], self.aligned[b]) for a, b in chunk],
                              band_radius)


def _sweep(
    arrays: Sequence[tuple[np.ndarray, np.ndarray]], band_radius: int | None
) -> list[np.ndarray]:
    """Cumulative-cost matrices of checked (x, y) pairs of 1-d float arrays
    under the absolute local distance, all at once.

    The pairs are padded into one (P, N+1, M+1) array: row and column 0 are
    the +inf border the recursion starts from, with 0 at the corner, and
    cells past a shorter pair's own rows and columns, or outside the band,
    hold +inf.  The local distances are written in and swept one
    anti-diagonal i + j = k at a time, in place: on the flattened
    (N+1)(M+1) grid a diagonal's cells lie M apart, so its cells and its
    diagonal, vertical and horizontal predecessors are four strided views,
    and a diagonal costs three array operations whatever the number of
    pairs.  The cell rule is ``cumulative_cost``'s d + min(diag, vert, horiz),
    so each matrix is bit-equal to that row scan's.
    """
    n_max = max(len(x) for x, _ in arrays)
    m_max = max(len(y) for _, y in arrays)
    g = np.full((len(arrays), n_max + 1, m_max + 1), INF)
    for p, (x, y) in enumerate(arrays):
        np.abs(np.subtract.outer(x, y), out=g[p, 1 : len(x) + 1, 1 : len(y) + 1])
    if band_radius is not None:
        i, j = np.ogrid[: n_max + 1, : m_max + 1]
        g[:, np.abs(i - j) > band_radius] = INF
    g[:, 0, 0] = 0.0
    row = m_max + 1
    flat = g.reshape(len(arrays), -1)
    best = np.empty((len(arrays), min(n_max, m_max)))
    for k in range(2, n_max + m_max + 1):
        lo, hi = max(1, k - m_max), min(n_max, k - 1)
        if band_radius is not None:  # |i - j| = |2i - k| <= band_radius
            lo, hi = max(lo, (k - band_radius + 1) // 2), min(hi, (k + band_radius) // 2)
        if lo > hi:
            continue
        start = lo * row + k - lo
        stop = hi * row + k - hi + 1
        out = best[:, : hi - lo + 1]
        np.minimum(flat[:, start - row - 1 : stop - row - 1 : m_max],
                   flat[:, start - row : stop - row : m_max], out=out)
        np.minimum(out, flat[:, start - 1 : stop - 1 : m_max], out=out)
        cells = flat[:, start:stop:m_max]
        np.add(cells, out, out=cells)
    return [g[p, 1 : len(x) + 1, 1 : len(y) + 1] for p, (x, y) in enumerate(arrays)]


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

    def to_dict(self) -> dict:
        return {
            "entries": [
                {
                    "year_pair": list(e.year_pair),
                    "total_cost": e.total_cost,
                    "mean_cost": e.mean_cost,
                    "path_length": e.path_length,
                    "rank": e.rank,
                }
                for e in self.entries
            ]
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PairRanking":
        return cls(
            entries=tuple(
                RankedPair(
                    (e["year_pair"][0], e["year_pair"][1]),
                    e["total_cost"],
                    e["mean_cost"],
                    e["path_length"],
                    e["rank"],
                )
                for e in d["entries"]
            )
        )


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


def band_sensitivity(
    x, y, radii: list[int], options: DtwOptions = DtwOptions()
) -> list[tuple[int | None, DtwResult]]:
    """Alignments at each band radius plus the unbanded reference (radius None)."""
    out: list[tuple[int | None, DtwResult]] = []
    for r in radii:
        opts = DtwOptions(
            band_radius=r,
            local_metric=options.local_metric,
            normalize_input=options.normalize_input,
        )
        out.append((r, dtw_align(x, y, opts)))
    unbanded = DtwOptions(
        band_radius=None,
        local_metric=options.local_metric,
        normalize_input=options.normalize_input,
    )
    out.append((None, dtw_align(x, y, unbanded)))
    return out
