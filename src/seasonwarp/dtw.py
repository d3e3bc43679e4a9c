"""Dynamic Time Warping: distance matrix, cost recursion, backtracking, ranking.

The alignment cost is reported two ways and never as a single ambiguous
"distance": ``total_cost`` is the cumulative cost at the end of the warp,
``mean_cost`` is that total divided by the path length K.  DTW is not a
metric (the triangle inequality can fail), so no such property is assumed
anywhere.

Sequences up to a year's length make the O(n*m) recursion instant; plain
Python lists beat array round-trips at this size, so the hot loops below
stay in pure Python by design.
"""

from __future__ import annotations

import math
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
    mean_cost: float
    path: WarpPath
    path_length: int
    options: DtwOptions
    warped_pair: tuple[tuple[float, ...], tuple[float, ...]]

    def __post_init__(self) -> None:
        if self.path_length != len(self.path):
            raise ValueError(
                f"path_length {self.path_length} != |path| {len(self.path)}"
            )
        if len(self.warped_pair[0]) != self.path_length or len(
            self.warped_pair[1]
        ) != self.path_length:
            raise ValueError("warped_pair lists must have path_length entries")
        expected = mean_cost(self.total_cost, self.path_length)
        if abs(self.mean_cost - expected) > 1e-9 * max(1.0, abs(expected)):
            raise ValueError(
                f"mean_cost {self.mean_cost} inconsistent with "
                f"total_cost/path_length = {expected}"
            )

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
        def _values(seq):
            return tuple(tuple(v) if isinstance(v, list) else v for v in seq)

        return cls(
            total_cost=d["total_cost"],
            mean_cost=d["mean_cost"],
            path=WarpPath(tuple((i, j) for i, j in d["path"])),
            path_length=d["path_length"],
            options=DtwOptions.from_dict(d["options"]),
            warped_pair=(_values(d["warped_pair"][0]), _values(d["warped_pair"][1])),
        )


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
    if band_radius is not None and band_radius < abs(n - m):
        raise NoValidPathError(
            f"band radius {band_radius} < |n - m| = {abs(n - m)}; no path can "
            f"reach ({n}, {m})"
        )
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
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if options.normalize_input is Normalization.ZSCORE:
        xa = zscore(xa)
        ya = zscore(ya)
    d = local_distance_matrix(xa, ya, options.local_metric)
    g = cumulative_cost(d, options.band_radius)
    path = backtrack(g)
    total = float(g[-1, -1])
    k = len(path)

    def _value(arr: np.ndarray, idx: int):
        if arr.ndim == 1:
            return float(arr[idx])
        return tuple(float(v) for v in arr[idx])

    warped = (
        tuple(_value(xa, i - 1) for i, _ in path.steps),
        tuple(_value(ya, j - 1) for _, j in path.steps),
    )
    result = DtwResult(
        total_cost=total,
        mean_cost=mean_cost(total, k),
        path=path,
        path_length=k,
        options=options,
        warped_pair=warped,
    )
    return result, d, g


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
    order = sorted(
        range(len(summaries)),
        key=lambda i: (summaries[i][1], summaries[i][2], summaries[i][0]),
    )
    rank_of = {idx: pos + 1 for pos, idx in enumerate(order)}
    return PairRanking(
        entries=tuple(
            RankedPair(pair, total, mean, k, rank_of[i])
            for i, (pair, total, mean, k) in enumerate(summaries)
        )
    )


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
