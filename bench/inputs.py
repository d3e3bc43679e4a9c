"""Seeded input CSVs for the benchmark workloads.

`long_history` writes ``date,arrivals,modal_price`` for N consecutive ISO
years, 53-week years included, with planted interior gap weeks (rows left
out, so cleaning must interpolate them) and planted spike weeks.  It uses only
the public calendar helpers of ``seasonwarp.series``; the same arguments give
the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from seasonwarp.series import WeekKey, week_range, weeks_in_iso_year

LAST_YEAR = 2024
_MIN_SPACING = 4  # weeks between any two planted events, and from the ends


@dataclass(frozen=True)
class BenchInput:
    """One generated CSV plus the ground truth the checker needs."""

    csv_text: str
    gap_weeks: tuple[WeekKey, ...]
    spike_weeks: tuple[WeekKey, ...]
    note: str = ""


def long_history(seed: int, n_years: int, n_gaps: int, n_spikes: int) -> BenchInput:
    """`n_years` ISO years ending in LAST_YEAR, with planted gaps and spikes."""
    rng = np.random.default_rng(seed)
    first = LAST_YEAR - n_years + 1
    weeks = list(week_range(WeekKey(first, 1), WeekKey(LAST_YEAR, weeks_in_iso_year(LAST_YEAR))))
    n = len(weeks)

    phase = np.array([2.0 * math.pi * (w.iso_week - 1) / weeks_in_iso_year(w.iso_year) for w in weeks])
    season = 1.0 + 0.6 * np.sin(phase) + 0.25 * np.cos(2.0 * phase)
    level = np.exp(np.cumsum(rng.normal(0.0, 0.01, n)))
    arrivals = 5000.0 * level * season * np.exp(rng.normal(0.0, 0.3, n))
    prices = 1200.0 / season * np.exp(rng.normal(0.0, 0.2, n))

    # Events sit on a coarse grid so they never touch each other or the ends:
    # a spline bridging a spike could overshoot, and a gap must be interior.
    slots = rng.choice(np.arange(1, n // _MIN_SPACING - 1), size=n_gaps + n_spikes, replace=False)
    events = slots * _MIN_SPACING
    gap_idx = np.sort(events[:n_gaps])
    spike_idx = np.sort(events[n_gaps:])
    arrivals[spike_idx] *= rng.uniform(4.0, 5.5, n_spikes)
    prices[spike_idx] *= rng.uniform(3.8, 4.6, n_spikes)

    arrivals = np.maximum(np.rint(arrivals), 1.0)
    prices = np.maximum(np.rint(prices), 50.0)
    gaps = set(int(i) for i in gap_idx)
    lines = ["date,arrivals,modal_price"]
    for t, wk in enumerate(weeks):
        if t not in gaps:
            lines.append(f"{wk.end_date().isoformat()},{int(arrivals[t])},{int(prices[t])}")
    return BenchInput(
        csv_text="\n".join(lines) + "\n",
        gap_weeks=tuple(weeks[i] for i in gap_idx),
        spike_weeks=tuple(weeks[int(i)] for i in spike_idx),
    )
