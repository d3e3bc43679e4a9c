"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run  # puts the source tree on sys.path
from check import build_expected, check_tree, dtw_cost, tree_digest
from inputs import long_history
from tracer import Tracer, band_cells

import seasonwarp.cleaning
import seasonwarp.cli
import seasonwarp.series
from seasonwarp.dtw import DtwOptions, Normalization, dtw_align
from seasonwarp.fixture import generate_fixture
from seasonwarp.series import weeks_in_iso_year


def test_self_time_attribution_on_toy_call_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    fns = {}

    def leaf():
        now[0] += 2.0

    def mid():
        now[0] += 1.0
        fns["leaf"]()
        now[0] += 3.0

    def root():
        now[0] += 5.0
        fns["mid"]()
        fns["leaf"]()
        now[0] += 1.0

    for fn in (leaf, mid, root):
        fns[fn.__name__] = tracer.wrap(f"toy.{fn.__name__}", fn)
    fns["root"]()

    assert tracer.self_times() == {"toy.root": 6.0, "toy.mid": 4.0, "toy.leaf": 4.0}
    assert tracer.calls() == {"toy.root": 1, "toy.mid": 1, "toy.leaf": 2}
    assert sum(tracer.self_times().values()) == 14.0  # the root span


def test_one_span_per_call_through_any_alias():
    original = seasonwarp.series.slice_year
    assert seasonwarp.cli.slice_year is original
    fx = generate_fixture(42)
    records = seasonwarp.cleaning.parse_market_csv(fx.csv_bytes())
    dense, _ = seasonwarp.cleaning.clean_series(
        seasonwarp.series.build_weekly_series(records, seasonwarp.series.Variable.MODAL_PRICE))
    tracer = Tracer()
    tracer.install()
    try:
        assert seasonwarp.cli.slice_year is seasonwarp.series.slice_year
        assert seasonwarp.series.slice_year.__wrapped__ is original
        seasonwarp.cli.slice_year(dense, 2012)
        seasonwarp.series.slice_year(dense, 2013)
    finally:
        tracer.uninstall()
    assert seasonwarp.cli.slice_year is original and seasonwarp.series.slice_year is original
    assert tracer.calls()["series.slice_year"] == 2
    assert [s[1] for s in tracer.spans if s[0] == "series.slice_year"] == [-1, -1]
    assert len(tracer.distinct["series.slice_year"]) == 2


def test_band_cells_matches_brute_force():
    for n, m, r in [(52, 52, 4), (52, 53, 4), (53, 52, 0), (5, 9, 6), (9, 5, 2)]:
        brute = sum(1 for i in range(n) for j in range(m) if abs(i - j) <= r)
        assert band_cells(n, m, r) == brute
    assert band_cells(52, 53, None) == 52 * 53


def test_long_history_is_byte_deterministic():
    a = long_history(7, n_years=30, n_gaps=12, n_spikes=10)
    assert a == long_history(7, n_years=30, n_gaps=12, n_spikes=10)
    assert a.csv_text != long_history(8, n_years=30, n_gaps=12, n_spikes=10).csv_text

    weeks = sum(weeks_in_iso_year(y) for y in range(1995, 2025))
    lines = a.csv_text.splitlines()
    assert lines[0] == "date,arrivals,modal_price"
    assert len(lines) - 1 == weeks - 12
    assert any(weeks_in_iso_year(y) == 53 for y in range(1995, 2025))
    dates = {line.split(",")[0] for line in lines[1:]}
    assert all(g.end_date().isoformat() not in dates for g in a.gap_weeks)
    assert len(set(a.gap_weeks)) == 12 and len(set(a.spike_weeks)) == 10
    assert set(a.gap_weeks).isdisjoint(a.spike_weeks)


@pytest.mark.parametrize("band", [None, 1, 4])
@pytest.mark.parametrize("normalize", [Normalization.NONE, Normalization.ZSCORE])
def test_dtw_oracle_agrees_with_dtw_align(band, normalize):
    rng = np.random.default_rng(3)
    for n, m in [(52, 52), (52, 53), (53, 52)]:
        x = rng.lognormal(7.0, 0.5, n)
        y = rng.lognormal(7.0, 0.5, m)
        got = dtw_align(x, y, DtwOptions(band_radius=band, normalize_input=normalize)).total_cost
        if normalize is Normalization.ZSCORE:
            x, y = (x - x.mean()) / x.std(), (y - y.mean()) / y.std()
        assert dtw_cost(x, y, band) == pytest.approx(got, rel=1e-12)


@pytest.fixture(scope="module")
def report_tree(tmp_path_factory):
    """A real report-default output tree and what the checker expects of it."""
    root = tmp_path_factory.mktemp("report")
    inp = run.fixture_input(42)
    (root / "input.csv").write_text(inp.csv_text)
    w = run.WORKLOADS["report-default"]
    assert seasonwarp.cli.main(w.argv(root / "input.csv") + ["--out-dir", str(root / "out")]) == 0
    gaps = [(g.iso_year, g.iso_week) for g in inp.gap_weeks]
    return root / "out", build_expected(w, inp.csv_text, gaps)


def _retotal(tree: Path) -> None:
    path = tree / "dtw_arrivals_2010-2011.json"
    doc = json.loads(path.read_text())
    doc["result"]["total_cost"] *= 1 + 1e-6
    path.write_text(json.dumps(doc))


def _nan(tree: Path) -> None:
    path = tree / "stats.json"
    text = path.read_text()
    path.write_text(text.replace('"skewness": ', '"skewness": NaN, "was": ', 1))


def _regap(tree: Path) -> None:
    path = tree / "cleaning_modal_price.json"
    doc = json.loads(path.read_text())
    doc["interpolated_weeks"] = doc["interpolated_weeks"][1:]
    path.write_text(json.dumps(doc))


def _remean(tree: Path) -> None:
    path = tree / "stats.json"
    doc = json.loads(path.read_text())
    doc["summaries"]["arrivals"]["mean"] += 0.5
    path.write_text(json.dumps(doc))


def _drop(tree: Path) -> None:
    (tree / "seasonal.svg").unlink()


def test_checker_accepts_the_real_tree(report_tree):
    tree, expected = report_tree
    assert check_tree(tree, expected) == []


@pytest.mark.parametrize("corrupt, symptom", [
    (_retotal, "total_cost"),
    (_nan, "non-finite"),
    (_regap, "interpolated_weeks"),
    (_remean, "mean"),
    (_drop, "file set"),
])
def test_checker_rejects_a_corrupted_tree(report_tree, tmp_path, corrupt, symptom):
    tree, expected = report_tree
    copy = tmp_path / "tree"
    shutil.copytree(tree, copy)
    corrupt(copy)
    assert tree_digest(copy)[0] != tree_digest(tree)[0]
    problems = check_tree(copy, expected)
    assert len(problems) == 1 and symptom in problems[0]


@pytest.mark.xfail(strict=True, reason="spline overshoot clamps a filled price gap to 0 "
                                       "for about one fixture seed in seven")
def test_report_all_accepts_every_fixture_seed(tmp_path):
    code = seasonwarp.cli.main(["report-all", "--seed", "11", "--out-dir", str(tmp_path)])
    assert code == 0


def _bench(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "stats-long", "--seed", "5", "--seconds", "1",
                  "--trace", trace, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[kind]}


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "report-default", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
