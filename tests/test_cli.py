import contextlib
import csv
import filecmp
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import weakref
from collections import Counter
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import cumulative_cost_oracle
import seasonwarp.cli
import seasonwarp.dtw
from seasonwarp.cleaning import clean_series, parse_market_csv
from seasonwarp.cli import main
from seasonwarp.descriptive import describe
from seasonwarp.dtw import dtw_align, rank_pairs
from seasonwarp.fixture import generate_fixture
from seasonwarp.report import matrix_csv, to_json
from seasonwarp.series import Variable, build_weekly_series, slice_year


@pytest.fixture(scope="session")
def fixture_csv(tmp_path_factory, fixture42):
    path = tmp_path_factory.mktemp("data") / "fixture.csv"
    path.write_bytes(fixture42.csv_bytes())
    return path


def _run(*argv):
    return main(list(argv))


def _read_json(path: Path):
    return json.loads(path.read_text())


def _ranking_entries(out: Path, var: str) -> list[dict]:
    return _read_json(out / f"dtw_ranking_{var}.json")["ranking"]["entries"]


def _tree(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _recording_sweeps(monkeypatch) -> list[tuple]:
    """Record (band, number of matrices, sha256 of the matrices, corner
    totals) of each `dtw._sweep` call."""
    sweep, sweeps = seasonwarp.dtw._sweep, []

    def recording_sweep(ds, band_radius):
        gs = sweep(ds, band_radius)
        digest = hashlib.sha256(repr([d.shape for d in ds]).encode())
        for d in ds:
            digest.update(d.tobytes())
        sweeps.append((band_radius, len(ds), digest.digest(), [float(g[-1, -1]) for g in gs]))
        return gs

    monkeypatch.setattr(seasonwarp.dtw, "_sweep", recording_sweep)
    return sweeps


def _sweep_plan(sweeps: list[tuple], pair_counts: list[int], band: int) -> list[tuple]:
    """The (band, number of matrices) of each sweep `PairSet.align` makes for
    variables of `pair_counts` pairs in turn, read against the `sweeps` it
    made: per chunk one unbanded and one banded sweep, then one unbanded
    sweep per chunk of the pairs whose unbanded totals tie."""
    plan: list[tuple] = []
    for n in pair_counts:
        totals = []
        for chunk in seasonwarp.dtw._chunks(range(n)):
            if len(plan) < len(sweeps):  # the chunk's unbanded sweep, if it was made
                totals += sweeps[len(plan)][3]
            plan += [(None, len(chunk)), (band, len(chunk))]
        count = Counter(totals)
        tied = range(sum(count[t] > 1 for t in totals))
        plan += [(None, len(chunk)) for chunk in seasonwarp.dtw._chunks(tied)]
    return plan


def _assert_swept_once(sweeps: list[tuple], pair_counts: list[int], band: int) -> None:
    assert [(b, n) for b, n, _, _ in sweeps] == _sweep_plan(sweeps, pair_counts, band)
    # No chunk is swept twice with the same band.
    assert len({(b, digest) for b, _, digest, _ in sweeps}) == len(sweeps)


def _write_tied_csv(path: Path) -> dict[int, list[int]]:
    """A price CSV of ISO years 2021-2023 whose weekly prices it returns.
    2023 repeats 2021, so (2021, 2022) and (2022, 2023) tie on their
    unbanded total; their paths have 53 and 54 steps, and the longer path's
    lower mean ranks (2022, 2023) before (2021, 2022)."""
    weeks = {2021: [2, 2, 3, 2] + [6] * 48, 2022: [3, 1, 2] + [6] * 49}
    weeks[2023] = weeks[2021]
    first = date.fromisocalendar(2021, 1, 7)
    rows = ["date,arrivals,modal_price"] + [
        f"{first + timedelta(weeks=k)},100,{price}"
        for k, price in enumerate(weeks[2021] + weeks[2022] + weeks[2023])]
    path.write_text("\n".join(rows) + "\n")
    return weeks


class TestFixtureCommand:
    def test_writes_deterministic_csv(self, tmp_path, fixture42):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _run("fixture", "--out-dir", str(out1)) == 0
        assert _run("fixture", "--out-dir", str(out2)) == 0
        assert (out1 / "fixture.csv").read_bytes() == (out2 / "fixture.csv").read_bytes()
        assert (out1 / "fixture.csv").read_bytes() == fixture42.csv_bytes()

    def test_seed_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _run("fixture", "--out-dir", str(out1)) == 0
        assert _run("fixture", "--seed", "7", "--out-dir", str(out2)) == 0
        assert (out1 / "fixture.csv").read_bytes() != (out2 / "fixture.csv").read_bytes()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run("fixture", "--out-dir", str(out)) == 0
        assert _run("fixture", "--out-dir", str(out)) == 2
        assert "fixture.csv" in capsys.readouterr().err
        assert _run("fixture", "--out-dir", str(out), "--force") == 0


class TestCleanCommand:
    def test_outputs_per_variable(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        assert _run("clean", "--input", str(fixture_csv), "--out-dir", str(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "cleaned_arrivals.csv",
            "cleaned_modal_price.csv",
            "cleaning_arrivals.json",
            "cleaning_modal_price.json",
        ]

    def test_cleaning_report_roundtrips(self, tmp_path, fixture_csv, cleaned42):
        out = tmp_path / "o"
        _run("clean", "--input", str(fixture_csv), "--out-dir", str(out))
        report = cleaned42[Variable.ARRIVALS][1]
        assert _read_json(out / "cleaning_arrivals.json") == json.loads(to_json(report))

    def test_cleaned_csv_is_dense(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        _run("clean", "--input", str(fixture_csv), "--out-dir", str(out))
        rows = list(csv.reader(io.StringIO((out / "cleaned_arrivals.csv").read_text())))
        assert len(rows) == 1 + 782
        flags = [r[4] for r in rows[1:]]
        assert flags.count("interpolated") == 6

    def test_single_variable_selection(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        assert (
            _run(
                "clean",
                "--input",
                str(fixture_csv),
                "--variable",
                "price",
                "--out-dir",
                str(out),
            )
            == 0
        )
        names = sorted(p.name for p in out.iterdir())
        assert names == ["cleaned_modal_price.csv", "cleaning_modal_price.json"]

    def test_winsorize_clamps_values(self, tmp_path, fixture_csv):
        plain, wins = tmp_path / "a", tmp_path / "b"
        _run("clean", "--input", str(fixture_csv), "--out-dir", str(plain))
        _run("clean", "--input", str(fixture_csv), "--winsorize", "--out-dir", str(wins))

        def col_max(path):
            rows = list(csv.reader(io.StringIO(path.read_text())))
            return max(float(r[3]) for r in rows[1:])

        assert col_max(wins / "cleaned_arrivals.csv") < col_max(plain / "cleaned_arrivals.csv")
        assert _read_json(wins / "cleaning_arrivals.json")["winsorized"] is True

    def test_years_filter(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        assert (
            _run(
                "clean",
                "--input",
                str(fixture_csv),
                "--years",
                "2015..2017",
                "--out-dir",
                str(out),
            )
            == 0
        )
        rows = list(csv.reader(io.StringIO((out / "cleaned_arrivals.csv").read_text())))
        years = {r[0] for r in rows[1:]}
        assert years == {"2015", "2016", "2017"}
        assert len(rows) == 1 + 53 + 52 + 52

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = _run("clean", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o"))
        assert code == 2

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,arrivals,modal_price\n2021-01-10,xyz,100\n")
        code = _run("clean", "--input", str(bad), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_custom_columns_and_dmy(self, tmp_path):
        src = tmp_path / "alt.csv"
        rows = ["when,qty,px"]
        import datetime as dt

        day = dt.date(2020, 1, 5)
        for k in range(160):
            rows.append(f"{day.strftime('%d/%m/%Y')},{100 + k},{900 - k}")
            day += dt.timedelta(days=7)
        src.write_text("\n".join(rows) + "\n")
        out = tmp_path / "o"
        code = _run(
            "clean",
            "--input",
            str(src),
            "--date-col",
            "when",
            "--arrivals-col",
            "qty",
            "--price-col",
            "px",
            "--date-format",
            "dmy",
            "--out-dir",
            str(out),
        )
        assert code == 0
        assert (out / "cleaned_arrivals.csv").exists()


class TestStatsCommand:
    def test_json_and_csv(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        assert _run("stats", "--input", str(fixture_csv), "--out-dir", str(out)) == 0
        payload = _read_json(out / "stats.json")
        assert set(payload) == {"summaries", "adf_log_price_diff"}
        assert set(payload["summaries"]) == {"arrivals", "modal_price"}
        adf = payload["adf_log_price_diff"]
        assert adf["statistic"] == pytest.approx(-11.8099, abs=5e-4)
        assert adf["pvalue"] < 1e-10
        rows = list(csv.reader(io.StringIO((out / "stats.csv").read_text())))
        assert rows[0] == ["metric", "arrivals", "modal_price"]

    def test_format_subset(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        assert (
            _run(
                "stats",
                "--input",
                str(fixture_csv),
                "--format",
                "json",
                "--out-dir",
                str(out),
            )
            == 0
        )
        assert [p.name for p in out.iterdir()] == ["stats.json"]

    def test_price_only_run_keeps_adf(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        assert (
            _run(
                "stats",
                "--input",
                str(fixture_csv),
                "--variable",
                "price",
                "--out-dir",
                str(out),
            )
            == 0
        )
        payload = _read_json(out / "stats.json")
        assert set(payload["summaries"]) == {"modal_price"}
        assert payload["adf_log_price_diff"] is not None


class TestSeasonalCommand:
    def test_outputs(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        assert _run("seasonal", "--input", str(fixture_csv), "--out-dir", str(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "seasonal.json",
            "seasonal.svg",
            "seasonal_arrivals.csv",
            "seasonal_modal_price.csv",
        ]
        payload = _read_json(out / "seasonal.json")
        table = payload["tables"]["arrivals"]
        assert table["method"] == "weekly-mean"
        assert len(table["entries"]) == 53

    def test_moving_average_detrend(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        assert (
            _run(
                "seasonal",
                "--input",
                str(fixture_csv),
                "--detrend",
                "moving-average",
                "--out-dir",
                str(out),
            )
            == 0
        )
        payload = _read_json(out / "seasonal.json")
        assert payload["tables"]["arrivals"]["method"] == "moving-average"

    def test_single_year_is_insufficient_data(self, tmp_path, fixture_csv, capsys):
        out = tmp_path / "o"
        code = _run(
            "seasonal",
            "--input",
            str(fixture_csv),
            "--years",
            "2016..2016",
            "--out-dir",
            str(out),
        )
        assert code == 2


def _with_cell(csv_bytes: bytes, line_no: int, column: int, cell: str) -> bytes:
    lines = csv_bytes.decode().splitlines()
    fields = lines[line_no - 1].split(",")
    fields[column] = cell
    lines[line_no - 1] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["clean", "stats", "dtw", "report-all"])
    @pytest.mark.parametrize(
        "line_no,column,cell,name",
        [
            (100, 2, "nan", "modal_price"),
            (200, 1, "inf", "arrivals"),
            (300, 2, "1e400", "modal_price"),
            (150, 1, "1e300", "arrivals"),
            (250, 1, "1.5e308", "arrivals"),
        ],
    )
    def test_rejected_with_one_line_and_no_output(
        self, tmp_path, capsys, fixture42, command, line_no, column, cell, name
    ):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(_with_cell(fixture42.csv_bytes(), line_no, column, cell))
        out = tmp_path / "o"
        assert _run(command, "--input", str(bad), "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"line {line_no}: {name} value '{cell}'" in err
        assert not out.exists() or not any(out.iterdir())

    def test_nan_price_names_its_physical_line(self, tmp_path, capsys, fixture42):
        # No other price cell is blank, so the whole column reads as numbers
        # and the NaN must be caught there; the blank lines after the header
        # make the physical line differ from the data row.
        lines = fixture42.csv_bytes().splitlines(keepends=True)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(_with_cell(b"".join([lines[0], b"\n\n", *lines[1:]]), 100, 2, "nan"))
        out = tmp_path / "o"
        assert _run("stats", "--input", str(bad), "--out-dir", str(out)) == 2
        assert capsys.readouterr().err == (
            "seasonwarp: data error: line 100: modal_price value 'nan' is not a finite number\n"
        )
        assert not out.exists()


_BAD_CELLS = ["", "abc", "nan", "inf", "-1", "1e76", "1e300"]
_NON_FINITE_TEXT = re.compile(rb"\b(NaN|Infinity|nan|inf)\b")


def _mutate(csv_bytes: bytes, mutation: tuple) -> bytes:
    kind, *args = mutation
    if kind == "cell":
        return _with_cell(csv_bytes, *args)
    if kind == "duplicate":
        lines = csv_bytes.decode().splitlines(keepends=True)
        return "".join(lines[: args[0]] + lines[args[0] - 1 :]).encode()
    return b"\xef\xbb\xbf" + csv_bytes


class TestCliContract:
    """One mutated cell or row: `stats` either succeeds cleanly or fails cleanly."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        mutation=st.one_of(
            st.tuples(
                st.just("cell"),
                st.integers(2, 700),
                st.integers(0, 2),
                st.sampled_from(_BAD_CELLS),
            ),
            st.tuples(st.just("duplicate"), st.integers(2, 700)),
            st.just(("bom",)),
        )
    )
    @example(mutation=("cell", 300, 1, "1e300"))
    @example(mutation=("cell", 400, 2, ""))
    def test_stats_exit_code_contract(self, fixture42, mutation):
        with tempfile.TemporaryDirectory() as tmp:
            data, out = Path(tmp) / "in.csv", Path(tmp) / "o"
            data.write_bytes(_mutate(fixture42.csv_bytes(), mutation))
            out.mkdir()
            (out / "keep.txt").write_bytes(b"kept")
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = _run("stats", "--input", str(data), "--out-dir", str(out))
            produced = {p.name: p.read_bytes() for p in out.iterdir()}
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
            assert produced == {"keep.txt": b"kept"}
        else:
            for name, content in produced.items():
                assert not _NON_FINITE_TEXT.search(content), name


class TestIngestBoundary:
    """Bad bytes, row shapes and seeds: exit 1 or 2, one stderr line, --out-dir unchanged."""

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize(
        "case,code,message",
        [
            ("latin-1 input", 2, "data error: input is not UTF-8: byte 0xe9 at offset 59"),
            ("short row", 2, "data error: line 3: 2 fields where the header has 3"),
            ("extra field", 2, "data error: line 3: 4 fields where the header has 3"),
            ("zoned date", 2,
             "data error: line 3: cannot parse date '2010-01-17 00:00Z' with format 'iso'"),
            ("latin-1 config", 1, "usage error: {cfg}: not UTF-8: byte 0xe9 at offset 14"),
            ("fixture seed", 1, "usage error: --seed must be >= 0, got -1"),
            ("report-all seed", 1, "usage error: --seed must be >= 0, got -1"),
            ("blank price column", 2,
             "data error: spline fill needs >= 4 observed points for modal_price, got 0"),
            ("one seasonal year", 2,
             "data error: seasonal index needs >= 2 complete ISO years for arrivals, got 1"),
            # An empty path would name the working directory.
            ("empty --out-dir", 1, "usage error: --out-dir is an empty path"),
            ("fixture empty --out-dir", 1, "usage error: --out-dir is an empty path"),
            ("empty out_dir line", 1, "usage error: --out-dir is an empty path"),
            ("empty --input", 1, "usage error: --input is an empty path"),
            ("empty input line", 1, "usage error: --input is an empty path"),
            ("empty --config", 1, "usage error: --config is an empty path"),
        ],
    )
    def test_one_line_and_out_dir_unchanged(self, tmp_path, capsys, monkeypatch, fixture42, case,
                                            code, message):
        monkeypatch.chdir(tmp_path)
        lines = fixture42.csv_bytes().splitlines(keepends=True)
        data, cfg = tmp_path / "in.csv", tmp_path / "run.cfg"
        data.write_bytes(fixture42.csv_bytes())
        cfg.write_bytes(b"variable = pri\xe9ce\n")
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_bytes(b"kept")
        argv = ["stats", "--input", str(data)]
        out_flags = ["--out-dir", str(out)]
        if case == "latin-1 input":
            data.write_bytes(b"".join(lines[:2]) + lines[2].replace(b",", b",\xe9", 1))
        elif case == "short row":
            data.write_bytes(b"".join(lines[:2]) + lines[2].rsplit(b",", 1)[0] + b"\n")
        elif case == "extra field":
            data.write_bytes(b"".join(lines[:2]) + lines[2].rstrip() + b",7\n")
        elif case == "zoned date":
            data.write_bytes(b"".join(lines[:2]) + lines[2].replace(b",", b" 00:00Z,", 1))
        elif case == "latin-1 config":
            argv += ["--config", str(cfg)]
        elif case == "blank price column":
            data.write_bytes(lines[0] + b"".join(row.rsplit(b",", 1)[0] + b",\n"
                                                 for row in lines[1:]))
        elif case == "one seasonal year":
            argv = ["seasonal", "--input", str(data), "--years", "2010..2010"]
        elif case == "fixture seed":
            argv = ["fixture", "--seed", "-1"]
        elif case == "report-all seed":
            argv = ["report-all", "--seed", "-1"]
        elif case == "empty --out-dir":
            out_flags.append("--out-dir=")
        elif case == "fixture empty --out-dir":
            argv, out_flags = ["fixture"], ["--out-dir="]
        elif case.endswith(" line"):  # a config line and no flag for it
            cfg.write_text(f"{case.split()[1]} =\n")
            argv = ["stats", "--config", str(cfg)]
            if case == "empty out_dir line":
                argv += ["--input", str(data)]
                out_flags = []
        elif case == "empty --input":
            argv = ["stats", "--input="]
        else:
            argv += ["--config="]
        assert _run(*argv, *out_flags) == code
        assert capsys.readouterr().err == f"seasonwarp: {message.format(cfg=cfg)}\n"
        assert _tree(out) == {"keep.txt": b"kept"}
        assert sorted(os.listdir(tmp_path)) == ["in.csv", "o", "run.cfg"]

    @pytest.mark.parametrize("command", ["report-all", "stats"])
    def test_nonpositive_price_is_a_data_error(self, tmp_path, capsys, command):
        # Fixture seed 11's spline fill clamps price week 2024-W45 to 0.0,
        # where the log differences the ADF test takes are undefined.
        out, data = tmp_path / "o", tmp_path / "in.csv"
        argv = ["report-all", "--seed", "11"]
        if command == "stats":
            data.write_bytes(generate_fixture(11).csv_bytes())
            argv = ["stats", "--input", str(data)]
        assert _run(*argv, "--out-dir", str(out)) == 2
        assert capsys.readouterr().err == ("seasonwarp: data error: log_diff requires positive "
                                           "values; value 0.0 at index 774\n")
        assert not out.exists()

    def test_years_window_clamps_to_dated_years(self, tmp_path, capsys, fixture_csv):
        plain, wide, none = tmp_path / "plain", tmp_path / "wide", tmp_path / "none"
        assert _run("stats", "--input", str(fixture_csv), "--out-dir", str(plain)) == 0
        assert _run("stats", "--input", str(fixture_csv), "--years", "2010..99999999999",
                    "--out-dir", str(wide)) == 0
        assert _tree(wide) == _tree(plain)
        capsys.readouterr()
        assert _run("stats", "--input", str(fixture_csv), "--years", "0..3",
                    "--out-dir", str(none)) == 2
        err = capsys.readouterr().err
        assert err == ("seasonwarp: data error: spline fill needs >= 4 observed points for "
                       "arrivals, got 0\n")
        assert not none.exists()

    def test_dtw_years_beyond_iso_range(self, tmp_path, capsys, fixture_csv):
        out = tmp_path / "o"
        assert _run("dtw", "--input", str(fixture_csv), "--variable", "price",
                    "--years", "2021..99999999999", "--format", "csv", "--out-dir", str(out)) == 0
        err = capsys.readouterr().err
        assert err == "warning: skipping incomplete year(s) for modal_price: 2025..9999\n"
        rows = list(csv.reader(io.StringIO((out / "dtw_ranking_modal_price.csv").read_text())))
        assert [r[0] for r in rows[1:]] == ["2021-2022", "2022-2023", "2023-2024"]

    def test_dtw_years_around_the_data_are_ranges(self, tmp_path, capsys, fixture_csv):
        # The fixture holds 2010..2024; years on either side are summarised,
        # by both commands that keep complete years only.
        for command in ("dtw", "seasonal"):
            assert _run(command, "--input", str(fixture_csv), "--variable", "price",
                        "--years=-5..2013", "--format", "csv",
                        "--out-dir", str(tmp_path / command / "a")) == 0
            assert _run(command, "--input", str(fixture_csv), "--variable", "price",
                        "--years", "2000..2026", "--format", "csv",
                        "--out-dir", str(tmp_path / command / "b")) == 0
            assert capsys.readouterr().err == (
                "warning: skipping incomplete year(s) for modal_price: 1..2009\n"
                "warning: skipping incomplete year(s) for modal_price: 2000..2009, 2025..2026\n"
            )


class TestDtwCommand:
    def test_consecutive_pairs_outputs(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        assert (
            _run(
                "dtw",
                "--input",
                str(fixture_csv),
                "--variable",
                "price",
                "--years",
                "2020..2023",
                "--out-dir",
                str(out),
            )
            == 0
        )
        names = sorted(p.name for p in out.iterdir())
        assert "dtw_modal_price_2020-2021.json" in names
        assert "dtw_modal_price_2022-2023.svg" in names
        assert "dtw_ranking_modal_price.json" in names
        entries = _ranking_entries(out, "modal_price")
        assert sorted(e["rank"] for e in entries) == [1, 2, 3]

    def test_result_json_roundtrips(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        _run(
            "dtw",
            "--input",
            str(fixture_csv),
            "--variable",
            "price",
            "--years",
            "2020..2022",
            "--out-dir",
            str(out),
        )
        payload = _read_json(out / "dtw_modal_price_2020-2021.json")
        # The warped pair is the path applied to the inputs: not written.
        assert set(payload["result"]) == {
            "total_cost", "mean_cost", "path", "path_length", "options"}
        result = payload["result"]
        assert result["path"][0] == [1, 1]
        assert result["path"][-1] == [53, 52]
        assert result["path_length"] == len(result["path"])
        assert result["mean_cost"] == result["total_cost"] / result["path_length"]

    def test_all_pairs(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        assert (
            _run(
                "dtw",
                "--input",
                str(fixture_csv),
                "--variable",
                "price",
                "--years",
                "2020..2023",
                "--all-pairs",
                "--out-dir",
                str(out),
            )
            == 0
        )
        assert len(_ranking_entries(out, "modal_price")) == 6

    def test_band_reports_rank_agreement(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        assert (
            _run(
                "dtw",
                "--input",
                str(fixture_csv),
                "--variable",
                "price",
                "--years",
                "2021..2024",
                "--band",
                "4",
                "--out-dir",
                str(out),
            )
            == 0
        )
        payload = _read_json(out / "dtw_ranking_modal_price.json")
        assert payload["band_radius"] == 4
        assert payload["rank_order_vs_unbanded"]["changed"] is False
        assert [e["rank"] for e in payload["ranking"]["entries"]] == [3, 1, 2]

    def test_dump_matrices(self, tmp_path, fixture_csv):
        out = tmp_path / "o"
        assert (
            _run(
                "dtw",
                "--input",
                str(fixture_csv),
                "--variable",
                "price",
                "--years",
                "2020..2021",
                "--dump-matrices",
                "--out-dir",
                str(out),
            )
            == 0
        )
        local = (out / "dtw_modal_price_2020-2021_local.csv").read_text()
        rows = list(csv.reader(io.StringIO(local)))
        assert len(rows) == 53 and len(rows[0]) == 52

    @pytest.mark.parametrize("band", [[], ["--band", "4"]])
    def test_dumped_distances_are_the_swept_ones(
        self, tmp_path, fixture_csv, cleaned42, monkeypatch, band
    ):
        dtw = seasonwarp.dtw
        distance_matrix, built = dtw._distance_matrix, []

        def counting_distance_matrix(x, y):
            built.append((len(x), len(y)))
            return distance_matrix(x, y)

        monkeypatch.setattr(dtw, "_distance_matrix", counting_distance_matrix)
        out = tmp_path / "o"
        code = _run("dtw", "--input", str(fixture_csv), "--years", "2020..2023", "--all-pairs",
                    "--dump-matrices", "--format", "json", "--out-dir", str(out), *band)
        assert code == 0
        # Per variable: 4 years, 6 pairs; each pair's distances are built
        # once, for the sweep (and, under a band, the unbanded reference
        # sweep, no total tying), and the dumped matrix is that one.
        n_pairs = sum(len(_ranking_entries(out, var)) for var in ("arrivals", "modal_price"))
        assert n_pairs == 12
        assert len(built) == n_pairs
        series, _ = cleaned42[Variable.MODAL_PRICE]
        x, y = (slice_year(series, year) for year in (2021, 2023))
        assert (out / "dtw_modal_price_2021-2023_local.csv").read_bytes() == matrix_csv(
            np.abs(np.subtract.outer(x, y))).encode()

    @pytest.mark.parametrize("band", [[], ["--band", "4"]])
    @pytest.mark.parametrize("tied", [False, True])
    def test_each_chunk_freed_before_the_next_sweep(self, tmp_path, fixture_csv, monkeypatch,
                                                    tied, band):
        dtw = seasonwarp.dtw
        sweep, swept = dtw._sweep, []

        def checking_sweep(ds, band_radius):
            # No pair's d or g, each a view of its chunk, outlives the chunk.
            assert [ref() is None for ref in swept] == [True] * len(swept)
            gs = sweep(ds, band_radius)
            swept.append(weakref.ref(gs[0].base))
            return gs

        monkeypatch.setattr(dtw, "_sweep", checking_sweep)
        if tied:
            _write_tied_csv(tmp_path / "in.csv")
            data = ["--input", str(tmp_path / "in.csv"), "--variable", "price"]
        else:
            data = ["--input", str(fixture_csv), "--years", "2020..2023"]
        monkeypatch.setattr(dtw, "BATCH_PAIRS", 1 if tied else 2)
        code = _run("dtw", *data, "--all-pairs", "--dump-matrices", "--format", "svg",
                    "--out-dir", str(tmp_path / "o"), *band)
        assert code == 0
        # Fixture, per variable: 6 pairs in 3 chunks, each swept once, or
        # under a band once more without it (no unbanded total ties).  Tied
        # price: 3 pairs in 3 chunks, and under a band 3 unbanded sweeps and
        # the 2 tied pairs' sweeps again.
        assert len(swept) == {(False, False): 6, (False, True): 12,
                              (True, False): 3, (True, True): 8}[tied, bool(band)]

    def test_tied_unbanded_totals_rebuild_only_the_tied_pairs(self, tmp_path, monkeypatch):
        weeks = _write_tied_csv(tmp_path / "in.csv")
        dtw = seasonwarp.dtw
        distance_matrix, built = dtw._distance_matrix, []

        def counting_distance_matrix(x, y):
            built.append((tuple(x), tuple(y)))
            return distance_matrix(x, y)

        monkeypatch.setattr(dtw, "_distance_matrix", counting_distance_matrix)
        sweeps = _recording_sweeps(monkeypatch)
        out = tmp_path / "o"
        assert _run("dtw", "--input", str(tmp_path / "in.csv"), "--variable", "price",
                    "--all-pairs", "--band", "4", "--format", "json", "--out-dir", str(out)) == 0
        # Each pair is built once, and the two tied pairs once more.
        a, b, c = (tuple(weeks[year]) for year in sorted(weeks))
        assert built == [(a, b), (a, c), (b, c), (a, b), (b, c)]
        _assert_swept_once(sweeps, [3], 4)
        assert [(band, n) for band, n, _, _ in sweeps] == [(None, 3), (4, 3), (None, 2)]
        monkeypatch.undo()
        pairs = [(2021, 2022), (2021, 2023), (2022, 2023)]
        expected = rank_pairs([(pair, dtw_align(weeks[pair[0]], weeks[pair[1]])) for pair in pairs])
        assert [(e.total_cost, e.path_length) for e in expected.entries] == [
            (3.0, 53), (0.0, 52), (3.0, 54)]
        payload = _read_json(out / "dtw_ranking_modal_price.json")
        assert payload["rank_order_vs_unbanded"]["unbanded_ranks"] == list(expected.ranks()) == [
            3, 1, 2]

    def test_each_slice_and_cost_matrix_built_once(self, tmp_path, fixture_csv, monkeypatch):
        dtw = seasonwarp.dtw
        slice_year, backtrack = seasonwarp.cli.slice_year, dtw.backtrack
        slice_calls, slices, figures = Counter(), {}, []
        backtracks = []
        sweeps = _recording_sweeps(monkeypatch)

        def counting_backtrack(g):
            backtracks.append(np.asarray(g).shape)
            return backtrack(g)

        def counting_slice_year(series, iso_year):
            key = (series.variable.value, iso_year)
            slice_calls[key] += 1
            slices[key] = slice_year(series, iso_year)
            return slices[key]

        def recording_dtw_figure(g, *args, metadata, **kwargs):
            figures.append((metadata["variable"], metadata["year_pair"], g))
            return "<svg/>\n"

        monkeypatch.setattr(dtw, "backtrack", counting_backtrack)
        monkeypatch.setattr(seasonwarp.cli, "slice_year", counting_slice_year)
        monkeypatch.setattr(seasonwarp.cli, "dtw_figure", recording_dtw_figure)
        code = _run(
            "dtw", "--input", str(fixture_csv), "--years", "2020..2023", "--all-pairs",
            "--band", "4", "--normalize", "zscore", "--format", "svg",
            "--out-dir", str(tmp_path / "o"),
        )
        assert code == 0
        # Per variable: 4 years, 6 pairs.  The banded matrices and the
        # unbanded reference costs each come from one sweep of the chunk,
        # and only the 12 drawn paths are backtracked.
        assert slice_calls == {(v, y): 1 for v in ("arrivals", "modal_price")
                               for y in range(2020, 2024)}
        _assert_swept_once(sweeps, [6, 6], 4)
        assert len(sweeps) == 4
        assert len(backtracks) == 12
        assert len(figures) == 12
        for var, (y1, y2), g in figures:
            x, y = (dtw.zscore(slices[var, year]) for year in (y1, y2))
            expected = cumulative_cost_oracle(np.abs(np.subtract.outer(x, y)), 4)
            assert g.tobytes() == expected.tobytes()

    def test_each_slice_zscored_once(self, tmp_path, fixture_csv, monkeypatch):
        zscore, calls = seasonwarp.dtw.zscore, []

        def counting_zscore(values):
            calls.append(len(values))
            return zscore(values)

        monkeypatch.setattr(seasonwarp.dtw, "zscore", counting_zscore)
        out = tmp_path / "o"
        code = _run("dtw", "--input", str(fixture_csv), "--all-pairs", "--band", "4",
                    "--normalize", "zscore", "--format", "json", "--out-dir", str(out))
        assert code == 0
        n_slices = sum(
            len({year for e in _ranking_entries(out, var) for year in e["year_pair"]})
            for var in ("arrivals", "modal_price")
        )
        assert n_slices == 30
        assert len(calls) == n_slices

    def test_single_year_is_insufficient_data(self, tmp_path, fixture_csv, capsys):
        # The same shortfall as in `seasonal`, with the same exit code.
        out = tmp_path / "o"
        code = _run(
            "dtw",
            "--input",
            str(fixture_csv),
            "--years",
            "2016..2016",
            "--out-dir",
            str(out),
        )
        assert code == 2
        assert capsys.readouterr().err.endswith(
            "seasonwarp: data error: DTW needs at least two complete years for arrivals; "
            "found 1\n")
        assert not out.exists()

    def test_incomplete_years_warn_and_skip(self, tmp_path, fixture_csv, capsys):
        out = tmp_path / "o"
        code = _run(
            "dtw",
            "--input",
            str(fixture_csv),
            "--variable",
            "price",
            "--years",
            "2019..2021",
            "--out-dir",
            str(out),
        )
        assert code == 0
        assert "2019" in capsys.readouterr().err
        assert [e["year_pair"] for e in _ranking_entries(out, "modal_price")] == [[2020, 2021]]


    @pytest.mark.parametrize("edge, skipped, pairs", [
        ("first", "2010", ["2011-2012", "2023-2024"]),
        ("last", "2024", ["2010-2011", "2022-2023"]),
    ])
    def test_incomplete_edge_year_warns_without_years(
        self, tmp_path, capsys, fixture42, edge, skipped, pairs
    ):
        # Without --years the window is the data's own span, so a year cut
        # short at either end is named like any other skipped year, by dtw
        # and seasonal alike.
        header, *rows = fixture42.csv_bytes().splitlines(keepends=True)
        path = tmp_path / "edge.csv"
        path.write_bytes(b"".join([header, *(rows[1:] if edge == "first" else rows[:-1])]))
        out = tmp_path / "o"
        for command in ("dtw", "seasonal"):
            assert _run(command, "--input", str(path), "--variable", "price", "--format", "csv",
                        "--out-dir", str(out)) == 0
            assert capsys.readouterr().err == (
                f"warning: skipping incomplete year(s) for modal_price: {skipped}\n")
        rows = list(csv.reader(io.StringIO((out / "dtw_ranking_modal_price.csv").read_text())))
        assert [rows[1][0], rows[-1][0]] == pairs
        assert len(rows) == 1 + 13
        rows = list(csv.reader(io.StringIO((out / "seasonal_modal_price.csv").read_text())))
        assert {row[2] for row in rows[1:53]} == {"14"}  # support of weeks 1..52

    @pytest.mark.parametrize("command, calls", [
        ("clean", 0), ("stats", 0), ("seasonal", 2), ("dtw", 2), ("report-all", 2),
    ])
    def test_complete_years_found_and_warned_once_per_variable(
        self, tmp_path, capsys, fixture42, monkeypatch, command, calls
    ):
        # The fixture without its first data row: 2010 is short for both variables.
        header, _, *rows = fixture42.csv_bytes().splitlines(keepends=True)
        path = tmp_path / "edge.csv"
        path.write_bytes(b"".join([header, *rows]))
        found = []
        inner = seasonwarp.series.complete_years
        for module in [m for name, m in sys.modules.items() if name.startswith("seasonwarp")]:
            if getattr(module, "complete_years", None) is inner:  # every alias counts
                monkeypatch.setattr(module, "complete_years",
                                    lambda dense: found.append(dense.variable) or inner(dense))
        assert _run(command, "--input", str(path), "--out-dir", str(tmp_path / "o")) == 0
        assert found == [Variable.ARRIVALS, Variable.MODAL_PRICE][:calls]
        assert capsys.readouterr().err == "".join(
            f"warning: skipping incomplete year(s) for {var.value}: 2010\n" for var in found)


class TestReportAll:
    def test_full_tree_without_input_uses_generated_data(self, tmp_path):
        out = tmp_path / "o"
        assert _run("report-all", "--out-dir", str(out)) == 0
        names = {p.name for p in out.iterdir()}
        for expected in (
            "fixture.csv",
            "cleaned_arrivals.csv",
            "cleaning_modal_price.json",
            "series_arrivals.svg",
            "stats.json",
            "stats.csv",
            "seasonal.json",
            "seasonal.svg",
            "dtw_ranking_arrivals.json",
            "dtw_ranking_modal_price.svg",
            "bundle.json",
        ):
            assert expected in names, expected

    def test_bundle_roundtrips(self, tmp_path):
        out = tmp_path / "o"
        _run("report-all", "--out-dir", str(out))
        bundle = _read_json(out / "bundle.json")
        assert set(bundle["summaries"]) == {"arrivals", "modal_price"}
        assert bundle["adf_log_price_diff"] is not None

    @pytest.mark.parametrize(
        "data_opts, dtw_opts",
        [((), ()), (("--winsorize",), ("--all-pairs", "--band", "4", "--normalize", "zscore")),
         (("--winsorize",), ())],
    )
    def test_tree_is_union_of_subcommand_trees(self, tmp_path, fixture_csv, data_opts, dtw_opts):
        common = ("--input", str(fixture_csv), "--format", "json,csv,svg", *data_opts)
        union: dict[str, bytes] = {}
        for command, extra in (("clean", ()), ("stats", ()), ("seasonal", ()), ("dtw", dtw_opts)):
            out = tmp_path / command
            assert _run(command, *common, *extra, "--out-dir", str(out)) == 0
            tree = _tree(out)
            assert union.keys().isdisjoint(tree)
            union.update(tree)
        out = tmp_path / "report-all"
        assert _run("report-all", *common, *dtw_opts, "--out-dir", str(out)) == 0
        report = _tree(out)
        own = {"series_arrivals.svg", "series_modal_price.svg", "bundle.json"}
        assert report.keys() - union.keys() == own
        assert {name: report[name] for name in report.keys() - own} == union

    def test_each_value_computed_once(self, tmp_path, fixture_csv, monkeypatch):
        calls = Counter()

        def counting(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("parse_market_csv", "spline_fill", "flag_outliers", "describe",
                     "seasonal_index", "adf_test", "slice_year"):
            counting(seasonwarp.cli, name)
        counting(seasonwarp.dtw, "backtrack")
        sweeps = _recording_sweeps(monkeypatch)
        out = tmp_path / "o"
        code = _run("report-all", "--input", str(fixture_csv), "--all-pairs", "--band", "4",
                    "--format", "json", "--out-dir", str(out))
        assert code == 0
        pairs = [
            [e["year_pair"] for e in _ranking_entries(out, var)]
            for var in ("arrivals", "modal_price")
        ]
        n_pairs = sum(len(p) for p in pairs)
        n_years = sum(len({year for pair in p for year in pair}) for p in pairs)
        assert n_pairs > 2
        assert calls == Counter({
            "parse_market_csv": 1,
            "spline_fill": 2,
            "flag_outliers": 2,
            "describe": 2,
            "seasonal_index": 2,
            "adf_test": 1,
            "slice_year": n_years,
            # Only the drawn paths are backtracked.
            "backtrack": n_pairs,
        })
        # Banded and unbanded matrices come from one sweep of each chunk.
        _assert_swept_once(sweeps, [len(p) for p in pairs], 4)

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run("report-all", "--out-dir", str(a)) == 0
        assert _run("report-all", "--out-dir", str(b)) == 0
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        assert names_a == names_b
        match, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
        assert mismatch == [] and errors == []

    def test_every_json_file_in_json_dumps_form(self, tmp_path):
        # to_json writes its own text; every file must read as json.dumps
        # with indent=2 and sorted keys writes the data it holds.
        out = tmp_path / "o"
        assert _run("report-all", "--all-pairs", "--band", "4", "--out-dir", str(out)) == 0
        texts = {p.name: p.read_text() for p in out.glob("*.json")}
        assert len(texts) > 200 and "bundle.json" in texts
        for name, text in texts.items():
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


class TestCleaningPasses:
    @pytest.mark.parametrize("winsorize", [False, True])
    @pytest.mark.parametrize("command, writes_flags", [
        ("clean", True), ("stats", False), ("seasonal", False), ("dtw", False),
        ("report-all", True),
    ])
    def test_each_cleaning_pass_runs_once_and_only_when_needed(
        self, tmp_path, fixture_csv, monkeypatch, command, writes_flags, winsorize
    ):
        # The outlier pass runs for the flags and the cleaning report, or for
        # the values --winsorize clamps; the spline fill always runs, once.
        calls = Counter()
        for name in ("spline_fill", "flag_outliers"):
            inner = getattr(seasonwarp.cli, name)

            def wrapper(*args, _name=name, _inner=inner, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(seasonwarp.cli, name, wrapper)
        argv = [command, "--input", str(fixture_csv), "--out-dir", str(tmp_path / "o")]
        assert _run(*argv, *(["--winsorize"] if winsorize else [])) == 0
        outlier_passes = 2 if writes_flags or winsorize else 0
        assert (calls["spline_fill"], calls["flag_outliers"]) == (2, outlier_passes)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_summaries_describe_the_cleaned_values(self, tmp_path, seed):
        # stats reads the values clean_series gives, with and without
        # --winsorize, which moves them on every one of these seeds.
        data = generate_fixture(seed).csv_bytes()
        (tmp_path / "in.csv").write_bytes(data)
        table = parse_market_csv(data)
        found = {}
        for winsorize in (False, True):
            out = tmp_path / f"w{winsorize}"
            argv = ["stats", "--input", str(tmp_path / "in.csv"), "--out-dir", str(out)]
            assert _run(*argv, *(["--winsorize"] if winsorize else [])) == 0
            found[winsorize] = _read_json(out / "stats.json")["summaries"]
            for var in Variable:
                dense, _ = clean_series(build_weekly_series(table, var), winsorize=winsorize)
                want = json.loads(to_json(describe(dense.values())))
                assert found[winsorize][var.value] == want
        assert found[False] != found[True]


class TestConfigAndUsage:
    def test_config_file_supplies_defaults(self, tmp_path, fixture_csv):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "o"
        cfg.write_text(
            "# analysis defaults\n"
            f"input = {fixture_csv}\n"
            f"out-dir = {out}\n"
            "variable = price\n"
        )
        assert _run("clean", "--config", str(cfg)) == 0
        assert (out / "cleaned_modal_price.csv").exists()
        assert not (out / "cleaned_arrivals.csv").exists()

    def test_flags_override_config(self, tmp_path, fixture_csv):
        cfg = tmp_path / "run.cfg"
        out_cfg, out_flag = tmp_path / "cfg", tmp_path / "flag"
        cfg.write_text(f"input = {fixture_csv}\nout-dir = {out_cfg}\nvariable = price\n")
        assert (
            _run("clean", "--config", str(cfg), "--variable", "arrivals", "--out-dir", str(out_flag))
            == 0
        )
        assert (out_flag / "cleaned_arrivals.csv").exists()
        assert not out_cfg.exists()

    @pytest.mark.parametrize("line, message", [
        ("bogus-key = 1", "unrecognized arguments: --bogus-key=1"),
        ("variable price", "expected key=value, got 'variable price'"),
    ], ids=["unknown key", "no equals sign"])
    def test_unknown_config_key_is_usage_error(self, tmp_path, fixture_csv, capsys, line,
                                               message):
        cfg, out = tmp_path / "run.cfg", tmp_path / "o"
        cfg.write_text(f"# analysis defaults\n{line}\n")
        code = _run("clean", "--config", str(cfg), "--input", str(fixture_csv),
                    "--out-dir", str(out))
        assert code == 1
        assert capsys.readouterr().err == f"seasonwarp: usage error: {cfg}:2: {message}\n"
        assert not out.exists()

    def test_missing_out_dir_is_usage_error(self, fixture_csv):
        assert _run("clean", "--input", str(fixture_csv)) == 1

    def test_missing_input_is_usage_error(self, tmp_path):
        assert _run("clean", "--out-dir", str(tmp_path / "o")) == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        assert _run("frobnicate") == 1

    def test_no_subcommand_exits_1(self, capsys):
        assert _run() == 1

    @pytest.mark.parametrize("years, message", [
        ("2020-2021", "--years expects A..B, got '2020-2021'"),
        ("20x0..2021", "--years expects integer years, got '20x0..2021'"),
        ("2021..2020", "--years range is reversed: '2021..2020'"),
    ])
    def test_bad_years_range_is_usage_error(self, tmp_path, fixture_csv, capsys, years, message):
        out = tmp_path / "o"
        code = _run("clean", "--input", str(fixture_csv), "--years", years, "--out-dir", str(out))
        assert code == 1
        assert capsys.readouterr().err == f"seasonwarp: usage error: argument --years: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("formats, message", [
        ("json,pdf", "unknown output format(s): pdf"),
        (",", "--format needs at least one of json,csv,svg"),
    ])
    def test_bad_format_is_usage_error(self, tmp_path, fixture_csv, capsys, formats, message):
        out = tmp_path / "o"
        code = _run("stats", "--input", str(fixture_csv), "--format", formats, "--out-dir",
                    str(out))
        assert code == 1
        assert capsys.readouterr().err == f"seasonwarp: usage error: argument --format: {message}\n"
        assert not out.exists()

    def test_negative_band_is_usage_error(self, tmp_path, fixture_csv):
        code = _run(
            "dtw",
            "--input",
            str(fixture_csv),
            "--band",
            "-3",
            "--out-dir",
            str(tmp_path / "o"),
        )
        assert code == 1

    def test_failed_write_leaves_out_dir_as_it_was(self, tmp_path, fixture_csv, monkeypatch):
        out = tmp_path / "o"
        assert _run("clean", "--input", str(fixture_csv), "--years", "2015..2016",
                    "--out-dir", str(out)) == 0
        before = _tree(out)
        write_bytes, written = Path.write_bytes, []

        def failing_write_bytes(path, data):
            written.append(path.name)
            if len(written) == 3:
                raise OSError(28, "No space left on device")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", failing_write_bytes)
        code = _run("report-all", "--input", str(fixture_csv), "--force", "--out-dir", str(out))
        assert code == 2
        assert len(written) == 3
        assert sorted(p.name for p in out.iterdir()) == sorted(before)  # no staging left
        assert _tree(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["o"]

    def test_force_onto_a_directory_leaves_out_dir_as_it_was(self, tmp_path, capsys):
        # --force replaces files, never a directory; one found among the
        # names stops the run before any file is moved.
        out = tmp_path / "o"
        assert _run("report-all", "--out-dir", str(out)) == 0
        (out / "stats.json").unlink()
        (out / "stats.json").mkdir()
        (out / "stats.json" / "inner.txt").write_bytes(b"inner")
        (out / "seasonal.json").write_bytes(b"old")
        before = {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None
                  for p in out.rglob("*")}
        capsys.readouterr()
        assert _run("report-all", "--force", "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stats.json" in err, err
        assert {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None
                for p in out.rglob("*")} == before

    def test_at_most_one_group_and_one_file_held(self, tmp_path, fixture_csv, monkeypatch):
        # Made files are written in groups while the run goes on: before
        # each file is stored, less than one group's bytes are unwritten,
        # so at most _HELD_BYTES plus one file is ever held.
        store, write_bytes = seasonwarp.cli._OutputTree.__setitem__, Path.write_bytes
        made, written, unwritten = [0], [0], []

        def recording_store(tree, name, text):
            unwritten.append(made[0] - written[0])
            made[0] += len(text.encode("utf-8"))
            return store(tree, name, text)

        def recording_write_bytes(path, data):
            written[0] += len(data)
            return write_bytes(path, data)

        monkeypatch.setattr(seasonwarp.cli._OutputTree, "__setitem__", recording_store)
        monkeypatch.setattr(Path, "write_bytes", recording_write_bytes)
        out = tmp_path / "o"
        assert _run("report-all", "--input", str(fixture_csv), "--all-pairs", "--band", "4",
                    "--out-dir", str(out)) == 0
        assert len(unwritten) == len(list(out.iterdir())) > 400
        assert max(unwritten) < seasonwarp.cli._HELD_BYTES
        assert made[0] == written[0] == sum(p.stat().st_size for p in out.iterdir())
        assert made[0] > 10 * seasonwarp.cli._HELD_BYTES
        assert not list(tmp_path.rglob(".seasonwarp-*"))

    def test_partial_outputs_never_written_on_failure(self, tmp_path, fixture_csv):
        # Overwrite refusal happens before any file is touched: the existing
        # tree must be byte-identical afterwards.
        out = tmp_path / "o"
        assert _run("stats", "--input", str(fixture_csv), "--out-dir", str(out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / "stats.csv").unlink()  # leave only stats.json to clash
        assert _run("stats", "--input", str(fixture_csv), "--out-dir", str(out)) == 2
        assert (out / "stats.json").read_bytes() == before["stats.json"]
        assert not (out / "stats.csv").exists()


class TestNewOutDir:
    """A --out-dir that does not exist yet is staged beside the highest of
    its missing directories and made, with them, by one rename once the run
    has succeeded."""

    @pytest.mark.parametrize("rel", ["o", "a/b/o"], ids=["flat", "nested"])
    def test_failed_write_leaves_no_out_dir(self, tmp_path, fixture_csv, monkeypatch, capsys,
                                            rel):
        # A nested --out-dir is staged as <staging>/b/o beside the missing
        # `a`, so a failure makes none of a, a/b and a/b/o.
        out = tmp_path / rel
        write_bytes, written = Path.write_bytes, []

        def failing_write_bytes(path, data):
            written.append(path)
            if len(written) == 3:
                raise OSError(28, "No space left on device")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", failing_write_bytes)
        assert _run("report-all", "--input", str(fixture_csv), "--out-dir", str(out)) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert len(written) == 3
        (staged,) = {p.parent.relative_to(tmp_path) for p in written}
        assert staged.parts[0].startswith(".seasonwarp-")
        assert staged.parts[1:] == Path(rel).parts[1:]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rel", ["o", "a/b/o"], ids=["flat", "nested"])
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_modes_are_those_mkdir_gives(self, tmp_path, fixture_csv, umask, rel):
        out, made = tmp_path / rel, tmp_path / "made"
        old = os.umask(umask)
        try:
            code = _run("report-all", "--input", str(fixture_csv), "--out-dir", str(out))
            made.mkdir()
        finally:
            os.umask(old)
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([Path(rel).parts[0], "made"])
        for d in (out, *(tmp_path / p for p in Path(rel).parents[:-1])):
            assert stat.S_IMODE(d.stat().st_mode) == stat.S_IMODE(made.stat().st_mode)
            assert stat.S_IMODE(d.stat().st_mode) == 0o777 & ~umask
        assert {stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()} == {0o666 & ~umask}

    @pytest.mark.parametrize("rel", ["file/o", "file/x/o"], ids=["parent", "grandparent"])
    def test_out_dir_under_a_file_names_out_dir(self, tmp_path, capsys, monkeypatch, rel):
        monkeypatch.chdir(tmp_path)
        Path("file").write_bytes(b"kept")
        assert _run("fixture", "--out-dir", rel) == 2
        err = capsys.readouterr().err
        assert err == f"seasonwarp: i/o error: [Errno 20] Not a directory: {rel!r}\n"
        assert _tree(tmp_path) == {"file": b"kept"}

    @pytest.mark.parametrize("theirs, code", [({"theirs.txt": b"theirs"}, 2), ({}, 0)],
                             ids=["non-empty", "empty"])
    def test_directory_made_at_out_dir_during_the_run(self, tmp_path, fixture_csv,
                                                      monkeypatch, theirs, code):
        # A non-empty directory made at --out-dir after staging began is
        # left as it is and the run fails; an empty one is replaced.
        out, series_svg, staged = tmp_path / "o", seasonwarp.cli._series_svg, []

        def making_out_dir(dense):
            if not out.exists():
                staged.extend(p.name for p in tmp_path.glob(".seasonwarp-*"))
                out.mkdir()
                for name, data in theirs.items():
                    (out / name).write_bytes(data)
            return series_svg(dense)

        monkeypatch.setattr(seasonwarp.cli, "_series_svg", making_out_dir)
        assert _run("report-all", "--input", str(fixture_csv), "--out-dir", str(out)) == code
        assert len(staged) == 1
        assert not list(tmp_path.rglob(".seasonwarp-*"))
        if theirs:
            assert _tree(out) == theirs
        else:
            assert "bundle.json" in _tree(out)


# Keys a config line may name: every flag of some data command, abbreviations,
# names no command has, and the two that no config line may set.
_CONFIG_KEYS = [
    "input", "out-dir", "force", "variable", "years", "winsorize", "date-col",
    "arrivals-col", "price-col", "date-format", "format", "detrend", "band",
    "normalize", "all-pairs", "dump-matrices", "seed", "var", "norm", "winsor", "all",
    "bogus-key", "formats", "command", "config", "help",
]
_CONFIG_VALUES = [
    "price", "arrivals", "both", "2020..2021", "json,csv", "svg", "zscore",
    "moving-average", "iso", "dmy", "modal_price", "date", "0", "1", "4", "42",
    "-1", "-3", "yes", "No", "TRUE", "off", "", "pricee", "zscor",
    "moving_average", "json,pdf", "2020-2021", "2021..2020", "x",
]
# Values each key accepts, drawn as often as the shared pool above.
_VALID_VALUES = {
    "force": ["true"], "variable": ["price", "arrivals"], "var": ["price"],
    "years": ["2020..2022", "2019..2021"], "winsorize": ["yes", "ON"],
    "date-col": ["date"], "arrivals-col": ["arrivals"], "price-col": ["modal_price"],
    "date-format": ["iso"], "format": ["json", "csv,svg"], "detrend": ["moving-average"],
    "band": ["2", "5"], "normalize": ["zscore"], "norm": ["zscore"], "all-pairs": ["1"],
    "dump-matrices": ["yes"], "seed": ["7"], "winsor": ["yes", "Off"], "all": ["on"],
}
# Keys that are a prefix of exactly one switch, which argparse reads as that switch.
_SWITCH_PREFIXES = {"winsor": "winsorize", "all": "all-pairs"}
_SWITCHES = {
    "clean": {"force", "winsorize"},
    "stats": {"force", "winsorize"},
    "seasonal": {"force", "winsorize"},
    "dtw": {"force", "winsorize", "all-pairs", "dump-matrices"},
    "report-all": {"force", "winsorize", "all-pairs"},
}


@pytest.fixture(scope="module")
def four_years_csv(tmp_path_factory, fixture42):
    """The seed-42 fixture's rows dated 2019 to 2022."""
    lines = fixture42.csv_bytes().splitlines(keepends=True)
    path = tmp_path_factory.mktemp("data") / "four_years.csv"
    path.write_bytes(b"".join(lines[:1] + [l for l in lines[1:] if b"2019" <= l[:4] <= b"2022"]))
    return path


def _flag_form(command: str, key: str, value: str) -> list[str]:
    """The command-line flags a config line stands for."""
    name = key.replace("_", "-")
    if _SWITCH_PREFIXES.get(name, name) in _SWITCHES[command] and value.lower() in (
        "1", "true", "yes", "on", "0", "false", "no", "off"
    ):
        return [f"--{name}"] if value.lower() in ("1", "true", "yes", "on") else []
    return [f"--{name}={value}"]


def _outcome(argv: list[str], out: Path) -> tuple[int, str, dict]:
    """Exit code, stderr and output tree of one in-process run into a
    --out-dir that holds one file beforehand."""
    out.mkdir()
    (out / "keep.txt").write_bytes(b"kept")
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = _run(*argv, "--out-dir", str(out))
    return code, err.getvalue(), _tree(out)


class TestFormatsWritten:
    """A run whose --format names none of the formats its command writes is
    a usage error, given as a flag or as a config line, and creates no
    directory; one format the command writes is enough."""

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("command", ["clean", "stats", "seasonal", "dtw", "report-all"])
    def test_svg_only(self, tmp_path, capsys, fixture_csv, command, form):
        out, cfg = tmp_path / "o", tmp_path / "run.cfg"
        argv = [command, "--input", str(fixture_csv), "--out-dir", str(out)]
        if form == "flag":
            argv += ["--format", "svg"]
        else:
            cfg.write_text("format = svg\n")
            argv += ["--config", str(cfg)]
        code, err = _run(*argv), capsys.readouterr().err
        if command in ("clean", "stats"):
            assert (code, err) == (1, "seasonwarp: usage error: --format names none of the "
                                      f"formats {command} writes: json,csv\n")
            assert not out.exists()
        else:
            assert (code, err) == (0, "")
            assert {p.suffix for p in out.iterdir()} == {".svg"}

    @pytest.mark.parametrize("command, written", [
        ("clean", ["cleaning_arrivals.json", "cleaning_modal_price.json"]),
        ("stats", ["stats.json"]),
    ])
    def test_one_written_format_is_enough(self, tmp_path, fixture_csv, command, written):
        out = tmp_path / "o"
        assert _run(command, "--input", str(fixture_csv), "--format", "svg,json",
                    "--out-dir", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == written


class TestConfigLineContract:
    """A config line is checked and layered as the flag it names; every
    usage error is one stderr line."""

    @pytest.mark.parametrize("command", ["clean", "stats", "seasonal", "dtw", "report-all"])
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(line=st.sampled_from(_CONFIG_KEYS).flatmap(lambda key: st.tuples(
               st.just(key),
               st.sampled_from(_VALID_VALUES.get(key, _CONFIG_VALUES)) | st.sampled_from(
                   _CONFIG_VALUES))),
           dashes=st.booleans())
    @example(line=("variable", "foo"), dashes=True)
    @example(line=("date-format", "xyz"), dashes=False)
    @example(line=("detrend", "linear"), dashes=True)
    @example(line=("normalize", "minmax"), dashes=True)
    @example(line=("winsor", "yes"), dashes=True)
    @example(line=("all", "on"), dashes=False)
    def test_line_exits_cleanly_and_acts_as_its_flag(self, four_years_csv, command, line,
                                                      dashes):
        key, value = line
        key = key if dashes else key.replace("-", "_")
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            code, err, tree = _outcome(
                [command, "--config", str(cfg), "--input", str(four_years_csv)],
                Path(tmp) / "by-config")
            if key != "config":  # as a flag, --config names a file to read
                as_flags = _outcome(
                    [command, *_flag_form(command, key, value), "--input", str(four_years_csv)],
                    Path(tmp) / "by-flags")
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("seasonwarp: usage error: ") and err.count("\n") == 1
        elif code == 2:
            assert err.startswith("seasonwarp: data error: ") and err.count("\n") == 1
        else:
            assert code == 0
        if code:
            assert tree == {"keep.txt": b"kept"}
        if key == "config":
            assert (code, err) == (1, f"seasonwarp: usage error: {cfg}:1: unknown option 'config'\n")
        else:
            assert (code, err.replace(f"usage error: {cfg}:1: ", "usage error: "), tree) == as_flags

    @pytest.mark.parametrize("argv", [["dtw", "--band", "x"], ["--bogus"], [],
                                      ["stats", "--bogus"], ["frobnicate"]])
    def test_bad_flags_print_one_line(self, capsys, argv):
        assert _run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("seasonwarp: usage error: ")
        assert captured.err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        assert _run("dtw", "--help") == 0
        assert capsys.readouterr().out.startswith("usage: seasonwarp dtw")

    def test_config_lines_layer_as_flags(self, tmp_path, fixture_csv):
        by_flags, by_config = tmp_path / "flags", tmp_path / "config"
        assert _run("dtw", "--input", str(fixture_csv), "--years", "2020..2023", "--all-pairs",
                    "--band", "4", "--normalize", "zscore", "--winsorize",
                    "--out-dir", str(by_flags)) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("years = 2020..2023\nall_pairs = yes\nband = 4\n"
                       "normalize = zscore\nwinsorize = on\n")
        assert _run("dtw", "--input", str(fixture_csv), "--config", str(cfg),
                    "--out-dir", str(by_config)) == 0
        assert _tree(by_config) == _tree(by_flags)


@pytest.mark.parametrize("command", ["dtw", "report-all"])
@pytest.mark.parametrize("low, high", [("1", "1.0000000000000002"),
                                       ("9.999999999999997e+74", "1e75")])
def test_arrivals_a_few_ulps_apart_end(tmp_path, command, low, high):
    # Arrivals that alternate between two adjacent doubles give a plot whose
    # tick step is below half an ulp of the first tick.  The tick loop must
    # end anyway; the CLI runs in a child process so a hang fails the test.
    first = date.fromisocalendar(2019, 1, 7)
    rows = ["date,arrivals,modal_price"] + [
        f"{first + timedelta(weeks=k)},{(low, high)[k % 2]},{1000 + 37 * (k % 9)}"
        for k in range(105)]  # 2019-W01 .. 2020-W53
    (tmp_path / "in.csv").write_text("\n".join(rows) + "\n")
    src = str(Path(seasonwarp.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "seasonwarp.cli", command, "--input", "in.csv",
         "--variable", "arrivals", "--out-dir", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "dtw_arrivals_2019-2020.svg" in os.listdir(tmp_path / "out")


def test_cli_import_leaves_out_network_and_mail_modules():
    # xml.sax.saxutils pulls in urllib.request, and with it http.client,
    # email.*, ssl and socket; the CLI escapes its SVG text itself.
    src = str(Path(seasonwarp.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, seasonwarp.cli; "
            "print(*[m for m in ('xml.sax', 'urllib.request', 'http.client', 'email.parser') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.split() == []
