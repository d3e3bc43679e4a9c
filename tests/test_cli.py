import contextlib
import csv
import filecmp
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import cumulative_cost_oracle
import seasonwarp.cli
import seasonwarp.dtw
from seasonwarp.cli import main
from seasonwarp.report import matrix_csv, to_json
from seasonwarp.series import Variable, slice_year


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
        ],
    )
    def test_one_line_and_out_dir_unchanged(self, tmp_path, capsys, fixture42, case, code, message):
        lines = fixture42.csv_bytes().splitlines(keepends=True)
        data, cfg = tmp_path / "in.csv", tmp_path / "run.cfg"
        data.write_bytes(fixture42.csv_bytes())
        cfg.write_bytes(b"variable = pri\xe9ce\n")
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_bytes(b"kept")
        argv = ["stats", "--input", str(data)]
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
        elif case == "fixture seed":
            argv = ["fixture", "--seed", "-1"]
        else:
            argv = ["report-all", "--seed", "-1"]
        assert _run(*argv, "--out-dir", str(out)) == code
        assert capsys.readouterr().err == f"seasonwarp: {message.format(cfg=cfg)}\n"
        assert _tree(out) == {"keep.txt": b"kept"}

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
        assert err == "seasonwarp: data error: spline fill needs >= 4 observed points, got 0\n"
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
        # The fixture holds 2010..2024; years on either side are summarised.
        assert _run("dtw", "--input", str(fixture_csv), "--variable", "price",
                    "--years=-5..2013", "--format", "csv",
                    "--out-dir", str(tmp_path / "a")) == 0
        assert _run("dtw", "--input", str(fixture_csv), "--variable", "price",
                    "--years", "2000..2026", "--format", "csv",
                    "--out-dir", str(tmp_path / "b")) == 0
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

    def test_dumped_distances_are_the_swept_ones(
        self, tmp_path, fixture_csv, cleaned42, monkeypatch
    ):
        dtw = seasonwarp.dtw
        local_distance_matrix, built = dtw.local_distance_matrix, []

        def counting_local_distance_matrix(x, y):
            built.append((len(x), len(y)))
            return local_distance_matrix(x, y)

        monkeypatch.setattr(dtw, "local_distance_matrix", counting_local_distance_matrix)
        out = tmp_path / "o"
        code = _run("dtw", "--input", str(fixture_csv), "--years", "2020..2023", "--all-pairs",
                    "--dump-matrices", "--format", "json", "--out-dir", str(out))
        assert code == 0
        # Per variable: 4 years, 6 pairs; each pair's distances are built
        # once, for the sweep, and the dumped matrix is that one.
        n_pairs = sum(len(_ranking_entries(out, var)) for var in ("arrivals", "modal_price"))
        assert n_pairs == 12
        assert len(built) == n_pairs
        series, _ = cleaned42[Variable.MODAL_PRICE]
        x, y = (slice_year(series, year) for year in (2021, 2023))
        assert (out / "dtw_modal_price_2021-2023_local.csv").read_bytes() == matrix_csv(
            np.abs(np.subtract.outer(x, y))).encode()

    def test_each_slice_and_cost_matrix_built_once(self, tmp_path, fixture_csv, monkeypatch):
        dtw = seasonwarp.dtw
        cumulative_cost, slice_year = dtw.cumulative_cost, seasonwarp.cli.slice_year
        backtrack = dtw.backtrack
        bands, slice_calls, slices, figures = Counter(), Counter(), {}, []
        backtracks = []

        def counting_cumulative_cost(d, band_radius=None):
            bands[band_radius] += 1
            return cumulative_cost(d, band_radius)

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

        monkeypatch.setattr(dtw, "cumulative_cost", counting_cumulative_cost)
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
        # unbanded reference costs each come from one batched call, so no
        # pair is scanned by the scalar kernel, and only the 12 drawn paths
        # are backtracked.
        assert slice_calls == {(v, y): 1 for v in ("arrivals", "modal_price")
                               for y in range(2020, 2024)}
        assert bands == {}
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
        [((), ()), (("--winsorize",), ("--all-pairs", "--band", "4", "--normalize", "zscore"))],
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

        for name in ("parse_market_csv", "clean_series", "describe", "seasonal_index",
                     "adf_test", "slice_year"):
            counting(seasonwarp.cli, name)
        counting(seasonwarp.dtw, "cumulative_cost")
        counting(seasonwarp.dtw, "backtrack")
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
            "clean_series": 2,
            "describe": 2,
            "seasonal_index": 2,
            "adf_test": 1,
            "slice_year": n_years,
            # Banded and unbanded matrices come from batched calls; only
            # the drawn paths are backtracked.
            "cumulative_cost": 0,
            "backtrack": n_pairs,
        })

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run("report-all", "--out-dir", str(a)) == 0
        assert _run("report-all", "--out-dir", str(b)) == 0
        names_a = sorted(p.name for p in a.iterdir())
        names_b = sorted(p.name for p in b.iterdir())
        assert names_a == names_b
        match, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
        assert mismatch == [] and errors == []


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

    def test_unknown_config_key_is_usage_error(self, tmp_path, fixture_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus-key = 1\n")
        code = _run(
            "clean",
            "--config",
            str(cfg),
            "--input",
            str(fixture_csv),
            "--out-dir",
            str(tmp_path / "o"),
        )
        assert code == 1
        assert "bogus-key" in capsys.readouterr().err

    def test_missing_out_dir_is_usage_error(self, fixture_csv):
        assert _run("clean", "--input", str(fixture_csv)) == 1

    def test_missing_input_is_usage_error(self, tmp_path):
        assert _run("clean", "--out-dir", str(tmp_path / "o")) == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        assert _run("frobnicate") == 1

    def test_no_subcommand_exits_1(self, capsys):
        assert _run() == 1

    def test_bad_years_range_is_usage_error(self, tmp_path, fixture_csv):
        code = _run(
            "clean",
            "--input",
            str(fixture_csv),
            "--years",
            "2020-2021",
            "--out-dir",
            str(tmp_path / "o"),
        )
        assert code == 1

    def test_bad_format_is_usage_error(self, tmp_path, fixture_csv):
        code = _run(
            "stats",
            "--input",
            str(fixture_csv),
            "--format",
            "json,pdf",
            "--out-dir",
            str(tmp_path / "o"),
        )
        assert code == 1

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

    def test_each_file_staged_as_it_is_made(self, tmp_path, fixture_csv, monkeypatch):
        # No run holds its whole output tree: each DTW figure reaches the
        # staging directory before the next one is drawn.
        write_bytes, dtw_figure, events = Path.write_bytes, seasonwarp.cli.dtw_figure, []

        def recording_write_bytes(path, data):
            events.append((path.parent.name, path.name))
            return write_bytes(path, data)

        def recording_dtw_figure(*args, **kwargs):
            events.append(("figure", None))
            return dtw_figure(*args, **kwargs)

        monkeypatch.setattr(Path, "write_bytes", recording_write_bytes)
        monkeypatch.setattr(seasonwarp.cli, "dtw_figure", recording_dtw_figure)
        out = tmp_path / "o"
        assert _run("report-all", "--input", str(fixture_csv), "--out-dir", str(out)) == 0
        figures = [k for k, event in enumerate(events) if event == ("figure", None)]
        assert len(figures) == len(list(out.glob("dtw_*-*.svg"))) > 1
        for k in figures:
            parent, name = events[k + 1]
            assert parent.startswith(".seasonwarp-")
            assert name.startswith("dtw_") and name.endswith(".svg")
        assert not list(out.glob(".seasonwarp-*"))

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
