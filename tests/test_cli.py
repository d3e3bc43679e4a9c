import csv
import filecmp
import io
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import seasonwarp.cli
import seasonwarp.dtw
from seasonwarp.cleaning import CleaningReport
from seasonwarp.cli import main
from seasonwarp.dtw import DtwResult, PairRanking
from seasonwarp.report import AnalysisBundle
from seasonwarp.seasonal import SeasonalIndexTable


@pytest.fixture(scope="session")
def fixture_csv(tmp_path_factory, fixture42):
    path = tmp_path_factory.mktemp("data") / "fixture.csv"
    path.write_bytes(fixture42.csv_bytes())
    return path


def _run(*argv):
    return main(list(argv))


def _read_json(path: Path):
    return json.loads(path.read_text())


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
        from seasonwarp.series import Variable

        out = tmp_path / "o"
        _run("clean", "--input", str(fixture_csv), "--out-dir", str(out))
        report = CleaningReport.from_dict(_read_json(out / "cleaning_arrivals.json"))
        assert report == cleaned42[Variable.ARRIVALS][1]

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
        report = CleaningReport.from_dict(_read_json(wins / "cleaning_arrivals.json"))
        assert report.winsorized

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
        table = SeasonalIndexTable.from_dict(payload["tables"]["arrivals"])
        assert table.method == "weekly-mean"
        assert len(table.entries) == 53

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
        [(100, 2, "nan", "modal_price"), (200, 1, "inf", "arrivals"), (300, 2, "1e400", "modal_price")],
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
        ranking = PairRanking.from_dict(
            _read_json(out / "dtw_ranking_modal_price.json")["ranking"]
        )
        assert len(ranking.entries) == 3
        assert sorted(ranking.ranks()) == [1, 2, 3]

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
        result = DtwResult.from_dict(payload["result"])
        assert result.path.steps[0] == (1, 1)
        assert result.path.end == (53, 52)

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
        ranking = PairRanking.from_dict(
            _read_json(out / "dtw_ranking_modal_price.json")["ranking"]
        )
        assert len(ranking.entries) == 6

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
        ranking = PairRanking.from_dict(payload["ranking"])
        assert ranking.ranks() == (3, 1, 2)

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

    def test_each_slice_and_cost_matrix_built_once(self, tmp_path, fixture_csv, monkeypatch):
        dtw = seasonwarp.dtw
        cumulative_cost, slice_year = dtw.cumulative_cost, seasonwarp.cli.slice_year
        bands, slice_calls, slices, figures = Counter(), Counter(), {}, []

        def counting_cumulative_cost(d, band_radius=None):
            bands[band_radius] += 1
            return cumulative_cost(d, band_radius)

        def counting_slice_year(series, iso_year):
            key = (series.variable.value, iso_year)
            slice_calls[key] += 1
            slices[key] = slice_year(series, iso_year)
            return slices[key]

        def recording_dtw_figure(g, *args, metadata, **kwargs):
            figures.append((metadata["variable"], metadata["year_pair"], g))
            return "<svg/>\n"

        monkeypatch.setattr(dtw, "cumulative_cost", counting_cumulative_cost)
        monkeypatch.setattr(seasonwarp.cli, "slice_year", counting_slice_year)
        monkeypatch.setattr(seasonwarp.cli, "dtw_figure", recording_dtw_figure)
        code = _run(
            "dtw", "--input", str(fixture_csv), "--years", "2020..2023", "--all-pairs",
            "--band", "4", "--normalize", "zscore", "--format", "svg",
            "--out-dir", str(tmp_path / "o"),
        )
        assert code == 0
        # Per variable: 4 years, 6 pairs, each aligned banded once and
        # unbanded once for the reference ranks.
        assert slice_calls == {(v, y): 1 for v in ("arrivals", "modal_price")
                               for y in range(2020, 2024)}
        assert bands == {4: 12, None: 12}
        assert len(figures) == 12
        for var, (y1, y2), g in figures:
            x, y = (dtw.zscore(slices[var, year].values) for year in (y1, y2))
            expected = cumulative_cost(dtw.local_distance_matrix(x, y), 4)
            assert np.array_equal(g, expected)

    def test_single_year_is_usage_error(self, tmp_path, fixture_csv, capsys):
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
        assert code == 1
        assert "usage error" in capsys.readouterr().err

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
        ranking = PairRanking.from_dict(
            _read_json(out / "dtw_ranking_modal_price.json")["ranking"]
        )
        assert [e.year_pair for e in ranking.entries] == [(2020, 2021)]


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
        bundle = AnalysisBundle.from_dict(_read_json(out / "bundle.json"))
        assert set(bundle.summaries) == {"arrivals", "modal_price"}
        assert bundle.adf_log_price_diff is not None

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
