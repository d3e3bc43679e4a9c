"""Command-line front end: seasonwarp clean|stats|seasonal|dtw|fixture|report-all.

Each data command is one driver (`_run_stage`: read, clean, stage) around
one stage function.  A stage takes ``(args, cleaned, formats, files)``,
stores each output as ``files[filename] = text`` and returns its value;
``report-all``'s stage is the union of the clean, stats, seasonal and dtw
stages plus the series charts and the bundle it builds from their values.

Exit codes: 0 success, 1 usage error, 2 data or I/O error.  Each output is
written into a staging directory as soon as it is made, and the files are
moved into place only once the whole run has succeeded, so a failing run
leaves no partial output tree and the run never holds the whole tree in
memory.  Every emitter is deterministic, which makes output trees
byte-stable.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from .cleaning import ColumnSchema, clean_series, parse_market_csv
from .descriptive import describe
from .dtw import (
    DtwOptions,
    Normalization,
    PairSet,
    rank_pairs,
)
from .errors import DataIntegrityError, InsufficientDataError, MarketDataError
from .fixture import generate_fixture
from .report import (
    AnalysisBundle,
    matrix_csv,
    ranking_csv,
    seasonal_csv,
    series_csv,
    stats_csv,
    to_json,
)
from .seasonal import seasonal_index
from .series import (
    MarketTable,
    Variable,
    WeeklySeries,
    build_weekly_series,
    complete_years,
    log_diff,
    slice_year,
    weeks_in_iso_year,
)
from .svg import bar_chart, dtw_figure, line_chart
from .unitroot import adf_test

FORMATS = ("json", "csv", "svg")


class UsageError(Exception):
    """Bad invocation (flag combinations, values): exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_BOOL_DESTS = {"winsorize", "all_pairs", "force", "dump_matrices"}
_INT_DESTS = {"band", "seed"}

_DEFAULTS = {
    "variable": "both",
    "date_col": "date",
    "arrivals_col": "arrivals",
    "price_col": "modal_price",
    "date_format": "iso",
    "seed": 42,
}
_FORMAT_DEFAULTS = {
    "clean": "json,csv",
    "stats": "json,csv",
    "seasonal": "json,csv,svg",
    "dtw": "json,csv,svg",
    "report-all": "json,csv,svg",
}


def _add_common(sp: argparse.ArgumentParser, *, with_input: bool) -> None:
    if with_input:
        sp.add_argument("--input", default=None, help="input CSV path")
    sp.add_argument("--out-dir", dest="out_dir", default=None, help="output directory")
    sp.add_argument("--force", action="store_true", default=None,
                    help="overwrite existing output files")
    sp.add_argument("--config", default=None,
                    help="key=value config file; command-line flags win")


def _add_data_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--variable", choices=("arrivals", "price", "both"), default=None)
    sp.add_argument("--years", default=None, metavar="A..B",
                    help="restrict to ISO years A through B")
    sp.add_argument("--winsorize", action="store_true", default=None,
                    help="clamp flagged outliers to the IQR fences")
    sp.add_argument("--date-col", dest="date_col", default=None)
    sp.add_argument("--arrivals-col", dest="arrivals_col", default=None)
    sp.add_argument("--price-col", dest="price_col", default=None)
    sp.add_argument("--date-format", dest="date_format", choices=("iso", "dmy"), default=None)
    sp.add_argument("--format", dest="formats", default=None,
                    help="comma-separated subset of json,csv,svg")


def build_parser() -> _Parser:
    parser = _Parser(prog="seasonwarp",
                     description="Weekly market series cleaning, statistics, "
                                 "seasonal indices, and DTW alignment.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixture", help="write the synthetic dataset", parents=[])
    _add_common(p, with_input=False)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_fixture)

    p = sub.add_parser("clean", help="gap-fill and outlier-flag a CSV")
    _add_common(p, with_input=True)
    _add_data_opts(p)
    p.set_defaults(handler=partial(_run_stage, stage=_clean_stage))

    p = sub.add_parser("stats", help="descriptive statistics and ADF test")
    _add_common(p, with_input=True)
    _add_data_opts(p)
    p.set_defaults(handler=partial(_run_stage, stage=_stats_stage))

    p = sub.add_parser("seasonal", help="ISO-week seasonal index tables")
    _add_common(p, with_input=True)
    _add_data_opts(p)
    p.add_argument("--detrend", choices=("moving-average",), default=None,
                   help="ratio-to-moving-average instead of weekly means")
    p.set_defaults(handler=partial(_run_stage, stage=_seasonal_stage))

    p = sub.add_parser("dtw", help="align year pairs by dynamic time warping")
    _add_common(p, with_input=True)
    _add_data_opts(p)
    p.add_argument("--band", type=int, default=None, metavar="R",
                   help="Sakoe-Chiba band radius (default: full window)")
    p.add_argument("--normalize", choices=("zscore",), default=None)
    p.add_argument("--all-pairs", dest="all_pairs", action="store_true", default=None,
                   help="align every year pair, not just consecutive ones")
    p.add_argument("--dump-matrices", dest="dump_matrices", action="store_true",
                   default=None, help="also write local/cumulative matrices as CSV")
    p.set_defaults(handler=partial(_run_stage, stage=_dtw_stage))

    p = sub.add_parser("report-all", help="full pipeline: clean, stats, seasonal, dtw")
    _add_common(p, with_input=True)
    _add_data_opts(p)
    p.add_argument("--seed", type=int, default=None,
                   help="fixture seed when --input is omitted")
    p.add_argument("--band", type=int, default=None, metavar="R")
    p.add_argument("--normalize", choices=("zscore",), default=None)
    p.add_argument("--all-pairs", dest="all_pairs", action="store_true", default=None)
    p.set_defaults(handler=partial(_run_stage, stage=_report_stage))

    return parser


def _parse_config_value(dest: str, raw: str):
    raw = raw.strip()
    if dest in _BOOL_DESTS:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"config key {dest!r} expects a boolean, got {raw!r}")
    if dest in _INT_DESTS:
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"config key {dest!r} expects an integer, got {raw!r}") from None
    return raw


def _apply_config(args: argparse.Namespace) -> None:
    if args.config is None:
        return
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
        ) from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        dest = key.strip().replace("-", "_")
        if dest == "format":
            dest = "formats"
        if not hasattr(args, dest) or dest in ("handler", "command", "config"):
            raise UsageError(f"{path}:{line_no}: unknown option {key.strip()!r}")
        if getattr(args, dest) is None:  # flags override config
            setattr(args, dest, _parse_config_value(dest, raw))


def _resolve(args: argparse.Namespace) -> None:
    for dest, value in _DEFAULTS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)
    for dest in _BOOL_DESTS:
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, False)
    if hasattr(args, "formats") and getattr(args, "formats") is None:
        args.formats = _FORMAT_DEFAULTS[args.command]
    if getattr(args, "out_dir", None) is None:
        raise UsageError("--out-dir is required")
    if hasattr(args, "band") and args.band is not None and args.band < 0:
        raise UsageError(f"--band must be >= 0, got {args.band}")
    if hasattr(args, "seed") and args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")


def _formats(args: argparse.Namespace) -> set[str]:
    tokens = [t.strip() for t in args.formats.split(",") if t.strip()]
    bad = [t for t in tokens if t not in FORMATS]
    if bad:
        raise UsageError(f"unknown output format(s): {', '.join(bad)}")
    if not tokens:
        raise UsageError("--format needs at least one of json,csv,svg")
    return set(tokens)


def _years_range(args: argparse.Namespace) -> tuple[int, int] | None:
    if getattr(args, "years", None) is None:
        return None
    text = args.years
    parts = text.split("..")
    if len(parts) != 2:
        raise UsageError(f"--years expects A..B, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--years expects integer years, got {text!r}") from None
    if a > b:
        raise UsageError(f"--years range is reversed: {text!r}")
    return a, b


def _variables(args: argparse.Namespace) -> list[Variable]:
    return {
        "arrivals": [Variable.ARRIVALS],
        "price": [Variable.MODAL_PRICE],
        "both": [Variable.ARRIVALS, Variable.MODAL_PRICE],
    }[args.variable]


def _schema(args: argparse.Namespace) -> ColumnSchema:
    return ColumnSchema(
        date=args.date_col,
        arrivals=args.arrivals_col,
        price=args.price_col,
        date_format=args.date_format,
    )


def _read_table(args: argparse.Namespace, data: bytes) -> MarketTable:
    table = parse_market_csv(data, _schema(args))
    years = _years_range(args)
    return table if years is None else table.in_years(*years)


def _cleaned(
    args: argparse.Namespace, table: MarketTable
) -> dict[Variable, tuple[WeeklySeries, object]]:
    out = {}
    for var in _variables(args):
        series = build_weekly_series(table, var)
        out[var] = clean_series(series, winsorize=bool(args.winsorize))
    return out


class _OutputTree:
    """The files of one run, written into a staging directory inside
    --out-dir as each is made and moved into place together once the run
    has succeeded.  Only the file being written is held in memory, and a
    failed run moves nothing, so --out-dir keeps what it held."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.out_dir = Path(args.out_dir)
        self.force = bool(args.force)
        self.names: set[str] = set()
        self.staging: Path | None = None

    def __setitem__(self, name: str, text: str) -> None:
        if self.staging is None:
            # Staging inside out_dir keeps each move a rename on one file
            # system even when out_dir is a mount point or its parent is
            # read-only.
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self.staging = Path(tempfile.mkdtemp(prefix=".seasonwarp-", dir=self.out_dir))
        (self.staging / name).write_bytes(text.encode("utf-8"))
        self.names.add(name)

    def __enter__(self) -> _OutputTree:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._commit()
        finally:
            if self.staging is not None:
                shutil.rmtree(self.staging)

    def _commit(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        names = sorted(self.names)
        if not self.force:
            clashes = [name for name in names if (self.out_dir / name).exists()]
            if clashes:
                raise FileExistsError(
                    f"output already exists in {self.out_dir}: {', '.join(clashes)} "
                    f"(pass --force to overwrite)"
                )
        for name in names:
            os.replace(self.staging / name, self.out_dir / name)


def _run_stage(args: argparse.Namespace, stage) -> int:
    """The one data-command driver: read the input, or generate the fixture
    when the command has a fixture seed; clean it; run the stage into the
    output tree."""
    if args.input is None and not hasattr(args, "seed"):
        raise UsageError("--input is required")
    formats = _formats(args)
    with _OutputTree(args) as files:
        if args.input is not None:
            data = Path(args.input).read_bytes()
        else:
            fx = generate_fixture(args.seed)
            data = fx.csv_bytes()
            files["fixture.csv"] = fx.csv_text
        stage(args, _cleaned(args, _read_table(args, data)), formats, files)
    return 0


def cmd_fixture(args: argparse.Namespace) -> int:
    with _OutputTree(args) as files:
        files["fixture.csv"] = generate_fixture(args.seed).csv_text
    return 0


def _clean_stage(args: argparse.Namespace, cleaned, formats: set[str], files: _OutputTree):
    for var, (dense, report) in cleaned.items():
        if "csv" in formats:
            files[f"cleaned_{var.value}.csv"] = series_csv(dense)
        if "json" in formats:
            files[f"cleaning_{var.value}.json"] = to_json(report)
    return {var.value: report for var, (_, report) in cleaned.items()}


def _adf_on_log_price(dense_price: WeeklySeries):
    values = dense_price.values()
    if values.min() <= 0:
        raise DataIntegrityError(
            "cleaned price series contains non-positive values; "
            "log differences are undefined"
        )
    return adf_test(log_diff(values))


def _stats_stage(args: argparse.Namespace, cleaned, formats: set[str], files: _OutputTree):
    summaries = {
        var.value: describe(dense.values()) for var, (dense, _) in cleaned.items()
    }
    adf = None
    if Variable.MODAL_PRICE in cleaned:
        adf = _adf_on_log_price(cleaned[Variable.MODAL_PRICE][0])
    if "json" in formats:
        files["stats.json"] = to_json({"summaries": summaries, "adf_log_price_diff": adf})
    if "csv" in formats:
        files["stats.csv"] = stats_csv(summaries, adf)
    return summaries, adf


def _seasonal_svg(tables: dict) -> str:
    curves = []
    for name in sorted(tables):
        t = tables[name]
        weeks = [float(e.iso_week) for e in t.entries]
        idx = [e.index for e in t.entries]
        curves.append((f"{name} index", weeks, idx))
    method = tables[sorted(tables)[0]].method
    return line_chart(
        curves,
        title=f"Weekly seasonal indices (base 100, {method})",
        x_label="ISO week",
        y_label="index",
        metadata={"chart": "seasonal_index", "method": method,
                  "variables": sorted(tables)},
    )


def _seasonal_stage(args: argparse.Namespace, cleaned, formats: set[str], files: _OutputTree):
    method = "moving-average" if getattr(args, "detrend", None) == "moving-average" else "weekly-mean"
    tables = {var.value: seasonal_index(dense, method) for var, (dense, _) in cleaned.items()}
    if "json" in formats:
        files["seasonal.json"] = to_json({"tables": tables})
    if "csv" in formats:
        for name, t in tables.items():
            files[f"seasonal_{name}.csv"] = seasonal_csv(t)
    if "svg" in formats:
        files["seasonal.svg"] = _seasonal_svg(tables)
    return tables


def _dtw_options(args: argparse.Namespace) -> DtwOptions:
    normalize = (
        Normalization.ZSCORE
        if getattr(args, "normalize", None) == "zscore"
        else Normalization.NONE
    )
    return DtwOptions(band_radius=getattr(args, "band", None), normalize_input=normalize)


def _year_span(first: int, last: int) -> str:
    """``first..last`` as one token: empty if reversed, one year if equal."""
    if first > last:
        return ""
    return str(first) if first == last else f"{first}..{last}"


def _year_pairs(args: argparse.Namespace, dense: WeeklySeries) -> list[tuple[int, int]]:
    years = complete_years(dense)
    span = _years_range(args)
    if span is not None:
        lo, hi = span
        years = [y for y in years if lo <= y <= hi]
        lo, hi = max(lo, 1), min(hi, 9999)  # only these ISO years hold dates
        # Requested years the data does not reach are named as ranges, so
        # the warning stays one short line for any --years span.
        first, last = dense.first_week().iso_year, dense.last_week().iso_year
        skipped = [
            _year_span(lo, min(hi, first - 1)),
            *(str(y) for y in range(max(lo, first), min(hi, last) + 1) if y not in years),
            _year_span(max(lo, last + 1), hi),
        ]
        skipped = [token for token in skipped if token]
        if skipped:
            print(
                f"warning: skipping incomplete year(s) for {dense.variable.value}: "
                f"{', '.join(skipped)}",
                file=sys.stderr,
            )
    if len(years) < 2:
        raise InsufficientDataError(
            f"DTW needs at least two complete years for {dense.variable.value}; "
            f"found {len(years)}"
        )
    if args.all_pairs:
        return [(a, b) for i, a in enumerate(years) for b in years[i + 1 :]]
    return list(zip(years, years[1:]))


def _dtw_variable_outputs(
    args: argparse.Namespace, dense: WeeklySeries, formats: set[str], files: _OutputTree
):
    """One variable's year pairs: each slice aligned as-is or z-scored once,
    the drawn matrices from the batched kernel, backtracked once per pair,
    and the unbanded reference ranks from the kernel's corner costs."""
    var = dense.variable.value
    options = _dtw_options(args)
    pairs = _year_pairs(args, dense)
    years = sorted({year for pair in pairs for year in pair})
    pair_set = PairSet({year: slice_year(dense, year) for year in years}, pairs, options)
    unbanded_ranks = None if options.band_radius is None else pair_set.unbanded_ranks()
    results = []
    for (y1, y2), (result, d, g) in zip(pairs, pair_set.alignments()):
        results.append(((y1, y2), result))
        stem = f"dtw_{var}_{y1}-{y2}"
        if "json" in formats:
            files[f"{stem}.json"] = to_json(
                {"variable": var, "year_pair": [y1, y2], "result": result}
            )
        if "svg" in formats:
            files[f"{stem}.svg"] = dtw_figure(
                g,
                result.path.steps,
                (pair_set.aligned[y1], pair_set.aligned[y2]),
                (str(y1), str(y2)),
                title=f"DTW alignment, {var} {y1} vs {y2}",
                metadata={
                    "chart": "dtw_alignment",
                    "variable": var,
                    "year_pair": [y1, y2],
                    "options": options.to_dict(),
                    "total_cost": result.total_cost,
                    "mean_cost": result.mean_cost,
                    "path_length": result.path_length,
                },
            )
        if getattr(args, "dump_matrices", False):
            files[f"{stem}_local.csv"] = matrix_csv(d)
            files[f"{stem}_cumulative.csv"] = matrix_csv(g)
    ranking = rank_pairs(results)
    payload = {
        "variable": var,
        "band_radius": options.band_radius,
        "ranking": ranking,
    }
    if unbanded_ranks is not None:
        payload["rank_order_vs_unbanded"] = {
            "changed": ranking.ranks() != unbanded_ranks,
            "unbanded_ranks": list(unbanded_ranks),
        }
    if "json" in formats:
        files[f"dtw_ranking_{var}.json"] = to_json(payload)
    if "csv" in formats:
        files[f"dtw_ranking_{var}.csv"] = ranking_csv(ranking)
    if "svg" in formats:
        files[f"dtw_ranking_{var}.svg"] = bar_chart(
            [(f"{p[0]}-{p[1]}", e.total_cost) for (p, _), e in zip(results, ranking.entries)],
            title=f"DTW total cost by year pair, {var}",
            y_label="total cost",
            metadata={"chart": "dtw_ranking", "variable": var,
                      "options": options.to_dict()},
        )
    return ranking


def _dtw_stage(args: argparse.Namespace, cleaned, formats: set[str], files: _OutputTree):
    return {var.value: _dtw_variable_outputs(args, dense, formats, files)
            for var, (dense, _) in cleaned.items()}


def _series_svg(dense: WeeklySeries) -> str:
    years, weeks = dense.iso_calendar()
    distinct, at = np.unique(years, return_inverse=True)
    year_lengths = np.array([weeks_in_iso_year(y) for y in distinct.tolist()])[at]
    xs = (years + (weeks - 1) / year_lengths).tolist()
    ys = dense.values().tolist()
    name = dense.variable.value
    return line_chart(
        [(name, xs, ys)],
        title=f"Weekly {name} (cleaned)",
        x_label="ISO year",
        y_label=name,
        metadata={
            "chart": "weekly_series",
            "variable": name,
            "first_week": str(dense.first_week()),
            "last_week": str(dense.last_week()),
        },
    )


def _report_stage(args: argparse.Namespace, cleaned, formats: set[str], files: _OutputTree):
    """Every stage once, plus the series charts and the bundle of their values."""
    reports, (summaries, adf), tables, rankings = [
        stage(args, cleaned, formats, files)
        for stage in (_clean_stage, _stats_stage, _seasonal_stage, _dtw_stage)
    ]
    bundle = AnalysisBundle(
        cleaning=reports,
        summaries=summaries,
        seasonal=tables,
        dtw=rankings,
        adf_log_price_diff=adf,
    )
    if "svg" in formats:
        for var, (dense, _) in cleaned.items():
            files[f"series_{var.value}.svg"] = _series_svg(dense)
    if "json" in formats:
        files["bundle.json"] = to_json(bundle)
    return bundle


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(args)
        _resolve(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"seasonwarp: usage error: {exc}", file=sys.stderr)
        return 1
    except MarketDataError as exc:
        print(f"seasonwarp: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"seasonwarp: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
