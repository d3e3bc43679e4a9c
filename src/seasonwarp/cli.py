"""Command-line front end: seasonwarp clean|stats|seasonal|dtw|fixture|report-all.

Each data command is one driver (`_run_stage`: read, spline-fill, stage)
around one stage function.  A stage takes ``(args, cleaned, files)``, stores
each output ``args.formats`` asks for as ``files[filename] = text`` and
returns its value.  ``cleaned`` maps each variable to its `_Cleaned` record,
whose outlier pass runs once, on first use: when a stage writes the point
flags or the cleaning report (``clean``, and so ``report-all``), or when
``--winsorize`` changes the values.  Without ``--winsorize`` the value-only
stages (stats, seasonal, dtw and the series charts) read the fill itself.
Complete years are likewise found and warned about once, by the first stage
that needs them; ``report-all``'s stage is the union of the clean, stats,
seasonal and dtw stages plus the series charts and the bundle it builds
from their values.  A stage imports the fixture, seasonal, DTW and SVG
modules only when it calls them, so ``clean`` and ``stats`` load none of them.

Exit codes: 0 success, 1 usage error, 2 data or I/O error.  The outputs are
written into a staging directory in groups of about 256 KiB as they are
made, so the run holds at most one group and one file in memory, and are
put in place only once the whole run has succeeded: a new --out-dir by one
rename of the staging directory, an existing one file by file.  A failing
run leaves no partial output tree.  Every emitter is deterministic, which
makes output trees byte-stable.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import NoReturn

import numpy as np

from .cleaning import (CleaningReport, ColumnSchema, flag_outliers, parse_market_csv,
                       spline_fill, utf8_text)
from .descriptive import describe
from .errors import DataIntegrityError, InsufficientDataError, MarketDataError
from .report import matrix_csv, pair_label, records_csv, series_csv, stats_csv, to_json
from .series import (
    Variable,
    WeeklySeries,
    build_weekly_series,
    complete_years,
    log_diff,
    slice_year,
    weeks_in_iso_year,
)
from .unitroot import adf_test

FORMATS = ("json", "csv", "svg")
# The variables each --variable choice names.
VARIABLES = {
    "arrivals": [Variable.ARRIVALS],
    "price": [Variable.MODAL_PRICE],
    "both": [Variable.ARRIVALS, Variable.MODAL_PRICE],
}


class UsageError(Exception):
    """Bad invocation (flag combinations, values): exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # one stderr line and exit 1, not argparse's 2
        raise UsageError(message)


def _years(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"--years expects A..B, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"--years expects integer years, got {text!r}") from None
    if a > b:
        raise argparse.ArgumentTypeError(f"--years range is reversed: {text!r}")
    return a, b


def _formats(text: str) -> set[str]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    bad = [t for t in tokens if t not in FORMATS]
    if bad:
        raise argparse.ArgumentTypeError(f"unknown output format(s): {', '.join(bad)}")
    if not tokens:
        raise argparse.ArgumentTypeError("--format needs at least one of json,csv,svg")
    return set(tokens)


def _add_common(sp: argparse.ArgumentParser, *, with_input: bool) -> None:
    if with_input:
        sp.add_argument("--input", help="input CSV path")
    sp.add_argument("--out-dir", help="output directory")
    sp.add_argument("--force", action="store_true", help="overwrite existing output files")
    sp.add_argument("--config",
                    help="file of key = value lines, each read as the flag --key; "
                         "command-line flags win")


def _add_data_opts(sp: argparse.ArgumentParser, formats: str) -> None:
    sp.add_argument("--variable", choices=tuple(VARIABLES), default="both")
    sp.add_argument("--years", type=_years, metavar="A..B",
                    help="restrict to ISO years A through B")
    sp.add_argument("--winsorize", action="store_true",
                    help="clamp flagged outliers to the IQR fences")
    sp.add_argument("--date-col", default="date")
    sp.add_argument("--arrivals-col", default="arrivals")
    sp.add_argument("--price-col", default="modal_price")
    sp.add_argument("--date-format", choices=("iso", "dmy"), default="iso")
    sp.add_argument("--format", dest="formats", type=_formats, default=formats,
                    help=f"comma-separated subset of json,csv,svg (default: {formats})")
    sp.set_defaults(writes=formats)  # the default names every format the command writes


def _add_dtw_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--band", type=int, metavar="R",
                    help="Sakoe-Chiba band radius (default: full window)")
    sp.add_argument("--normalize", choices=("zscore",))
    sp.add_argument("--all-pairs", action="store_true",
                    help="align every year pair, not just consecutive ones")


def _add_seed(sp: argparse.ArgumentParser, help: str) -> None:
    sp.add_argument("--seed", type=int, default=42, help=help)


def build_parser() -> _Parser:
    parser = _Parser(prog="seasonwarp",
                     description="Weekly market series cleaning, statistics, "
                                 "seasonal indices, and DTW alignment.")
    # What a stage reads but not every command defines; a command's own
    # default wins.
    parser.set_defaults(input=None, seed=None, band=None, detrend=None, writes=None,
                        dump_matrices=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixture", help="write the synthetic dataset")
    _add_common(p, with_input=False)
    _add_seed(p, "fixture seed")
    p.set_defaults(handler=cmd_fixture)

    p = sub.add_parser("clean", help="gap-fill and outlier-flag a CSV")
    _add_common(p, with_input=True)
    _add_data_opts(p, "json,csv")
    p.set_defaults(handler=partial(_run_stage, stage=_clean_stage))

    p = sub.add_parser("stats", help="descriptive statistics and ADF test")
    _add_common(p, with_input=True)
    _add_data_opts(p, "json,csv")
    p.set_defaults(handler=partial(_run_stage, stage=_stats_stage))

    p = sub.add_parser("seasonal", help="ISO-week seasonal index tables")
    _add_common(p, with_input=True)
    _add_data_opts(p, "json,csv,svg")
    p.add_argument("--detrend", choices=("moving-average",),
                   help="ratio-to-moving-average instead of weekly means")
    p.set_defaults(handler=partial(_run_stage, stage=_seasonal_stage))

    p = sub.add_parser("dtw", help="align year pairs by dynamic time warping")
    _add_common(p, with_input=True)
    _add_data_opts(p, "json,csv,svg")
    _add_dtw_opts(p)
    p.add_argument("--dump-matrices", action="store_true",
                   help="also write local/cumulative matrices as CSV")
    p.set_defaults(handler=partial(_run_stage, stage=_dtw_stage))

    p = sub.add_parser("report-all", help="full pipeline: clean, stats, seasonal, dtw")
    _add_common(p, with_input=True)
    _add_data_opts(p, "json,csv,svg")
    _add_seed(p, "fixture seed when --input is omitted")
    _add_dtw_opts(p)
    p.set_defaults(handler=partial(_run_stage, stage=_report_stage))

    return parser


_SWITCH_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def _config_flags(parser: _Parser, command: str, path: Path) -> list[str]:
    """The flags the ``key = value`` lines of a config file name, each line
    checked on its own against the command's options: ``--key=value``, a
    bare ``--key`` for a switch set to a true word, nothing for a false one.
    A key names a switch as argparse reads ``--key``: the option it spells,
    or else the one option it is a prefix of."""
    try:
        text = utf8_text(path.read_bytes(), f"{path}: ")
    except DataIntegrityError as exc:
        raise UsageError(str(exc)) from None
    switches = {dest for dest, value in vars(parser.parse_args([command])).items()
                if value is False}
    subparser = next(a for a in parser._actions if a.dest == "command").choices[command]
    dests = {option: a.dest for a in subparser._actions for option in a.option_strings}
    flags = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, equals, value = (part.strip() for part in stripped.partition("="))
        if not (key and equals):
            raise UsageError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
        flag = "--" + key.replace("_", "-")
        options = [flag] if flag in dests else [o for o in dests if o.startswith(flag)]
        if len(options) == 1 and dests[options[0]] in switches and value.lower() in _SWITCH_WORDS:
            line_flags = [flag] if _SWITCH_WORDS[value.lower()] else []
        else:
            line_flags = [f"{flag}={value}"]
        try:
            named = parser.parse_args([command, *line_flags])
        except UsageError as exc:
            raise UsageError(f"{path}:{line_no}: {exc}") from None
        if named.config is not None:
            raise UsageError(f"{path}:{line_no}: unknown option {key!r}")
        flags += line_flags
    return flags


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """The command line, with a --config file's flags placed before its own
    flags, so that the command line wins by argparse's last-one-wins rule."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    if not args.config:
        raise UsageError("--config is an empty path")
    at = argv.index(args.command) + 1
    flags = _config_flags(parser, args.command, Path(args.config))
    return parser.parse_args([*argv[:at], *flags, *argv[at:]])


def _check(args: argparse.Namespace) -> None:
    """The rules the option declarations do not state."""
    if args.out_dir is None:
        raise UsageError("--out-dir is required")
    for option, path in (("out-dir", args.out_dir), ("input", args.input)):
        if path == "":  # Path("") would be the working directory
            raise UsageError(f"--{option} is an empty path")
    if args.band is not None and args.band < 0:
        raise UsageError(f"--band must be >= 0, got {args.band}")
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.writes is not None and not args.formats & _formats(args.writes):
        raise UsageError(f"--format names none of the formats {args.command} writes: "
                         f"{args.writes}")


def _year_span(first: int, last: int) -> str:
    """``first..last`` as one token: empty if reversed, one year if equal."""
    if first > last:
        return ""
    return str(first) if first == last else f"{first}..{last}"


@dataclass
class _Cleaned:
    """One variable's series as read and its spline fill, in the window of
    ISO years the run reads: ``--years`` if given, else the data's own.

    The outlier pass (`flagged`) runs on first use, at most once: for the
    point flags and the cleaning report, or for the values when
    ``--winsorize`` clamps them.  Value-only stages read `dense`, which is
    the fill itself unless ``--winsorize`` is given.
    """

    observed: WeeklySeries
    filled: WeeklySeries
    fill_report: CleaningReport
    winsorize: bool
    window: tuple[int, int] | None

    @cached_property
    def flagged(self) -> tuple[WeeklySeries, CleaningReport]:
        """The cleaned series, with its outlier flags, and the cleaning report."""
        return flag_outliers(self.observed, self.filled, self.fill_report,
                             winsorize=self.winsorize)

    @property
    def dense(self) -> WeeklySeries:
        """The cleaned values: the fill's, or the outlier pass's with ``--winsorize``."""
        return self.flagged[0] if self.winsorize else self.filled

    @cached_property
    def years(self) -> list[int]:
        """The complete ISO years, found on first use, when the window's other
        years are warned of once: one by one inside the data's span, as ranges
        outside it, so the line stays short for any window."""
        years = complete_years(self.dense)
        first, last = self.dense.first_week().iso_year, self.dense.last_week().iso_year
        lo, hi = self.window or (first, last)
        # Only ISO years 1..9999 hold dates; the table was cut to the window.
        skipped = [
            _year_span(max(lo, 1), first - 1),
            *(str(y) for y in range(first, last + 1) if y not in years),
            _year_span(last + 1, min(hi, 9999)),
        ]
        if any(skipped):
            var, tokens = self.dense.variable.value, ", ".join(filter(None, skipped))
            print(f"warning: skipping incomplete year(s) for {var}: {tokens}", file=sys.stderr)
        return years


def _cleaned(args: argparse.Namespace, data: bytes) -> dict[Variable, _Cleaned]:
    schema = ColumnSchema(date=args.date_col, arrivals=args.arrivals_col,
                          price=args.price_col, date_format=args.date_format)
    table = parse_market_csv(data, schema)
    if args.years is not None:
        table = table.in_years(*args.years)
    cleaned = {}
    for var in VARIABLES[args.variable]:
        series = build_weekly_series(table, var)
        cleaned[var] = _Cleaned(series, *spline_fill(series), args.winsorize, args.years)
    return cleaned


# Bytes of made files held before they are written as one group: file
# creation then no longer interleaves with the stages' work, and groups of 1
# or 4 MiB ran band-4 report-all no faster.
_HELD_BYTES = 256 << 10


def _hidden_dir(parent: Path) -> Path:
    """A new directory ``parent/.seasonwarp-<random>`` with the mode
    `Path.mkdir` gives (``0o777 & ~umask``), where ``mkdtemp`` would give
    ``0o700``."""
    while True:
        path = parent / f".seasonwarp-{os.urandom(6).hex()}"
        try:
            path.mkdir()
        except FileExistsError:
            continue
        return path


class _OutputTree:
    """The files of one run, held until they reach `_HELD_BYTES` and then
    written together into a staging directory, and put in place together
    once the run has succeeded.  At most `_HELD_BYTES` plus one file are
    held in memory, and a failed run leaves --out-dir as it was.

    A --out-dir that does not exist at the first write is staged beside the
    highest of its directories that does not exist, ``top``: the run's
    files go under ``<staging>/<--out-dir relative to top>``, and one
    ``os.rename`` of the staging directory to ``top`` makes --out-dir and
    every missing parent at once, so a failed run makes none of them.  If a
    non-empty directory appears at ``top`` meanwhile, the rename fails and
    leaves it untouched; an empty one is replaced (Linux ``rename``
    semantics).  An existing --out-dir, which may be a mount
    point or hold other files, is staged inside and each file moved into
    it by ``os.replace`` after the clash checks."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.out_dir = Path(args.out_dir)
        self.force = args.force
        self.names: set[str] = set()
        self.held: dict[str, bytes] = {}
        self.held_bytes = 0
        self.root: Path | None = None  # the staging directory
        self.staging: Path | None = None  # where the files go: root or under it
        self.top: Path | None = None  # what the commit renames root to, if anything

    def __setitem__(self, name: str, text: str) -> None:
        data = text.encode("utf-8")
        self.held[name] = data
        self.held_bytes += len(data)
        self.names.add(name)
        if self.held_bytes >= _HELD_BYTES:
            self._write_held()

    def _write_held(self) -> None:
        if self.root is None:
            if not os.path.lexists(self.out_dir):
                top = self.out_dir
                while top.parent != top and not os.path.lexists(top.parent):
                    top = top.parent
                try:
                    self.root = self.staging = _hidden_dir(top.parent)
                    # Part by part: a ".." part fails here, not outside root.
                    for part in self.out_dir.relative_to(top).parts:
                        self.staging /= part
                        self.staging.mkdir()
                except OSError as exc:  # name --out-dir, not the staging directory
                    raise OSError(exc.errno, exc.strerror, str(self.out_dir)) from None
                self.top = top
            else:
                # Staging inside out_dir keeps each move a rename on one file
                # system even when out_dir is a mount point or its parent is
                # read-only.
                self.out_dir.mkdir(exist_ok=True)
                self.root = self.staging = _hidden_dir(self.out_dir)
        for name, data in self.held.items():
            (self.staging / name).write_bytes(data)
        self.held.clear()
        self.held_bytes = 0

    def __enter__(self) -> _OutputTree:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._commit()
        finally:
            if self.root is not None:
                shutil.rmtree(self.root)

    def _commit(self) -> None:
        self._write_held()
        if self.top is not None:
            os.rename(self.root, self.top)
            self.root = None
            return
        names = sorted(self.names)
        clashes = [name for name in names if (self.out_dir / name).exists()]
        # A file cannot replace a directory, even with --force; found after
        # the first move, one would leave a partial tree.
        dirs = [name for name in clashes
                if (self.out_dir / name).is_dir() and not (self.out_dir / name).is_symlink()]
        if dirs:
            raise IsADirectoryError(
                f"output name is a directory in {self.out_dir}: {', '.join(dirs)}"
            )
        if clashes and not self.force:
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
    if args.input is None and args.seed is None:
        raise UsageError("--input is required")
    with _OutputTree(args) as files:
        if args.input is not None:
            data = Path(args.input).read_bytes()
        else:
            from .fixture import generate_fixture
            fx = generate_fixture(args.seed)
            data = fx.csv_bytes()
            files["fixture.csv"] = fx.csv_text
        stage(args, _cleaned(args, data), files)
    return 0


def cmd_fixture(args: argparse.Namespace) -> int:
    from .fixture import generate_fixture
    with _OutputTree(args) as files:
        files["fixture.csv"] = generate_fixture(args.seed).csv_text
    return 0


def _clean_stage(args: argparse.Namespace, cleaned, files: _OutputTree):
    reports = {}
    for var, c in cleaned.items():
        series, reports[var.value] = c.flagged
        if "csv" in args.formats:
            files[f"cleaned_{var.value}.csv"] = series_csv(series)
        if "json" in args.formats:
            files[f"cleaning_{var.value}.json"] = to_json(reports[var.value])
    return reports


def _stats_stage(args: argparse.Namespace, cleaned, files: _OutputTree):
    summaries = {var.value: describe(c.dense.values()) for var, c in cleaned.items()}
    adf = None
    if Variable.MODAL_PRICE in cleaned:
        adf = adf_test(log_diff(cleaned[Variable.MODAL_PRICE].dense.values()))
    if "json" in args.formats:
        files["stats.json"] = to_json({"summaries": summaries, "adf_log_price_diff": adf})
    if "csv" in args.formats:
        files["stats.csv"] = stats_csv(summaries, adf)
    return summaries, adf


def _seasonal_svg(tables: dict) -> str:
    from .svg import line_chart
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


def _seasonal_stage(args: argparse.Namespace, cleaned, files: _OutputTree):
    from .seasonal import seasonal_index
    method = args.detrend or "weekly-mean"
    tables = {var.value: seasonal_index(c.dense, c.years, method) for var, c in cleaned.items()}
    if "json" in args.formats:
        files["seasonal.json"] = to_json({"tables": tables})
    if "csv" in args.formats:
        for name, t in tables.items():
            files[f"seasonal_{name}.csv"] = records_csv(t.entries)
    if "svg" in args.formats:
        files["seasonal.svg"] = _seasonal_svg(tables)
    return tables


def _year_pairs(args: argparse.Namespace, cleaned: _Cleaned) -> list[tuple[int, int]]:
    years = cleaned.years
    if len(years) < 2:
        raise InsufficientDataError(
            f"DTW needs at least two complete years for {cleaned.dense.variable.value}; "
            f"found {len(years)}"
        )
    if args.all_pairs:
        return [(a, b) for i, a in enumerate(years) for b in years[i + 1 :]]
    return list(zip(years, years[1:]))


def _dtw_variable_outputs(args: argparse.Namespace, cleaned: _Cleaned, files: _OutputTree):
    """One variable's year pairs, each slice aligned as-is or z-scored once,
    aligned and ranked by one ``PairSet.align``; each pair's outputs are
    written as it is aligned."""
    from .dtw import DtwOptions, Normalization, PairSet
    from .svg import bar_chart, dtw_figure
    var = cleaned.dense.variable.value
    normalize = Normalization(args.normalize or "none")
    options = DtwOptions(band_radius=args.band, normalize_input=normalize)
    pairs = _year_pairs(args, cleaned)
    # The pairs hold every complete year, there being at least two.
    pair_set = PairSet({y: slice_year(cleaned.dense, y) for y in cleaned.years}, pairs, options)

    def write_pair(pair, result, d, g):
        y1, y2 = pair
        stem = f"dtw_{var}_{pair_label(pair)}"
        record = result.to_dict()
        if "json" in args.formats:
            files[f"{stem}.json"] = to_json(
                {"variable": var, "year_pair": [y1, y2], "result": record}
            )
        if "svg" in args.formats:
            files[f"{stem}.svg"] = dtw_figure(
                g,
                result.path.steps,
                (pair_set.aligned[y1], pair_set.aligned[y2]),
                (str(y1), str(y2)),
                title=f"DTW alignment, {var} {y1} vs {y2}",
                metadata={
                    **{k: v for k, v in record.items() if k != "path"},
                    "chart": "dtw_alignment",
                    "variable": var,
                    "year_pair": [y1, y2],
                },
            )
        if args.dump_matrices:
            files[f"{stem}_local.csv"] = matrix_csv(d)
            files[f"{stem}_cumulative.csv"] = matrix_csv(g)

    ranking, unbanded_ranks = pair_set.align(write_pair)
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
    if "json" in args.formats:
        files[f"dtw_ranking_{var}.json"] = to_json(payload)
    if "csv" in args.formats:
        files[f"dtw_ranking_{var}.csv"] = records_csv(ranking.entries)
    if "svg" in args.formats:
        files[f"dtw_ranking_{var}.svg"] = bar_chart(
            [(pair_label(e.year_pair), e.total_cost) for e in ranking.entries],
            title=f"DTW total cost by year pair, {var}",
            y_label="total cost",
            metadata={"chart": "dtw_ranking", "variable": var,
                      "options": options.to_dict()},
        )
    return ranking


def _dtw_stage(args: argparse.Namespace, cleaned, files: _OutputTree):
    return {var.value: _dtw_variable_outputs(args, c, files) for var, c in cleaned.items()}


def _series_svg(dense: WeeklySeries) -> str:
    from .svg import line_chart
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


def _report_stage(args: argparse.Namespace, cleaned, files: _OutputTree):
    """Every stage once, plus the series charts and the bundle of their values."""
    reports, (summaries, adf), tables, rankings = [
        stage(args, cleaned, files)
        for stage in (_clean_stage, _stats_stage, _seasonal_stage, _dtw_stage)
    ]
    bundle = {"cleaning": reports, "summaries": summaries, "seasonal": tables,
              "dtw": rankings, "adf_log_price_diff": adf}
    if "svg" in args.formats:
        for var, c in cleaned.items():
            files[f"series_{var.value}.svg"] = _series_svg(c.dense)
    if "json" in args.formats:
        files["bundle.json"] = to_json(bundle)
    return bundle


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(build_parser(), argv)
        _check(args)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
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
