"""Run the byte-identity scenarios on two source trees and diff their results.

Usage, from the root of a checkout:

    python3 tools/compare_trees.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory holding the ``seasonwarp`` package, such as a
checkout's ``src/``.  Every scenario runs ``python -m seasonwarp.cli`` once per
tree, each in a fresh working directory with the same relative ``--input`` and
``--out-dir``, so messages that name them read the same.  The output trees are
compared file by file, together with stdout, stderr and the exit code.  One
line per scenario is printed; the exit code is 1 if any scenario differs.

A ``dtw_*.svg`` that differs is reported as ``PICTURE`` when it draws the same
picture: every line but the heatmap ``<image>`` is identical, and both images
sit at the same place and decode to the same pixel rows (an 8-bit RGB PNG with
one pixel per cell).  A scenario whose only differences are such files prints
``PICTURE`` in place of ``DIFF``; it still counts as a difference for the exit
code.

A file that differs in any other way is printed with where it differs: for
JSON the key paths of the values that differ, such as
``summaries.modal_price.skewness`` or ``ranking.entries[3].total_cost``; for
CSV the first-column label of each differing row, or its line number when
that label is not unique; for other text the line numbers.  At most ten
places are printed per file.

Six inputs are made once with PARENT_SRC's ``seasonwarp`` on the path: the
fixture CSV (seed 42, what ``report-all`` generates by default), the same
without its first data row, the long-history CSV ``bench/inputs.long_history(501, 300, 60, 80)``,
that history in another CSV dialect, that history with runs of rows
and some cells blanked, and that history with clusters of short gaps.  ``bench/``
is only imported, never changed.  The DTW scenarios on the long history are
limited to a decade, because all 44,850 pairs of 300 years would write tens
of GB.  ``long-dtw-ties`` aligns both variables of 1965..1975 at band 4: four
of its arrivals pairs tie on their unbanded total, so the reference ranking
sweeps those pairs again for the path length that breaks the tie, and the
banded ranks differ from the unbanded ones.  ``long-dtw-ties-svg`` aligns
the same arrivals pairs and writes every per-pair output (JSON, SVG and the
dumped matrices) and the CSV ranking: no other scenario writes them on a run
that sweeps tied pairs again (``long-dtw`` z-scores, so nothing ties).  Two
DTW scenarios on the fixture pin error paths: band 0 exits 2 on the first
52-vs-53-week pair, and band 1 with z-scores aligns every pair.  ``dtw-edge-gap``, ``seasonal-edge-gap`` and
``report-all-edge-gap`` run on the fixture without its first data row, so the
first ISO year is incomplete and skipped with a warning, once per variable.
``long-stats`` is the benchmark's ``stats`` command on the long history,
whose ADF lag search factors its design in 16 row blocks.
``long-stats-dialect`` runs it on the long history rewritten with a BOM, a
quoted header, CRLF line ends and blank lines (one after the header, two in
the middle, one at the end), so the reader's quoting and line handling are
checked on 15.6k rows.
``long-clean-ragged`` runs ``clean`` on the long history without runs of 2
to 9 consecutive rows (one run every 397 rows) and with a blank arrivals cell
in every 251st row of the middle.  The two variables then have different knot
sets, the spline's factors settle on runs of unequal length, the arrivals
column is read cell by cell, and every filled value is written.  Some of
these longer gaps fill below zero, so the clamp is written too (``stats`` on
this input exits 2: the price series is not positive).
``long-clean-clustered`` runs ``clean`` on the long history with 600 more
gaps of 1 to 3 rows, in 15 clusters: in each, the rows between gaps are
runs of every length from 1 to 40.  Most of the spline's runs of equal
rows are then short, of lengths up to about 40, where the sweep's factors
may or may not settle before the run ends.
``report-all-config`` gives ``report-all-winsorize``'s
options as the lines of a config file, written into each run's working
directory.  ``long-stats-winsorize``, ``long-seasonal-winsorize`` and
``dtw-winsorize`` check that each value-only command reads the winsorized
values, which only the outlier pass makes, under ``--winsorize``.  ``report-all-arrivals`` is the one tree whose bundle holds a single
variable and whose ``adf_log_price_diff`` is null.  ``report-all-force``
runs into an existing --out-dir holding ``STALE_FILES``: one output that
``--force`` replaces and one file left alone, so the commit that moves each
file into an existing directory is checked as well as the one that renames
a new directory into place.  ``report-all-seed11`` exits 2: the spline fill
of fixture seed 11 clamps one price week to 0.0, so the log price
differences of the ADF test are undefined; it compares that error's exit
code and stderr line, and that no --out-dir is made.  The permission bits
of --out-dir and of every file present in both trees are compared too.
"""

from __future__ import annotations

import base64
import binascii
import csv
import json
import os
import re
import stat
import struct
import subprocess
import sys
import tempfile
import zlib
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
LONG_HISTORY = (501, 300, 60, 80)

# Config file of a scenario whose argv passes --config run.cfg.
WINSORIZE_CONFIG = "winsorize = yes\nnormalize = zscore\nyears = 2012..2020\n"
# What --out-dir holds before a scenario whose argv passes --force: one
# output the run replaces and one file it leaves alone.
STALE_FILES = {"bundle.json": b"{}\n", "notes.txt": b"kept\n"}

# (name, argv before --out-dir, input: None or a key of INPUT_CODE)
SCENARIOS = (
    ("report-all", ["report-all"], None),
    ("report-all-band4", ["report-all", "--seed", "201", "--all-pairs", "--band", "4"], None),
    ("report-all-winsorize",
     ["report-all", "--winsorize", "--normalize", "zscore", "--years", "2012..2020"], None),
    ("report-all-config", ["report-all", "--config", "run.cfg"], None),
    ("report-all-arrivals", ["report-all", "--variable", "arrivals"], None),
    ("report-all-force", ["report-all", "--force"], None),
    ("report-all-seed11", ["report-all", "--seed", "11"], None),
    ("dtw-band0", ["dtw", "--all-pairs", "--band", "0"], "fixture"),
    ("dtw-band1-zscore", ["dtw", "--all-pairs", "--band", "1", "--normalize", "zscore"],
     "fixture"),
    ("dtw-winsorize", ["dtw", "--all-pairs", "--band", "4", "--winsorize"], "fixture"),
    ("dtw-edge-gap", ["dtw", "--variable", "price"], "edge-gap"),
    ("seasonal-edge-gap", ["seasonal", "--variable", "price"], "edge-gap"),
    ("report-all-edge-gap", ["report-all"], "edge-gap"),
    ("long-clean", ["clean"], "long"),
    ("long-clean-ragged", ["clean"], "long-ragged"),
    ("long-clean-clustered", ["clean"], "long-clustered"),
    ("long-stats", ["stats"], "long"),
    ("long-stats-winsorize", ["stats", "--winsorize"], "long"),
    ("long-stats-dialect", ["stats"], "long-dialect"),
    ("long-seasonal-ma", ["seasonal", "--detrend", "moving-average"], "long"),
    ("long-seasonal-winsorize", ["seasonal", "--winsorize"], "long"),
    ("long-dtw", ["dtw", "--variable", "price", "--years", "2000..2010", "--all-pairs",
                  "--band", "3", "--dump-matrices", "--normalize", "zscore"], "long"),
    ("long-dtw-ties", ["dtw", "--years", "1965..1975", "--all-pairs", "--band", "4",
                       "--format", "json"], "long"),
    ("long-dtw-ties-svg", ["dtw", "--variable", "arrivals", "--years", "1965..1975",
                           "--all-pairs", "--band", "4", "--dump-matrices",
                           "--format", "json,csv,svg"], "long"),
)

INPUT_CODE = {
    "fixture": "from seasonwarp.fixture import generate_fixture; "
               "sys.stdout.buffer.write(generate_fixture(42).csv_bytes())",
    "edge-gap": "from seasonwarp.fixture import generate_fixture; "
                "lines = generate_fixture(42).csv_bytes().splitlines(keepends=True); "
                "sys.stdout.buffer.write(b''.join([lines[0], *lines[2:]]))",
    "long": "from inputs import long_history; "
            f"sys.stdout.buffer.write(long_history{LONG_HISTORY}.csv_text.encode())",
    "long-dialect": "from inputs import long_history; "
                    f"lines = long_history{LONG_HISTORY}.csv_text.splitlines(); "
                    "lines[0] = ','.join(f'\"{name}\"' for name in lines[0].split(',')); "
                    "lines[1:1] = ['']; lines[7000:7000] = ['', '']; lines += ['']; "
                    "sys.stdout.buffer.write(b'\\xef\\xbb\\xbf' "
                    "+ '\\r\\n'.join(lines).encode() + b'\\r\\n')",
    "long-ragged": "from inputs import long_history; "
                   f"lines = long_history{LONG_HISTORY}.csv_text.splitlines(); "
                   "gone = {i + j for i in range(500, len(lines) - 500, 397) "
                   "for j in range(2 + i % 8)}; "
                   "rows = [line for i, line in enumerate(lines) if i not in gone]; "
                   "rows[300:-300:251] = [f'{day},,{price}' for day, _, price "
                   "in (row.split(',') for row in rows[300:-300:251])]; "
                   "sys.stdout.buffer.write(('\\n'.join(rows) + '\\n').encode())",
    "long-clustered": "from inputs import long_history; "
                      f"lines = long_history{LONG_HISTORY}.csv_text.splitlines(); "
                      "cluster = ''.join('k' * (1 + 7 * j % 40) + 'g' * (1 + j % 3) "
                      "for j in range(40)); "
                      "rows = [line for i, line in enumerate(lines) if not "
                      "(300 <= i < len(lines) - 300 and cluster[(i - 300) % 1000:][:1] == 'g')]; "
                      "sys.stdout.buffer.write(('\\n'.join(rows) + '\\n').encode())",
}


def input_csv(src: Path, name: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{BENCH}")
    return subprocess.run([sys.executable, "-c", f"import sys; {INPUT_CODE[name]}"],
                          env=env, check=True, capture_output=True).stdout


def run(src: Path, argv: list[str], data: bytes | None, workdir: Path) -> dict:
    """Exit code, stdout, stderr, output tree and permission bits (of
    --out-dir, keyed ".", and of each file) of one CLI run."""
    workdir.mkdir(parents=True)
    out = workdir / "out"
    if "--config" in argv:
        (workdir / "run.cfg").write_text(WINSORIZE_CONFIG)
    if "--force" in argv:
        out.mkdir()
        for name, stale in STALE_FILES.items():
            (out / name).write_bytes(stale)
    if data is not None:
        (workdir / "input.csv").write_bytes(data)
        argv = [argv[0], "--input", "input.csv", *argv[1:]]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "seasonwarp.cli", *argv, "--out-dir", "out"],
                          cwd=workdir, env=env, capture_output=True)
    paths = sorted(out.iterdir()) if out.is_dir() else []
    modes = {p.name: oct(stat.S_IMODE(p.stat().st_mode)) for p in paths}
    if out.is_dir():
        modes["."] = oct(stat.S_IMODE(out.stat().st_mode))
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "tree": {p.name: p.read_bytes() for p in paths}, "modes": modes}


IMAGE = re.compile(r'<image xmlns:xlink="http://www.w3.org/1999/xlink" x="([^"]+)" y="([^"]+)" '
                   r'width="([^"]+)" height="([^"]+)" [^>]*'
                   r'xlink:href="data:image/png;base64,([A-Za-z0-9+/=]+)"/>')
PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def png_fills(png: bytes) -> list[list[str]] | None:
    """Pixel rows, as RGB bytes, of an 8-bit RGB, non-interlaced PNG whose
    scanlines all have filter byte 0; None for any other or broken PNG."""
    if not png.startswith(PNG_SIGNATURE):
        return None
    chunks, pos = {}, len(PNG_SIGNATURE)
    while pos < len(png):
        length, kind = struct.unpack(">I4s", png[pos:pos + 8])
        data = png[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", png[pos + 8 + length:pos + 12 + length])
        if crc != zlib.crc32(kind + data):
            return None
        chunks[kind] = chunks.get(kind, b"") + data
        pos += 12 + length
    width, height, *form = struct.unpack(">IIBBBBB", chunks[b"IHDR"])
    if form != [8, 2, 0, 0, 0] or not width or not height:
        return None
    raw = zlib.decompress(chunks[b"IDAT"])
    stride = 1 + 3 * width
    if len(raw) != height * stride or any(raw[i * stride] for i in range(height)):
        return None
    return [raw[i * stride + 1:(i + 1) * stride] for i in range(height)]


def heatmap(svg: bytes) -> tuple[list[str], list | None]:
    """A DTW figure's lines other than the heatmap, and each heatmap <image>
    as its x, y, width and height with its pixel rows (None if one does not
    decode)."""
    others, images = [], []
    for line in svg.decode().splitlines():
        image = IMAGE.fullmatch(line)
        if image is None:
            others.append(line)
            continue
        try:
            rows = png_fills(base64.b64decode(image[5], validate=True))
        except (binascii.Error, struct.error, KeyError, zlib.error):
            rows = None
        if rows is None:
            return others, None
        images.append((image.groups()[:4], rows))
    return others, images


def same_picture(a: bytes, b: bytes) -> bool:
    """Whether two DTW figures differ only in how their heatmap is encoded."""
    others_a, images_a = heatmap(a)
    others_b, images_b = heatmap(b)
    return others_a == others_b and images_a is not None and images_a == images_b


PLACES_SHOWN = 10


def json_paths(a, b, path: str = "") -> list[str]:
    """Key paths at which two parsed JSON documents differ.  Leaves are
    compared by type and repr, so NaN equals NaN and 1 differs from 1.0."""
    if isinstance(a, dict) and isinstance(b, dict):
        found = []
        for key in sorted(a.keys() | b.keys()):
            inner = f"{path}.{key}" if path else key
            found += json_paths(a[key], b[key], inner) if key in a and key in b else [inner]
        return found
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in json_paths(x, y, f"{path}[{i}]")]
    same = type(a) is type(b) and repr(a) == repr(b)
    return [] if same else [path or "(top level)"]


def line_places(name: str, old: list[str], new: list[str]) -> list[str]:
    """Line numbers of the lines that differ; for CSV, each row's label in
    the first column instead, where that label is the same in both files
    and unique in the parent's."""
    labels_a, labels_b = (
        [row[0] if row else "" for row in csv.reader(lines)] if name.endswith(".csv") else []
        for lines in (old, new)
    )
    counts = Counter(labels_a)
    found = []
    for i in range(max(len(old), len(new))):
        if old[i:i + 1] == new[i:i + 1]:
            continue
        label = labels_a[i] if i < len(labels_a) else None
        named = label is not None and labels_b[i:i + 1] == [label] and counts[label] == 1
        found.append(label if named else f"line {i + 1}")
    return found


def places(name: str, old: bytes, new: bytes) -> list[str]:
    """Where two differing files differ, as `json_paths` or `line_places`
    name it; an empty list for a file that is not UTF-8 text."""
    try:
        text_a, text_b = old.decode(), new.decode()
    except UnicodeDecodeError:
        return []
    if name.endswith(".json"):
        try:
            found = json_paths(json.loads(text_a), json.loads(text_b))
        except ValueError:
            found = []
        if found:
            return found
    return line_places(name, text_a.splitlines(), text_b.splitlines())


def differences(a: dict, b: dict) -> list[str]:
    found = [key for key in ("exit code", "stdout", "stderr") if a[key] != b[key]]
    found += [f"mode of {n}: {a['modes'][n]} -> {b['modes'][n]}"
              for n in sorted(a["modes"].keys() & b["modes"].keys())
              if a["modes"][n] != b["modes"][n]]
    names_a, names_b = set(a["tree"]), set(b["tree"])
    found += [f"only in parent: {n}" for n in sorted(names_a - names_b)]
    found += [f"only in change: {n}" for n in sorted(names_b - names_a)]
    for n in sorted(names_a & names_b):
        old, new = a["tree"][n], b["tree"][n]
        if old != new:
            if n.startswith("dtw_") and n.endswith(".svg") and same_picture(old, new):
                found.append(f"{n} PICTURE")
                continue
            where = places(n, old, new)
            more = len(where) - PLACES_SHOWN
            shown = ", ".join(where[:PLACES_SHOWN]) + (f" and {more} more" if more > 0 else "")
            found.append(f"{n} differs" + (f" at {shown}" if where else ""))
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    inputs = {name: input_csv(parent, name) for name in INPUT_CODE}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as tmp:
        for name, scenario, input_name in SCENARIOS:
            data = None if input_name is None else inputs[input_name]
            a = run(parent, scenario, data, Path(tmp) / "parent" / name)
            b = run(change, scenario, data, Path(tmp) / "change" / name)
            found = differences(a, b)
            failed += bool(found)
            pictures = [f for f in found if f.endswith(" PICTURE")]
            if not found:
                status, detail = "same", f"{len(a['tree'])} files"
            elif len(pictures) == len(found):
                status, detail = "PICTURE", (f"{len(pictures)} of {len(a['tree'])} files "
                                             "differ in bytes, each the same picture")
            else:
                status = "DIFF"
                detail = "; ".join([f for f in found if f not in pictures][:5])
                if pictures:
                    detail += f"; {len(pictures)} more the same picture"
            print(f"{status:7}  {name} (exit {a['exit code']}): {detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
