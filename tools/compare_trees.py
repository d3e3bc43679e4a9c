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
picture: every line but the heatmap is identical, and every heatmap cell has
the same fill in both files.  A heatmap is either ``<rect>``s, each covering a
run of cells, or one ``<image>`` holding an 8-bit RGB PNG with one pixel per
cell; both are expanded into cell fills, so either form compares with the
other.  A scenario whose only differences are such files prints ``PICTURE`` in
place of ``DIFF``; it still counts as a difference for the exit code.

Two inputs are made once with PARENT_SRC's ``seasonwarp`` on the path: the
fixture CSV (seed 42, what ``report-all`` generates by default) and the
long-history CSV ``bench/inputs.long_history(501, 300, 60, 80)``.  ``bench/``
is only imported, never changed.  The DTW scenario on the long history is
limited to the prices of 2000..2010, because all 44,850 pairs of 300 years
would write tens of GB.  Two DTW scenarios on the fixture pin error paths:
band 0 exits 2 on the first 52-vs-53-week pair, and band 1 with z-scores
aligns every pair.  ``report-all-config`` gives ``report-all-winsorize``'s
options as the lines of a config file, written into each run's working
directory.  ``report-all-arrivals`` is the one tree whose bundle holds a single
variable and whose ``adf_log_price_diff`` is null.
"""

from __future__ import annotations

import base64
import binascii
import bisect
import os
import re
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
LONG_HISTORY = (501, 300, 60, 80)

# Config file of a scenario whose argv passes --config run.cfg.
WINSORIZE_CONFIG = "winsorize = yes\nnormalize = zscore\nyears = 2012..2020\n"

# (name, argv before --out-dir, input: None, "fixture" or "long")
SCENARIOS = (
    ("report-all", ["report-all"], None),
    ("report-all-band4", ["report-all", "--seed", "201", "--all-pairs", "--band", "4"], None),
    ("report-all-winsorize",
     ["report-all", "--winsorize", "--normalize", "zscore", "--years", "2012..2020"], None),
    ("report-all-config", ["report-all", "--config", "run.cfg"], None),
    ("report-all-arrivals", ["report-all", "--variable", "arrivals"], None),
    ("dtw-band0", ["dtw", "--all-pairs", "--band", "0"], "fixture"),
    ("dtw-band1-zscore", ["dtw", "--all-pairs", "--band", "1", "--normalize", "zscore"],
     "fixture"),
    ("long-clean", ["clean"], "long"),
    ("long-stats-winsorize", ["stats", "--winsorize"], "long"),
    ("long-seasonal-ma", ["seasonal", "--detrend", "moving-average"], "long"),
    ("long-dtw", ["dtw", "--variable", "price", "--years", "2000..2010", "--all-pairs",
                  "--band", "3", "--dump-matrices", "--normalize", "zscore"], "long"),
)

INPUT_CODE = {
    "fixture": "from seasonwarp.fixture import generate_fixture; "
               "sys.stdout.buffer.write(generate_fixture(42).csv_bytes())",
    "long": "from inputs import long_history; "
            f"sys.stdout.buffer.write(long_history{LONG_HISTORY}.csv_text.encode())",
}


def input_csv(src: Path, name: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{BENCH}")
    return subprocess.run([sys.executable, "-c", f"import sys; {INPUT_CODE[name]}"],
                          env=env, check=True, capture_output=True).stdout


def run(src: Path, argv: list[str], data: bytes | None, workdir: Path) -> dict:
    """Exit code, stdout, stderr and output tree of one CLI run."""
    workdir.mkdir(parents=True)
    if "--config" in argv:
        (workdir / "run.cfg").write_text(WINSORIZE_CONFIG)
    if data is not None:
        (workdir / "input.csv").write_bytes(data)
        argv = [argv[0], "--input", "input.csv", *argv[1:]]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "seasonwarp.cli", *argv, "--out-dir", "out"],
                          cwd=workdir, env=env, capture_output=True)
    out = workdir / "out"
    tree = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "tree": tree}


RECT = re.compile(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="([^"]+)" '
                  r'fill="(#[0-9a-f]{6})"/>')
IMAGE = re.compile(r'<image xmlns:xlink="http://www.w3.org/1999/xlink" x="([^"]+)" y="([^"]+)" '
                   r'width="([^"]+)" height="([^"]+)" [^>]*'
                   r'xlink:href="data:image/png;base64,([A-Za-z0-9+/=]+)"/>')
PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
# Largest gap between a rect edge and a cell edge: x and width are each
# rounded to two decimals.  Cells are far wider than this.
EDGE_TOL = 0.02


def png_fills(png: bytes) -> list[list[str]] | None:
    """Rows of "#rrggbb" pixel fills of an 8-bit RGB, non-interlaced PNG whose
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
    return [["#" + raw[i * stride + 1 + 3 * j:i * stride + 4 + 3 * j].hex() for j in range(width)]
            for i in range(height)]


def image_rects(match: re.Match) -> list[tuple[float, float, float, float, str]] | None:
    """One rect per pixel of a heatmap <image>, its x and y rounded to two
    decimals as a rect heatmap writes them; None if the PNG does not decode."""
    x, y, w, h = map(float, match.groups()[:4])
    try:
        rows = png_fills(base64.b64decode(match[5], validate=True))
    except (binascii.Error, struct.error, KeyError, zlib.error):
        return None
    if rows is None:
        return None
    pw, ph = w / len(rows[0]), h / len(rows)
    return [(float(f"{x + j * pw:.2f}"), float(f"{y + i * ph:.2f}"), pw, ph, fill)
            for i, row in enumerate(rows) for j, fill in enumerate(row)]


def heatmap(svg: bytes) -> tuple[list[str], list[tuple[float, float, float, float, str]] | None]:
    """A DTW figure's lines other than the heatmap, and the heatmap as rects
    (None if a heatmap image does not decode).

    Heatmap rects are the filled ``<rect>`` lines after the first one, the
    white canvas background; a heatmap ``<image>`` gives one rect per pixel.
    """
    others, rects = [], []
    background = False
    for line in svg.decode().splitlines():
        match = RECT.fullmatch(line)
        image = IMAGE.fullmatch(line)
        if match and background:
            x, y, w, h, fill = match.groups()
            rects.append((float(x), float(y), float(w), float(h), fill))
        elif image:
            pixels = image_rects(image)
            if pixels is None:
                return others, None
            rects += pixels
        else:
            background = background or line.startswith("<rect")
            others.append(line)
    return others, rects


def cell_fills(rects, xs: list[float], ys: list[float]) -> dict | None:
    """Fill of each (row start, column start) cell the rects cover, from the
    sorted cell starts xs and ys; None if a cell is covered twice."""
    fills = {}
    for x, y, w, h, fill in rects:
        columns = xs[bisect.bisect_right(xs, x - EDGE_TOL):bisect.bisect_left(xs, x + w - EDGE_TOL)]
        for cy in ys[bisect.bisect_right(ys, y - EDGE_TOL):bisect.bisect_left(ys, y + h - EDGE_TOL)]:
            for cx in columns:
                if (cy, cx) in fills:
                    return None
                fills[cy, cx] = fill
    return fills


def same_picture(a: bytes, b: bytes) -> bool:
    """Whether two DTW figures differ only in how their heatmap is drawn.

    Cells are the grid spanned by every rect's x and y in either file, so a
    rect per cell compares with a rect per run of equal fill or a pixel.
    """
    others_a, rects_a = heatmap(a)
    others_b, rects_b = heatmap(b)
    if others_a != others_b or rects_a is None or rects_b is None:
        return False
    xs = sorted({r[0] for r in rects_a + rects_b})
    ys = sorted({r[1] for r in rects_a + rects_b})
    fills_a = cell_fills(rects_a, xs, ys)
    return fills_a is not None and fills_a == cell_fills(rects_b, xs, ys) \
        and len(fills_a) == len(xs) * len(ys)


def differences(a: dict, b: dict) -> list[str]:
    found = [key for key in ("exit code", "stdout", "stderr") if a[key] != b[key]]
    names_a, names_b = set(a["tree"]), set(b["tree"])
    found += [f"only in parent: {n}" for n in sorted(names_a - names_b)]
    found += [f"only in change: {n}" for n in sorted(names_b - names_a)]
    for n in sorted(names_a & names_b):
        old, new = a["tree"][n], b["tree"][n]
        if old != new:
            picture = n.startswith("dtw_") and n.endswith(".svg") and same_picture(old, new)
            found.append(f"{n} {'PICTURE' if picture else 'differs'}")
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
