"""tools/compare_trees.py reads both heatmap encodings to the same pixels, and
both forms of a written warping path to the same steps."""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
from compare_trees import differences, heatmap_change, path_reencoded, png_fills

from seasonwarp.dtw import DtwOptions, dtw_align
from seasonwarp.report import to_json
from seasonwarp.svg import dtw_figure

from _oracles import dtw_heatmap_cells_oracle

# A 4 x 3 picture in three colours, row by row.
COLOURS = [b"\x10\x20\x30", b"\xf7\xfb\xff", b"\xdd\xdd\xdd"]
INDICES = [[0, 1, 2, 1], [2, 2, 0, 0], [1, 0, 1, 2]]


def _chunk(kind: bytes, data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))


def _png(colour_type: int, scanlines: bytes, plte: bytes = b"", depth: int = 8) -> bytes:
    header = struct.pack(">IIBBBBB", 4, 3, depth, colour_type, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", header)
            + (_chunk(b"PLTE", plte) if plte else b"")
            + _chunk(b"IDAT", zlib.compress(scanlines)) + _chunk(b"IEND", b""))


RGB_SCANLINES = b"".join(b"\x00" + b"".join(COLOURS[k] for k in row) for row in INDICES)
INDEX_SCANLINES = b"".join(b"\x00" + bytes(row) for row in INDICES)


def test_rgb_and_indexed_png_decode_to_the_same_rows():
    rows = [b"".join(COLOURS[k] for k in row) for row in INDICES]
    assert png_fills(_png(2, RGB_SCANLINES)) == rows
    assert png_fills(_png(3, INDEX_SCANLINES, b"".join(COLOURS))) == rows


def test_bad_crc_index_or_form_gives_none():
    for png in (_png(2, RGB_SCANLINES), _png(3, INDEX_SCANLINES, b"".join(COLOURS))):
        idat = png.index(b"IDAT")
        assert png_fills(png[:idat + 4] + bytes([png[idat + 4] ^ 1]) + png[idat + 5:]) is None
    # An index past the end of the palette, a palette of 2.33 entries, no
    # palette, and 16-bit samples.
    assert png_fills(_png(3, INDEX_SCANLINES, b"".join(COLOURS[:2]))) is None
    assert png_fills(_png(3, bytes(5) * 3, b"".join(COLOURS)[:7])) is None
    assert png_fills(_png(3, bytes(5) * 3)) is None
    assert png_fills(_png(2, RGB_SCANLINES, depth=16)) is None


def test_heatmap_change_counts_pixels():
    g = np.arange(12.0).reshape(3, 4)
    steps, pair = [(1, 1), (2, 2), (3, 3), (3, 4)], ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0])

    def draw(matrix, title="t"):
        return dtw_figure(matrix, steps, pair, ("a", "b"), title=title, metadata={}).encode()

    assert heatmap_change(draw(g), draw(g)) == (0, 0)
    # One finite cell turned grey: one pixel, by its largest channel distance to #dddddd.
    grey = g.copy()
    grey[0, 1] = np.inf
    fill = dtw_heatmap_cells_oracle(g.tolist())[1]
    largest = max(abs(int(fill[c:c + 2], 16) - 0xDD) for c in (1, 3, 5))
    assert heatmap_change(draw(g), draw(grey)) == (1, largest)
    # Any other line differing is not a heatmap change.
    assert heatmap_change(draw(g), draw(g, title="u")) is None


def _pair_json(path, path_length=None) -> bytes:
    """A per-pair DTW JSON file of one alignment, its path written as given."""
    res = dtw_align([0.0, 2.0, 1.0, 1.0, 3.0], [0.0, 1.0, 3.0, 3.0], DtwOptions(band_radius=2))
    record = json.loads(to_json({"variable": "arrivals", "year_pair": [2020, 2021],
                                 "result": res}))
    record["result"]["path"] = path
    if path_length is not None:
        record["result"]["path_length"] = path_length
    return json.dumps(record, indent=2, sort_keys=True).encode() + b"\n"


def test_path_written_both_ways_matches():
    res = dtw_align([0.0, 2.0, 1.0, 1.0, 3.0], [0.0, 1.0, 3.0, 3.0], DtwOptions(band_radius=2))
    rows, moves = [list(step) for step in res.path.steps], res.path.moves
    assert moves == "DVVDH" and rows[-1] == [5, 4]
    assert path_reencoded(_pair_json(rows), _pair_json(moves))
    assert path_reencoded(_pair_json(moves), _pair_json(rows))
    # Two runs, the second writing the move string: the file is set apart
    # from the differences as a path written another way.
    a, b = ({"exit code": 0, "stdout": b"", "stderr": b"", "modes": {},
             "tree": {"dtw_arrivals_2020-2021.json": _pair_json(path)}} for path in (rows, moves))
    assert differences(a, b) == ([], {}, ["dtw_arrivals_2020-2021.json"])


def test_other_paths_do_not_match():
    rows = [[1, 1], [2, 2], [3, 2], [4, 2], [5, 3], [5, 4]]
    assert path_reencoded(_pair_json(rows), _pair_json("DVVDH"))
    for moves in ("DVVHD",   # one move off by one
                  "DVXVDH",  # a stray letter
                  "DVVD",    # one move short
                  "DVVDHH"):  # one move too many
        assert not path_reencoded(_pair_json(rows), _pair_json(moves)), moves
    # The same form on both sides, or another key differing too, is no re-encoding.
    assert not path_reencoded(_pair_json("DVVDH"), _pair_json("DVDVH"))
    assert not path_reencoded(_pair_json(rows), _pair_json("DVVDH", path_length=7))
