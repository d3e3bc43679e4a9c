"""Deterministic SVG 1.1 chart emission.

Charts are built by direct string assembly with fixed-precision coordinates,
so identical inputs give identical bytes.  Each document embeds its
generating parameters in a <metadata> element.  Layout is data-faithful and
plain: axes, ticks, polylines, a legend; nothing decorative.

Each kind of element is written by one helper: ``_text``, ``_line`` and
``_outline`` (a panel's grey border); only ``_document`` writes its title
itself.  ``_plot`` draws a whole line plot (frame, axes, 5%-padded y range,
polylines, legend); ``line_chart`` is one ``_plot`` and so is the right panel
of ``dtw_figure``.
"""

from __future__ import annotations

import binascii
import json
import math
import struct
import zlib
from collections.abc import Sequence

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L = 64.0
_MARGIN_R = 18.0
_MARGIN_T = 40.0
_MARGIN_B = 46.0


def _f(x: float) -> str:
    return format(x, ".2f")


def _escape(text: str) -> str:
    """Character data with &, > and < escaped, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """Polyline points "x,y x,y ..." from float64 arrays, each coordinate as _f
    writes it: ``%.2f`` is the same conversion as ``format(x, ".2f")``, and
    one ``%`` formats every point."""
    coords = np.column_stack((xs, ys)).ravel()
    return " ".join(["%.2f,%.2f"] * len(xs)) % tuple(coords.tolist())


def _tick_label(x: float) -> str:
    return format(x, ".6g")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About six round ticks over a `_Frame` range, which is never empty."""
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 else t)
        if t + step == t:  # step below half an ulp of t: t would never move
            break
        t += step
    return ticks


def _document(width: float, height: float, title: str, metadata: dict, body: list[str]) -> str:
    meta = json.dumps(metadata, sort_keys=True)
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">',
        f"<title>{_escape(title)}</title>",
        f"<metadata>{_escape(meta)}</metadata>",
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="#ffffff"/>',
        f'<text x="{_f(width / 2)}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="#222222">{_escape(title)}</text>',
    ]
    return "\n".join(head + body + ["</svg>", ""])


# Text styles: tick and bar labels, axis labels, legend entries.
_TICK = 'font-size="11" fill="#444444"'
_LABEL = 'font-size="12" fill="#333333"'
_KEY = 'font-size="11" fill="#333333"'


def _text(x: float, y: float, text: str, style: str, anchor: str | None = "middle",
          rotate: bool = False) -> str:
    """Escaped text at (x, y); rotate turns it -90 degrees about that point."""
    a = f' text-anchor="{anchor}"' if anchor else ""
    r = f' transform="rotate(-90 {_f(x)} {_f(y)})"' if rotate else ""
    return (f'<text x="{_f(x)}" y="{_f(y)}"{a} font-family="sans-serif" {style}{r}>'
            f"{_escape(text)}</text>")


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = "#888888",
          width: str = "1") -> str:
    return (f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _outline(x: float, y: float, w: float, h: float) -> str:
    """The grey border of a plot panel."""
    return (f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="none" stroke="#888888" stroke-width="1"/>')


class _Frame:
    """Maps data coordinates into one plot rectangle of the canvas."""

    def __init__(self, x0: float, y0: float, plot_w: float, plot_h: float,
                 xlo: float, xhi: float, ylo: float, yhi: float):
        self.x0, self.y0 = x0, y0
        self.w, self.h = plot_w, plot_h
        if xhi <= xlo:
            xhi = xlo + 1.0
        if yhi <= ylo:
            yhi = ylo + 1.0
        self.xlo, self.xhi = xlo, xhi
        self.ylo, self.yhi = ylo, yhi

    def px(self, x: float) -> float:
        return self.x0 + (x - self.xlo) / (self.xhi - self.xlo) * self.w

    def py(self, y: float) -> float:
        return self.y0 + self.h - (y - self.ylo) / (self.yhi - self.ylo) * self.h

    def axes(self, x_label: str, y_label: str) -> list[str]:
        bottom = self.y0 + self.h
        out = [_outline(self.x0, self.y0, self.w, self.h)]
        for t in _nice_ticks(self.xlo, self.xhi):
            if self.xlo <= t <= self.xhi:
                x = self.px(t)
                out += [_line(x, bottom, x, bottom + 4),
                        _text(x, bottom + 17, _tick_label(t), _TICK)]
        for t in _nice_ticks(self.ylo, self.yhi):
            if self.ylo <= t <= self.yhi:
                y = self.py(t)
                out += [_line(self.x0 - 4, y, self.x0, y),
                        _text(self.x0 - 7, y + 4, _tick_label(t), _TICK, "end")]
        out.append(_text(self.x0 + self.w / 2, bottom + 34, x_label, _LABEL))
        out.append(_text(self.x0 - 48, self.y0 + self.h / 2, y_label, _LABEL, rotate=True))
        return out

    def polyline(self, xs, ys, color: str) -> str:
        # px and py applied to float64 arrays do the same IEEE operations,
        # in the same order, as on each Python float.
        pts = _points(self.px(np.asarray(xs, dtype=float)), self.py(np.asarray(ys, dtype=float)))
        return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.50"/>'


def _plot(x0: float, y0: float, w: float, h: float, curves, x_label: str, y_label: str,
          legend_inset: float) -> list[str]:
    """A w x h plot at (x0, y0) of curves = [(label, xs, ys), ...]: axes over
    the data's x range and its y range padded by 5%, one polyline per curve,
    and a legend legend_inset from the plot's right edge."""
    xs = [np.asarray(c[1], dtype=float) for c in curves]
    ys = [np.asarray(c[2], dtype=float) for c in curves]
    all_x, all_y = np.concatenate(xs), np.concatenate(ys)
    ylo, yhi = float(all_y.min()), float(all_y.max())
    pad = 0.05 * (yhi - ylo if yhi > ylo else abs(ylo) + 1.0)
    frame = _Frame(x0, y0, w, h, float(all_x.min()), float(all_x.max()), ylo - pad, yhi + pad)
    body = frame.axes(x_label, y_label)
    colors = [PALETTE[k % len(PALETTE)] for k in range(len(curves))]
    body += [frame.polyline(cx, cy, color) for cx, cy, color in zip(xs, ys, colors)]
    lx = x0 + w - legend_inset
    for k, ((label, _, _), color) in enumerate(zip(curves, colors)):
        y = y0 + 12.0 + 16.0 * k
        body += [_line(lx, y, lx + 22, y, color, "2"), _text(lx + 28, y + 4, label, _KEY, None)]
    return body


def line_chart(
    curves: list[tuple[str, list[float], list[float]]],
    *,
    title: str,
    x_label: str,
    y_label: str,
    metadata: dict,
) -> str:
    """Overlaid polylines with shared axes.  curves = [(label, xs, ys), ...]."""
    if not curves:
        raise ValueError("line_chart needs at least one curve")
    width, height = 960.0, 440.0
    body = _plot(_MARGIN_L, _MARGIN_T, width - _MARGIN_L - _MARGIN_R,
                 height - _MARGIN_T - _MARGIN_B, curves, x_label, y_label, 170.0)
    return _document(width, height, title, metadata, body)


# Light-to-dark blue ramp: value 0 maps to the light end, 1 to the dark end.
_RAMP_LIGHT = np.array([247.0, 251.0, 255.0])
_RAMP_DARK = np.array([8.0, 48.0, 107.0])


def _png_chunk(kind: bytes, data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))


def _heatmap_image(matrix: np.ndarray, x: float, y: float, w: float, h: float) -> str:
    """The cost heatmap as one <image> covering the w x h panel at (x, y): a
    PNG with one pixel per cell, scaled nearest-neighbour.  A cell's colour is
    the ramp colour of its cost over the largest finite cost, grey if the cost
    is not finite."""
    n, m = matrix.shape
    cells = np.flatnonzero(np.isfinite(matrix))
    costs = matrix.ravel()[cells]
    if np.any(costs < 0):
        raise ValueError("dtw_figure needs a non-negative cost matrix")
    peak = costs.max(initial=0.0)
    vmax = peak if peak > 0 else 1.0
    # Scanlines of filter byte 0 (none) and m grey pixels each.  Channel c of
    # cell k = i * m + j is byte i * (1 + 3 * m) + 1 + 3 * j + c, that is
    # 3 * k + i + 1 + c.  Channels round half to even (np.rint, as Python's
    # round does).
    scanlines = np.full((n, 1 + 3 * m), 0xDD, dtype=np.uint8)
    scanlines[:, 0] = 0
    channel = np.arange(3)[:, None]
    scanlines.ravel()[3 * cells + cells // m + 1 + channel] = np.rint(
        _RAMP_LIGHT[:, None] - (costs / vmax) * (_RAMP_LIGHT - _RAMP_DARK)[:, None])
    raw = scanlines.tobytes()
    # A zlib stream of stored deflate blocks, so the bytes depend on no
    # compressor build: header 78 01, blocks of at most 65,535 bytes, each
    # led by its final-block bit, LEN and NLEN, then the Adler-32 of raw.
    size = 65535
    stream = [b"\x78\x01"]
    for k in range(0, len(raw), size):
        block = raw[k:k + size]
        final = k + size >= len(raw)
        stream += [struct.pack("<BHH", final, len(block), len(block) ^ 0xFFFF), block]
    stream.append(struct.pack(">I", zlib.adler32(raw)))
    png = (b"\x89PNG\r\n\x1a\n"
           + _png_chunk(b"IHDR", struct.pack(">IIBBBBB", m, n, 8, 2, 0, 0, 0))
           + _png_chunk(b"IDAT", b"".join(stream))
           + _png_chunk(b"IEND", b""))
    data = binascii.b2a_base64(png, newline=False).decode("ascii")
    return (
        f'<image xmlns:xlink="http://www.w3.org/1999/xlink" x="{_f(x)}" y="{_f(y)}" '
        f'width="{_f(w)}" height="{_f(h)}" preserveAspectRatio="none" '
        f'image-rendering="optimizeSpeed" style="image-rendering:pixelated" '
        f'xlink:href="data:image/png;base64,{data}"/>'
    )


def dtw_figure(
    cost_matrix,
    path_steps: Sequence[tuple[int, int]],
    aligned_pair: tuple[Sequence[float], Sequence[float]],
    pair_labels: tuple[str, str],
    *,
    title: str,
    metadata: dict,
) -> str:
    """Two panels: the warping path over the cumulative-cost heatmap, and the
    time-aligned (warped) series overlay, the two aligned sequences read
    along the path."""
    matrix = np.asarray(cost_matrix, dtype=float)
    n, m = matrix.shape
    width, height = 980.0, 460.0
    panel_w = 400.0
    panel_h = height - _MARGIN_T - _MARGIN_B
    x0, y0 = 56.0, _MARGIN_T

    cw = panel_w / m
    ch = panel_h / n
    body = [_heatmap_image(matrix, x0, y0, panel_w, panel_h)]
    steps_ij = np.asarray(path_steps, dtype=np.int64)
    pts = _points(x0 + (steps_ij[:, 1] - 0.5) * cw, y0 + (steps_ij[:, 0] - 0.5) * ch)
    body += [
        f'<polyline points="{pts}" fill="none" stroke="#d62728" stroke-width="2"/>',
        _outline(x0, y0, panel_w, panel_h),
        _text(x0 + panel_w / 2, y0 + panel_h + 18, f"{pair_labels[1]} (weeks, j)", _LABEL),
        _text(x0 - 36, y0 + panel_h / 2, f"{pair_labels[0]} (weeks, i)", _LABEL, rotate=True),
    ]

    wx0 = x0 + panel_w + 92.0
    cells = steps_ij - 1
    steps = np.arange(1.0, len(cells) + 1.0)
    curves = [(label, steps, np.asarray(seq, dtype=float)[cells[:, axis]])
              for axis, (label, seq) in enumerate(zip(pair_labels, aligned_pair))]
    body += _plot(wx0, y0, width - wx0 - _MARGIN_R, panel_h, curves,
                  "path step k", "aligned value", 150.0)
    return _document(width, height, title, metadata, body)


def bar_chart(
    bars: list[tuple[str, float]],
    *,
    title: str,
    y_label: str,
    metadata: dict,
) -> str:
    """Labeled vertical bars (ranking totals)."""
    if not bars:
        raise ValueError("bar_chart needs at least one bar")
    width, height = 720.0, 420.0
    yhi = max(v for _, v in bars)
    frame = _Frame(_MARGIN_L, _MARGIN_T, width - _MARGIN_L - _MARGIN_R,
                   height - _MARGIN_T - _MARGIN_B, 0.0, float(len(bars)),
                   0.0, yhi * 1.08 if yhi > 0 else 1.0)
    body = [_outline(frame.x0, frame.y0, frame.w, frame.h)]
    body += [_text(frame.x0 - 7, frame.py(t) + 4, _tick_label(t), _TICK, "end")
             for t in _nice_ticks(frame.ylo, frame.yhi)]
    bottom = frame.y0 + frame.h
    slot = frame.w / len(bars)
    for k, (label, v) in enumerate(bars):
        bx = frame.x0 + k * slot + 0.18 * slot
        bw = 0.64 * slot
        by = frame.py(v)
        body.append(
            f'<rect x="{_f(bx)}" y="{_f(by)}" width="{_f(bw)}" '
            f'height="{_f(bottom - by)}" fill="{PALETTE[0]}"/>'
        )
        body.append(_text(bx + bw / 2, bottom + 17, label, _TICK))
    body.append(_text(frame.x0 - 48, frame.y0 + frame.h / 2, y_label, _LABEL, rotate=True))
    return _document(width, height, title, metadata, body)
