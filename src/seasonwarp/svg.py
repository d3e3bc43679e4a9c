"""Deterministic SVG 1.1 chart emission.

Charts are built by direct string assembly with fixed-precision coordinates,
so identical inputs give identical bytes.  Each document embeds its
generating parameters in a <metadata> element.  Layout is data-faithful and
plain: axes, ticks, polylines, a legend; nothing decorative.
"""

from __future__ import annotations

import json
import math
from xml.sax.saxutils import escape

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L = 64.0
_MARGIN_R = 18.0
_MARGIN_T = 40.0
_MARGIN_B = 46.0


def _f(x: float) -> str:
    return format(x, ".2f")


def _tick_label(x: float) -> str:
    return format(x, ".6g")


def _nice_ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
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
        t += step
    return ticks


def _document(width: float, height: float, title: str, metadata: dict, body: list[str]) -> str:
    meta = json.dumps(metadata, sort_keys=True)
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">',
        f"<title>{escape(title)}</title>",
        f"<metadata>{escape(meta)}</metadata>",
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="#ffffff"/>',
        f'<text x="{_f(width / 2)}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="#222222">{escape(title)}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


class _Frame:
    """Maps data coordinates into one plot rectangle of the canvas."""

    def __init__(
        self,
        x0: float,
        y0: float,
        plot_w: float,
        plot_h: float,
        xlo: float,
        xhi: float,
        ylo: float,
        yhi: float,
    ):
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
        out = [
            f'<rect x="{_f(self.x0)}" y="{_f(self.y0)}" width="{_f(self.w)}" '
            f'height="{_f(self.h)}" fill="none" stroke="#888888" stroke-width="1"/>'
        ]
        for t in _nice_ticks(self.xlo, self.xhi):
            if not self.xlo <= t <= self.xhi:
                continue
            x = self.px(t)
            out.append(
                f'<line x1="{_f(x)}" y1="{_f(self.y0 + self.h)}" x2="{_f(x)}" '
                f'y2="{_f(self.y0 + self.h + 4)}" stroke="#888888" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_f(x)}" y="{_f(self.y0 + self.h + 17)}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11" fill="#444444">{_tick_label(t)}</text>'
            )
        for t in _nice_ticks(self.ylo, self.yhi):
            if not self.ylo <= t <= self.yhi:
                continue
            y = self.py(t)
            out.append(
                f'<line x1="{_f(self.x0 - 4)}" y1="{_f(y)}" x2="{_f(self.x0)}" '
                f'y2="{_f(y)}" stroke="#888888" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_f(self.x0 - 7)}" y="{_f(y + 4)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11" fill="#444444">{_tick_label(t)}</text>'
            )
        out.append(
            f'<text x="{_f(self.x0 + self.w / 2)}" y="{_f(self.y0 + self.h + 34)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12" '
            f'fill="#333333">{escape(x_label)}</text>'
        )
        out.append(
            f'<text x="{_f(self.x0 - 48)}" y="{_f(self.y0 + self.h / 2)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#333333" '
            f'transform="rotate(-90 {_f(self.x0 - 48)} {_f(self.y0 + self.h / 2)})">'
            f"{escape(y_label)}</text>"
        )
        return out

    def polyline(self, xs, ys, color: str, width: float = 1.5) -> str:
        pts = " ".join(f"{_f(self.px(x))},{_f(self.py(y))}" for x, y in zip(xs, ys))
        return (
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_f(width)}"/>'
        )


def line_chart(
    curves: list[tuple[str, list[float], list[float]]],
    *,
    title: str,
    x_label: str,
    y_label: str,
    metadata: dict,
    width: float = 960.0,
    height: float = 440.0,
) -> str:
    """Overlaid polylines with shared axes.  curves = [(label, xs, ys), ...]."""
    if not curves:
        raise ValueError("line_chart needs at least one curve")
    all_x = [x for _, xs, _ in curves for x in xs]
    all_y = [y for _, _, ys in curves for y in ys]
    xlo, xhi = min(all_x), max(all_x)
    ylo, yhi = min(all_y), max(all_y)
    pad = 0.05 * (yhi - ylo if yhi > ylo else abs(ylo) + 1.0)
    frame = _Frame(
        _MARGIN_L,
        _MARGIN_T,
        width - _MARGIN_L - _MARGIN_R,
        height - _MARGIN_T - _MARGIN_B,
        xlo,
        xhi,
        ylo - pad,
        yhi + pad,
    )
    body = frame.axes(x_label, y_label)
    for k, (label, xs, ys) in enumerate(curves):
        body.append(frame.polyline(xs, ys, PALETTE[k % len(PALETTE)]))
    # legend, upper right inside the frame
    lx = frame.x0 + frame.w - 170.0
    ly = frame.y0 + 12.0
    for k, (label, _, _) in enumerate(curves):
        y = ly + 16.0 * k
        color = PALETTE[k % len(PALETTE)]
        body.append(
            f'<line x1="{_f(lx)}" y1="{_f(y)}" x2="{_f(lx + 22)}" y2="{_f(y)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        body.append(
            f'<text x="{_f(lx + 28)}" y="{_f(y + 4)}" font-family="sans-serif" '
            f'font-size="11" fill="#333333">{escape(label)}</text>'
        )
    return _document(width, height, title, metadata, body)


# Light-to-dark blue ramp: value 0 maps to the light end, 1 to the dark end.
_RAMP_LIGHT = np.array([247.0, 251.0, 255.0])
_RAMP_DARK = np.array([8.0, 48.0, 107.0])


def _heat_fills(v: np.ndarray) -> np.ndarray:
    """Ramp colours ("#rrggbb", object array) for a 1-d array of v in [0, 1].

    Channels round half to even (np.rint, as Python's round does).  On [0, 1]
    every channel lies in 0..255, so one packed integer names a colour and
    each distinct colour is formatted once.
    """
    rgb = np.rint(_RAMP_LIGHT - v[:, None] * (_RAMP_LIGHT - _RAMP_DARK)).astype(np.int64)
    packed = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
    colours, inverse = np.unique(packed, return_inverse=True)
    names = np.array([f"#{c:06x}" for c in colours.tolist()], dtype=object)
    return names[inverse]


def dtw_figure(
    cost_matrix,
    path_steps: list[tuple[int, int]],
    warped_pair: tuple[list[float], list[float]],
    pair_labels: tuple[str, str],
    *,
    title: str,
    metadata: dict,
) -> str:
    """Two panels: the warping path over the cumulative-cost heatmap, and the
    time-aligned (warped) series overlay."""
    matrix = np.asarray(cost_matrix, dtype=float)
    n, m = matrix.shape
    width, height = 980.0, 460.0
    panel_w = 400.0
    panel_h = height - _MARGIN_T - _MARGIN_B
    x0, y0 = 56.0, _MARGIN_T

    finite = np.isfinite(matrix)
    costs = matrix[finite]
    if np.any(costs < 0):
        raise ValueError("dtw_figure needs a non-negative cost matrix")
    peak = costs.max(initial=0.0)
    vmax = peak if peak > 0 else 1.0
    fills = np.full(matrix.shape, "#dddddd", dtype=object)
    fills[finite] = _heat_fills(costs / vmax)
    cw = panel_w / m
    ch = panel_h / n
    xs = [_f(x0 + j * cw) for j in range(m)]
    size = f'width="{_f(cw)}" height="{_f(ch)}"'
    # One string per heatmap row, not per cell: the same bytes once the
    # document joins its lines, with far fewer short-lived small strings.
    body = []
    for i, row in enumerate(fills.tolist()):
        row_tail = f'" y="{_f(y0 + i * ch)}" {size} fill="'
        body.append("\n".join([f'<rect x="{x}{row_tail}{fill}"/>' for x, fill in zip(xs, row)]))
    pts = " ".join(
        f"{_f(x0 + (j - 0.5) * cw)},{_f(y0 + (i - 0.5) * ch)}" for i, j in path_steps
    )
    body.append(
        f'<polyline points="{pts}" fill="none" stroke="#d62728" stroke-width="2"/>'
    )
    body.append(
        f'<rect x="{_f(x0)}" y="{_f(y0)}" width="{_f(panel_w)}" height="{_f(panel_h)}" '
        f'fill="none" stroke="#888888" stroke-width="1"/>'
    )
    body.append(
        f'<text x="{_f(x0 + panel_w / 2)}" y="{_f(y0 + panel_h + 18)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="#333333">'
        f"{escape(pair_labels[1])} (weeks, j)</text>"
    )
    body.append(
        f'<text x="{_f(x0 - 36)}" y="{_f(y0 + panel_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="#333333" '
        f'transform="rotate(-90 {_f(x0 - 36)} {_f(y0 + panel_h / 2)})">'
        f"{escape(pair_labels[0])} (weeks, i)</text>"
    )

    wx0 = x0 + panel_w + 92.0
    wframe_w = width - wx0 - _MARGIN_R
    k = len(warped_pair[0])
    steps = list(range(1, k + 1))
    ylo = min(min(warped_pair[0]), min(warped_pair[1]))
    yhi = max(max(warped_pair[0]), max(warped_pair[1]))
    pad = 0.05 * (yhi - ylo if yhi > ylo else abs(ylo) + 1.0)
    frame = _Frame(wx0, y0, wframe_w, panel_h, 1.0, float(k), ylo - pad, yhi + pad)
    body += frame.axes("path step k", "aligned value")
    body.append(frame.polyline(steps, warped_pair[0], PALETTE[0]))
    body.append(frame.polyline(steps, warped_pair[1], PALETTE[1]))
    for idx, label in enumerate(pair_labels):
        y = y0 + 12.0 + 16.0 * idx
        body.append(
            f'<line x1="{_f(wx0 + wframe_w - 150)}" y1="{_f(y)}" '
            f'x2="{_f(wx0 + wframe_w - 128)}" y2="{_f(y)}" '
            f'stroke="{PALETTE[idx]}" stroke-width="2"/>'
        )
        body.append(
            f'<text x="{_f(wx0 + wframe_w - 122)}" y="{_f(y + 4)}" '
            f'font-family="sans-serif" font-size="11" fill="#333333">{escape(label)}</text>'
        )
    return _document(width, height, title, metadata, body)


def bar_chart(
    bars: list[tuple[str, float]],
    *,
    title: str,
    y_label: str,
    metadata: dict,
    width: float = 720.0,
    height: float = 420.0,
) -> str:
    """Labeled vertical bars (ranking totals)."""
    if not bars:
        raise ValueError("bar_chart needs at least one bar")
    yhi = max(v for _, v in bars)
    frame = _Frame(
        _MARGIN_L,
        _MARGIN_T,
        width - _MARGIN_L - _MARGIN_R,
        height - _MARGIN_T - _MARGIN_B,
        0.0,
        float(len(bars)),
        0.0,
        yhi * 1.08 if yhi > 0 else 1.0,
    )
    body = [
        f'<rect x="{_f(frame.x0)}" y="{_f(frame.y0)}" width="{_f(frame.w)}" '
        f'height="{_f(frame.h)}" fill="none" stroke="#888888" stroke-width="1"/>'
    ]
    for t in _nice_ticks(frame.ylo, frame.yhi):
        y = frame.py(t)
        body.append(
            f'<text x="{_f(frame.x0 - 7)}" y="{_f(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="#444444">{_tick_label(t)}</text>'
        )
    slot = frame.w / len(bars)
    for k, (label, v) in enumerate(bars):
        bx = frame.x0 + k * slot + 0.18 * slot
        bw = 0.64 * slot
        by = frame.py(v)
        body.append(
            f'<rect x="{_f(bx)}" y="{_f(by)}" width="{_f(bw)}" '
            f'height="{_f(frame.y0 + frame.h - by)}" fill="{PALETTE[0]}"/>'
        )
        body.append(
            f'<text x="{_f(bx + bw / 2)}" y="{_f(frame.y0 + frame.h + 17)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11" '
            f'fill="#444444">{escape(label)}</text>'
        )
    body.append(
        f'<text x="{_f(frame.x0 - 48)}" y="{_f(frame.y0 + frame.h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="#333333" '
        f'transform="rotate(-90 {_f(frame.x0 - 48)} {_f(frame.y0 + frame.h / 2)})">'
        f"{escape(y_label)}</text>"
    )
    return _document(width, height, title, metadata, body)
