"""Tiny dependency-free SVG line plots.

Qualitative shape is all the plots need to convey, so this sticks to
polylines, two axes with a handful of ticks, and a text legend. Output is
a pure function of the input arrays with fixed-precision coordinates, so
re-running a command rewrites byte-identical files.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 72, 22, 46, 52
_LOG10_MAX = math.log10(sys.float_info.max)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def _power10(v: float) -> float:
    """10^v; the top of a log axis that ends at the float range reads as the largest float."""
    return 10.0 ** v if v < _LOG10_MAX else sys.float_info.max


def _finite_mask(x, y, log_x, log_y):
    ok = np.isfinite(x) & np.isfinite(y)
    if log_x:
        ok &= x > 0.0
    if log_y:
        ok &= y > 0.0
    return ok


def _escape(text: str) -> str:
    """html.escape(text, quote=False); importing html loads 0.25 MB of entity tables."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _span(lo, hi):
    """An axis range with a width: a single value gets half a unit each side,
    or one ulp where half a unit rounds away (beyond 2^52)."""
    if hi - lo < 1e-300:
        lo, hi = lo - 0.5, hi + 0.5
        if lo == hi:
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def line_plot(series, title: str, xlabel: str, ylabel: str,
              log_x: bool = False, log_y: bool = False) -> str:
    """Render named (x, y) series to an SVG document string.

    series: iterable of (label, x array, y array). Non-finite points (and
    non-positive ones on log axes) are dropped per series.
    """
    cleaned = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        m = _finite_mask(x, y, log_x, log_y)
        if np.any(m):
            cleaned.append((label, x[m], y[m]))
    tx = (lambda v: math.log10(v)) if log_x else (lambda v: v)
    ty = (lambda v: math.log10(v)) if log_y else (lambda v: v)

    if cleaned:
        x_lo = min(tx(float(np.min(x))) for _, x, _ in cleaned)
        x_hi = max(tx(float(np.max(x))) for _, x, _ in cleaned)
        y_lo = min(ty(float(np.min(y))) for _, _, y in cleaned)
        y_hi = max(ty(float(np.max(y))) for _, _, y in cleaned)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    x_lo, x_hi = _span(x_lo, x_hi)
    y_lo, y_hi = _span(y_lo, y_hi)
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if log_x:  # a log axis ends at the float range, however far its padding reaches
        x_hi = min(x_hi, _LOG10_MAX)
    if log_y:
        y_hi = min(y_hi, _LOG10_MAX)

    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    title, xlabel, ylabel = _escape(title), _escape(xlabel), _escape(ylabel)

    def axis(v, log):  # math.log10 per value: np.log10 can differ in the last bit
        return np.array([math.log10(u) for u in v.tolist()]) if log else v

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="14">{title}</text>']

    # axes
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    out.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>')
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        vx = _power10(fx) if log_x else fx
        vy = _power10(fy) if log_y else fy
        cx = _ML + pw * i / 4
        cy = _MT + ph * (1.0 - i / 4)
        out.append(f'<line x1="{_fmt(cx)}" y1="{_H - _MB}" x2="{_fmt(cx)}" '
                   f'y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{_fmt(cx)}" y="{_H - _MB + 18}" '
                   f'text-anchor="middle">{_tick_label(vx)}</text>')
        out.append(f'<line x1="{_ML - 5}" y1="{_fmt(cy)}" x2="{_ML}" '
                   f'y2="{_fmt(cy)}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{_fmt(cy + 4)}" '
                   f'text-anchor="end">{_tick_label(vy)}</text>')
    out.append(f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{_H // 2}" text-anchor="middle" '
               f'transform="rotate(-90 16 {_H // 2})">{ylabel}</text>')

    for idx, (label, x, y) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        px = _ML + pw * (axis(x, log_x) - x_lo) / (x_hi - x_lo)
        py = _MT + ph * (1.0 - (axis(y, log_y) - y_lo) / (y_hi - y_lo))
        pts = " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 16 * idx}" text-anchor="end" '
                   f'fill="{color}">{_escape(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
