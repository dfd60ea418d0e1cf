"""Reference writers: the cell-at-a-time CSV and SVG formatting, verbatim.

``csv_rows``, ``to_csv`` and ``line_plot`` are the writers that
``cli._csv``, ``strategy.to_csv`` and ``svg.line_plot`` replaced: one
``repr(float(v))`` with an ``isinstance`` test per CSV cell, a Python
loop with a numpy-scalar running total per strategy row, and one Python
``px``/``py`` call per polyline point. The tests require the
column-at-a-time writers to produce the same bytes.
(The reference plot does not escape its text; the tests give it plain
labels.)
"""

from __future__ import annotations

import math

import numpy as np

from ouexec.errors import ConfigError
from ouexec.strategy import ExecutionStrategy


def csv_rows(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, int):
                cells.append(repr(v))
            else:
                cells.append(repr(float(v)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def to_csv(strategy: ExecutionStrategy) -> str:
    """Tabulate the strategy: columns r, impulse, zeta, cumulative_sold.

    One row per grid boundary. 'impulse' is the block size executed exactly
    at that time (0 if none); 'zeta' is the rate on the cell starting there
    (the last row repeats the final cell so step plots close); cumulative
    includes all sales up to and including time r.
    """
    w = strategy.cell_width
    n = strategy.cells
    imp_at = {}
    for r, p in strategy.impulses:
        idx = r / w
        i = int(round(idx))
        if abs(idx - i) > 1e-9:
            raise ConfigError(f"impulse at {r} is not on the grid and cannot be tabulated")
        imp_at[i] = imp_at.get(i, 0.0) + p
    lines = ["r,impulse,zeta,cumulative_sold"]
    cum = 0.0
    for i in range(n + 1):
        r = i * w if i < n else strategy.horizon
        cum += imp_at.get(i, 0.0)
        zeta = strategy.density[min(i, n - 1)]
        lines.append(f"{float(r)!r},{float(imp_at.get(i, 0.0))!r},{float(zeta)!r},{float(cum)!r}")
        if i < n:
            cum += strategy.density[i] * w
    return "\n".join(lines) + "\n"


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 72, 22, 46, 52


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def _finite_mask(x, y, log_x, log_y):
    ok = np.isfinite(x) & np.isfinite(y)
    if log_x:
        ok &= x > 0.0
    if log_y:
        ok &= y > 0.0
    return ok


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
    if x_hi - x_lo < 1e-300:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-300:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(v):
        return _ML + pw * (tx(v) - x_lo) / (x_hi - x_lo)

    def py(v):
        return _MT + ph * (1.0 - (ty(v) - y_lo) / (y_hi - y_lo))

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
        vx = 10.0 ** fx if log_x else fx
        vy = 10.0 ** fy if log_y else fy
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
        pts = " ".join(f"{_fmt(px(float(a)))},{_fmt(py(float(b)))}" for a, b in zip(x, y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 16 * idx}" text-anchor="end" '
                   f'fill="{color}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
