"""Flat-file outputs: CSV tables (the interface of record), JSON summaries,
and dependency-free SVG line plots.

Floating-point formatting is fixed at 17 significant digits so reruns of the
same configuration produce byte-identical files.  A grid's node table is
written with each axis's coordinates formatted once, not once per node.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .grids import Grid

FLOAT_FORMAT = "%.17g"


def format_value(value) -> str:
    """One CSV field; None is empty.  Text holding a comma or a quote is
    quoted, so every row has as many fields as the header."""
    if value is None:
        return ""
    if isinstance(value, float):
        return FLOAT_FORMAT % value
    text = str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence] | np.ndarray,
              grid: Grid | None = None) -> None:
    """A CSV table, each field as `format_value` writes it.  With `grid`,
    `rows` is the (node_count, k) array of fields at the grid's nodes in C
    order, and each row starts with its node's coordinates: the text of the
    float table of the raveled `grid.meshes()` and `rows`, with each axis's
    coordinates formatted once."""
    lines = [",".join(header)]
    if grid is not None:
        nodes = itertools.product(*([FLOAT_FORMAT % x for x in axis.tolist()]
                                    for axis in grid.axes()))
        row_format = ",".join(["%s"] * grid.dim + [FLOAT_FORMAT] * rows.shape[1])
        lines.extend(row_format % (*node, *row) for node, row in zip(nodes, rows.tolist()))
    else:
        lines.extend(",".join(format_value(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def svg_line_plot(path, series: dict, title: str = "",
                  xlabel: str = "", ylabel: str = "",
                  width: int = 640, height: int = 440) -> None:
    """Polyline plot of {label: (x_values, y_values)} with a plain axes box."""
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 55
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    xs = [x for xv, _ in series.values() for x in xv]
    ys = [y for _, yv in series.values() for y in yv if math.isfinite(y)]
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return margin_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">{ylabel}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{margin_t + plot_h}" '
                     f'x2="{px(tx):.1f}" y2="{margin_t + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{margin_t + plot_h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{tx:.3g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{margin_l - 5}" y1="{py(ty):.1f}" '
                     f'x2="{margin_l}" y2="{py(ty):.1f}" stroke="black"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{py(ty) + 3:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="10">{ty:.3g}</text>')
    for k, (label, (xv, yv)) in enumerate(series.items()):
        color = colors[k % len(colors)]
        xa, ya = np.asarray(xv, dtype=float), np.asarray(yv, dtype=float)
        finite = np.isfinite(ya)
        # px and py on arrays do the same IEEE operations, so give the same text
        xy = np.column_stack([px(xa[finite]), py(ya[finite])])
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{margin_l + 8}" y="{margin_t + 16 + 14 * k}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
