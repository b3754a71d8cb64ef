"""Flat-file outputs: CSV tables (the interface of record), JSON summaries,
and dependency-free SVG line plots.

Floating-point formatting is fixed at 17 significant digits so reruns of the
same configuration produce byte-identical files.  A float table (a grid's
node table, or a float array such as `oned`'s profiles) is written by one
`%` call over all its values, with each axis's coordinates formatted once,
not once per node; mixed rows (`sweep.csv`, `oned.csv`) go field by field.
"""

from __future__ import annotations

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
    order, and each row starts with its node's coordinates.

    A float table (a grid's node table, or a float array without a grid) is
    written by one `%` call: the row format, repeated once per row, applied
    to the flat table of node strings (each axis's coordinates formatted
    once) and values.  Other rows are joined field by field."""
    text = ",".join(header) + "\n"
    if grid is not None or (isinstance(rows, np.ndarray) and rows.dtype == float):
        axes = grid.axes() if grid is not None else ()
        nodes = np.meshgrid(*(np.array([FLOAT_FORMAT % x for x in axis.tolist()], dtype=object)
                              for axis in axes), indexing="ij")
        table = np.column_stack([*(node.ravel() for node in nodes), rows])
        row_format = ",".join(["%s"] * len(axes) + [FLOAT_FORMAT] * rows.shape[1]) + "\n"
        text += (row_format * len(table)) % tuple(table.ravel().tolist())
    else:
        text += "".join(",".join(format_value(v) for v in row) + "\n" for row in rows)
    Path(path).write_text(text)


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
