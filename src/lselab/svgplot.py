"""Minimal static SVG scatter plots for trial records.

One marker per record plus an optional y = x reference line (the bound
plots put the bound factor on x and the scaled error on y, so conforming
runs have every marker on or below the diagonal).
"""

from __future__ import annotations

import math
import os

from .harness import Records, _write_text

__all__ = ["emit_svg_scatter"]

_WIDTH = 640
_HEIGHT = 480
_MARGIN = 60


def _fractions(values: list[float], lo: float, hi: float, log_axes: bool) -> list[float]:
    """Each value's fraction of the way from ``lo`` to ``hi``, or from
    log10(lo) to log10(hi) under ``log_axes``; 0.5 for all when those are equal."""
    if log_axes:
        values = list(map(math.log10, values))
        lo, hi = math.log10(lo), math.log10(hi)
    if hi == lo:
        return [0.5] * len(values)
    span = hi - lo
    return [(v - lo) / span for v in values]


def emit_svg_scatter(
    records: Records,
    x_field: str,
    y_field: str,
    path: str | os.PathLike,
    log_axes: bool = False,
    reference_line: bool = True,
) -> None:
    """Scatter column ``y_field`` against ``x_field``; non-finite points are skipped."""
    if not {x_field, y_field} <= records.columns.keys():
        raise ValueError(f"unknown record fields: {x_field!r}, {y_field!r}")
    x_col, y_col = (records.columns[f].astype(float).tolist() for f in (x_field, y_field))
    pts = [
        (xv, yv) for xv, yv in zip(x_col, y_col)
        if math.isfinite(xv) and math.isfinite(yv) and not (log_axes and (xv <= 0.0 or yv <= 0.0))
    ]

    if pts:
        xs, ys = zip(*pts)
        xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
    else:
        xs = ys = ()
        xlo = ylo = 0.1 if log_axes else 0.0
        xhi = yhi = 1.0
    if reference_line:
        lo = min(xlo, ylo)
        hi = max(xhi, yhi)
        xlo = ylo = lo
        xhi = yhi = hi

    # pixel coordinates: the reference line's ends (xlo, xlo) and (xhi, xhi), then the points
    cx = [f"{_MARGIN + f * (_WIDTH - 2 * _MARGIN):.2f}"
          for f in _fractions([xlo, xhi, *xs], xlo, xhi, log_axes)]
    cy = [f"{_HEIGHT - _MARGIN - f * (_HEIGHT - 2 * _MARGIN):.2f}"
          for f in _fractions([xlo, xhi, *ys], ylo, yhi, log_axes)]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 15}" text-anchor="middle" '
        f'font-size="14">{x_field}</text>',
        f'<text x="18" y="{_HEIGHT / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {_HEIGHT / 2:.1f})">{y_field}</text>',
    ]
    if reference_line:
        lines.append(f'<line x1="{cx[0]}" y1="{cy[0]}" x2="{cx[1]}" y2="{cy[1]}" '
                     'stroke="red" stroke-width="1"/>')
    lines += [f'<circle cx="{x}" cy="{y}" r="2.5" fill="steelblue" fill-opacity="0.6"/>'
              for x, y in zip(cx[2:], cy[2:])]
    lines.append("</svg>")
    _write_text(path, "\n".join(lines) + "\n")
