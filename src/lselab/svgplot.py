"""Minimal static SVG scatter plots for trial records.

One marker per record plus an optional y = x reference line (the bound
plots put the bound factor on x and the scaled error on y, so conforming
runs have every marker on or below the diagonal).
"""

from __future__ import annotations

import math
import os

from .harness import Records

__all__ = ["emit_svg_scatter"]

_WIDTH = 640
_HEIGHT = 480
_MARGIN = 60


def _transform(v: float, lo: float, hi: float, log_axes: bool) -> float:
    if log_axes:
        v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5
    return (v - lo) / (hi - lo)


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
    pts = []
    for xv, yv in zip(records.columns[x_field].tolist(), records.columns[y_field].tolist()):
        xv, yv = float(xv), float(yv)
        if not (math.isfinite(xv) and math.isfinite(yv)):
            continue
        if log_axes and (xv <= 0.0 or yv <= 0.0):
            continue
        pts.append((xv, yv))

    if pts:
        xlo = min(p[0] for p in pts)
        xhi = max(p[0] for p in pts)
        ylo = min(p[1] for p in pts)
        yhi = max(p[1] for p in pts)
    else:
        xlo = ylo = 0.1 if log_axes else 0.0
        xhi = yhi = 1.0
    if reference_line:
        lo = min(xlo, ylo)
        hi = max(xhi, yhi)
        xlo = ylo = lo
        xhi = yhi = hi

    def px(v: float) -> float:
        return _MARGIN + _transform(v, xlo, xhi, log_axes) * (_WIDTH - 2 * _MARGIN)

    def py(v: float) -> float:
        return _HEIGHT - _MARGIN - _transform(v, ylo, yhi, log_axes) * (
            _HEIGHT - 2 * _MARGIN
        )

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
        lines.append(
            f'<line x1="{px(xlo):.2f}" y1="{py(xlo):.2f}" x2="{px(xhi):.2f}" '
            f'y2="{py(xhi):.2f}" stroke="red" stroke-width="1"/>'
        )
    for xv, yv in pts:
        lines.append(
            f'<circle cx="{px(xv):.2f}" cy="{py(yv):.2f}" r="2.5" '
            f'fill="steelblue" fill-opacity="0.6"/>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
