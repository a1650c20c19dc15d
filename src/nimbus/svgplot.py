"""Tiny dependency-free SVG line/bar plots with embedded data tables.

Every title, label and series name is XML-escaped, since variable names come
from dataset files. The data table is an XML comment, one CSV row per point;
its text fields are percent-encoded (``urllib.parse.unquote`` reverses it),
with "-" encoded too, so the comment never contains "--". Non-finite values
are kept in the table but not drawn.
"""

from __future__ import annotations

import math
import re
from urllib.parse import quote

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 30, 40

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _text(text) -> str:
    """Escaped character data; characters XML 1.0 forbids become U+FFFD."""
    text = str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return re.sub("[\x00-\x08\x0b\x0c\x0e-\x1f]", "\ufffd", text)


def _cell(text) -> str:
    return quote(str(text), safe="").replace("-", "%2D")


def _range(vals):
    finite = [v for v in vals if math.isfinite(v)]
    return (min(finite), max(finite)) if finite else (0.0, 1.0)


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def _axes(title, xlo, xhi, ylo, yhi):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="18" text-anchor="middle">{_text(title)}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_ML - 8}" y="{_MT + 4}" text-anchor="end">{yhi:.4g}</text>',
        f'<text x="{_ML - 8}" y="{_H - _MB}" text-anchor="end">{ylo:.4g}</text>',
        f'<text x="{_ML}" y="{_H - _MB + 16}" text-anchor="middle">{xlo:.4g}</text>',
        f'<text x="{_W - _MR}" y="{_H - _MB + 16}" text-anchor="middle">{xhi:.4g}</text>',
    ]
    return parts


def line_plot(series: dict, path, title="", xlabel="", ylabel="") -> None:
    """series: name -> (xs, ys). Data embedded as a CSV comment."""
    series = {
        name: [(float(x), float(y)) for x, y in zip(xs, ys)] for name, (xs, ys) in series.items()
    }
    xlo, xhi = _range([x for pts in series.values() for x, _ in pts])
    ylo, yhi = _range([y for pts in series.values() for _, y in pts])
    if ylo == yhi:
        ylo, yhi = ylo - 1, yhi + 1
    parts = ["<!--\ndata (csv):\nseries,x,y"]
    for name, pts in series.items():
        for x, y in pts:
            parts.append(f"{_cell(name)},{x!r},{y!r}")
    parts.append("-->")
    parts += _axes(title, xlo, xhi, ylo, yhi)
    for i, (name, pts) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = [(x, y) for x, y in pts if math.isfinite(x) and math.isfinite(y)]
        px = _scale([x for x, _ in pts], xlo, xhi, _ML, _W - _MR)
        py = _scale([y for _, y in pts], ylo, yhi, _H - _MB, _MT)
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(px, py))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_W - _MR - 4}" y="{_MT + 14 * (i + 1)}" text-anchor="end" fill="{color}">{_text(name)}</text>'
        )
    parts.append(f'<text x="{_W / 2}" y="{_H - 6}" text-anchor="middle">{_text(xlabel)}</text>')
    parts.append(f'<text x="14" y="{_H / 2}" transform="rotate(-90 14 {_H / 2})" text-anchor="middle">{_text(ylabel)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def bar_plot(labels, heights, path, title="", ylabel="") -> None:
    heights = [float(h) for h in heights]
    lo, hi = _range(heights)
    ylo = min(0.0, lo)
    yhi = hi if hi > ylo else ylo + 1
    parts = ["<!--\ndata (csv):\nlabel,value"]
    for lab, h in zip(labels, heights):
        parts.append(f"{_cell(lab)},{h!r}")
    parts.append("-->")
    parts += _axes(title, 0, len(labels), ylo, yhi)
    span = (_W - _ML - _MR) / max(len(labels), 1)
    for i, (lab, h) in enumerate(zip(labels, heights)):
        x = _ML + i * span + span * 0.15
        if not math.isfinite(h):
            h = 0.0
        (y0,) = _scale([max(h, ylo)], ylo, yhi, _H - _MB, _MT)
        (ybase,) = _scale([max(0.0, ylo)], ylo, yhi, _H - _MB, _MT)
        top, bot = min(y0, ybase), max(y0, ybase)
        parts.append(
            f'<rect x="{x:.1f}" y="{top:.1f}" width="{span * 0.7:.1f}" '
            f'height="{max(bot - top, 0.5):.1f}" fill="{_COLORS[0]}"/>'
        )
        parts.append(
            f'<text x="{x + span * 0.35:.1f}" y="{_H - _MB + 16}" text-anchor="middle">{_text(lab)}</text>'
        )
    parts.append(f'<text x="14" y="{_H / 2}" transform="rotate(-90 14 {_H / 2})" text-anchor="middle">{_text(ylabel)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
