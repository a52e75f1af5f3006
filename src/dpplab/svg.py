"""Minimal SVG line plots: axes, ticks, polylines, optional error bars.

Deliberately tiny; enough for experiment diagnostics without a plotting
dependency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
WIDTH, HEIGHT = 640, 420  # pixels


@dataclass
class Series:
    x: list
    y: list
    label: str = ""
    yerr: list | None = None
    markers: bool = True


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if mult * mag >= raw:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-12 * step:
        ticks.append(round(v, 12))
        v += step
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.6g}"


def line_plot(
    path,
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Write a standalone SVG; returns the path written."""
    ml, mr, mt, mb = 64, 16, 34, 46
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb
    xs = [float(v) for s in series for v in s.x]
    ys = [float(v) for s in series for v in s.y]
    for s in series:
        if s.yerr is not None:
            ys += [float(v) + float(e) for v, e in zip(s.y, s.yerr)]
            ys += [float(v) - float(e) for v, e in zip(s.y, s.yerr)]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx = 0.04 * (x1 - x0)
    pady = 0.06 * (y1 - y0)
    x0, x1 = x0 - padx, x1 + padx
    y0, y1 = y0 - pady, y1 + pady

    def X(v: float) -> float:
        return ml + (float(v) - x0) / (x1 - x0) * pw

    def Y(v: float) -> float:
        return mt + ph - (float(v) - y0) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica,Arial,sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>'
        )
    for tx in _ticks(x0 + padx, x1 - padx):
        px = X(tx)
        parts.append(
            f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" y2="{mt + ph + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{mt + ph + 17}" text-anchor="middle" font-size="10">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y0 + pady, y1 - pady):
        py = Y(ty)
        parts.append(
            f'<line x1="{ml - 4}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{ml - 7}" y="{py + 3:.1f}" text-anchor="end" font-size="10">{_fmt(ty)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{ml + pw / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{ylabel}</text>'
        )
    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{X(x):.2f},{Y(y):.2f}" for x, y in zip(s.x, s.y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        if s.yerr is not None:
            for x, y, e in zip(s.x, s.y, s.yerr):
                parts.append(
                    f'<line x1="{X(x):.2f}" y1="{Y(float(y) - float(e)):.2f}" '
                    f'x2="{X(x):.2f}" y2="{Y(float(y) + float(e)):.2f}" stroke="{color}" stroke-width="1"/>'
                )
        if s.markers:
            for x, y in zip(s.x, s.y):
                parts.append(f'<circle cx="{X(x):.2f}" cy="{Y(y):.2f}" r="2.4" fill="{color}"/>')
        if s.label:
            lx, ly = ml + pw - 8, mt + 14 + 14 * k
            parts.append(
                f'<line x1="{lx - 40}" y1="{ly - 4}" x2="{lx - 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{lx - 20}" y="{ly}" text-anchor="start" font-size="10">{s.label}</text>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return str(path)
