"""Minimal hand-rolled SVG emission for experiment trend plots.

Two figures are enough for the whole artifact: a log-log trend of the
finite-time exponent medians against step count, and the graph of the roof
function over the first few intervals (spikes clipped at a display ceiling).
Everything is written as literal SVG paths; there is no plotting dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .iet import FiberPoint
from .roof import RoofSpec

WIDTH = 640
HEIGHT = 440
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 55

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _fmt(x: float) -> str:
    """Short coordinate text for path data."""
    return f"{x:.2f}".rstrip("0").rstrip(".")


@dataclass
class Axes:
    """Data-to-pixel mapping for one panel, linear or log10 per axis."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    log_x: bool = False
    log_y: bool = False

    def _tx(self, x: float) -> float:
        lo, hi = self.x_min, self.x_max
        if self.log_x:
            x, lo, hi = math.log10(x), math.log10(lo), math.log10(hi)
        span = hi - lo if hi > lo else 1.0
        return MARGIN_L + (x - lo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def _ty(self, y: float) -> float:
        lo, hi = self.y_min, self.y_max
        if self.log_y:
            y, lo, hi = math.log10(y), math.log10(lo), math.log10(hi)
        span = hi - lo if hi > lo else 1.0
        return HEIGHT - MARGIN_B - (y - lo) / span * (HEIGHT - MARGIN_T - MARGIN_B)

    def path(self, xs, ys) -> str:
        pts = [f"{_fmt(self._tx(x))},{_fmt(self._ty(y))}"
               for x, y in zip(xs, ys)]
        return "M" + " L".join(pts)

    def x_ticks(self) -> list[float]:
        if self.log_x:
            lo = math.ceil(math.log10(self.x_min) - 1e-9)
            hi = math.floor(math.log10(self.x_max) + 1e-9)
            return [10.0 ** e for e in range(lo, hi + 1)]
        return list(np.linspace(self.x_min, self.x_max, 5))

    def y_ticks(self) -> list[float]:
        if self.log_y:
            lo = math.ceil(math.log10(self.y_min) - 1e-9)
            hi = math.floor(math.log10(self.y_max) + 1e-9)
            return [10.0 ** e for e in range(lo, hi + 1)]
        return list(np.linspace(self.y_min, self.y_max, 5))


def _tick_label(v: float, log_scale: bool) -> str:
    if log_scale:
        e = round(math.log10(v))
        return f"1e{e}"
    if v == 0:
        return "0"
    if abs(v) >= 0.01 and abs(v) < 10000:
        return f"{v:.3g}"
    return f"{v:.1e}"


@dataclass
class Panel:
    """One titled panel; collect series then render to an SVG fragment."""

    title: str
    x_label: str
    y_label: str
    log_x: bool = False
    log_y: bool = False
    series: list = field(default_factory=list)
    vlines: list = field(default_factory=list)

    def add_series(self, label: str, xs, ys) -> None:
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        if len(xs) != len(ys) or not xs:
            raise ValueError("series must be same-length and nonempty")
        self.series.append((label, xs, ys))

    def add_vline(self, x: float) -> None:
        self.vlines.append(float(x))

    def _bounds(self) -> Axes:
        all_x = [x for _, xs, _ in self.series for x in xs]
        all_y = [y for _, _, ys in self.series for y in ys]
        if self.log_x:
            all_x = [x for x in all_x if x > 0]
        if self.log_y:
            floor = 1e-12
            all_y = [max(y, floor) for y in all_y]
        x_min, x_max = min(all_x), max(all_x)
        y_min, y_max = min(all_y), max(all_y)
        if not self.log_x:
            pad = 0.05 * (x_max - x_min or 1.0)
            x_min, x_max = x_min - pad, x_max + pad
        if not self.log_y:
            pad = 0.08 * (y_max - y_min or 1.0)
            y_min, y_max = y_min - pad, y_max + pad
        else:
            y_min, y_max = y_min / 1.5, y_max * 1.5
        if self.log_x:
            x_min, x_max = x_min / 1.2, x_max * 1.2
        return Axes(x_min, x_max, y_min, y_max, self.log_x, self.log_y)

    def render(self, x_off: float = 0.0) -> str:
        ax = self._bounds()
        parts = [f'<g transform="translate({_fmt(x_off)},0)">']
        parts.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
            f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
            f'height="{HEIGHT - MARGIN_T - MARGIN_B}" '
            'fill="none" stroke="#333" stroke-width="1"/>')
        parts.append(
            f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{MARGIN_T - 14}" '
            'text-anchor="middle" font-size="15" font-family="sans-serif">'
            f'{self.title}</text>')
        for tx in ax.x_ticks():
            px = ax._tx(tx)
            parts.append(f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" '
                         f'x2="{_fmt(px)}" y2="{HEIGHT - MARGIN_B + 5}" '
                         'stroke="#333"/>')
            parts.append(
                f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 20}" '
                'text-anchor="middle" font-size="11" font-family="sans-serif">'
                f'{_tick_label(tx, self.log_x)}</text>')
        for ty in ax.y_ticks():
            py = ax._ty(ty)
            parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" '
                         f'x2="{MARGIN_L}" y2="{_fmt(py)}" stroke="#333"/>')
            parts.append(
                f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" '
                'text-anchor="end" font-size="11" font-family="sans-serif">'
                f'{_tick_label(ty, self.log_y)}</text>')
        parts.append(
            f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" '
            'text-anchor="middle" font-size="13" font-family="sans-serif">'
            f'{self.x_label}</text>')
        parts.append(
            f'<text x="18" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" '
            'text-anchor="middle" font-size="13" font-family="sans-serif" '
            f'transform="rotate(-90 18 {(MARGIN_T + HEIGHT - MARGIN_B) / 2})">'
            f'{self.y_label}</text>')
        for x in self.vlines:
            if not (ax.x_min <= x <= ax.x_max):
                continue
            px = ax._tx(x)
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{MARGIN_T}" x2="{_fmt(px)}" '
                f'y2="{HEIGHT - MARGIN_B}" stroke="#999" stroke-width="0.7" '
                'stroke-dasharray="4,3"/>')
        for si, (label, xs, ys) in enumerate(self.series):
            if self.log_y:
                ys = [max(y, ax.y_min) for y in ys]
            color = PALETTE[si % len(PALETTE)]
            parts.append(f'<path d="{ax.path(xs, ys)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.6"/>')
            ly = MARGIN_T + 18 + 16 * si
            parts.append(f'<line x1="{MARGIN_L + 10}" y1="{ly - 4}" '
                         f'x2="{MARGIN_L + 34}" y2="{ly - 4}" '
                         f'stroke="{color}" stroke-width="1.6"/>')
            parts.append(
                f'<text x="{MARGIN_L + 40}" y="{ly}" font-size="12" '
                f'font-family="sans-serif">{label}</text>')
        parts.append("</g>")
        return "\n".join(parts)


def document(panels: list[Panel]) -> str:
    """Panels laid out left to right in one standalone SVG document."""
    total_w = WIDTH * len(panels)
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
             f'height="{HEIGHT}" viewBox="0 0 {total_w} {HEIGHT}">',
             f'<rect width="{total_w}" height="{HEIGHT}" fill="white"/>']
    for k, panel in enumerate(panels):
        parts.append(panel.render(x_off=k * WIDTH))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def roof_panel(spec: RoofSpec) -> Panel:
    """Graph of the roof at 240 points of each of the first four intervals,
    spikes clipped at height 6."""
    panel = Panel(title="roof over the first intervals",
                  x_label="base coordinate", y_label="roof height")
    iet = spec.iet
    n_show = min(4, iet.n_trunc)
    xs_all: list[float] = []
    ys_all: list[float] = []
    for i in range(n_show):
        left = iet.left(i)
        l = iet.length(i)
        ts = np.linspace(1e-6, 1.0 - 1e-6, 240)
        for t in ts:
            u = float(t) * l
            val = spec.value_raw(FiberPoint(i, u)).value
            xs_all.append(left + u)
            ys_all.append(min(val, 6.0))
        panel.add_vline(left + l)
    panel.add_series("r(x), clipped", xs_all, ys_all)
    return panel


def trend_panel(title: str, y_label: str,
                series: list[tuple[str, list, list]]) -> Panel:
    """Log-log trend of per-checkpoint statistics against step count."""
    panel = Panel(title=title, x_label="steps n", y_label=y_label,
                  log_x=True, log_y=True)
    for label, xs, ys in series:
        panel.add_series(label, xs, ys)
    return panel
