"""Dependency-free SVG line charts with deterministic byte output."""

from __future__ import annotations

import numpy as np

from .errors import InputError

WIDTH = 800
HEIGHT = 500
MARGIN_LEFT = 70
MARGIN_RIGHT = 24
MARGIN_TOP = 24
MARGIN_BOTTOM = 52
AXIS_MARGIN_FRAC = 0.05
N_TICKS = 5

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _text(label) -> str:
    """A label as XML character data: ``&`` first, then ``<`` and ``>``."""
    return str(label).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis_range(values):
    lo = min(values)
    hi = max(values)
    if hi == lo:
        lo -= 1.0
        hi += 1.0
    pad = (hi - lo) * AXIS_MARGIN_FRAC
    return lo - pad, hi + pad


def emit_svg(series, title, xlabel, ylabel) -> str:
    """Render named (x, y) series as a self-contained SVG document.

    ``series`` is a list of ``(name, xs, ys)`` triples, each with at least
    two points; ``title`` heads the chart and ``xlabel`` and ``ylabel`` name
    its axes. Axes auto-scale with a 5% margin; identical input produces
    identical bytes.
    """
    if not series:
        raise InputError("need at least one series")
    for name, xs, ys in series:
        if len(xs) < 2 or len(xs) != len(ys):
            raise InputError(f"series {name!r} needs >= 2 (x, y) pairs")

    x_lo, x_hi = _axis_range([x for _, xs, _ in series for x in xs])
    y_lo, y_hi = _axis_range([y for _, _, ys in series for y in ys])
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    for k in range(N_TICKS):
        frac = k / (N_TICKS - 1)
        x_val = x_lo + frac * (x_hi - x_lo)
        y_val = y_lo + frac * (y_hi - y_lo)
        px = MARGIN_LEFT + frac * plot_w
        py = HEIGHT - MARGIN_BOTTOM - frac * plot_h
        out.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_BOTTOM}" x2="{px:.2f}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM + 5}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_BOTTOM + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{x_val:.4g}</text>'
        )
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{py:.2f}" x2="{MARGIN_LEFT}" '
            f'y2="{py:.2f}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{y_val:.4g}</text>'
        )

    for idx, (name, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        px = MARGIN_LEFT + (np.asarray(xs, dtype=float) - x_lo) / (x_hi - x_lo) * plot_w
        py = HEIGHT - MARGIN_BOTTOM - (np.asarray(ys, dtype=float) - y_lo) / (y_hi - y_lo) * plot_h
        # one % over a "%.2f,%.2f" template per point, x and y interleaved
        coords = tuple(np.column_stack((px, py)).ravel().tolist())
        points = " ".join(["%.2f,%.2f"] * len(px)) % coords
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )

    legend_x = WIDTH - MARGIN_RIGHT - 150
    legend_y = MARGIN_TOP + 10
    for idx, (name, _, _) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        ly = legend_y + idx * 18
        out.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{legend_x + 28}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{_text(name)}</text>'
        )

    out.append(
        f'<text x="{WIDTH / 2:.0f}" y="{MARGIN_TOP - 6}" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif">{_text(title)}</text>'
    )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 12}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">{_text(xlabel)}</text>'
    )
    cx, cy = 18, MARGIN_TOP + plot_h / 2
    out.append(
        f'<text x="{cx}" y="{cy:.0f}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 {cx} {cy:.0f})">'
        f'{_text(ylabel)}</text>'
    )

    out.append("</svg>")
    return "\n".join(out) + "\n"
