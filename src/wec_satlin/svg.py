"""Minimal static SVG rendering of the emitted sweep data.

A thin, optional layer over the CSV records: the reflection-coefficient disk
is mapped polar-to-Cartesian with contour polylines; the tradeoff fronts and
saturation-factor curves are plain 2D plots.  No styling framework, no
interactivity, deterministic output.
"""

from __future__ import annotations

import numpy as np

from .emit import write_text
from .mismatch import optimal_angle

__all__ = ["smith_svg", "pareto_svg", "fsat_svg"]

_COLORS = ("#1f6fb2", "#c44e52", "#2a9d4e", "#8a56c2", "#c78f2e", "#4b5563")


def _points(template: str, x, y) -> str:
    """``template``, which holds two ``%.2f`` fields, once per (x, y) pixel
    pair of the arrays ``x`` and ``y``, all formatted in one ``%``."""
    return template * len(x) % tuple(np.column_stack((x, y)).ravel().tolist())


def _polyline(x, y, color: str, width: float = 1.2, dash: str | None = None) -> str:
    """Polyline through the pixel coordinate arrays ``x`` and ``y``; nothing
    when there are fewer than two points."""
    if len(x) < 2:
        return ""
    attrs = f'fill="none" stroke="{color}" stroke-width="{width}"'
    if dash:
        attrs += f' stroke-dasharray="{dash}"'
    pts = _points("%.2f,%.2f ", x, y)[:-1]
    return f'<polyline {attrs} points="{pts}"/>\n'


def _text(x: float, y: float, s: str, size: int = 12, color: str = "#222") -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" '
        f'font-size="{size}" fill="{color}">{s}</text>\n'
    )


def _document(width: int, height: int, body: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f"{body}</svg>\n"
    )


def _level_crossings(grid: np.ndarray, field: str, resolution: int, n_angular: int):
    """``(theta, radius)`` arrays of the points where ``field`` crosses 1
    along each ray.

    Each pair of radial neighbours with finite values contributes one point,
    linearly interpolated, when the first value is exactly 1 or the pair
    straddles 1.  Points come ray by ray, outward along each ray.
    """
    values = grid[field].reshape(resolution, n_angular).T - 1.0
    gamma = grid["gamma"].reshape(resolution, n_angular)
    radii, theta = np.abs(gamma[:, 0]), np.angle(gamma[-1])
    a, b = values[:, :-1], values[:, 1:]
    on_level = a == 0.0
    hit = np.isfinite(a) & np.isfinite(b) & (on_level | (a * b < 0.0))
    j, k = np.nonzero(hit)
    a, b, on_level = a[j, k], b[j, k], on_level[j, k]
    frac = np.where(on_level, 0.0, a / np.where(on_level, 1.0, a - b))
    radius = radii[k] + frac * (radii[k + 1] - radii[k])
    return theta[j], radius


def smith_svg(
    path, alpha: float, grid: np.ndarray, resolution: int, n_angular: int
) -> None:
    """Reflection-coefficient disk with unit-ratio boundaries and optimal contours."""
    size = 640
    cx = cy = size / 2
    r_px = size / 2 - 30

    def to_xy(theta, radius):
        return cx + r_px * radius * np.cos(theta), cy - r_px * radius * np.sin(theta)

    body = f'<circle cx="{cx}" cy="{cy}" r="{r_px}" fill="none" stroke="#333" stroke-width="1.5"/>\n'
    for rho in (0.25, 0.5, 0.75):
        body += (
            f'<circle cx="{cx}" cy="{cy}" r="{r_px * rho:.2f}" fill="none" '
            f'stroke="#ccc" stroke-width="0.6"/>\n'
        )
    body += _polyline([cx - r_px, cx + r_px], [cy, cy], "#ccc", 0.6)

    for field, color in (("v_ratio", "#2a9d4e"), ("i_ratio", "#d1489a")):
        theta, radius = _level_crossings(grid, field, resolution, n_angular)
        order = np.lexsort((radius, theta))  # by angle, then outward
        body += _polyline(*to_xy(theta[order], radius[order]), color, 1.4)

    gs = np.linspace(0.0, 1.0, 181)
    for eps, color in ((+1, "#2a9d4e"), (-1, "#d1489a")):
        body += _polyline(*to_xy(optimal_angle(gs, alpha, eps), gs), color, 1.4, dash="6,4")

    body += _text(12, 20, f"alpha = {alpha:g}")
    body += _text(
        12, size - 12, "solid: ratio = 1 boundary, dashed: optimal contour "
        "(green voltage, pink current)", size=11, color="#555"
    )
    write_text(path, [_document(size, size, body).encode()])


def _chart(path, x_label: str, y_label: str, x_max: float, series, mark) -> None:
    """Axes over [0, ``x_max``] x [0, 1] and, in one colour per ``(legend, x,
    y)`` of ``series``, ``mark(x_px, y_px, color)`` and the legend.

    Pixels clamp x at ``x_max`` and y to [-0.1, 1].
    """
    width, height, margin = 640, 480, 50
    span_x, span_y = width - 2 * margin, height - 2 * margin
    body = _polyline(
        [margin, margin, width - margin], [margin, height - margin, height - margin], "#333"
    )
    body += _text(width / 2 - 30, height - 8, x_label, size=12)
    body += _text(8, margin - 8, y_label, size=12)
    for k in range(5):
        body += _text(margin + span_x * k / 4 - 8, height - margin + 16, f"{x_max * k / 4:g}",
                      size=10, color="#555")
        body += _text(margin - 26, height - margin - span_y * k / 4 + 4, f"{k / 4:g}",
                      size=10, color="#555")
    for idx, (legend, x, y) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        body += mark(margin + span_x * np.minimum(x, x_max) / x_max,
                     height - margin - span_y * np.maximum(np.minimum(y, 1.0), -0.1), color)
        body += _text(width - margin - 110, margin + 16 * (idx + 1), legend, size=11, color=color)
    write_text(path, [_document(width, height, body).encode()])


def pareto_svg(path, fronts: dict[float, np.ndarray]) -> None:
    """Power ratio against current ratio for each swept reactance parameter."""
    # points past the current axis are left out; NaN is kept
    shown = {alpha: table[~(table["i_ratio"] > 1.0)] for alpha, table in fronts.items()}
    series = [(f"alpha = {alpha:g}", table["i_ratio"], table["power_ratio"])
              for alpha, table in sorted(shown.items())]
    _chart(path, "current ratio", "power ratio", 1.0, series, lambda x, y, color: _points(
        f'<circle cx="%.2f" cy="%.2f" r="1.6" fill="{color}"/>\n', x, y))


def fsat_svg(path, i_inv: np.ndarray, curves: dict[int, np.ndarray]) -> None:
    """Saturation factors against the inverse clipping depth, one curve per harmonic."""
    x_max = float(i_inv[-1]) if len(i_inv) else 1.0
    series = [(f"harmonic {n}", i_inv, values) for n, values in sorted(curves.items())]
    _chart(path, "command / clip level", "harmonic factor", x_max, series,
           lambda x, y, color: _polyline(x, y, color, 1.4))
