"""Minimal static SVG rendering of the emitted sweep data.

A thin, optional layer over the CSV records: the reflection-coefficient disk
is mapped polar-to-Cartesian with contour polylines; the tradeoff fronts and
saturation-factor curves are plain 2D plots.  No styling framework, no
interactivity, deterministic output.
"""

from __future__ import annotations

import numpy as np

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
    radii = np.abs(grid["gamma"]).reshape(resolution, n_angular)[:, 0]
    theta = np.angle(grid["gamma"].reshape(resolution, n_angular)[-1, :])
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_document(size, size, body))


def _axes(width, height, margin, x_label, y_label, x_max, y_max):
    body = _polyline(
        [margin, margin, width - margin], [margin, height - margin, height - margin], "#333"
    )
    body += _text(width / 2 - 30, height - 8, x_label, size=12)
    body += _text(8, margin - 8, y_label, size=12)
    for k in range(5):
        fx = margin + (width - 2 * margin) * k / 4
        fy = height - margin - (height - 2 * margin) * k / 4
        body += _text(fx - 8, height - margin + 16, f"{x_max * k / 4:g}", size=10, color="#555")
        body += _text(margin - 26, fy + 4, f"{y_max * k / 4:g}", size=10, color="#555")
    return body


def pareto_svg(path, fronts: dict[float, np.ndarray]) -> None:
    """Power ratio against current ratio for each swept reactance parameter."""
    width, height, margin = 640, 480, 50
    x_max, y_max = 1.0, 1.0

    def to_xy(x, y):
        return (
            margin + (width - 2 * margin) * np.minimum(x, x_max) / x_max,
            height - margin - (height - 2 * margin) * np.minimum(y, y_max) / y_max,
        )

    body = _axes(width, height, margin, "current ratio", "power ratio", x_max, y_max)
    for idx, (alpha, table) in enumerate(sorted(fronts.items())):
        color = _COLORS[idx % len(_COLORS)]
        shown = table[~(table["i_ratio"] > x_max)]  # points past x_max are left out; NaN is kept
        body += _points(f'<circle cx="%.2f" cy="%.2f" r="1.6" fill="{color}"/>\n',
                        *to_xy(shown["i_ratio"], shown["power_ratio"]))
        body += _text(width - margin - 110, margin + 16 * (idx + 1),
                      f"alpha = {alpha:g}", size=11, color=color)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_document(width, height, body))


def fsat_svg(path, i_inv: np.ndarray, curves: dict[int, np.ndarray]) -> None:
    """Saturation factors against the inverse clipping depth, one curve per harmonic."""
    width, height, margin = 640, 480, 50
    x_max = float(i_inv[-1]) if len(i_inv) else 1.0
    y_max = 1.0

    def to_xy(x, y):
        return (
            margin + (width - 2 * margin) * x / x_max,
            height - margin
            - (height - 2 * margin) * np.maximum(np.minimum(y, y_max), -0.1) / y_max,
        )

    body = _axes(width, height, margin, "command / clip level", "harmonic factor",
                 x_max, y_max)
    for idx, (n, values) in enumerate(sorted(curves.items())):
        color = _COLORS[idx % len(_COLORS)]
        body += _polyline(*to_xy(i_inv, values), color, 1.4)
        body += _text(width - margin - 110, margin + 16 * (idx + 1),
                      f"harmonic {n}", size=11, color=color)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_document(width, height, body))
