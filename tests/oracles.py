"""Independent reference computations the library is checked against.

Everything here deliberately avoids the code paths under test: direct phasor
circuit solutions, quadrature of clipped waveforms, brute-force sweeps,
cell-by-cell loops for the vectorized CSV writers, contour tracer and Pareto
filter, SVG renderers that place each point by scalar calls, the
root-finders the bracketed Illinois solve replaced, the per-call
saturation factors and unmemoized plant impedances that the shared factor
kernel and the plant memo replaced, the fixed-step RK4
integrator the exact referee replaced, the fixed-horizon run that shooting
to the periodic orbit replaced, the concatenating doubling the in-place
power stack replaced, the free-orbit start of the shooting that the
describing function's start replaced, the windowed period scan that one
scan per branch run replaced, and exact rational and plain float forms of
the dimensionless-group formulas, the matrix exponential of a branch
generator in high-precision decimal arithmetic, and the design evaluation
that re-derived |V_th|, the matched current and the Thevenin source on each
call.
"""

import cmath
import decimal
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from wec_satlin.descfcn import (
    HarmonicComponent,
    SaturationFactors,
    SaturationSolution,
    _bracketed_root,
    _fundamental,
    saturation_factor,
    saturation_factors,
)
from wec_satlin.mismatch import (
    OperatingPoint,
    TheveninSource,
    _current_contour_point,
    matched_baseline,
    optimal_angle,
)
from wec_satlin.errors import (
    ConvergenceError,
    DomainError,
    InfeasibleError,
    SimulationError,
    SingularityError,
)
from wec_satlin.simulate import WAVEFORM_FIELDS, SimConfig, SimResult, _Period, _phasors
from wec_satlin.simulate import _Loop as ExactLoop
from wec_satlin.svg import _COLORS, _document, _text
from wec_satlin.wec import NondimGroups, OperatingAmplitudes, WecPlant, thevenin_from_plant


def circuit_solution(v_th: complex, z_th: complex, z_load: complex):
    """Direct series-circuit phasors: (I, V_L) for a source feeding one load."""
    i = v_th / (z_th + z_load)
    return i, z_load * i


def circuit_power_quadrature(v_th: complex, z_th: complex, z_load: complex, omega: float = 1.0):
    """Average of instantaneous power v(t) i(t) over two periods (peak phasors)."""
    i, v = circuit_solution(v_th, z_th, z_load)

    def p_inst(t):
        return (v * np.exp(1j * omega * t)).real * (i * np.exp(1j * omega * t)).real

    span = 2.0 * (2.0 * np.pi / omega)
    value, _ = quad(p_inst, 0.0, span, limit=400)
    return value / span


def amplitude_ratio_bruteforce_angle(gamma_mag: float, alpha: float, epsilon: int, n: int):
    """Angle minimizing the amplitude ratio, by dense sweep with n samples."""
    phi = np.linspace(-np.pi, np.pi, n, endpoint=False)
    gamma = gamma_mag * np.exp(1j * phi)
    num = np.abs(gamma) ** 2 + 2.0 * epsilon * gamma.real + 1.0
    den = alpha**2 * np.abs(gamma) ** 2 + 2.0 * alpha * gamma.imag + 1.0
    return phi[int(np.argmin(num / den))]


def clipped_sine_fourier(n: int, i_script: float) -> float:
    """Quadrature Fourier sine coefficient of a unit sine clipped at +/- i_script."""

    def clipped(phi):
        return np.clip(np.sin(phi), -i_script, i_script) * np.sin(n * phi)

    # split at the clipping onset angles where the integrand has kinks
    s = np.arcsin(min(i_script, 1.0))
    kinks = [s, np.pi - s, np.pi + s, 2.0 * np.pi - s]
    value, _ = quad(clipped, 0.0, 2.0 * np.pi, limit=800, points=kinks)
    return value / np.pi


def gamma_disk_grid(n_radial: int, n_angular: int):
    """Dense polar grid over the unit reflection-coefficient disk."""
    g = np.linspace(0.0, 1.0, n_radial)
    th = np.linspace(-np.pi, np.pi, n_angular, endpoint=False)
    gg, tt = np.meshgrid(g, th, indexing="ij")
    return (gg * np.exp(1j * tt)).ravel()


def ratios_on_grid(gamma, alpha: float):
    """(power, voltage, current) ratio arrays over a gamma array."""
    g2 = np.abs(gamma) ** 2
    den = alpha**2 * g2 + 2.0 * alpha * gamma.imag + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.sqrt((g2 + 2.0 * gamma.real + 1.0) / den)
        i = np.sqrt((g2 - 2.0 * gamma.real + 1.0) / den)
    return 1.0 - g2, v, i


def fmt_cell(value) -> str:
    """One CSV cell as the emitters printed it cell by cell: floats at 12 digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def csv_rows(columns):
    """Rows of ``write_csv`` columns, a scalar column repeated on every row."""
    return zip(*(itertools.repeat(c) if np.ndim(c) == 0 else c for c in columns))


def write_csv_rowwise(path, header, rows) -> None:
    """CSV by a per-cell :func:`fmt_cell` join, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_cell(v) for v in row) + "\n")


def dump_waveforms_rowwise(result, path) -> None:
    """Waveform CSV by a per-cell f-string, one stored step at a time."""
    names = result.waveforms.dtype.names
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in result.waveforms:
            fh.write(",".join(f"{row[name]:.12g}" for name in names) + "\n")


def level_crossings_loop(grid, field, resolution, n_angular):
    """(theta, radius) points where ``field`` crosses 1, ray by ray in a loop."""
    values = grid[field].reshape(resolution, n_angular)
    radii = np.abs(grid["gamma"]).reshape(resolution, n_angular)[:, 0]
    theta = np.angle(grid["gamma"].reshape(resolution, n_angular)[-1, :])
    points = []
    for j in range(n_angular):
        col = values[:, j] - 1.0
        for k in range(resolution - 1):
            a, b = col[k], col[k + 1]
            if not (np.isfinite(a) and np.isfinite(b)):
                continue
            if a == 0.0 or a * b < 0.0:
                frac = 0.0 if a == 0.0 else a / (a - b)
                points.append((theta[j], radii[k] + frac * (radii[k + 1] - radii[k])))
    return points


def _polyline_pointwise(points, color, width=1.2, dash=None):
    if len(points) < 2:
        return ""
    attrs = f'fill="none" stroke="{color}" stroke-width="{width}"'
    if dash:
        attrs += f' stroke-dasharray="{dash}"'
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline {attrs} points="{pts}"/>\n'


def _axes_pointwise(width, height, margin, x_label, y_label, x_max, y_max):
    body = _polyline_pointwise(
        [(margin, margin), (margin, height - margin), (width - margin, height - margin)],
        "#333",
        1.2,
    )
    body += _text(width / 2 - 30, height - 8, x_label, size=12)
    body += _text(8, margin - 8, y_label, size=12)
    for k in range(5):
        fx = margin + (width - 2 * margin) * k / 4
        fy = height - margin - (height - 2 * margin) * k / 4
        body += _text(fx - 8, height - margin + 16, f"{x_max * k / 4:g}", size=10, color="#555")
        body += _text(margin - 26, fy + 4, f"{y_max * k / 4:g}", size=10, color="#555")
    return body


def smith_svg_pointwise(path, alpha, grid, resolution, n_angular):
    """Smith chart SVG placing each point by scalar calls, crossings by the loop."""
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
    body += _polyline_pointwise([(cx - r_px, cy), (cx + r_px, cy)], "#ccc", 0.6)
    for field, color in (("v_ratio", "#2a9d4e"), ("i_ratio", "#d1489a")):
        pts = sorted(level_crossings_loop(grid, field, resolution, n_angular))
        body += _polyline_pointwise([to_xy(t, r) for t, r in pts], color, 1.4)
    gs = np.linspace(0.0, 1.0, 181)
    for eps, color in ((+1, "#2a9d4e"), (-1, "#d1489a")):
        phi = optimal_angle(gs, alpha, eps)
        body += _polyline_pointwise(
            [to_xy(p, g) for g, p in zip(gs, phi)], color, 1.4, dash="6,4"
        )
    body += _text(12, 20, f"alpha = {alpha:g}")
    body += _text(
        12, size - 12, "solid: ratio = 1 boundary, dashed: optimal contour "
        "(green voltage, pink current)", size=11, color="#555"
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_document(size, size, body))


def pareto_svg_pointwise(path, fronts):
    """Pareto SVG walking each front row by row, one circle per f-string."""
    width, height, margin = 640, 480, 50
    x_max, y_max = 1.0, 1.0

    def to_xy(x, y):
        return (
            margin + (width - 2 * margin) * min(x, x_max) / x_max,
            height - margin - (height - 2 * margin) * min(y, y_max) / y_max,
        )

    body = _axes_pointwise(width, height, margin, "current ratio", "power ratio", x_max, y_max)
    for idx, (alpha, table) in enumerate(sorted(fronts.items())):
        color = _COLORS[idx % len(_COLORS)]
        for row in table:
            if row["i_ratio"] > x_max:
                continue
            x, y = to_xy(row["i_ratio"], row["power_ratio"])
            body += f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.6" fill="{color}"/>\n'
        body += _text(width - margin - 110, margin + 16 * (idx + 1),
                      f"alpha = {alpha:g}", size=11, color=color)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_document(width, height, body))


def fsat_svg_pointwise(path, i_inv, curves):
    """Saturation-factor SVG placing each curve point by scalar calls."""
    width, height, margin = 640, 480, 50
    x_max = float(i_inv[-1]) if len(i_inv) else 1.0
    y_max = 1.0

    def to_xy(x, y):
        return (
            margin + (width - 2 * margin) * x / x_max,
            height - margin - (height - 2 * margin) * max(min(y, y_max), -0.1) / y_max,
        )

    body = _axes_pointwise(width, height, margin, "command / clip level", "harmonic factor",
                           x_max, y_max)
    for idx, (n, values) in enumerate(sorted(curves.items())):
        color = _COLORS[idx % len(_COLORS)]
        body += _polyline_pointwise([to_xy(x, y) for x, y in zip(i_inv, values)], color, 1.4)
        body += _text(width - margin - 110, margin + 16 * (idx + 1),
                      f"harmonic {n}", size=11, color=color)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_document(width, height, body))


def nondominated_quadratic(triples):
    """Nondominated mask by comparing every row with all others, O(N^2)."""
    p = triples["power_ratio"]
    v = triples["v_ratio"]
    i = triples["i_ratio"]
    keep = np.ones(len(triples), dtype=bool)
    for k in range(len(triples)):
        better_eq = (p >= p[k]) & (v <= v[k]) & (i <= i[k])
        strictly = (p > p[k]) | (v < v[k]) | (i < i[k])
        if np.any(better_eq & strictly):
            keep[k] = False
    return keep


def clipped_cap_fourier(n: int, i_script: float) -> float:
    """Quadrature Fourier coefficient of harmonic n >= 3 (odd) of a unit sine
    clipped at +/- i_script, from the clipped-off cap alone.

    With u0 = acos(i_script) and s = sin(n pi/2), the coefficient is
    -(4/pi) s times the integral over [0, u0] of (cos u - cos u0) cos(n u).
    The cap height is written 2 sin((u0 + u)/2) sin((u0 - u)/2), which does
    not cancel however small u0 is.
    """
    u0 = math.acos(i_script)
    s = -1.0 if n % 4 == 3 else 1.0

    def cap(u):
        return 2.0 * math.sin(0.5 * (u0 + u)) * math.sin(0.5 * (u0 - u)) * math.cos(n * u)

    value, _ = quad(cap, 0.0, u0, epsabs=0.0, epsrel=1e-13, limit=200)
    return -(4.0 / math.pi) * s * value


# --- root-finders the bracketed Illinois solve replaced ----------------------


def solve_gain_three_stage(src, i_max: float, z_c: complex, tol=1e-12, max_iter=200):
    """Fundamental gain f of the clipped loop by damped fixed-point iteration,
    a rising-residual detector and a bisection fallback on [1e-15, 1].

    Returns ``(f, iterations, residuals)`` or raises :class:`ConvergenceError`.
    Assumes the limit binds.
    """

    def gain(f):
        return saturation_factor(1, i_max / (abs(src.v_th) / abs(f * src.z_th + z_c)))

    residuals = []
    f = gain(1.0)
    prev_residual = math.inf
    rising = 0
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        g = gain(f)
        residual = abs(g - f)
        residuals.append(residual)
        if residual < tol:
            return f, iterations, residuals
        rising = rising + 1 if residual >= prev_residual else 0
        prev_residual = residual
        if rising >= 2:
            break  # oscillating; hand over to bisection
        f = f + 0.5 * (g - f)
    lo, hi = 1e-15, 1.0
    while iterations < max_iter:
        iterations += 1
        f = 0.5 * (lo + hi)
        g = gain(f)
        residual = abs(g - f)
        residuals.append(residual)
        if residual < tol:
            return f, iterations, residuals
        if f - g < 0.0:
            lo = f
        else:
            hi = f
    raise ConvergenceError("three-stage solve did not converge", residuals=residuals)


# --- per-call factors and unmemoized impedances the kernel and memo replaced --


def saturation_factor_percall(n: int, i_script: float) -> float:
    """f_sat,n by its own evaluation of phi for each call, with argument checks."""
    if n < 1 or n != int(n):
        raise DomainError(f"harmonic index must be a positive integer, got {n}")
    if not i_script > 0.0:
        raise DomainError(f"clipping depth must be positive, got {i_script}")
    n = int(n)
    if n % 2 == 0:
        return 0.0
    if i_script >= 1.0:
        return 1.0 if n == 1 else 0.0
    if n == 1:
        root = math.sqrt(1.0 - i_script**2)
        return (2.0 / math.pi) * (i_script * root + math.asin(i_script))
    if i_script < 0.1:  # deep clip: the complementary angle theta = asin(I)
        theta = math.asin(i_script)
        return (
            (4.0 / math.pi)
            * (n * math.sqrt(1.0 - i_script**2) * math.sin(n * theta)
               - i_script * math.cos(n * theta))
            / (n * (n**2 - 1))
        )
    phi = 2.0 * math.asin(math.sqrt(0.5 * (1.0 - i_script)))
    s = -1.0 if n % 4 == 3 else 1.0
    if (n + 1) * phi < 0.25:
        series = sum(
            (-1) ** k * ((n + 1) ** (2 * k) - (n - 1) ** (2 * k))
            * phi ** (2 * k + 1) / math.factorial(2 * k + 1)
            for k in range(1, 7)
        )
        return (2.0 / math.pi) * s * series / n
    return (
        (4.0 / math.pi)
        * s
        * (n * math.sin(phi) * math.cos(n * phi) - math.cos(phi) * math.sin(n * phi))
        / (n * (n**2 - 1))
    )


def saturation_factor_decimal(n: int, i_script: float, digits: int = 60) -> float:
    """f_sat,n (odd n >= 3, 0 < I < 1) in ``digits``-digit decimal arithmetic:
    (4/pi) (n cos(theta) sin(n theta) - sin(theta) cos(n theta)) / (n (n^2 - 1))
    with theta = asin(I), each function summed as its Maclaurin series.  At
    this precision nothing cancels for the small theta it is used at."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        ctx.Emin = -9999
        tiny = decimal.Decimal(10) ** -(digits + 5)

        def maclaurin(first, ratio):
            """Sum of the terms t_0 = ``first``, t_k = t_(k-1) ratio(k)."""
            total = term = first
            k = 0
            while abs(term) > tiny * abs(total):
                k += 1
                term *= ratio(k)
                total += term
            return total

        i = decimal.Decimal(i_script)
        theta = maclaurin(i, lambda k: i * i * (2 * k - 1) ** 2 / ((2 * k) * (2 * k + 1)))
        x = n * theta
        sin_x = maclaurin(x, lambda k: -x * x / ((2 * k) * (2 * k + 1)))
        cos_x = maclaurin(decimal.Decimal(1), lambda k: -x * x / ((2 * k - 1) * (2 * k)))
        cos_theta = maclaurin(decimal.Decimal(1), lambda k: -theta * theta / ((2 * k - 1) * (2 * k)))
        pi = decimal.Decimal(
            "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899"
        )
        return float(4 * (n * cos_theta * sin_x - i * cos_x) / (pi * n * (n * n - 1)))


def saturation_factors_percall(i_script: float, n_max: int = 9) -> SaturationFactors:
    """The bundle as one checked per-call factor per odd harmonic."""
    return SaturationFactors(
        i_script=i_script,
        factors={n: saturation_factor_percall(n, i_script) for n in range(1, n_max + 1, 2)},
    )


def z_mech_fresh(plant: WecPlant, n: int = 1) -> complex:
    """Mechanical impedance at harmonic n, evaluated on every call."""
    s = 1j * n * plant.omega
    g2 = plant.g_ratio**2
    return (
        plant.b_h
        + g2 * plant.b_d
        + (plant.m + plant.a_added) * s
        + (plant.k_h + g2 * plant.k_d) / s
    )


def z_thevenin_fresh(plant: WecPlant, n: int = 1) -> complex:
    """Thevenin source impedance at harmonic n, evaluated on every call."""
    return plant.z_wind(n) + plant.coupling**2 / z_mech_fresh(plant, n)


def thevenin_fresh(plant: WecPlant) -> TheveninSource:
    """A new Thevenin source whose harmonic impedances bypass the plant memo."""
    v_th = plant.coupling * plant.f_e / z_mech_fresh(plant)
    return TheveninSource(
        v_th=v_th,
        z_th=z_thevenin_fresh(plant),
        harmonic_impedance=lambda n: z_thevenin_fresh(plant, n),
    )


def solve_operating_point_percall(
    src, i_max: float, z_c=None, n_harmonics: int = 9, tol=1e-12, max_iter=200
) -> SaturationSolution:
    """The bracketed Illinois solve with a checked per-call f_sat,1 in its
    residual and per-call factors for the harmonics.  Assumes a root exists."""
    if z_c is None:
        z_c = src.z_th.conjugate()
    z_c = complex(z_c)

    def residual(f):
        i_temp_mag = abs(src.v_th) / abs(f * src.z_th + z_c)
        return f - saturation_factor_percall(1, i_max / i_temp_mag)

    lo, hi = 1e-15, 1.0
    f = hi
    r_hi = residual(hi)
    residuals = []
    if r_hi > 0.0 and r_hi >= tol:
        r_lo = residual(lo)
        if not r_lo < 0.0 and z_c != 0.0:
            lo, hi, r_lo, r_hi = 0.0, lo, residual(0.0), r_lo
        f, residuals = _bracketed_root(residual, lo, hi, r_lo, r_hi, tol, max_iter)

    i_temp = src.v_th / (f * src.z_th + z_c)
    psi = cmath.phase(i_temp)
    i_temp_mag = abs(i_temp)
    factors = saturation_factors_percall(i_max / i_temp_mag, n_harmonics)
    harmonics = []
    p_total = 0.0
    for n, f_n in factors.factors.items():
        current = f_n * i_temp_mag * cmath.exp(1j * (n * psi + (n - 1) * math.pi / 2.0))
        if n == 1:
            v_load = src.v_th - src.z_th * current
        else:
            v_load = -src.z_th_at(n) * current
        power = 0.5 * (v_load * current.conjugate()).real
        p_total += power
        harmonics.append(HarmonicComponent(n=n, current=current, v_load=v_load, power=power))
    return SaturationSolution(
        i_max=i_max,
        i_temp=i_temp,
        psi=psi,
        factors=factors,
        harmonics=harmonics,
        p_total=p_total,
        converged=True,
        iterations=len(residuals),
        residual=residuals[-1] if residuals else r_hi,
    )


def contour_ratio_scalar(g: float, alpha: float, epsilon: int) -> float:
    """Amplitude ratio on the epsilon-optimal contour at |gamma| = g, in
    scalar ``math`` arithmetic."""
    a2g2 = alpha**2 * g**2
    sigma = math.sqrt((a2g2 + 1.0) ** 2 + alpha**2 * (g**2 + 1.0) ** 2)
    cosarg = min(max(-2.0 * alpha * g / sigma, -1.0), 1.0)
    phi = 2.0 * math.atan((a2g2 + 1.0) / (sigma + epsilon * alpha * (1.0 + g**2)))
    gamma = g * cmath.exp(1j * (phi + epsilon * math.acos(cosarg)))
    num = g**2 + 2.0 * epsilon * gamma.real + 1.0
    den = alpha**2 * g**2 + 2.0 * alpha * gamma.imag + 1.0
    return math.sqrt(num / den)


def gamma_magnitude_scan_bisect(target_ratio: float, alpha: float, epsilon: int, tol=1e-10):
    """Smallest |gamma| on the optimal contour meeting ``target_ratio``: a
    64-sample sign scan, every bracket bisected to ``tol`` and a width of
    1e-13, then the least root.  Raises :class:`InfeasibleError` without one.
    """
    n_scan = 64
    gs = np.linspace(0.0, 1.0, n_scan + 1)
    resid = [contour_ratio_scalar(float(g), alpha, epsilon) - target_ratio for g in gs]
    roots = []
    for k in range(n_scan):
        r_lo, r_hi = resid[k], resid[k + 1]
        if r_lo == 0.0:
            roots.append(float(gs[k]))
            continue
        if r_lo * r_hi > 0.0:
            continue
        lo, hi = float(gs[k]), float(gs[k + 1])
        f_lo = r_lo
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f_mid = contour_ratio_scalar(mid, alpha, epsilon) - target_ratio
            if abs(f_mid) < tol and (hi - lo) < 1e-13:
                break
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        roots.append(0.5 * (lo + hi))
    if resid[-1] == 0.0:
        roots.append(1.0)
    if not roots:
        raise InfeasibleError(f"no |gamma| in [0, 1] meets ratio {target_ratio}")
    return min(roots)


# --- fixed-step RK4 referee -------------------------------------------------
# The time-domain referee as it was before exact branch propagation: per-step
# branch resolution of the clip, classical fourth-order Runge-Kutta, a
# pointwise current clamp, and an up-front stiffness guard.  Kept verbatim as
# the reference the exact propagator must reproduce.


class _Loop:
    """Branch-resolving dynamics for one plant/controller/limit combination."""

    def __init__(self, plant: WecPlant, z_c: complex, i_max: float,
                 loop_tol: float = 1e-12):
        z_c = complex(z_c)
        if not (z_c.real > 0.0):
            raise DomainError(
                f"controller must be dissipative to realize: Re(z_c) = {z_c.real}"
            )
        if not (i_max > 0.0):
            raise DomainError(f"current limit must be positive, got {i_max}")
        self.plant = plant
        self.i_max = float(i_max)
        # slack applied to the rail-release comparison; both branches agree
        # exactly at the boundary, so the slack only suppresses chatter
        self.rail_slack = loop_tol * (i_max if math.isfinite(i_max) else 1.0)
        g2 = plant.g_ratio**2
        self.inertia = plant.m + plant.a_added
        self.damping = plant.b_h + g2 * plant.b_d
        self.stiffness = plant.k_h + g2 * plant.k_d
        self.c = plant.coupling  # k_t * g_ratio
        self.r = plant.r_w
        self.l = plant.l_w
        self.b_c = z_c.real
        x_c = z_c.imag
        self.f_amp = abs(plant.f_e)
        self.f_phase = math.atan2(plant.f_e.imag, plant.f_e.real)
        self.omega = plant.omega

        # realization: series stiffness for capacitive z_c, series
        # inductance for inductive z_c, pure feedthrough when real
        rates = [math.sqrt(self.stiffness / self.inertia), self.damping / self.inertia]
        if x_c < 0.0:
            self.mode = "pi"
            self.k_c = -plant.omega * x_c
            self.a = self.k_c / self.b_c
            self.n_states = 4 if self.l > 0.0 else 3
            rates.append(self.a)
            if self.l > 0.0:
                rates.append((self.r + self.b_c) / self.l)
        elif x_c > 0.0:
            self.mode = "ind"
            self.l_c = x_c / plant.omega
            self.n_states = 3
            rates.append((self.r + self.b_c) / (self.l_c + self.l))
            if math.isfinite(i_max):
                rates.append(self.b_c / self.l_c)  # railed-branch filter pole
        else:
            self.mode = "res"
            self.a = 0.0
            self.n_states = 3 if self.l > 0.0 else 2
            if self.l > 0.0:
                rates.append((self.r + self.b_c) / self.l)
        self.max_rate = max(rates)

    def initial_state(self) -> tuple:
        return (0.0,) * self.n_states

    def excitation(self, t: float) -> float:
        return self.f_amp * math.cos(self.omega * t + self.f_phase)

    def _closure(self, v: float, y: tuple):
        """Resolve (i, v_load, i_temp, di_extra) from velocity and extra states.

        ``di_extra`` is the current-state derivative for realizations where
        the current (or command) is a state; None otherwise.
        """
        emf = self.c * v
        i_max = self.i_max
        if self.mode == "pi":
            xi = y[2]
            if self.l == 0.0:
                drive = emf - self.a * xi
                i_unsat = drive / (self.r + self.b_c)
                if abs(i_unsat) <= i_max:
                    i = i_unsat
                    v_load = emf - self.r * i
                    return i, v_load, i, None
                i = math.copysign(i_max, drive)
                v_load = emf - self.r * i
                return i, v_load, (v_load - self.a * xi) / self.b_c, None
            i = y[3]
            if abs(i) >= i_max:
                s = math.copysign(1.0, i)
                v_rail = emf - self.r * s * i_max
                i_temp = (v_rail - self.a * xi) / self.b_c
                if s * i_temp >= i_max - self.rail_slack:
                    return s * i_max, v_rail, i_temp, 0.0
            di = (emf - (self.r + self.b_c) * i - self.a * xi) / self.l
            v_load = self.b_c * i + self.a * xi
            return i, v_load, i, di

        if self.mode == "ind":
            i_temp = y[2]
            if abs(i_temp) < i_max:
                di_temp = (emf - (self.r + self.b_c) * i_temp) / (self.l_c + self.l)
                v_load = self.b_c * i_temp + self.l_c * di_temp
                return i_temp, v_load, i_temp, di_temp
            s = math.copysign(1.0, i_temp)
            v_load = emf - self.r * s * i_max
            di_temp = (v_load - self.b_c * i_temp) / self.l_c
            return s * i_max, v_load, i_temp, di_temp

        # mode "res": purely resistive controller, i_temp = v_load / b_c
        if self.l == 0.0:
            i_unsat = emf / (self.r + self.b_c)
            if abs(i_unsat) <= i_max:
                return i_unsat, self.b_c * i_unsat, i_unsat, None
            i = math.copysign(i_max, emf)
            v_load = emf - self.r * i
            return i, v_load, v_load / self.b_c, None
        i = y[2]
        if abs(i) >= i_max:
            s = math.copysign(1.0, i)
            v_rail = emf - self.r * s * i_max
            i_temp = v_rail / self.b_c
            if s * i_temp >= i_max - self.rail_slack:
                return s * i_max, v_rail, i_temp, 0.0
        di = (emf - (self.r + self.b_c) * i) / self.l
        return i, self.b_c * i, i, di

    def rhs(self, t: float, y: tuple) -> tuple:
        x, v = y[0], y[1]
        i, v_load, _, di = self._closure(v, y)
        dv = (
            self.excitation(t) - self.damping * v - self.stiffness * x - self.c * i
        ) / self.inertia
        if self.mode == "pi":
            dxi = -self.a * y[2] + v_load
            if self.l == 0.0:
                return (v, dv, dxi)
            return (v, dv, dxi, di)
        if self.mode == "ind":
            return (v, dv, di)
        if self.l == 0.0:
            return (v, dv)
        return (v, dv, di)

    def outputs(self, t: float, y: tuple):
        """(i, v_load, p_inst) at a sample point, branch-consistent."""
        i, v_load, _, _ = self._closure(y[1], y)
        return i, v_load, v_load * i

    def clamp(self, y: tuple) -> tuple:
        """Pointwise current clamp for realizations holding the applied
        current as a state, so |i| never exceeds the limit at an accepted
        step."""
        if self.mode == "pi" and self.l > 0.0:
            i = y[3]
            if abs(i) > self.i_max:
                return y[:3] + (math.copysign(self.i_max, i),)
        elif self.mode == "res" and self.l > 0.0:
            i = y[2]
            if abs(i) > self.i_max:
                return y[:2] + (math.copysign(self.i_max, i),)
        return y


def _rk4_step(rhs, t: float, y: tuple, dt: float) -> tuple:
    k1 = rhs(t, y)
    half = 0.5 * dt
    y2 = tuple(yi + half * ki for yi, ki in zip(y, k1))
    k2 = rhs(t + half, y2)
    y3 = tuple(yi + half * ki for yi, ki in zip(y, k2))
    k3 = rhs(t + half, y3)
    y4 = tuple(yi + dt * ki for yi, ki in zip(y, k3))
    k4 = rhs(t + dt, y4)
    sixth = dt / 6.0
    return tuple(
        yi + sixth * (a + 2.0 * (b + c) + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )


def simulate_rk4(
    plant: WecPlant,
    z_c: complex,
    i_max: float = math.inf,
    cfg: SimConfig | None = None,
    n_harmonics: int = 9,
    transient_periods: int = 20,
) -> SimResult:
    """Integrate the nonlinear loop to steady state and extract one period.

    ``z_c`` is the controller impedance value at the wave frequency (ohms,
    not normalized); ``i_max`` the hard current clip (infinity disables it).
    The excitation is |F_e| cos(w t + arg F_e).

    The run is declared converged once both the skip of
    ``transient_periods`` has elapsed and the cycle-averaged electrical power
    changes by less than ``cfg.convergence_tol`` between successive periods;
    extraction always uses the final period.  A non-finite state aborts with
    :class:`SimulationError` carrying the step index.
    """
    cfg = cfg or SimConfig()
    loop = _Loop(plant, z_c, i_max, cfg.algebraic_loop_tol)
    period = 2.0 * math.pi / plant.omega
    steps = cfg.steps_per_period
    dt = period / steps
    n_total = cfg.n_periods * steps

    # explicit fixed-step scheme: the fastest pole of the piecewise-linear
    # dynamics must sit inside the stability interval (|lambda| dt < 2.78)
    if loop.max_rate * dt > 2.5:
        needed = math.ceil(period * loop.max_rate / 2.5)
        raise DomainError(
            f"dynamics too stiff for dt = T/{steps}: fastest rate "
            f"{loop.max_rate:.4g} 1/s needs steps_per_period >= {needed}"
        )

    t_arr = np.empty(n_total)
    x_arr = np.empty(n_total)
    v_arr = np.empty(n_total)
    i_arr = np.empty(n_total)
    vl_arr = np.empty(n_total)
    p_arr = np.empty(n_total)

    y = loop.initial_state()
    rhs = loop.rhs
    t = 0.0
    for j in range(n_total):
        i_out, v_load, p_inst = loop.outputs(t, y)
        t_arr[j] = t
        x_arr[j] = y[0]
        v_arr[j] = y[1]
        i_arr[j] = i_out
        vl_arr[j] = v_load
        p_arr[j] = p_inst
        y = loop.clamp(_rk4_step(rhs, t, y, dt))
        t = (j + 1) * dt
        if not all(math.isfinite(c) for c in y):
            raise SimulationError(
                f"state diverged at step {j} (t = {t:.6g} s)",
                step=j,
                trace=y,
            )

    period_powers = [
        float(np.mean(p_arr[p * steps : (p + 1) * steps]))
        for p in range(cfg.n_periods)
    ]
    converged = False
    floor = 1e-12 * max(1.0, abs(period_powers[-1]))
    for p in range(max(1, transient_periods), cfg.n_periods):
        change = abs(period_powers[p] - period_powers[p - 1])
        scale = max(abs(period_powers[p]), abs(period_powers[p - 1]), floor)
        if change <= cfg.convergence_tol * scale:
            converged = True
            break

    window = slice(n_total - steps, n_total)
    tw = t_arr[window]
    iw = i_arr[window]
    xw = x_arr[window]
    dc_current, harmonics = _phasors(tw, iw, plant.omega, n_harmonics)
    x_fundamental = _phasors(tw, xw, plant.omega, 1)[1][0]
    waveforms = np.empty(
        steps, dtype=[(name, np.float64) for name in WAVEFORM_FIELDS]
    )
    waveforms["t"] = tw
    waveforms["x"] = xw
    waveforms["v"] = v_arr[window]
    waveforms["i"] = iw
    waveforms["v_load"] = vl_arr[window]
    waveforms["p_inst"] = p_arr[window]

    return SimResult(
        waveforms=waveforms,
        p_avg=float(np.mean(p_arr[window])),
        harmonic_currents=harmonics,
        dc_current=dc_current,
        x_amp=abs(x_fundamental),
        peak_current=float(np.max(np.abs(iw))),
        converged=converged,
        omega=plant.omega,
        dt=dt,
        period_powers=period_powers,
    )


# The exact referee as it was before shooting to the periodic orbit: the
# branch propagation of ``wec_satlin.simulate`` run from rest over a fixed
# horizon of ``n_periods`` periods, with the any-pair power criterion for
# convergence.  Kept as the reference the shooting result must reproduce.


def simulate_horizon(
    plant: WecPlant,
    z_c: complex,
    i_max: float = math.inf,
    cfg: SimConfig | None = None,
    n_harmonics: int = 9,
    transient_periods: int = 20,
) -> SimResult:
    """Propagate the loop from rest for ``cfg.n_periods`` periods and
    extract the final one; converged once the skip of ``transient_periods``
    has elapsed and the cycle-averaged power changes by less than
    ``cfg.convergence_tol`` between successive periods."""
    cfg = cfg or SimConfig()
    period = 2.0 * math.pi / plant.omega
    steps = cfg.steps_per_period
    dt = period / steps
    tol = cfg.algebraic_loop_tol * dt
    loop = ExactLoop(plant, z_c, dt, steps)

    ys, cur, vl = np.empty((steps + 1, loop.n)), np.empty(steps + 1), np.empty(steps + 1)
    ys[steps] = loop.y0
    cur[steps] = ys[steps] @ loop.free.i_row
    vl[steps] = ys[steps] @ loop.free.v_row
    rail = False
    period_powers = []
    for p in range(cfg.n_periods):
        ys[0], cur[0], vl[0] = ys[steps], cur[steps], vl[steps]
        k = 0
        while k < steps:
            br = loop.branch(rail)
            flat = br.powers[: steps - k].reshape(-1, loop.n) @ ys[k]
            ys[k + 1 :] = flat.reshape(-1, loop.n)
            cur[k + 1 :] = ys[k + 1 :] @ br.i_row
            m = loop.first_candidate(rail, ys[k:], cur[k:], i_max)
            vl[k + 1 : k + 1 + m] = ys[k + 1 : k + 1 + m] @ br.v_row
            k += m
            if k < steps:
                ys[k + 1], rail, *_ = loop.cross(ys[k], rail, i_max, tol)
                cur[k + 1] = ys[k + 1] @ loop.branch(rail).i_row
                vl[k + 1] = ys[k + 1] @ loop.branch(rail).v_row
                k += 1
        bad = np.flatnonzero(~np.isfinite(ys[1:]).all(axis=1))
        if bad.size:
            j = p * steps + int(bad[0])
            raise SimulationError(
                f"state diverged at step {j} (t = {(j + 1) * dt:.6g} s)",
                step=j,
                trace=tuple(ys[1 + bad[0]]),
            )
        period_powers.append(float(np.mean(vl[:steps] * cur[:steps])))

    converged = False
    floor = 1e-12 * max(1.0, abs(period_powers[-1]))
    for p in range(max(1, transient_periods), cfg.n_periods):
        change = abs(period_powers[p] - period_powers[p - 1])
        scale = max(abs(period_powers[p]), abs(period_powers[p - 1]), floor)
        if change <= cfg.convergence_tol * scale:
            converged = True
            break

    n_total = cfg.n_periods * steps
    columns = (np.arange(n_total - steps, n_total) * dt, ys[:steps, 0], ys[:steps, 1],
               cur[:steps], vl[:steps], vl[:steps] * cur[:steps])
    waveforms = np.empty(steps, dtype=[(name, np.float64) for name in WAVEFORM_FIELDS])
    for name, column in zip(WAVEFORM_FIELDS, columns):
        waveforms[name] = column
    dc_current, harmonics = _phasors(columns[0], cur[:steps], plant.omega, n_harmonics)
    x_fundamental = _phasors(columns[0], ys[:steps, 0], plant.omega, 1)[1][0]
    return SimResult(
        waveforms=waveforms,
        p_avg=period_powers[-1],
        harmonic_currents=harmonics,
        dc_current=dc_current,
        x_amp=abs(x_fundamental),
        peak_current=float(np.max(np.abs(cur[:steps]))),
        converged=converged,
        omega=plant.omega,
        dt=dt,
        period_powers=period_powers,
    )


def period_windowed(loop: ExactLoop, y, rail: bool, i_max: float, tol: float,
                    window: int):
    """:meth:`ExactLoop.period` with each branch run scanned in windows of
    ``window`` steps, as the referee once did: each window samples the next
    rows of the powers stack times the run's start, and the scan stops at
    the first window that holds a candidate.  Each window after the first
    starts at the last sample of the one before, so every pair of
    neighbouring samples is checked; the current of a window is read off
    with the sample before it, so that it is a matrix-vector product however
    the run is cut."""
    steps, n, dt = loop.steps, loop.n, loop.dt
    ys, cur, vl = np.empty((steps + 1, n)), np.empty(steps + 1), np.empty(steps + 1)
    ys[0] = y
    ys[0, loop.osc] = loop.y0[loop.osc]
    cur[0] = ys[0] @ loop.branch(rail).i_row
    vl[0] = ys[0] @ loop.branch(rail).v_row
    segments = []

    def add(on_rail, start, duration):
        if segments and segments[-1][0] == on_rail:
            segments[-1] = (on_rail, segments[-1][1], segments[-1][2] + duration)
        else:
            segments.append((on_rail, start, duration))

    k = 0
    while k < steps:
        br = loop.branch(rail)
        rest = steps - k
        m = 0  # whole steps from ys[k] before the first candidate
        while m < rest:
            lo, m = m, min(m + window, rest)
            flat = br.powers[lo:m].reshape(-1, n) @ ys[k]
            ys[k + 1 + lo : k + 1 + m] = flat.reshape(-1, n)
            seen = slice(k + lo, k + 1 + m)  # the window and the sample before it
            cur[k + 1 + lo : k + 1 + m] = (ys[seen] @ br.i_row)[1:]
            hit = lo + loop.first_candidate(rail, ys[seen], cur[seen], i_max)
            if hit < m:
                m = hit
                break
        vl[k + 1 : k + 1 + m] = ys[k + 1 : k + 1 + m] @ br.v_row
        if m:
            add(rail, k * dt, m * dt)
        k += m
        if k < steps:
            ys[k + 1], rail, pieces = loop.cross(ys[k], rail, i_max, tol)
            cur[k + 1] = ys[k + 1] @ loop.branch(rail).i_row
            vl[k + 1] = ys[k + 1] @ loop.branch(rail).v_row
            start = k * dt
            for on_rail, duration in pieces:
                add(on_rail, start, duration)
                start += duration
            k += 1
    ys[steps], cur[steps], vl[steps] = -ys[steps], -cur[steps], -vl[steps]
    return _Period(ys, cur, vl, rail, segments)


def powers_by_concatenation(branch, dt: float, steps: int) -> np.ndarray:
    """E, E^2, ..., E^steps for the branch's one-step flow
    E = ``branch.transition(dt)``, grown by doubling E^(j+L) = E^j E^L with
    one new array per doubling."""
    powers = branch.transition(dt)[None]
    while len(powers) < steps:
        powers = np.concatenate([powers, powers[: steps - len(powers)] @ powers[-1]])
    return powers


def expm_decimal(a, h: float, digits: int = 60) -> np.ndarray:
    """expm(a h) of the float matrix ``a`` and step ``h``, taken exactly, in
    ``digits``-digit decimal arithmetic: a h scaled by 2^-s to a 1-norm of
    at most 1/2, its Taylor series summed until a term is below the
    precision, then squared s times.  Squaring a stiff flow loses digits,
    so the context carries 30 more than asked for."""
    n = len(a)
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 30
        ctx.Emin = -99999
        dec = decimal.Decimal
        ah = [[dec(float(x)) * dec(float(h)) for x in row] for row in np.asarray(a)]
        norm = max(sum(abs(ah[i][j]) for i in range(n)) for j in range(n))
        squarings = 0
        while norm > dec("0.5"):
            norm /= 2
            squarings += 1
        factor = dec(2) ** -squarings
        m = [[x * factor for x in row] for row in ah]

        def mul(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]

        total = [[dec(int(i == j)) for j in range(n)] for i in range(n)]
        term, k = total, 0
        tiny = dec(10) ** -(digits + 25)
        while True:
            k += 1
            term = [[x / k for x in row] for row in mul(term, m)]
            total = [[t + x for t, x in zip(trow, xrow)] for trow, xrow in zip(total, term)]
            if max(abs(x) for row in term for x in row) <= tiny:
                break
        for _ in range(squarings):
            total = mul(total, total)
        return np.array([[float(x) for x in row] for row in total])


def free_orbit_start(loop: ExactLoop, i_max: float, sol=None) -> tuple[np.ndarray, bool, None]:
    """The shooting's start before the describing function's: the free
    branch's periodic orbit at t = 0, moved onto the rail, holding the limit
    ``i_max``, where its current there exceeds it.  ``(start, rail, plan)``
    as :meth:`ExactLoop.start` returns it, with no switch plan, so the
    switch-time solve does not run; the describing function's solution
    ``sol`` is not read."""
    y = loop.free_orbit()
    current = y @ loop.free.i_row
    if not abs(current) > i_max:
        return y, False, None
    y[loop.sigma] = math.copysign(i_max, current)
    return y, True, None


def groups_exact(groups: NondimGroups) -> tuple[Fraction, Fraction]:
    """``(alpha, D / (1 + (R/D)(1 + alpha_m^2)))`` of the groups, the
    reactance parameter and the matched power per unit g0 J / k, in exact
    rational arithmetic."""
    r, d, a, l = (Fraction(v) for v in (groups.r_cal, groups.d_cal, groups.alpha_m,
                                         groups.l_cal))
    x = r * (1 + a * a)
    return (l * x - d * a) / (x + d), d / (1 + x / d)


# The three calls of a design evaluation as they stood while each one
# re-derived |V_th| on every residual evaluation, the matched current from a
# new MatchedBaseline and the plant's Thevenin source: verbatim but for
# their names.


def solve_operating_point_rederived(
    src: TheveninSource,
    i_max: float,
    z_c: complex | None = None,
    n_harmonics: int = 9,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> SaturationSolution:
    """Solve the clipped-current loop for its quasi-linear operating point.

    Closes the pair

        i_temp = v_th / (f z_th + z_c),   f = f_sat,1(i_max / |i_temp|)

    for the fundamental gain f in (0, 1].  The residual f - f_sat,1(f) is
    continuous, negative as f -> 0+ and positive at f = 1 when the limit
    binds.  Unless it is already below ``tol`` at f = 1, [1e-15, 1] brackets
    a root, or [0, 1e-15] where the residual at 1e-15 is not negative: a
    clip that deep needs a gain below 1e-15.  One Illinois regula falsi
    solve finds the root to |residual| < ``tol``; ``iterations`` counts its
    evaluations inside the bracket.

    The default controller is the conjugate-matched one, z_c = z_th*: for a
    hard current limit, clipping the unconstrained-optimal command is the
    optimal steady-state policy.

    Harmonic phasors (cosine convention) follow the odd-waveform expansion:
    harmonic n of the clipped command has amplitude f_sat,n |i_temp| and
    phase n psi + (n - 1) pi/2.  The source drives only the fundamental;
    every higher harmonic sees the short-circuited source impedance at its
    own frequency and therefore dissipates (negative power).

    With a short-circuit controller, z_c = 0, the residual is positive on
    all of (0, 1] when i_max <= pi |v_th| / (4 |z_th|), because
    f_sat,1(I) <= 4 I / pi; there is no operating point, and
    :class:`DomainError` says so after two evaluations.

    Raises :class:`ConvergenceError` (with residual trace) if the loop does
    not close within ``max_iter`` evaluations.
    """
    if not i_max > 0.0:
        raise DomainError(f"current limit must be positive, got {i_max}")
    if n_harmonics < 1 or n_harmonics % 2 == 0:
        raise DomainError(f"n_harmonics must be odd and positive, got {n_harmonics}")
    if z_c is None:
        z_c = src.z_th.conjugate()
    z_c = complex(z_c)
    if not cmath.isfinite(z_c):
        raise DomainError(f"controller impedance must be finite, got {z_c}")

    def residual(f):  # unchecked depth: i_max and |v_th| are positive
        i_temp_mag = abs(src.v_th) / abs(f * src.z_th + z_c)
        return f - _fundamental(i_max / i_temp_mag)

    lo, hi = 1e-15, 1.0
    f = hi
    r_hi = residual(hi)  # zero when the limit does not bind
    residuals: list[float] = []
    if r_hi > 0.0 and r_hi >= tol:
        r_lo = residual(lo)
        if not r_lo < 0.0:
            if z_c == 0.0:  # f_sat,1(I) <= 4 I / pi keeps the residual positive
                bound = math.pi * abs(src.v_th) / (4.0 * abs(src.z_th))
                raise DomainError(
                    f"no operating point: with z_c = 0 the residual f - f_sat,1 is "
                    f"positive on (0, 1], because the current limit {i_max:.6g} is at "
                    f"most pi |v_th| / (4 |z_th|) = {bound:.6g}"
                )
            # a clip so deep that the root is below lo
            lo, hi, r_lo, r_hi = 0.0, lo, residual(0.0), r_lo
        f, residuals = _bracketed_root(residual, lo, hi, r_lo, r_hi, tol, max_iter)

    i_temp = src.v_th / (f * src.z_th + z_c)
    psi = cmath.phase(i_temp)
    i_temp_mag = abs(i_temp)
    factors = saturation_factors(i_max / i_temp_mag, n_harmonics)

    harmonics: list[HarmonicComponent] = []
    p_total = 0.0
    for n, f_n in factors.factors.items():
        current = f_n * i_temp_mag * cmath.exp(1j * (n * psi + (n - 1) * math.pi / 2.0))
        if n == 1:
            v_load = src.v_th - src.z_th * current
        else:
            v_load = -src.z_th_at(n) * current
        power = 0.5 * (v_load * current.conjugate()).real
        p_total += power
        harmonics.append(HarmonicComponent(n=n, current=current, v_load=v_load, power=power))

    return SaturationSolution(
        i_max=i_max,
        i_temp=i_temp,
        psi=psi,
        factors=factors,
        harmonics=harmonics,
        p_total=p_total,
        converged=True,
        iterations=len(residuals),
        residual=residuals[-1] if residuals else r_hi,
    )


def linear_saturation_equivalent_rederived(src: TheveninSource, i_max: float) -> OperatingPoint:
    """Best purely linear controller meeting the same current limit.

    A linear controller keeps the current sinusoidal, so its peak equals its
    fundamental and the limit caps the current ratio at i_max/|I_m|.  The
    returned point sits on the minimum-current optimal contour at exactly
    that ratio, i.e. the highest-power linear design obeying the limit.
    Clipped (nonlinear) control beats this baseline whenever the limit binds
    hard, thanks to the up-to-4/pi fundamental boost.  The power ratio and z
    stay exact to rounding up to the open circuit, where gamma rounds to
    one: both are built from 1 - |gamma| without forming 1 - |gamma|^2.
    """
    baseline = matched_baseline(src)
    if i_max > baseline.i_peak_matched:
        raise DomainError(
            "current limit exceeds the matched current; no reduction is needed"
        )
    return _current_contour_point(i_max / baseline.i_peak_matched, src.alpha)


def constraint_amplitudes_rederived(plant: WecPlant, z: complex) -> OperatingAmplitudes:
    """Position, phase-voltage and apparent-power amplitudes at load z Z_th*.

    The position phasor follows from eliminating the electrical side of the
    chain against the full series loop:

        X = (F_e / s) / (Z_m + (K_t G)^2 / (Z_w + z Z_th*)),  s = i w

    the phase voltage adds the d-axis inductive drop in quadrature,
    V_s^2 = |V|^2 + (L p |Omega| |I|)^2, and the instantaneous electrical
    power swings between s_min and s_max = mean power -/+ apparent power
    0.5 |V| |I|.
    """
    src = thevenin_from_plant(plant)
    z_l = complex(z) * src.z_th.conjugate()
    s = 1j * plant.omega
    c = plant.coupling

    loop = plant.z_wind() + z_l
    if loop == 0.0:
        raise SingularityError(
            f"singular load: winding plus load impedance vanishes at z = {z}"
        )
    total = src.z_th + z_l
    if total == 0.0:
        raise SingularityError(f"singular load: series loop resonates at z = {z}")

    x_amp = (plant.f_e / s) / (plant.z_mech() + c**2 / loop)
    i_l = src.v_th / total
    v_l = z_l * i_l
    omega_gen = c / plant.k_t * s * x_amp  # G * s * X
    d_axis = plant.l_w * plant.p_poles * abs(omega_gen) * abs(i_l)
    v_s = math.hypot(abs(v_l), d_axis)

    p_mean = 0.5 * (v_l * i_l.conjugate()).real
    s_apparent = 0.5 * abs(v_l) * abs(i_l)
    return OperatingAmplitudes(
        x_amp=x_amp,
        v_s_amp=v_s,
        s_max=p_mean + s_apparent,
        s_min=p_mean - s_apparent,
    )
