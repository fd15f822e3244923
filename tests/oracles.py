"""Independent reference computations the library is checked against.

Everything here deliberately avoids the code paths under test: direct phasor
circuit solutions, quadrature of clipped waveforms, brute-force sweeps, and
cell-by-cell loops for the vectorized CSV writers, contour tracer and Pareto
filter.
"""

import numpy as np
from scipy.integrate import quad


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
