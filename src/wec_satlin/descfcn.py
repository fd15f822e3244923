"""Quasi-linear treatment of generator current saturation.

A current-limited controller clips its commanded current at +/- i_max.  For
a sinusoidal command the clipped output is a saturated sine, and each odd
harmonic of that waveform is a fixed fraction of the command amplitude: the
saturation factor ``f_sat(n, I)`` with clipping depth ``I = i_max / |command|``.
Treating the clipper as the gain ``f_sat,1`` at the fundamental (and
``f_sat,n`` at harmonic n) turns the nonlinear loop back into circuit
algebra, at the price of a scalar transcendental equation for the operating
point, solved here by Illinois regula falsi on its bracket (0, 1].

The payoff: a clipped waveform packs up to 4/pi more fundamental current
than any sinusoid of the same peak, so nonlinear clipping beats the best
linear controller under a hard current limit.  ``linear_saturation_equivalent``
quantifies that linear baseline for comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .mismatch import (
    OperatingPoint,
    TheveninSource,
    gamma_for_amplitude_target,
    matched_baseline,
    operating_point,
)

__all__ = [
    "SaturationFactors",
    "HarmonicComponent",
    "SaturationSolution",
    "saturation_factor",
    "saturation_factors",
    "solve_operating_point",
    "classic_sidf_power",
    "equivalent_z",
    "linear_saturation_equivalent",
    "reconstruct_current",
]

SQUARE_WAVE_GAIN = 4.0 / math.pi  # fundamental of a square wave over its peak


@dataclass(frozen=True)
class SaturationFactors:
    """Harmonic content of a saturated sine, keyed by odd harmonic index.

    ``i_script`` is the clipping depth i_max/|command|; values >= 1 mean the
    clipper never engages.  ``factors[n]`` is the signed ratio of the nth
    harmonic amplitude to the command amplitude.
    """

    i_script: float
    factors: dict[int, float]


@dataclass(frozen=True)
class HarmonicComponent:
    """One harmonic of the converged loop: current and load-voltage phasors
    (cosine convention) and the average power it delivers to the load."""

    n: int
    current: complex
    v_load: complex
    power: float


@dataclass(frozen=True)
class SaturationSolution:
    """Converged quasi-linear operating point of the clipped-current loop."""

    i_max: float
    i_temp: complex  # pre-clipper controller output phasor
    psi: float  # phase of i_temp
    factors: SaturationFactors
    harmonics: list[HarmonicComponent]
    p_total: float  # W, summed over harmonics
    converged: bool
    iterations: int
    residual: float

    @property
    def fundamental(self) -> HarmonicComponent:
        return self.harmonics[0]


def saturation_factor(n: int, i_script: float) -> float:
    """Harmonic-n amplitude of a clipped unit sine, relative to the command.

    For clipping depth I = i_max/|command| = cos(phi) and s = sin(n pi/2):

        n = 1, I >= 1:   1
        n = 1, I < 1:    (2/pi) (I sqrt(1 - I^2) + asin(I))
        n odd >= 3, I<1: (4/pi) s (n sin(phi) cos(n phi) - cos(phi) sin(n phi))
                               / (n (n^2 - 1))
        even n, or n != 1 with I >= 1:  0

    phi = 2 asin(sqrt((1 - I)/2)) is exact to rounding because 1 - I is.
    Near clipping onset the bracket above cancels to order phi^3, so for
    (n + 1) phi < 1/4 it is summed as its Taylor series instead, whose
    phi^1 terms cancel analytically:

        (2/pi) (s/n) sum_{k>=1} (-1)^k ((n+1)^2k - (n-1)^2k) phi^(2k+1) / (2k+1)!

    Six terms reach rounding there.  The fundamental is continuous and rises
    from (4/pi) I (square-wave limit) to 1 at clipping onset; higher
    harmonics are signed and decay at least as 1/n^2.
    """
    if n < 1 or n != int(n):
        raise DomainError(f"harmonic index must be a positive integer, got {n}")
    if i_script <= 0.0:
        raise DomainError(f"clipping depth must be positive, got {i_script}")
    n = int(n)
    if n % 2 == 0:
        return 0.0
    if i_script >= 1.0:
        return 1.0 if n == 1 else 0.0
    if n == 1:
        root = math.sqrt(1.0 - i_script**2)
        return (2.0 / math.pi) * (i_script * root + math.asin(i_script))
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


def saturation_factors(i_script: float, n_max: int = 9) -> SaturationFactors:
    """Saturation factors for every odd harmonic up to ``n_max``."""
    return SaturationFactors(
        i_script=i_script,
        factors={n: saturation_factor(n, i_script) for n in range(1, n_max + 1, 2)},
    )


def equivalent_z(n: int, z_c: complex, f_sat_n: float, z_th: complex) -> complex:
    """Normalized load impedance seen at harmonic ``n`` through the clipper.

    Approximating the clipper by the gain f_sat,n turns the controller
    impedance into Z_c / f_sat,n, i.e. z_n = Z_c / (f_sat,n Z_th*).  A zero
    factor means no current flows at this harmonic; the open-circuit marker
    (complex infinity) is returned, which maps to gamma = 1.
    """
    if f_sat_n < 0.0:
        f_sat_n = abs(f_sat_n)  # sign lives in the harmonic phase
    if f_sat_n == 0.0:
        return complex(math.inf, 0.0)
    return complex(z_c) / (f_sat_n * complex(z_th).conjugate())


def _bracketed_root(func, lo, hi, f_lo, f_hi, tol, max_iter):
    """Root of a continuous ``func`` whose values ``f_lo`` at ``lo`` and
    ``f_hi`` at ``hi`` have opposite signs.

    Illinois regula falsi (Dowell & Jarratt, BIT 1971): each point is where
    the chord between the bracket ends crosses zero, and an end that is kept
    two steps running has its value halved, so both ends close in.  A point
    that rounding puts on or outside an end is replaced by the midpoint.

    Stops at the first point where |func| < ``tol`` (or is exactly zero).
    Returns that point and |func| at every point evaluated here; raises
    :class:`ConvergenceError` with that trace after ``max_iter`` points.
    """
    residuals: list[float] = []
    side = 0  # which end the last point replaced: -1 lo, +1 hi
    while len(residuals) < max_iter:
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = func(x)
        residuals.append(abs(fx))
        if fx == 0.0 or abs(fx) < tol:
            return x, residuals
        if (fx < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, fx
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = x, fx
            if side > 0:
                f_lo *= 0.5
            side = +1
    last = residuals[-1] if residuals else math.nan
    raise ConvergenceError(
        f"bracketed root search did not converge in {max_iter} iterations "
        f"(last residual {last:.3e})",
        residuals=residuals,
    )


def solve_operating_point(
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
    a root, which one Illinois regula falsi solve finds to
    |residual| < ``tol``; ``iterations`` counts its evaluations inside the
    bracket.

    The default controller is the conjugate-matched one, z_c = z_th*: for a
    hard current limit, clipping the unconstrained-optimal command is the
    optimal steady-state policy.

    Harmonic phasors (cosine convention) follow the odd-waveform expansion:
    harmonic n of the clipped command has amplitude f_sat,n |i_temp| and
    phase n psi + (n - 1) pi/2.  The source drives only the fundamental;
    every higher harmonic sees the short-circuited source impedance at its
    own frequency and therefore dissipates (negative power).

    Raises :class:`ConvergenceError` (with residual trace) if the loop does
    not close within ``max_iter`` evaluations.
    """
    if i_max <= 0.0:
        raise DomainError(f"current limit must be positive, got {i_max}")
    if n_harmonics < 1 or n_harmonics % 2 == 0:
        raise DomainError(f"n_harmonics must be odd and positive, got {n_harmonics}")
    if z_c is None:
        z_c = src.z_th.conjugate()
    z_c = complex(z_c)

    def residual(f):
        i_temp_mag = abs(src.v_th) / abs(f * src.z_th + z_c)
        return f - saturation_factor(1, i_max / i_temp_mag)

    lo, hi = 1e-15, 1.0
    f = hi
    r_hi = residual(hi)  # zero when the limit does not bind
    residuals: list[float] = []
    if r_hi > 0.0 and r_hi >= tol:
        f, residuals = _bracketed_root(
            residual, lo, hi, residual(lo), r_hi, tol, max_iter
        )

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


def classic_sidf_power(solution: SaturationSolution) -> float:
    """Average power keeping only the fundamental of the clipped current.

    This is the classic single-harmonic describing-function estimate.  Since
    every higher harmonic dissipates, it upper-bounds the full sum
    ``solution.p_total``.
    """
    if not solution.converged:
        raise DomainError("solution did not converge; no power estimate available")
    return solution.fundamental.power


def linear_saturation_equivalent(src: TheveninSource, i_max: float) -> OperatingPoint:
    """Best purely linear controller meeting the same current limit.

    A linear controller keeps the current sinusoidal, so its peak equals its
    fundamental and the limit caps the current ratio at i_max/|I_m|.  The
    returned point sits on the minimum-current optimal contour at exactly
    that ratio, i.e. the highest-power linear design obeying the limit.
    Clipped (nonlinear) control beats this baseline whenever the limit binds
    hard, thanks to the up-to-4/pi fundamental boost.
    """
    baseline = matched_baseline(src)
    if i_max > baseline.i_peak_matched:
        raise DomainError(
            "current limit exceeds the matched current; no reduction is needed"
        )
    target = i_max / baseline.i_peak_matched
    gamma = gamma_for_amplitude_target(target, src.alpha, epsilon=-1)
    return operating_point(gamma, src.alpha, epsilon=-1)


def reconstruct_current(solution: SaturationSolution, omega: float, t) -> np.ndarray:
    """Time-domain current rebuilt from the harmonic phasors at times ``t``.

    Truncated at the solution's harmonic count, so the peak may exceed the
    clip level by a small Gibbs overshoot (about 2 percent at nine
    harmonics).
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for h in solution.harmonics:
        out += (h.current * np.exp(1j * h.n * omega * t)).real
    return out
