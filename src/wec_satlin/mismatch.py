"""Impedance-mismatch analysis for a Thevenin-equivalent AC source.

Everything here is expressed in terms of the normalized load ``z = Z_L / Z_th*``
and its reflection coefficient ``gamma = (z - 1)/(z + 1)``, so a single chart
covers every linear source once the reactance parameter
``alpha = Im(Z_th)/Re(Z_th)`` is fixed.

Conventions
-----------
All phasor amplitudes are *peak* values, not RMS.  Average power therefore
carries a factor 1/2 (``P = 0.5 Re(V I*)``) and the matched power is
``|V_th|^2 / (8 Re(Z_th))``.  Mixing peak and RMS conventions is the classic
mistake with these formulas; every function in this package assumes peak.

All angles are reported wrapped to (-pi, pi].

A scalar input (Python or numpy scalar, or 0-d array) is evaluated with
``math``, returns a Python number equal to the array result up to rounding,
and raises :class:`DomainError` on NaN; NaN array entries give NaN.

The optimal-angle closed form squares alpha^2 g^2 + 1, which overflows once
|alpha| reaches ``ALPHA_LIMIT`` = (largest float)^(1/4), about 1.158e77.
Every function of alpha raises :class:`DomainError` there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from numbers import Number
from typing import Callable

import numpy as np

from .errors import DomainError, SingularityError

__all__ = [
    "TheveninSource",
    "MatchedBaseline",
    "OperatingPoint",
    "matched_baseline",
    "gamma_from_z",
    "z_from_gamma",
    "power_ratio",
    "amplitude_ratio",
    "optimal_angle",
    "operating_point",
    "gamma_for_amplitude_target",
    "pareto_front",
    "smith_grid",
    "wrap_angle",
]

SMITH_GRID_DTYPE = np.dtype(
    [
        ("gamma", np.complex128),
        ("power_ratio", np.float64),
        ("v_ratio", np.float64),
        ("i_ratio", np.float64),
        ("v_exceeds_one", np.bool_),
        ("i_exceeds_one", np.bool_),
    ]
)

PARETO_DTYPE = np.dtype(
    [
        ("power_ratio", np.float64),
        ("v_ratio", np.float64),
        ("i_ratio", np.float64),
    ]
)


ALPHA_LIMIT = float(np.finfo(float).max) ** 0.25


def _require_alpha(alpha: float) -> None:
    """Raise :class:`DomainError` where |alpha| reaches ``ALPHA_LIMIT``; NaN
    passes, for each caller's own NaN rule."""
    if abs(alpha) >= ALPHA_LIMIT:
        raise DomainError(
            f"|alpha| must be below {ALPHA_LIMIT:.4g}, where alpha^4 overflows, got {alpha}"
        )


def _is_scalar(x) -> bool:
    # the concrete types first: the Number ABC's check is the slow one
    return isinstance(x, (float, complex, int)) or isinstance(x, Number) or np.ndim(x) == 0


def wrap_angle(angle):
    """Wrap an angle (scalar or array, see the module notes) to (-pi, pi]."""
    if _is_scalar(angle):
        return -((-float(angle) + math.pi) % (2.0 * math.pi)) + math.pi
    return -np.mod(-np.asarray(angle) + np.pi, 2.0 * np.pi) + np.pi


@dataclass(frozen=True)
class TheveninSource:
    """AC source voltage phasor and series impedance at one frequency.

    Parameters
    ----------
    v_th : complex
        Source voltage phasor, volts, peak amplitude.
    z_th : complex
        Source impedance, ohms.  Must have positive real part.
    harmonic_impedance : callable, optional
        Maps a harmonic index ``n`` (1 = source frequency) to the source
        impedance evaluated at ``n`` times the source frequency.  Used when
        the source stands in for physical dynamics whose impedance varies
        with frequency.  When absent, ``z_th_at`` falls back to the constant
        ``z_th`` at every harmonic.
    """

    v_th: complex
    z_th: complex
    harmonic_impedance: Callable[[int], complex] | None = field(
        default=None, compare=False
    )

    def __post_init__(self):
        if not (self.z_th.real > 0.0):
            raise DomainError(
                f"source impedance must be dissipative: Re(z_th) = {self.z_th.real}"
            )
        if not (abs(self.v_th) > 0.0):
            raise DomainError("source voltage amplitude must be positive")

    @property
    def alpha(self) -> float:
        """Reactance parameter Im(Z_th)/Re(Z_th)."""
        return self.z_th.imag / self.z_th.real

    def z_th_at(self, n: int) -> complex:
        """Source impedance at harmonic ``n`` of the source frequency."""
        if n == 1 or self.harmonic_impedance is None:
            return self.z_th
        return self.harmonic_impedance(n)


@dataclass(frozen=True)
class MatchedBaseline:
    """Load power and peak amplitudes under conjugate matching, Z_L = Z_th*."""

    p_matched: float  # average power, W
    v_peak_matched: float  # load voltage amplitude, V
    i_peak_matched: float  # load current amplitude, A


@dataclass(frozen=True)
class OperatingPoint:
    """A normalized load choice with its power and amplitude ratios.

    ``epsilon`` records which optimal contour produced the point (+1 for the
    minimum-voltage family, -1 for minimum-current), when applicable.
    """

    z: complex
    gamma: complex
    power_ratio: float
    v_ratio: float
    i_ratio: float
    epsilon: int | None = None


def matched_baseline(src: TheveninSource) -> MatchedBaseline:
    """Power and peak amplitudes at the conjugate-matched load.

    Returns the triple (average power, peak load voltage, peak load current)
    for ``Z_L = Z_th*``:

        P = |V_th|^2 / (8 Re Z_th)
        V = |V_th| |Z_th| / (2 Re Z_th)
        I = |V_th| / (2 Re Z_th)
    """
    r = src.z_th.real
    vmag = abs(src.v_th)
    return MatchedBaseline(
        p_matched=vmag**2 / (8.0 * r),
        v_peak_matched=vmag * abs(src.z_th) / (2.0 * r),
        i_peak_matched=_matched_current(src),
    )


def _matched_current(src: TheveninSource) -> float:
    """Peak load current at the conjugate-matched load, |V_th| / (2 Re Z_th)."""
    return abs(src.v_th) / (2.0 * src.z_th.real)


def gamma_from_z(z: complex) -> complex:
    """Reflection coefficient of a normalized load, gamma = (z - 1)/(z + 1).

    Non-finite ``z`` is treated as an open circuit and maps to gamma = 1
    (the marker value produced for harmonics that carry no current).
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return 1.0 + 0.0j
    if z == -1.0:
        raise SingularityError("gamma is singular at z = -1")
    return (z - 1.0) / (z + 1.0)


def z_from_gamma(gamma: complex) -> complex:
    """Inverse of :func:`gamma_from_z`: z = (1 + gamma)/(1 - gamma)."""
    gamma = complex(gamma)
    if gamma == 1.0:
        raise SingularityError("z is singular at gamma = 1 (open circuit)")
    return (1.0 + gamma) / (1.0 - gamma)


def power_ratio(gamma) -> float:
    """Average load power as a fraction of the matched power: 1 - |gamma|^2.

    Accepts a complex scalar (see the module notes) or array.  Magnitudes above
    one (an active load, which would return power to the source) are rejected;
    a 1e-9 tolerance on re^2 + im^2, shared with :func:`optimal_angle`, admits
    unit-magnitude values that round-tripped through the 12-significant-digit
    CSV emission, clamping their power at zero.
    """
    if _is_scalar(gamma):
        z = complex(gamma)
        if not z.real * z.real + z.imag * z.imag <= 1.0 + 1e-9:
            raise DomainError(f"|gamma| must not exceed 1, got {gamma}")
        return max(1.0 - abs(z) ** 2, 0.0)
    g2 = np.real(gamma) ** 2 + np.imag(gamma) ** 2  # numpy squares as x * x
    if np.any(g2 > 1.0 + 1e-9):
        raise DomainError(
            f"|gamma| must not exceed 1 (max found {float(np.sqrt(np.max(g2)))})"
        )
    return np.maximum(1.0 - np.abs(gamma) ** 2, 0.0)


def _ratio_num_den(gamma, alpha: float, epsilon: int):
    _require_alpha(alpha)
    g2 = abs(gamma) ** 2
    num = g2 + 2.0 * epsilon * gamma.real + 1.0
    den = alpha**2 * g2 + 2.0 * alpha * gamma.imag + 1.0
    return num, den


def amplitude_ratio(gamma, alpha: float, epsilon: int) -> float:
    """Peak load voltage or current relative to its matched value.

    ``epsilon = +1`` selects the voltage ratio |V_L|/|V_L^m| and
    ``epsilon = -1`` the current ratio |I_L|/|I_L^m|:

        sqrt( (|g|^2 + 2 eps Re g + 1) / (a^2 |g|^2 + 2 a Im g + 1) )

    The denominator vanishes at gamma = -i/alpha (series resonance of the
    source reactance against the load), where the ratio diverges; evaluating
    exactly there raises :class:`SingularityError`.  Scalar ``gamma``: see the
    module notes.
    """
    if epsilon not in (+1, -1):
        raise DomainError(f"epsilon must be +1 or -1, got {epsilon}")
    if scalar := _is_scalar(gamma):
        num, den = _ratio_num_den(complex(gamma), alpha, epsilon)
        if math.isnan(num + den):
            raise DomainError(f"NaN in gamma = {gamma} or alpha = {alpha}")
        singular = den <= 0.0
    else:
        num, den = _ratio_num_den(np.asarray(gamma), alpha, epsilon)
        singular = np.any(den <= 0.0)
    if singular:
        raise SingularityError(
            f"amplitude ratio denominator vanished at gamma = {gamma}, alpha = {alpha}"
        )
    return math.sqrt(num / den) if scalar else np.sqrt(num / den)


def optimal_angle(gamma_mag, alpha: float, epsilon: int):
    """Load angle minimizing the voltage (eps = +1) or current (eps = -1) ratio.

    For fixed |gamma| the amplitude ratio is stationary where

        eps (a^2 g^2 + 1) sin(phi) + a (g^2 + 1) cos(phi) = -2 a g eps

    and the minimizing root has the closed form

        phi = 2 atan[(a^2 g^2 + 1) / (sigma + eps a (1 + g^2))]
              + eps acos(-2 a g / sigma),
        sigma = sqrt((a^2 g^2 + 1)^2 + a^2 (g^2 + 1)^2)

    using principal branches throughout.  The result is wrapped to
    (-pi, pi].  At g = 0 the ratio is angle-independent and the formula's
    limit (pi for eps = +1, 0 for eps = -1 when alpha = 0) is returned.
    ``gamma_mag`` may exceed one by the tolerance of :func:`power_ratio`, which
    applies to g^2, and is then clamped to one.

    Accepts scalar or array ``gamma_mag`` (see the module notes on scalars).
    """
    if epsilon not in (+1, -1):
        raise DomainError(f"epsilon must be +1 or -1, got {epsilon}")
    _require_alpha(alpha)
    if _is_scalar(gamma_mag):
        g = float(gamma_mag)
        if not (0.0 <= g and g * g <= 1.0 + 1e-9) or math.isnan(alpha):
            raise DomainError(f"need |gamma| in [0, 1] and alpha not NaN: {g}, {alpha}")
        g = min(g, 1.0)
        # x * x as numpy squares; sigma + eps a q cancels, to 0 at g = 0 when |a| > 1e8
        p, q = alpha**2 * (g * g) + 1.0, g * g + 1.0  # a^2 g^2 + 1, g^2 + 1
        sigma = math.sqrt(p * p + alpha**2 * (q * q))
        half = 2.0 * math.atan2(p, sigma + epsilon * alpha * q)
        cosarg = min(max(-2.0 * alpha * g / sigma, -1.0), 1.0)
        return wrap_angle(half + epsilon * math.acos(cosarg))
    g = np.asarray(gamma_mag, dtype=float)
    if np.any(g < 0.0) or np.any(g * g > 1.0 + 1e-9):
        raise DomainError(f"gamma magnitude must lie in [0, 1], got {gamma_mag}")
    g = np.minimum(g, 1.0)
    a2g2 = alpha**2 * g**2
    sigma = np.sqrt((a2g2 + 1.0) ** 2 + alpha**2 * (g**2 + 1.0) ** 2)
    half = 2.0 * np.arctan2(a2g2 + 1.0, sigma + epsilon * alpha * (1.0 + g**2))
    cosarg = np.clip(-2.0 * alpha * g / sigma, -1.0, 1.0)
    return wrap_angle(half + epsilon * np.arccos(cosarg))


def operating_point(
    gamma: complex, alpha: float, epsilon: int | None = None
) -> OperatingPoint:
    """Assemble the full operating-point record for a reflection coefficient."""
    gamma = complex(gamma)
    return OperatingPoint(
        z=z_from_gamma(gamma),
        gamma=gamma,
        power_ratio=power_ratio(gamma),
        v_ratio=amplitude_ratio(gamma, alpha, +1),
        i_ratio=amplitude_ratio(gamma, alpha, -1),
        epsilon=epsilon,
    )


def gamma_for_amplitude_target(
    target_ratio: float, alpha: float, epsilon: int, tol: float = 1e-10
) -> complex:
    """Reflection coefficient on the optimal contour meeting an amplitude target.

    Returns the point of smallest |gamma|, i.e. the largest power ratio, on
    the epsilon-optimal contour whose voltage (eps = +1) or current
    (eps = -1) ratio equals ``target_ratio`` = r.  With gamma = g e^(i phi)
    the ratio is sqrt(num/den), num = g^2 + 2 eps g cos(phi) + 1 and
    den = a^2 g^2 + 2 a g sin(phi) + 1, and on the contour it is the minimum
    over phi.  So the contour meets r at g exactly where

        min_phi (num - r^2 den) = (1 - r^2 a^2) g^2 - 2 sqrt(1 + r^4 a^2) g
                                  + (1 - r^2)

    vanishes.  That quadratic does not involve eps, and its discriminant is
    r^2 (1 + a^2), so its smallest root in [0, 1] is

        g* = (1 - r^2) / (sqrt(1 + r^4 a^2) + r sqrt(1 + a^2)),

    with 1 - r^2 formed as (1 - r)(1 + r).  Every term is positive, so
    nothing cancels: g* is exact to rounding up to the open circuit, and
    r = 1 gives g* = 0.  The returned point is
    g* exp(i optimal_angle(g*, alpha, epsilon)).

    Every r in (0, 1] is met, so :class:`InfeasibleError` is never raised.
    ``tol`` is accepted for compatibility and ignored: the result is exact
    to rounding.
    """
    g, _ = _contour_radius(target_ratio, alpha)
    return g * cmath.exp(1j * optimal_angle(g, alpha, epsilon))


def _contour_radius(target_ratio: float, alpha: float) -> tuple[float, float]:
    """g* of :func:`gamma_for_amplitude_target` and 1 - g*, each a ratio of
    positive terms.  With D = sqrt(1 + r^4 a^2) + r sqrt(1 + a^2), the
    denominator of g*,

        1 - g* = [r sqrt(1 + a^2) + r^2 + r^4 a^2 / (sqrt(1 + r^4 a^2) + 1)] / D,

    so 1 - g* keeps its relative accuracy as r -> 0, where g* rounds to one
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 1);
    the bracket is one correctly rounded sum.
    """
    if not (0.0 < target_ratio <= 1.0):
        raise DomainError(f"target ratio must lie in (0, 1], got {target_ratio}")
    _require_alpha(alpha)
    r = float(target_ratio)
    root, rise = math.hypot(1.0, r * r * alpha), r * math.hypot(1.0, alpha)
    den = root + rise
    gap = math.fsum((rise, r * r, (r * r * alpha) ** 2 / (root + 1.0))) / den
    return (1.0 - r) * (1.0 + r) / den, gap


def _current_contour_point(target_ratio: float, alpha: float) -> OperatingPoint:
    """:func:`operating_point` of the minimum-current contour's point at
    current ratio ``target_ratio`` (:func:`gamma_for_amplitude_target` with
    epsilon = -1), exact to rounding up to the open circuit.

    1 - |gamma|^2 and 1 - gamma cancel as gamma -> 1, so both are built from
    g*, 1 - g* (:func:`_contour_radius`) and phi instead: the power ratio is
    (1 - g*)(1 + g*), with 1 + g* taken as 2 - (1 - g*), and
    z = (1 + gamma) / (1 - gamma) with

        1 - gamma = (1 - g*) + 2 g* sin^2(phi / 2) - i g* sin(phi).

    The current ratio is ``target_ratio`` by construction.
    """
    g, gap = _contour_radius(target_ratio, alpha)
    phi = optimal_angle(g, alpha, -1)
    gamma = g * cmath.exp(1j * phi)
    half = math.sin(0.5 * phi)
    return OperatingPoint(
        z=(1.0 + gamma) / complex(gap + 2.0 * g * half * half, -g * math.sin(phi)),
        gamma=gamma,
        power_ratio=gap * (2.0 - gap),
        v_ratio=amplitude_ratio(gamma, alpha, +1),
        i_ratio=float(target_ratio),
        epsilon=-1,
    )


def _ratios(gamma: np.ndarray, alpha: float):
    """Voltage and current ratio arrays at ``gamma``; ``inf`` where a
    denominator is zero, as at gamma = -i/alpha."""
    num_v, den = _ratio_num_den(gamma, alpha, +1)
    num_i, _ = _ratio_num_den(gamma, alpha, -1)
    with np.errstate(divide="ignore"):
        return np.sqrt(num_v / den), np.sqrt(num_i / den)


def pareto_front(alpha: float, n_points: int) -> np.ndarray:
    """(power, voltage, current) ratio triples on the two optimal contours.

    Samples both the minimum-voltage and the minimum-current contour at
    ``n_points`` radii |gamma| over [0, 1], drops the matched point that both
    share (rows equal in all three ratios count once), and returns the
    2 ``n_points`` - 1 triples as a structured array sorted by descending
    power ratio, then ascending voltage and current ratio.  The matched point
    (1, 1, 1) is always first.

    The two contours are the whole Pareto front, and no sample is dominated:

    - v = |1 + gamma| / |1 - i alpha gamma| and
      i = |1 - gamma| / |1 - i alpha gamma| have reciprocals that are analytic
      and nonconstant on |gamma| < 1.
    - So by the maximum-modulus principle (Ahlfors, Complex Analysis, ch. 4)
      each ratio's minimum over |gamma| <= g is reached only on the circle
      |gamma| = g, at a single point, and it falls strictly as g grows.
    - So any point of equal or higher power, |gamma| <= g, has a strictly
      larger value of that minimized ratio than the contour point, unless it
      is the contour point itself.
    """
    if n_points < 2:
        raise DomainError(f"n_points must be at least 2, got {n_points}")
    gs = np.linspace(0.0, 1.0, n_points)
    table = np.empty(2 * n_points, dtype=PARETO_DTYPE)
    for rows, eps in zip((table[:n_points], table[n_points:]), (+1, -1)):
        gamma = gs * np.exp(1j * optimal_angle(gs, alpha, eps))
        rows["v_ratio"], rows["i_ratio"] = _ratios(gamma, alpha)
        rows["power_ratio"] = 1.0 - gs**2
    table = np.unique(table)  # drops the duplicated matched endpoint
    return table[np.lexsort((table["i_ratio"], table["v_ratio"], -table["power_ratio"]))]


def smith_grid(alpha: float, resolution: int = 101, n_angular: int = 360) -> np.ndarray:
    """Polar grid of power/voltage/current ratios over the unit gamma disk.

    ``resolution`` radial samples cover |gamma| in [0, 1]; ``n_angular``
    angles cover [-pi, pi).  Each record carries the reflection coefficient,
    the three ratios, and flags marking where the voltage or current ratio
    exceeds one (the region that is worse than matched on both counts).

    At gamma = -i/alpha (reachable on the grid for |alpha| >= 1) the
    amplitude ratios diverge.  A cell within rounding of that point carries
    ``inf`` or, where cancellation leaves the denominator a little above
    zero, a large finite value: the alpha = 5 golden grid holds 68437881.4142
    at the rounded gamma = -0.2i.  Both flags follow the comparison with one
    as usual.  At gamma = -epsilon the voltage (epsilon = +1) or current
    (epsilon = -1) ratio vanishes, and a cell within rounding of it carries 0
    or a small value.  Rows are ordered radius-major, angle-minor,
    deterministically.  ``gamma`` and ``power_ratio`` do not depend on
    ``alpha``: they are the same bit for bit, signed zeros included, for
    every alpha at a given resolution.
    """
    if resolution < 2:
        raise DomainError(f"resolution must be at least 2, got {resolution}")
    if n_angular < 2:
        raise DomainError(f"n_angular must be at least 2, got {n_angular}")
    g = np.linspace(0.0, 1.0, resolution)
    theta = -np.pi + 2.0 * np.pi * np.arange(n_angular) / n_angular
    gg, tt = np.meshgrid(g, theta, indexing="ij")
    gamma = (gg * np.exp(1j * tt)).ravel()

    v, i = _ratios(gamma, alpha)
    out = np.empty(gamma.size, dtype=SMITH_GRID_DTYPE)
    out["gamma"] = gamma
    out["power_ratio"] = 1.0 - np.abs(gamma) ** 2
    out["v_ratio"] = v
    out["i_ratio"] = i
    out["v_exceeds_one"] = v > 1.0
    out["i_exceeds_one"] = i > 1.0
    return out
