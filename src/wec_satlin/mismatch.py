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
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
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


def wrap_angle(angle):
    """Wrap an angle (scalar or array) to the interval (-pi, pi]."""
    wrapped = -np.mod(-np.asarray(angle) + np.pi, 2.0 * np.pi) + np.pi
    if np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


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
        i_peak_matched=vmag / (2.0 * r),
    )


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

    Accepts a complex scalar or array.  Magnitudes above one (an active
    load, which would return power to the source) are rejected; a 1e-9
    tolerance admits unit-magnitude values that round-tripped through the
    12-significant-digit CSV emission, clamping their power at zero.
    """
    g2 = np.abs(np.asarray(gamma)) ** 2
    if np.any(g2 > 1.0 + 1e-9):
        raise DomainError(
            f"|gamma| must not exceed 1 (max found {float(np.max(np.sqrt(g2)))})"
        )
    out = np.maximum(1.0 - g2, 0.0)
    if np.ndim(gamma) == 0:
        return float(out)
    return out


def _ratio_num_den(gamma, alpha: float, epsilon: int):
    gamma = np.asarray(gamma)
    g2 = np.abs(gamma) ** 2
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
    exactly there raises :class:`SingularityError`.
    """
    if epsilon not in (+1, -1):
        raise DomainError(f"epsilon must be +1 or -1, got {epsilon}")
    num, den = _ratio_num_den(gamma, alpha, epsilon)
    if np.any(den <= 0.0):
        raise SingularityError(
            f"amplitude ratio denominator vanished at gamma = {gamma}, alpha = {alpha}"
        )
    out = np.sqrt(num / den)
    if np.ndim(gamma) == 0:
        return float(out)
    return out


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

    Accepts scalar or array ``gamma_mag``.
    """
    if epsilon not in (+1, -1):
        raise DomainError(f"epsilon must be +1 or -1, got {epsilon}")
    g = np.minimum(np.asarray(gamma_mag, dtype=float), 1.0)
    if np.any(g < 0.0) or np.any(np.asarray(gamma_mag) > 1.0 + 1e-9):
        raise DomainError(f"gamma magnitude must lie in [0, 1], got {gamma_mag}")
    a2g2 = alpha**2 * g**2
    sigma = np.sqrt((a2g2 + 1.0) ** 2 + alpha**2 * (g**2 + 1.0) ** 2)
    half = 2.0 * np.arctan((a2g2 + 1.0) / (sigma + epsilon * alpha * (1.0 + g**2)))
    cosarg = np.clip(-2.0 * alpha * g / sigma, -1.0, 1.0)
    angle = wrap_angle(half + epsilon * np.arccos(cosarg))
    if np.ndim(gamma_mag) == 0:
        return float(angle)
    return angle


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
    if not (0.0 < target_ratio <= 1.0):
        raise DomainError(f"target ratio must lie in (0, 1], got {target_ratio}")
    r = float(target_ratio)
    g = (1.0 - r) * (1.0 + r) / (
        math.hypot(1.0, r * r * alpha) + r * math.hypot(1.0, alpha)
    )
    return g * np.exp(1j * optimal_angle(g, alpha, epsilon))


def _nondominated(triples: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not dominated by any other row.

    A row dominates another when it has power_ratio at least as high and
    both amplitude ratios at least as low, with at least one strict.

    Maxima filter of Kung, Luccio & Preparata (J. ACM 1975): rows are swept
    by descending power.  A staircase of the (v, i) minima among rows of
    strictly higher power, ascending in v and strictly descending in i,
    answers each dominance query with one bisection; rows of equal power
    are compared among themselves.  A row with a NaN compares false against
    every other, so it is kept and dominates nothing.
    """
    p, v, i = (triples[name] for name in PARETO_DTYPE.names)
    has_nan = (np.isnan(p) | np.isnan(v) | np.isnan(i)).tolist()
    order = np.argsort(-p, kind="stable").tolist()
    p, v, i = p.tolist(), v.tolist(), i.tolist()
    keep = [True] * len(order)
    stair_v: list[float] = []
    stair_i: list[float] = []
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and p[order[end]] == p[order[start]]:
            end += 1
        group = [k for k in order[start:end] if not has_nan[k]]
        start = end
        for k in group:
            pos = bisect.bisect_right(stair_v, v[k])
            keep[k] = not (
                (pos and stair_i[pos - 1] <= i[k])
                or any(
                    v[q] <= v[k] and i[q] <= i[k] and (v[q] < v[k] or i[q] < i[k])
                    for q in group
                )
            )
        for k in group:
            if keep[k]:
                pos = bisect.bisect_left(stair_v, v[k])
                stop = pos
                while stop < len(stair_i) and stair_i[stop] >= i[k]:
                    stop += 1
                stair_v[pos:stop] = [v[k]]
                stair_i[pos:stop] = [i[k]]
    return np.array(keep, dtype=bool)


def _pareto_candidates(alpha: float, n_points: int) -> np.ndarray:
    """Distinct ratio triples on both optimal contours, |gamma| over [0, 1]."""
    if n_points < 2:
        raise DomainError(f"n_points must be at least 2, got {n_points}")
    gs = np.linspace(0.0, 1.0, n_points)
    rows = []
    for eps in (+1, -1):
        phi = optimal_angle(gs, alpha, eps)
        gamma = gs * np.exp(1j * phi)
        num_v, den = _ratio_num_den(gamma, alpha, +1)
        num_i, _ = _ratio_num_den(gamma, alpha, -1)
        with np.errstate(divide="ignore"):
            v = np.sqrt(num_v / den)
            i = np.sqrt(num_i / den)
        p = 1.0 - gs**2
        rows.append(np.rec.fromarrays([p, v, i], dtype=PARETO_DTYPE))
    table = np.concatenate(rows).view(np.recarray)
    return np.unique(table)  # drops the duplicated matched endpoint


def pareto_front(alpha: float, n_points: int) -> np.ndarray:
    """Nondominated (power, voltage, current) ratio triples on the optimal contours.

    Sweeps |gamma| over [0, 1] with ``n_points`` samples, evaluates both the
    minimum-voltage and minimum-current contours, and returns the
    nondominated triples as a structured array sorted by descending power
    ratio.  The matched point (1, 1, 1) is always first.
    """
    table = _pareto_candidates(alpha, n_points)
    table = table[_nondominated(table)]
    order = np.lexsort((table["i_ratio"], table["v_ratio"], -table["power_ratio"]))
    return np.asarray(table[order])


def smith_grid(alpha: float, resolution: int = 101, n_angular: int = 360) -> np.ndarray:
    """Polar grid of power/voltage/current ratios over the unit gamma disk.

    ``resolution`` radial samples cover |gamma| in [0, 1]; ``n_angular``
    angles cover [-pi, pi).  Each record carries the reflection coefficient,
    the three ratios, and flags marking where the voltage or current ratio
    exceeds one (the region that is worse than matched on both counts).

    At gamma = -i/alpha (reachable on the grid for |alpha| >= 1) the
    amplitude ratios diverge; those cells carry ``inf`` and both their flags
    follow the comparison with one as usual.  Rows are ordered
    radius-major, angle-minor, deterministically.
    """
    if resolution < 2:
        raise DomainError(f"resolution must be at least 2, got {resolution}")
    if n_angular < 2:
        raise DomainError(f"n_angular must be at least 2, got {n_angular}")
    g = np.linspace(0.0, 1.0, resolution)
    theta = -np.pi + 2.0 * np.pi * np.arange(n_angular) / n_angular
    gg, tt = np.meshgrid(g, theta, indexing="ij")
    gamma = (gg * np.exp(1j * tt)).ravel()

    num_v, den = _ratio_num_den(gamma, alpha, +1)
    num_i, _ = _ratio_num_den(gamma, alpha, -1)
    with np.errstate(divide="ignore"):
        v = np.sqrt(num_v / den)
        i = np.sqrt(num_i / den)

    out = np.empty(gamma.size, dtype=SMITH_GRID_DTYPE)
    out["gamma"] = gamma
    out["power_ratio"] = 1.0 - np.abs(gamma) ** 2
    out["v_ratio"] = v
    out["i_ratio"] = i
    out["v_exceeds_one"] = v > 1.0
    out["i_exceeds_one"] = i > 1.0
    return out
