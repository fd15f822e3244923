"""Single-body wave energy converter model and its Thevenin reduction.

The plant is a one-degree-of-freedom floating body driven by a regular wave,
coupled through a gear ratio and drivetrain to a surface-permanent-magnet
synchronous generator.  Working in the generator's q-axis voltage/current
pair, the whole electromechanical chain collapses to an AC Thevenin source,
after which every result from :mod:`wec_satlin.mismatch` applies directly.

Units are strict SI with angular frequency in rad/s.  The gear ratio carries
whatever unit conversion makes torque times speed come out in watts, so the
same record covers linear and rotational power take-offs.  The machine pole
count enters the phase-voltage estimate literally as ``L * p * Omega * I``;
whether a datasheet value is poles or pole pairs is left to the caller.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DomainError, SingularityError
from .mismatch import TheveninSource, matched_baseline

__all__ = [
    "WecPlant",
    "NondimGroups",
    "OperatingAmplitudes",
    "haskind_force_amplitude",
    "haskind_plant",
    "thevenin_from_plant",
    "nondim_from_plant",
    "matched_power",
    "alpha_from_nondim",
    "optimal_alpha_m_for_limits",
    "constraint_amplitudes",
    "rescale_to_haskind",
    "matched_power_from_plant",
]


def _require_finite(record) -> None:
    """Reject a NaN or infinite value in any field of a parameter dataclass,
    and store a numpy scalar field as its Python value, so that the record
    computes, compares and hashes as one built from Python numbers.  The
    names come from the class's field table, built once with the class."""
    for name in type(record).__dataclass_fields__:
        value = getattr(record, name)
        if isinstance(value, np.generic):
            value = value.item()
            object.__setattr__(record, name, value)
        if not cmath.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class WecPlant:
    """Physical parameters of the body / drivetrain / generator chain.

    Hydrodynamic coefficients and the excitation force are single-frequency
    values (regular-wave assumption); no frequency dependence is stored.

    Fields
    ------
    m, a_added : float
        Body mass and added mass, kg.
    b_h : float
        Hydrodynamic (radiation) damping, N s/m.
    k_h : float
        Hydrostatic stiffness, N/m.
    g_ratio : float
        Effective gear ratio between body velocity and generator speed.
    b_d, k_d : float
        Drivetrain damping and stiffness on the generator side (also absorb
        lumped mooring/drag terms).
    k_t : float
        Generator torque constant, N m/A.
    r_w, l_w : float
        Winding resistance and inductance.
    p_poles : int
        Machine pole count, used literally in the phase-voltage estimate.
    omega : float
        Wave angular frequency, rad/s.
    f_e : complex
        Wave excitation force phasor, N peak.
    j_density : float
        Incident wave energy flux per crest width, W/m.
    k_wavenumber : float
        Wavenumber, 1/m.
    g0 : int
        Mode gain: 1 for heave, 2 for surge/pitch.

    The impedances and the Thevenin voltage are pure functions of these
    frozen fields, so each plant memoizes Z_m(n w) and Z_th(n w) per
    harmonic, and V_th, on first use; :func:`~.simulate.simulate` keeps its
    latest referee loop there too.  The memo is not a field: ``==``,
    ``hash``, ``repr`` and ``dataclasses.replace`` ignore it, pickling and
    copying drop it, and every plant starts with its own.  The loop holds
    no reference back to the plant, so the memo makes no reference cycle,
    and dropping a plant frees it.
    """

    m: float
    a_added: float
    b_h: float
    k_h: float
    k_t: float
    omega: float
    f_e: complex
    g_ratio: float = 1.0
    b_d: float = 0.0
    k_d: float = 0.0
    r_w: float = 0.0
    l_w: float = 0.0
    p_poles: int = 2
    j_density: float = 0.0
    k_wavenumber: float = 0.0
    g0: int = 1

    def __post_init__(self):
        _require_finite(self)
        if self.m + self.a_added <= 0.0:
            raise DomainError("total inertia m + a_added must be positive")
        if self.b_h <= 0.0:
            raise DomainError("hydrodynamic damping b_h must be positive")
        if self.k_h < 0.0:
            raise DomainError("hydrostatic stiffness k_h must be non-negative")
        if self.k_t <= 0.0:
            raise DomainError("torque constant k_t must be positive")
        if self.r_w < 0.0 or self.l_w < 0.0:
            raise DomainError("winding resistance and inductance must be non-negative")
        if self.b_d < 0.0:
            raise DomainError("drivetrain damping b_d must be non-negative")
        if self.omega <= 0.0:
            raise DomainError("wave frequency omega must be positive")
        if self.g_ratio == 0.0:
            raise DomainError("gear ratio must be nonzero")
        if self.g0 not in (1, 2):
            raise DomainError(f"mode gain g0 must be 1 or 2, got {self.g0}")
        object.__setattr__(self, "_memo", {})

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        self.__dict__.update(state, _memo={})

    @property
    def coupling(self) -> float:
        """Electromechanical coupling k_t * g_ratio."""
        return self.k_t * self.g_ratio

    def z_mech(self, n: int = 1) -> complex:
        """Mechanical impedance at harmonic ``n`` of the wave frequency.

        Z_m(s) = (B_h + G^2 B_d) + (m + A) s + (K_h + G^2 K_d)/s at s = i n w.
        Its real part is at least B_h > 0, so it never vanishes.
        """
        key = ("z_mech", n)
        z = self._memo.get(key)
        if z is None:
            s = 1j * n * self.omega
            g2 = self.g_ratio**2
            z = self._memo[key] = (
                self.b_h
                + g2 * self.b_d
                + (self.m + self.a_added) * s
                + (self.k_h + g2 * self.k_d) / s
            )
        return z

    def z_wind(self, n: int = 1) -> complex:
        """Winding impedance R + i n w L at harmonic ``n``."""
        return self.r_w + 1j * n * self.omega * self.l_w

    def z_thevenin(self, n: int = 1) -> complex:
        """Source impedance of the Thevenin reduction at harmonic ``n``."""
        key = ("z_th", n)
        z = self._memo.get(key)
        if z is None:
            z = self._memo[key] = self.z_wind(n) + self.coupling**2 / self.z_mech(n)
        return z

    def v_thevenin(self) -> complex:
        """Source voltage of the Thevenin reduction, V_th = K_t G F_e / Z_m(w)."""
        v = self._memo.get("v_th")
        if v is None:
            v = self._memo["v_th"] = self.coupling * self.f_e / self.z_mech()
        return v

    @property
    def haskind_consistent(self) -> bool:
        """True when |f_e|^2 = 8 b_h g0 J / k holds to 1e-9 relative."""
        if self.j_density <= 0.0 or self.k_wavenumber <= 0.0:
            return False
        target = 8.0 * self.b_h * self.g0 * self.j_density / self.k_wavenumber
        return abs(abs(self.f_e) ** 2 - target) <= 1e-9 * target


@dataclass(frozen=True)
class NondimGroups:
    """Dimensionless groups that fix the matched power and reactance parameter.

    r_cal : normalized winding resistance, R B_h / (K_t G)^2
    d_cal : hydrodynamic-to-total damping ratio, B_h / (B_h + G^2 B_d)
    alpha_m : reactive-to-real mechanical impedance ratio Im(Z_m)/Re(Z_m)
    l_cal : winding time-constant ratio w L / R
    """

    r_cal: float
    d_cal: float
    alpha_m: float
    l_cal: float

    def __post_init__(self):
        _require_finite(self)
        if self.r_cal < 0.0:
            raise DomainError("normalized resistance must be non-negative")
        if not (0.0 < self.d_cal <= 1.0):
            raise DomainError(f"damping ratio must lie in (0, 1], got {self.d_cal}")
        if self.l_cal < 0.0:
            raise DomainError("winding time-constant ratio must be non-negative")


@dataclass(frozen=True)
class OperatingAmplitudes:
    """Constraint-relevant amplitudes of one load choice.

    x_amp is the complex position phasor; v_s_amp the phase-voltage
    amplitude including the d-axis inductive term; s_max/s_min the upper and
    lower extremes of instantaneous electrical power (mean plus/minus
    apparent power).
    """

    x_amp: complex
    v_s_amp: float
    s_max: float
    s_min: float


def haskind_force_amplitude(
    b_h: float, g0: int, j_density: float, k_wavenumber: float
) -> float:
    """Excitation force amplitude consistent with the radiation damping.

    For a single-mode absorber in a regular wave, reciprocity ties the
    excitation force to the radiation damping and incident energy flux:
    |F_e| = sqrt(8 b_h g0 J / k).
    """
    if b_h <= 0.0 or j_density <= 0.0 or k_wavenumber <= 0.0 or g0 not in (1, 2):
        raise DomainError("haskind relation needs positive b_h, J, k and g0 in {1, 2}")
    return math.sqrt(8.0 * b_h * g0 * j_density / k_wavenumber)


def haskind_plant(phase: float = 0.0, **fields) -> WecPlant:
    """Build a plant whose excitation force satisfies the reciprocity relation.

    Takes the same keyword fields as :class:`WecPlant`, with its defaults,
    except ``f_e``, which is derived from (b_h, g0, j_density, k_wavenumber)
    with the given phase (default 0; the phase reference only shifts phasor
    phases, never magnitudes or powers).
    """
    if "f_e" in fields:
        raise DomainError("f_e is derived here; pass wave data instead")
    wave = [fields.get(k, getattr(WecPlant, k)) for k in ("g0", "j_density", "k_wavenumber")]
    amp = haskind_force_amplitude(fields["b_h"], *wave)
    return WecPlant(f_e=amp * cmath.exp(1j * phase), **fields)


def thevenin_from_plant(plant: WecPlant) -> TheveninSource:
    """Collapse the electromechanical chain to an AC Thevenin source.

    Z_th = Z_w + (K_t G)^2 / Z_m and V_th = K_t G F_e / Z_m, so the source
    voltage carries the excitation phase minus the mechanical impedance
    phase.  The returned source knows how to evaluate Z_th at integer
    harmonics of the wave frequency, which the saturation analysis needs;
    it evaluates them through ``plant.z_thevenin``, so V_th, Z_m and every
    Z_th come from the plant's memo.
    """
    return TheveninSource(
        v_th=plant.v_thevenin(), z_th=plant.z_thevenin(), harmonic_impedance=plant.z_thevenin
    )


def nondim_from_plant(plant: WecPlant) -> NondimGroups:
    """Reduce a dimensional plant to its dimensionless groups."""
    zm = plant.z_mech()
    if plant.r_w > 0.0:
        l_cal = plant.omega * plant.l_w / plant.r_w
    elif plant.l_w == 0.0:
        l_cal = 0.0
    else:
        raise DomainError(
            "winding time-constant ratio is undefined for R = 0 with L > 0"
        )
    return NondimGroups(
        r_cal=plant.r_w * plant.b_h / plant.coupling**2,
        d_cal=plant.b_h / (plant.b_h + plant.g_ratio**2 * plant.b_d),
        alpha_m=zm.imag / zm.real,
        l_cal=l_cal,
    )


def matched_power(
    groups: NondimGroups, j_density: float, k_wavenumber: float, g0: int
) -> float:
    """Average power at the conjugate-matched load, from the dimensionless groups.

        P_m = (g0 J / k) * D / (1 + (R/D)(1 + alpha_m^2))

    Independent of the winding time constant (inductance is reactive) and
    even in alpha_m.  The unconstrained optimum is the corner
    (R, D, alpha_m) = (0, 1, 0), which absorbs g0 J / k.  The quotient is
    formed exactly and rounded once, so alpha_m^2 cannot overflow; the
    result is 0.0 where it underflows.
    """
    if j_density <= 0.0 or k_wavenumber <= 0.0:
        raise DomainError("matched power needs positive wave energy flux and wavenumber")
    if g0 not in (1, 2):
        raise DomainError(f"mode gain g0 must be 1 or 2, got {g0}")
    # every float is an exact ratio of integers, and int / int rounds once;
    # x_n / x_d = R (1 + alpha_m^2)
    (f_n, f_d), (r_n, r_d), (d_n, d_d), (a_n, a_d) = (
        float(v).as_integer_ratio()
        for v in (g0 * j_density / k_wavenumber, groups.r_cal, groups.d_cal, groups.alpha_m)
    )
    x_n, x_d = r_n * (a_d * a_d + a_n * a_n), r_d * a_d * a_d
    return f_n * d_n * d_n * x_d / (f_d * d_d * (x_n * d_d + d_n * x_d))


def alpha_from_nondim(groups: NondimGroups) -> float:
    """Source reactance parameter Im(Z_th)/Re(Z_th) from the dimensionless groups.

        alpha = (L R (1 + alpha_m^2) - D alpha_m) / (R (1 + alpha_m^2) + D)

    The quotient is formed exactly and rounded once.  It is the mean of L
    and -alpha_m weighted by R (1 + alpha_m^2) and D, so it is finite for
    every valid record of groups.
    """
    # as in matched_power: exact integer ratios, x_n / x_d = R (1 + alpha_m^2)
    (r_n, r_d), (d_n, d_d), (a_n, a_d), (l_n, l_d) = (
        float(v).as_integer_ratio()
        for v in (groups.r_cal, groups.d_cal, groups.alpha_m, groups.l_cal)
    )
    x_n, x_d = r_n * (a_d * a_d + a_n * a_n), r_d * a_d * a_d
    return ((l_n * x_n * d_d * a_d - d_n * a_n * l_d * x_d)
            / (l_d * a_d * (x_n * d_d + d_n * x_d)))


def optimal_alpha_m_for_limits(groups: NondimGroups) -> tuple[float, float]:
    """Mechanical reactance ratios that maximize |alpha| when L = 0.

    With a negligible winding time constant the reactance parameter reduces
    to alpha = -D alpha_m / (R (1 + alpha_m^2) + D), whose magnitude peaks at
    alpha_m = +/- sqrt(1 + D/R).  The root is formed exactly and rounded
    once, so it stays finite, about 4.5e161, for R at the least subnormal
    float.

    The claim that plants designed there are least sensitive to force
    limits holds for one controller and one measure: the optimal-contour
    linear load's chart power ratio 1 - |gamma|^2 at equal peak current
    (:func:`~wec_satlin.mismatch.gamma_for_amplitude_target`), which grows
    with |alpha|.  The clipped conjugate controller is the most sensitive
    there: on the ``golden.ini`` plant (R = 0.05, D = 1) with alpha_m moved
    by the mass through 0, 2, alpha_m* and 6, its power ratio at 0.2 and
    0.5 of the matched current is lowest at alpha_m*, under the describing
    function and the referee alike.  The describing function's merit is
    3.09 at +alpha_m*, and 0.84 (not enforced) at -alpha_m* reached by
    stiffening k_h.  The chart's 1 - |gamma|^2 is the circuit's load power
    only at alpha = 0; at alpha_m* the referee runs that linear load at
    0.255 of the matched power, not 0.581 (fraction 0.2).
    """
    if groups.l_cal != 0.0:
        raise DomainError("closed-form optimum assumes a zero winding time constant")
    if groups.r_cal == 0.0:
        raise DomainError("|alpha| is unbounded in alpha_m when R = 0")
    # as in matched_power: exact integer ratios; num / den = (1 + D/R) 4^56
    (r_n, r_d), (d_n, d_d) = groups.r_cal.as_integer_ratio(), groups.d_cal.as_integer_ratio()
    num, den = (d_d * r_n + d_n * r_d) << 112, d_d * r_n
    root = math.isqrt(num // den)  # the root's floor, at least 2^56
    # one rounding: the low bit marks a root between root and root + 1
    a = (2 * root + (root * root * den != num)) / (1 << 57)
    return (a, -a)


def constraint_amplitudes(plant: WecPlant, z: complex) -> OperatingAmplitudes:
    """Position, phase-voltage and apparent-power amplitudes at load z Z_th*.

    The position phasor follows from eliminating the electrical side of the
    chain against the full series loop:

        X = (F_e / s) / (Z_m + (K_t G)^2 / (Z_w + z Z_th*)),  s = i w

    the phase voltage adds the d-axis inductive drop in quadrature,
    V_s^2 = |V|^2 + (L p |Omega| |I|)^2, and the instantaneous electrical
    power swings between s_min and s_max = mean power -/+ apparent power
    0.5 |V| |I|.  An infinite z, or one whose load Z_L overflows, is the
    open circuit: no current flows and the load sees V_th.  A NaN z raises
    :class:`DomainError`.
    """
    if cmath.isnan(z):
        raise DomainError(f"load must not be NaN, got z = {z}")
    v_th, z_th = plant.v_thevenin(), plant.z_thevenin()
    z_l = complex(z) * z_th.conjugate()
    s = 1j * plant.omega
    if not cmath.isfinite(z_l):  # z has no NaN, so it is infinite or Z_L overflows
        return OperatingAmplitudes((plant.f_e / s) / plant.z_mech(), abs(v_th), 0.0, 0.0)
    c = plant.coupling

    loop = plant.z_wind() + z_l
    if loop == 0.0:
        raise SingularityError(
            f"singular load: winding plus load impedance vanishes at z = {z}"
        )
    total = z_th + z_l
    if total == 0.0:
        raise SingularityError(f"singular load: series loop resonates at z = {z}")

    x_amp = (plant.f_e / s) / (plant.z_mech() + c**2 / loop)
    i_l = v_th / total
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


def rescale_to_haskind(plant: WecPlant) -> WecPlant:
    """Replace f_e with the reciprocity-consistent amplitude, keeping its phase."""
    amp = haskind_force_amplitude(
        plant.b_h, plant.g0, plant.j_density, plant.k_wavenumber
    )
    phase = cmath.phase(plant.f_e) if plant.f_e != 0 else 0.0
    return replace(plant, f_e=amp * cmath.exp(1j * phase))


def matched_power_from_plant(plant: WecPlant) -> float:
    """Matched power via the Thevenin route, |V_th|^2 / (8 Re Z_th)."""
    return matched_baseline(thevenin_from_plant(plant)).p_matched
