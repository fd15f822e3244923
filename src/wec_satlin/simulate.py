"""Nonlinear time-domain simulation of the current-limited converter.

This is the brute-force reference the quasi-linear predictions are judged
against: the body equation of motion driven by a regular wave, the
drivetrain and generator chain, and the controller with its hard current
clip, integrated with a fixed-step classical fourth-order scheme until the
cycle-averaged electrical power settles.

The controller impedance ``Z_c = B_c + K_c/s`` is improper as an admittance,
so the command current is realized as a proper first-order filter of the
terminal voltage plus feedthrough:

    i_cmd = (v_load - (K_c/B_c) xi) / B_c,   xi' = -(K_c/B_c) xi + v_load

For an inductive controller value (positive imaginary part at the wave
frequency) the series-stiffness form above would put the filter pole in the
right half plane, so the equivalent series-inductance realization
``Z_c = B_c + L_c s`` is used instead; both reproduce the same impedance at
the wave frequency, which is all the steady state sees.

With zero winding inductance the clip closes an algebraic loop between the
terminal voltage and the applied current; the loop is piecewise linear and
is resolved exactly each evaluation by checking the clipped and unclipped
branches for self-consistency.  With winding inductance the current becomes
a state and the loop disappears.

Every run with identical inputs is bit-identical: fixed step, fixed
iteration order, no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .descfcn import equivalent_z, solve_operating_point
from .errors import DomainError, SimulationError
from .mismatch import matched_baseline
from .wec import WecPlant, constraint_amplitudes, thevenin_from_plant

WAVEFORM_FIELDS = ("t", "x", "v", "i", "v_load", "p_inst")

__all__ = [
    "SimConfig",
    "SimResult",
    "ValidationReport",
    "simulate",
    "harmonic_decompose",
    "validate_df",
    "dump_waveforms",
]


@dataclass(frozen=True)
class SimConfig:
    """Integration and steady-state detection settings."""

    steps_per_period: int = 2000
    n_periods: int = 40
    transient_periods: int = 20
    convergence_tol: float = 1e-3  # relative period-to-period power change
    algebraic_loop_tol: float = 1e-12

    def __post_init__(self):
        if self.steps_per_period < 100:
            raise DomainError("need at least 100 steps per period")
        if self.n_periods <= self.transient_periods:
            raise DomainError("n_periods must exceed transient_periods")


@dataclass(frozen=True)
class SimResult:
    """Steady-state extraction from one run.

    ``waveforms`` holds the final period, one record per accepted step with
    fields t, x, v, i, v_load, p_inst.  ``harmonic_currents[k]`` is the
    current phasor at harmonic k+1 (cosine convention); ``dc_current`` the
    window mean.  ``x_amp`` is the fundamental position amplitude from the
    same window.
    """

    waveforms: np.ndarray
    p_avg: float
    harmonic_currents: list[complex]
    dc_current: float
    x_amp: float
    peak_current: float
    converged: bool
    omega: float
    dt: float
    period_powers: list[float] = field(repr=False, default_factory=list)


@dataclass(frozen=True)
class ValidationReport:
    """Field-by-field comparison of the quasi-linear solve against simulation.

    ``sim`` is the simulation run the comparison was made on.
    """

    i_max: float
    i_max_fraction: float
    saturated: bool
    low_pass_merit: float  # |Z_th(w)| / |Z_th(3w)|; >= 3 means low-pass
    assumption_violated: bool  # merit < 1.5: method assumptions clearly broken
    enforced: bool  # row counts toward pass/fail (unsaturated, or merit >= 3)
    p_predicted: float
    p_simulated: float
    i1_predicted: float
    i1_simulated: float
    x_predicted: float
    x_simulated: float
    rel_err_power: float
    rel_err_fundamental: float
    rel_err_position: float
    power_tol: float
    fundamental_tol: float
    passed: bool
    sim: SimResult | None = field(default=None, repr=False, compare=False)


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


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


def simulate(
    plant: WecPlant,
    z_c: complex,
    i_max: float = math.inf,
    cfg: SimConfig | None = None,
    n_harmonics: int = 9,
) -> SimResult:
    """Integrate the nonlinear loop to steady state and extract one period.

    ``z_c`` is the controller impedance value at the wave frequency (ohms,
    not normalized); ``i_max`` the hard current clip (infinity disables it).
    The excitation is |F_e| cos(w t + arg F_e).

    The run is declared converged once both the fixed transient skip has
    elapsed and the cycle-averaged electrical power changes by less than
    ``cfg.convergence_tol`` between successive periods; extraction always
    uses the final period.  A non-finite state aborts with
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
    for p in range(max(1, cfg.transient_periods), cfg.n_periods):
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


def harmonic_decompose(result: SimResult, n_max: int) -> tuple[float, list[complex]]:
    """Fourier phasors of the steady-state current over the stored window.

    Returns ``(dc, [I_1, ..., I_n_max])`` with
    I_n = (2/T) integral of i(t) exp(-i n w t) over the window (cosine
    convention).  The DC term is reported separately and should be near zero
    for the odd-symmetric waveforms produced here.  The stored window must
    span an integer number of periods, otherwise the projection would leak.
    """
    t = result.waveforms["t"]
    i = result.waveforms["i"]
    span = (t[-1] - t[0]) + result.dt
    cycles = span * result.omega / (2.0 * math.pi)
    if abs(cycles - round(cycles)) > 1e-9 or round(cycles) < 1:
        raise DomainError(
            f"window spans {cycles:.6g} periods; need an integer count"
        )
    return _phasors(t, i, result.omega, n_max)


def _phasors(t: np.ndarray, y: np.ndarray, omega: float, n_max: int):
    """``(mean, [Y_1, ..., Y_n_max])`` of samples ``y(t)`` by a direct DFT.

    Y_n = (2/N) sum y exp(-i n w t), the cosine-convention phasor; the
    samples must span an integer number of periods.
    """
    phase = np.exp(-1j * omega * t)
    dc = float(np.mean(y))
    return dc, [complex(2.0 / len(y) * np.sum(y * phase**n)) for n in range(1, n_max + 1)]


def low_pass_merit(plant: WecPlant) -> float:
    """Source impedance roll-off |Z_th(w)| / |Z_th(3w)|.

    The quasi-linear method assumes the plant attenuates harmonics; a merit
    of 3 or more marks the regime where its error stays within a few
    percent, while below about 1.5 the saturated-sine assumption is clearly
    broken.
    """
    return abs(plant.z_thevenin(1)) / abs(plant.z_thevenin(3))


def validate_df(
    plant: WecPlant,
    i_max: float,
    cfg: SimConfig | None = None,
    n_harmonics: int = 9,
) -> ValidationReport:
    """Run the quasi-linear solve and the simulation side by side.

    Uses the conjugate-matched controller (clipped unconstrained-optimal
    policy) for both.  Reports relative errors in total power, fundamental
    current amplitude, and fundamental position amplitude, plus the low-pass
    merit.  Rows where the clip is active and the merit is below 3 are
    marked not enforced (the method's validity assumption fails there);
    below 1.5 they are flagged as outright assumption violations.

    Pass thresholds: 0.5 percent on everything when the clip never engages;
    5 percent on power and 2 percent on fundamental current when it does.
    """
    src = thevenin_from_plant(plant)
    z_c = src.z_th.conjugate()
    baseline = matched_baseline(src)

    sol = solve_operating_point(src, i_max, z_c=z_c, n_harmonics=n_harmonics)
    sim = simulate(plant, z_c, i_max=i_max, cfg=cfg, n_harmonics=n_harmonics)

    saturated = i_max < baseline.i_peak_matched
    merit = low_pass_merit(plant)

    f1 = sol.factors.factors[1]
    z_eff = equivalent_z(1, z_c, f1, src.z_th)
    x_pred = abs(constraint_amplitudes(plant, z_eff).x_amp)

    i1_pred = abs(sol.fundamental.current)
    i1_sim = abs(sim.harmonic_currents[0])

    rel_p = _rel_err(sol.p_total, sim.p_avg)
    rel_i = _rel_err(i1_pred, i1_sim)
    rel_x = _rel_err(x_pred, sim.x_amp)

    if saturated:
        power_tol, fund_tol = 0.05, 0.02
    else:
        power_tol, fund_tol = 0.005, 0.005
    enforced = (not saturated) or merit >= 3.0
    passed = rel_p <= power_tol and rel_i <= fund_tol and sim.converged

    fraction = i_max / baseline.i_peak_matched if math.isfinite(i_max) else math.inf
    return ValidationReport(
        i_max=i_max,
        i_max_fraction=fraction,
        saturated=saturated,
        low_pass_merit=merit,
        assumption_violated=saturated and merit < 1.5,
        enforced=enforced,
        p_predicted=sol.p_total,
        p_simulated=sim.p_avg,
        i1_predicted=i1_pred,
        i1_simulated=i1_sim,
        x_predicted=x_pred,
        x_simulated=sim.x_amp,
        rel_err_power=rel_p,
        rel_err_fundamental=rel_i,
        rel_err_position=rel_x,
        power_tol=power_tol,
        fundamental_tol=fund_tol,
        passed=passed,
        sim=sim,
    )


def dump_waveforms(result: SimResult, path) -> None:
    """Write the stored final period as CSV: t,x,v,i,v_load,p_inst."""
    waves = result.waveforms
    row = ",".join(["%.12g"] * len(WAVEFORM_FIELDS)) + "\n"
    cells = np.column_stack([waves[name] for name in WAVEFORM_FIELDS]).ravel().tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(WAVEFORM_FIELDS) + "\n")
        fh.write(row * len(waves) % tuple(cells))
