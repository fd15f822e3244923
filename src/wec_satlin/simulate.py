"""Nonlinear time-domain simulation of the current-limited converter.

This is the reference the quasi-linear predictions are judged against: the
body driven by a regular wave, the drivetrain and generator chain, and the
controller with its hard current clip.  The controller impedance
``Z_c = B_c + K_c/s`` is improper as an admittance, so the command current
is realized as a proper first-order filter of the terminal voltage plus
feedthrough:

    i_cmd = (v_load - (K_c/B_c) xi) / B_c,   xi' = -(K_c/B_c) xi + v_load

For an inductive controller value the filter pole of that form would lie in
the right half plane, so the series-inductance form ``Z_c = B_c + L_c s`` is
used instead; both give the same impedance at the wave frequency, which is
all the steady state sees.

Between clip switches each realization is linear in a state augmented with
a wave oscillator, so each branch advances exactly by its matrix exponential
(Van Loan 1978; Higham 2005), and each switch is located on its guard
function (Shampine & Thompson 2000), also when the clip is entered and
released within one step.  The periodic steady state is found by Newton
shooting on the period map (Aprille & Trick 1972), whose Jacobian, the
monodromy matrix, multiplies the branch flows and the saltation matrix of
each switch.  Identical inputs give bit-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .descfcn import equivalent_z, solve_operating_point
from .errors import DomainError, SimulationError
from .mismatch import matched_baseline
from .propagate import Branch
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
    """Sampling, period cap and steady-state settings.

    Propagation is exact whatever the step, so ``steps_per_period`` sets the
    sampling and DFT resolution, not stability.  ``n_periods``, at least 1,
    caps the periods the shooting may run; shooting needs no transient skip,
    so there is no such field, and the config reader checks the
    ``[sim] transient_periods`` key of older configs as an integer and
    ignores it.  ``convergence_tol`` bounds the periodicity residual of a
    converged run; shooting itself goes on to 1e-12 where it can.
    ``algebraic_loop_tol`` is the clip switch-time tolerance relative to the
    step.  Both tolerances must be positive.
    """

    steps_per_period: int = 2000
    n_periods: int = 40
    convergence_tol: float = 1e-3  # relative periodicity residual ||Phi(y) - y|| / ||y||
    algebraic_loop_tol: float = 1e-12

    def __post_init__(self):
        if self.steps_per_period < 100:
            raise DomainError("need at least 100 steps per period")
        if self.n_periods < 1:
            raise DomainError(f"n_periods must be at least 1, got {self.n_periods}")
        for key in ("convergence_tol", "algebraic_loop_tol"):
            value = getattr(self, key)
            if not value > 0.0:
                raise DomainError(f"{key} must be positive, got {value}")


@dataclass(frozen=True)
class SimResult:
    """Steady-state extraction from one run.

    ``waveforms`` holds the final period, one record per sample with
    fields t, x, v, i, v_load, p_inst.  ``harmonic_currents[k]`` is the
    current phasor at harmonic k+1 (cosine convention); ``dc_current`` the
    window mean.  ``x_amp`` is the fundamental position amplitude from the
    same window.

    Diagnostics of the run: ``period_powers`` holds the mean power of each
    period run, ``periods_run`` their count and ``newton_steps`` how many
    of them followed a Newton step.  ``periodicity_residual`` is
    ||Phi(y) - y|| / ||y|| of the final period over the plant states, and
    ``converged`` holds exactly when it is at most ``convergence_tol``.
    ``clip_fraction`` is the share of the final period spent on the rail.
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
    periodicity_residual: float = math.nan
    periods_run: int = 0
    newton_steps: int = 0
    clip_fraction: float = 0.0


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


_MAX_EVENTS = 8  # clip switches allowed within one step
_WINDOW = 256  # steps sampled at a time while scanning for the next switch
_SHOOTING_TOL = 1e-12  # periodicity residual at which shooting stops
_TINY = np.finfo(float).tiny  # residual scale floor: a zero orbit converges


class _Period(NamedTuple):
    """One evaluation of the period map: samples 0..steps of the state,
    applied current and load voltage; the branch at the end; the monodromy
    matrix; and the period as ``(rail, start, duration)`` segments."""

    ys: np.ndarray
    cur: np.ndarray
    vl: np.ndarray
    rail: bool
    jac: np.ndarray
    segments: list


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


class _Loop:
    """The loop of one plant, controller and limit as a free and a rail branch.

    The state is (x, v[, xi][, i], p, q[, sigma]): body position and velocity,
    controller filter state, the current (winding inductance) or command
    current (inductive controller), the wave oscillator p + iq =
    exp(i(w t + arg F_e)), and the rail value sigma = +-i_max where the rail
    holds no current state.  The free branch is left when |i| exceeds i_max,
    the rail when the command current falls back inside.
    """

    def __init__(self, plant: WecPlant, z_c: complex, i_max: float, dt: float,
                 steps: int):
        z_c = complex(z_c)
        if not (z_c.real > 0.0):
            raise DomainError(
                f"controller must be dissipative to realize: Re(z_c) = {z_c.real}"
            )
        if not (i_max > 0.0):
            raise DomainError(f"current limit must be positive, got {i_max}")
        self.i_max = float(i_max)
        c, r, l, w = plant.coupling, plant.r_w, plant.l_w, plant.omega
        b_c, x_c = z_c.real, z_c.imag
        inductive = x_c > 0.0
        a = -w * x_c / b_c if x_c < 0.0 else 0.0  # filter rate K_c / B_c
        names = ["x", "v"] + ["xi"] * (a > 0.0) + ["i"] * (inductive or l > 0.0)
        names += ["p", "q"] + ["sigma"] * (inductive or l == 0.0)
        idx = {name: k for k, name in enumerate(names)}
        n = len(names)

        def row(**coeffs):
            out = np.zeros(n)
            for name, value in coeffs.items():
                if value:
                    out[idx[name]] += value
            return out

        g2 = plant.g_ratio**2
        force = row(x=-(plant.k_h + g2 * plant.k_d), v=-(plant.b_h + g2 * plant.b_d),
                    p=abs(plant.f_e))

        def branch(i_row, v_row, di_row=None):
            gen = np.zeros((n, n))
            gen[idx["x"]] = row(v=1.0)
            gen[idx["v"]] = (force - c * i_row) / (plant.m + plant.a_added)
            gen[idx["p"]] = row(q=-w)
            gen[idx["q"]] = row(p=w)
            if "xi" in idx:  # xi' = -a xi + v_load
                gen[idx["xi"]] = row(xi=-a) + v_row
            if di_row is not None:
                gen[idx["i"]] = di_row
            return Branch.build(gen, i_row, v_row, dt, steps)

        emf = row(v=c)
        if inductive:  # series inductance l_c; the state is the command current
            l_c = x_c / w
            di = (emf - row(i=r + b_c)) / (l_c + l)
            free = (row(i=1.0), row(i=b_c) + l_c * di, di)
            v_rail = emf - row(sigma=r)
            rail = (row(sigma=1.0), v_rail, (v_rail - row(i=b_c)) / l_c)
            self.release = row(i=1.0, sigma=-1.0)
        elif l > 0.0:
            free = (row(i=1.0), row(i=b_c, xi=a), (emf - row(i=r + b_c, xi=a)) / l)
            v_rail = emf - row(i=r)
            rail = (row(i=1.0), v_rail)
            self.release = (v_rail - row(xi=a)) / b_c - row(i=1.0)
        else:  # algebraic loop: the unclipped current is a state functional
            i_free = (emf - row(xi=a)) / (r + b_c)
            free = (i_free, emf - r * i_free)
            rail = (row(sigma=1.0), emf - row(sigma=r))
            self.release = i_free - row(sigma=1.0)
        self.n = n
        self.dt = dt
        self.sigma = idx.get("sigma", idx.get("i"))
        self.osc = [idx["p"], idx["q"]]
        self.plant_states = np.array([name not in ("p", "q", "sigma") for name in names])
        phase = math.atan2(plant.f_e.imag, plant.f_e.real)
        self.y0 = row(p=math.cos(phase), q=math.sin(phase))
        self.free = branch(*free)
        self.rail = branch(*rail) if math.isfinite(i_max) else None

    def branch(self, rail: bool) -> Branch:
        return self.rail if rail else self.free

    def unknowns(self, rail: bool) -> np.ndarray:
        """Mask of the states a period started on this branch depends on:
        the plant states, less the current the rail holds at +-i_max."""
        mask = self.plant_states.copy()
        if rail:
            mask[self.sigma] = False
        return mask

    def free_orbit(self) -> tuple[np.ndarray, bool]:
        """Start state and branch of the free branch's periodic orbit, the
        fixed point of E^steps with the oscillator at its phase; at rest
        where that solve has no finite answer.  The start is on the rail,
        holding the limit, where the orbit's current there exceeds it."""
        u = self.unknowns(False)
        e = self.free.powers[-1]
        y = self.y0.copy()
        y[u] = np.linalg.solve(np.eye(u.sum()) - e[np.ix_(u, u)], e[np.ix_(u, ~u)] @ y[~u])
        if not np.isfinite(y).all():
            return self.y0.copy(), False
        current = y @ self.free.i_row
        if not abs(current) > self.i_max:
            return y, False
        y[self.sigma] = math.copysign(self.i_max, current)
        return y, True

    def first_candidate(self, rail: bool, ys, cur, lead: int = 0) -> int:
        """First step between samples ``ys`` (currents ``cur``) of one branch
        that may hold a switch: it ends outside the branch, or its guard's
        slope changes sign.  The number of steps if none does.  With
        ``lead`` 1 the guard products also take ``ys[0]``, so that one step
        rounds as a longer run does (see :meth:`period`)."""
        if self.rail is None:
            return len(ys) - 1
        if rail:
            row = self.release
            out = np.sign(ys[1:, self.sigma]) * (ys[1 - lead :] @ row)[lead:] < 0.0
        else:
            row = self.free.i_row
            out = np.abs(cur[1:]) > self.i_max
        slope = np.sign(ys @ (row @ self.branch(rail).a))
        hits = np.flatnonzero(out | (slope[1:] != slope[:-1]))
        return int(hits[0]) if hits.size else len(ys) - 1

    def switch(self, rail: bool, y, h: float, tol: float):
        """End state of a sub-step ``h`` from ``y``, and its first switch
        ``(tau, y_tau, sign)`` or None.

        A guard positive at the end brackets a switch; one whose slope turns
        from rising to falling is checked at its located peak.
        """
        br = self.branch(rail)
        at = br.path(y, h)
        y_end = at(h)
        if rail:  # positive once the command current is back inside
            guards = [(self.release, -np.sign(y[self.sigma]), 0.0)]
        else:
            guards = [(br.i_row, 1.0, self.i_max), (br.i_row, -1.0, self.i_max)]
        first = None
        for row, sign, level in guards:
            guard = sign * row
            hi, y_hi = h, y_end
            if not sign * (row @ y_end) - level > 0.0:
                slope = guard @ br.a
                if not slope @ y > 0.0 > slope @ y_end:
                    continue
                hi, y_hi = br.locate(at, y, y_end, h, -slope, 0.0, tol)
                if not sign * (row @ y_hi) - level > 0.0:
                    continue
            # a path over a shorter bracket rounds differently: build it anew
            path = at if hi == h else br.path(y, hi)
            tau, y_tau = br.locate(path, y, y_hi, hi, guard, level, tol)
            if first is None or tau < first[0]:
                first = (tau, y_tau, sign)
        return y_end, first

    def cross(self, y, rail: bool, dt: float, tol: float):
        """State, branch and current one step on from ``y``, through every
        switch on the way; with the step's Jacobian and its ``(rail,
        duration)`` pieces.

        At a switch the Jacobian takes the saltation matrix
        R + (f+ - R f-) grad^T / (grad . f-) of the guard gradient ``grad``,
        the vector fields f- before and f+ after, and the reset R, which
        zeroes the held current on entering the rail (Leine & Nijmeijer,
        Dynamics and Bifurcations of Non-smooth Mechanical Systems, 2004).
        """
        t = 0.0
        jac = np.eye(self.n)
        pieces = []
        for _ in range(_MAX_EVENTS + 1):
            br = self.branch(rail)
            y_end, event = self.switch(rail, y, dt - t, tol)
            if event is None:
                pieces.append((rail, dt - t))
                return y_end, rail, y_end @ br.i_row, br.transition(dt - t) @ jac, pieces
            tau, y, sign = event
            pieces.append((rail, tau))
            f_minus = br.a @ y
            reset = np.eye(self.n)
            if rail:
                grad = self.release
            else:
                grad = br.i_row
                y[self.sigma] = sign * self.i_max
                reset[self.sigma, self.sigma] = 0.0
            t += tau
            rail = not rail
            jump = np.outer(self.branch(rail).a @ y - reset @ f_minus, grad / (grad @ f_minus))
            jac = (reset + jump) @ br.transition(tau) @ jac
        raise SimulationError(f"clip switched more than {_MAX_EVENTS} times in one step")

    def period(self, y, rail: bool, tol: float) -> _Period:
        """The period map: one period from ``y`` on branch ``rail``, with the
        oscillator restarted at its phase.

        Whole-step runs advance by powers of the one-step flow, steps that
        may hold a switch by :meth:`cross`; the monodromy matrix is the
        product of their flows and saltation matrices.  A run is scanned
        forward from its start ``ys[k]`` in windows of ``_WINDOW`` steps,
        each the next rows of the powers stack times ``ys[k]``, and the scan
        stops at the first window that holds a candidate.  Each window after
        the first starts at the last sample of the one before, so every pair
        of neighbouring samples is checked.

        numpy rounds a one-row product as a dot product, and a longer one
        row by row as a matrix-vector product.  The row products of a window
        therefore also take the sample before it, so every sample rounds as
        in one product over the whole rest of the period, which has one row
        only when one step is left.
        """
        steps, n, dt = len(self.free.powers), self.n, self.dt
        ys, cur, vl = np.empty((steps + 1, n)), np.empty(steps + 1), np.empty(steps + 1)
        ys[0] = y
        ys[0, self.osc] = self.y0[self.osc]
        cur[0] = ys[0] @ self.branch(rail).i_row
        vl[0] = ys[0] @ self.branch(rail).v_row
        jac = np.eye(n)
        segments = []

        def add(on_rail, start, duration):
            if segments and segments[-1][0] == on_rail:
                segments[-1] = (on_rail, segments[-1][1], segments[-1][2] + duration)
            else:
                segments.append((on_rail, start, duration))

        k = 0
        while k < steps:
            br = self.branch(rail)
            rest = steps - k
            lead = int(rest > 1)  # row products take the sample before a window
            m = 0  # whole steps from ys[k] before the first candidate
            while m < rest:
                lo, m = m, min(m + _WINDOW, rest)
                flat = br.powers[lo:m].reshape(-1, n) @ ys[k]  # one GEMV
                ys[k + 1 + lo : k + 1 + m] = flat.reshape(-1, n)
                cur[k + 1 + lo : k + 1 + m] = (ys[k + 1 + lo - lead : k + 1 + m] @ br.i_row)[lead:]
                seen = slice(k + lo, k + 1 + m)
                hit = lo + self.first_candidate(rail, ys[seen], cur[seen], lead)
                if hit < m:
                    m = hit
                    break
            vl[k + 1 : k + 1 + m] = ys[k + 1 : k + 1 + m] @ br.v_row
            if m:
                jac = br.powers[m - 1] @ jac
                add(rail, k * dt, m * dt)
            k += m
            if k < steps:
                ys[k + 1], rail, cur[k + 1], step_jac, pieces = self.cross(ys[k], rail, dt, tol)
                vl[k + 1] = ys[k + 1] @ self.branch(rail).v_row
                jac = step_jac @ jac
                start = k * dt
                for on_rail, duration in pieces:
                    add(on_rail, start, duration)
                    start += duration
                k += 1
        return _Period(ys, cur, vl, rail, jac, segments)


def simulate(
    plant: WecPlant,
    z_c: complex,
    i_max: float = math.inf,
    cfg: SimConfig | None = None,
    n_harmonics: int = 9,
) -> SimResult:
    """Shoot to the periodic steady state of the nonlinear loop and extract
    one period.

    ``z_c`` is the controller impedance value at the wave frequency (ohms,
    not normalized); ``i_max`` the hard current clip (infinity disables it).
    The excitation is |F_e| cos(w t + arg F_e).

    The period map starts from the free branch's periodic orbit, which is
    the answer for a row that never clips.  Newton's method on y - Phi(y) = 0
    over the plant states, with the monodromy matrix as Jacobian (Aprille &
    Trick, Proc. IEEE 1972), refines it until the periodicity residual
    ||Phi(y) - y|| / ||y|| is at most ``min(cfg.convergence_tol, 1e-12)``.
    A step may raise the residual once, as when the start moves between
    branches; after two steps in a row that do not lower the best residual,
    plain period iteration takes over from the best period.  At most
    ``cfg.n_periods`` periods are run, and the run is converged when the
    final residual is at most ``cfg.convergence_tol``.  Extraction uses the final period, whose
    samples are exact up to the switch-time tolerance
    ``cfg.algebraic_loop_tol * dt``.  A non-finite state, checked once per
    period, aborts with :class:`SimulationError` carrying the step index.
    """
    cfg = cfg or SimConfig()
    period = 2.0 * math.pi / plant.omega
    steps = cfg.steps_per_period
    dt = period / steps
    tol = cfg.algebraic_loop_tol * dt
    target = min(cfg.convergence_tol, _SHOOTING_TOL)
    loop = _Loop(plant, z_c, i_max, dt, steps)

    y, rail = loop.free_orbit()
    period_powers = []
    best = None  # (residual, end state, end branch) of the best Newton period
    newton, newton_steps, misses = True, 0, 0
    for p in range(cfg.n_periods):
        run = loop.period(y, rail, tol)
        bad = np.flatnonzero(~np.isfinite(run.ys[1:]).all(axis=1))
        if bad.size:
            j = p * steps + int(bad[0])
            raise SimulationError(
                f"state diverged at step {j} (t = {(j + 1) * dt:.6g} s)",
                step=j,
                trace=tuple(run.ys[1 + bad[0]]),
            )
        period_powers.append(float(np.mean(run.vl[:steps] * run.cur[:steps])))
        u = loop.unknowns(rail)
        end = run.ys[steps]
        gap = end[u] - y[u]
        residual = float(np.linalg.norm(gap) / max(np.linalg.norm(y[u]), _TINY))
        if residual <= target or p == cfg.n_periods - 1:
            break
        if not newton:
            y, rail = end, run.rail
            continue
        if best is None or residual < best[0]:
            best, misses = (residual, end, run.rail), 0
        else:
            misses += 1
        if misses == 2:  # Newton stalls: iterate the period map from the best period
            newton = False
            _, y, rail = best
            continue
        step = y[u] + np.linalg.solve(np.eye(len(gap)) - run.jac[np.ix_(u, u)], gap)
        y = end.copy()
        y[u] = step
        if run.rail:  # the rail holds the current the period ended with
            y[loop.sigma] = end[loop.sigma]
        rail = run.rail
        newton_steps += 1

    ys, cur, vl = run.ys[:steps], run.cur[:steps], run.vl[:steps]
    columns = (np.arange(p * steps, (p + 1) * steps) * dt, ys[:, 0], ys[:, 1],
               cur, vl, vl * cur)
    waveforms = np.empty(steps, dtype=[(name, np.float64) for name in WAVEFORM_FIELDS])
    for name, column in zip(WAVEFORM_FIELDS, columns):
        waveforms[name] = column
    dc_current, harmonics = _phasors(columns[0], cur, plant.omega, n_harmonics)
    x_fundamental = _phasors(columns[0], ys[:, 0], plant.omega, 1)[1][0]
    return SimResult(
        waveforms=waveforms,
        p_avg=period_powers[-1],
        harmonic_currents=harmonics,
        dc_current=dc_current,
        x_amp=abs(x_fundamental),
        peak_current=float(np.max(np.abs(cur))),
        converged=residual <= cfg.convergence_tol,
        omega=plant.omega,
        dt=dt,
        period_powers=period_powers,
        periodicity_residual=residual,
        periods_run=p + 1,
        newton_steps=newton_steps,
        clip_fraction=sum(d for on_rail, _, d in run.segments if on_rail) / period,
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

    The quasi-linear method assumes the plant attenuates harmonics; below
    about 1.5 the saturated-sine assumption is clearly broken.  A merit of
    3 or more is where rows count toward pass/fail, but it does not ensure a
    pass: on 60 seeded designs with winding inductance at clip fractions
    0.2, 0.5 and 0.8, 8 of the 117 rows at merit >= 3 fail.  All eight have
    alpha > 1 and fraction <= 0.5, and fail on power alone (errors of 5.6
    to 16.4 percent); the fundamental current stays within 2 percent and
    the referee delivers more power than predicted.
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
    An enforced row can fail where the method is used: at alpha > 1 and
    deep clipping (fraction <= 0.5) the predicted power is up to 16 percent
    low although the merit is 3 or more (see :func:`low_pass_merit`).
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
