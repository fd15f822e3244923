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
(Van Loan 1978), and each switch is located on its guard
function (Shampine & Thompson 2000), also when the clip is entered and
released within one step.  The clip is odd and the wave forcing one
sinusoid, so with y(t) the loop also has the solution -y(t + T/2), and its
steady state is half-wave symmetric (Gelb & Vander Velde, Multiple-Input
Describing Functions, 1968).  That steady state is found by Newton shooting
(Aprille & Trick 1972) on the anti-period map G(y) = -Phi_half(y), half a
period of the loop and a negation, whose fixed points are T-periodic since
G(G(y)) = Phi(y).  Each Newton step solves for the start and the half
period's switch times together, with the switching instants as unknowns
(di Bernardo et al., Piecewise-smooth Dynamical Systems, 2008); eliminating
the switch times leaves G's Jacobian, the negated monodromy matrix with
the saltation matrix of each switch.  Where the limit binds, shooting
starts from the describing function's orbit, a harmonic-balance estimate
of the steady state (Kundert, Sangiovanni-Vincentelli & White,
Steady-State Methods for Simulating Analog and Microwave Circuits, 1990),
and takes these steps without sampling, from the describing function's
clip angles; one sampled map from that start then checks it, and a
sampled map that misses hands its end and its own switch times to the
same solve.  Identical inputs give bit-identical runs.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .descfcn import SaturationSolution, equivalent_z, solve_operating_point
from .emit import write_csv
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
    sampling and DFT resolution, not stability; it must be even, so that the
    half period the shooting runs ends on a sample.  ``n_periods``, at least
    1, caps the half-period maps the shooting may run; shooting needs no
    transient skip, so there is no such field, and the config reader checks
    the ``[sim] transient_periods`` key of older configs as an integer and
    ignores it.  ``convergence_tol`` bounds the periodicity residual of a
    converged run; shooting itself goes on to 1e-12 where it can.
    ``algebraic_loop_tol`` is the clip switch-time tolerance relative to the
    step.  Both tolerances must be positive.
    """

    steps_per_period: int = 2000
    n_periods: int = 40
    convergence_tol: float = 1e-3  # relative periodicity residual ||G(y) - y|| / ||y||
    algebraic_loop_tol: float = 1e-12

    def __post_init__(self):
        if self.steps_per_period < 100:
            raise DomainError("need at least 100 steps per period")
        if self.steps_per_period % 2:
            raise DomainError(f"steps_per_period must be even, got {self.steps_per_period}")
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
    fields t, x, v, i, v_load, p_inst: the final half period and its
    negation, so the window is half-wave symmetric by construction, and its
    mean and even harmonics vanish up to rounding.  ``t`` starts at
    ``periods_run - 1`` whole periods.  ``harmonic_currents[k]`` is the
    current phasor at harmonic k+1 (cosine convention); ``dc_current`` the
    window mean.  ``x_amp`` is the fundamental position amplitude from the
    same window.

    Diagnostics of the run: shooting runs the anti-period map G, half a
    period each.  ``period_powers`` holds the mean power of each half
    period run, which on a symmetric orbit is the mean over the period: one
    entry per map, so its last entry is ``p_avg``.  ``periods_run`` counts
    the half-period maps run, 1 on a row the switch-time solve settles (see
    :func:`simulate`), and ``newton_steps`` the Newton steps of the
    switch-time solves.  ``periodicity_residual`` is
    ||G(y) - y|| / ||y|| of the final map over the plant states, and
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
_SHOOTING_TOL = 1e-12  # periodicity residual at which shooting stops
_SWITCH_ITERATIONS = 8  # Newton steps the switch-time solve may take
_TINY = float(np.finfo(float).tiny)  # residual scale floor: a zero orbit converges
_EPS = np.finfo(float).eps
# (plant, z_c, steps) -> _Loop while a _shared_loops block is open, else None
_LOOPS: contextvars.ContextVar[dict | None] = contextvars.ContextVar("_LOOPS", default=None)


class _Period(NamedTuple):
    """One evaluation of the anti-period map G: samples 0..steps of the
    state, applied current and load voltage over half a period, the last
    one negated, so that ``ys[steps]`` is G(y); the branch at the end; and
    the half period as ``(rail, start, duration)`` segments, whose starts
    after the first are the map's switch times."""

    ys: np.ndarray
    cur: np.ndarray
    vl: np.ndarray
    rail: bool
    segments: list


class _Guard(NamedTuple):
    """One branch's data, fixed once the loop's plant and controller are
    known: the guard row whose value the branch's switch is located on, its
    slope row ``row @ a`` along the branch, ``|row|`` and ``|a|`` for the
    rounding bound of its rate, and the guard's peak bound per step (see
    :func:`_bend`); the mask of the states a map started on the branch
    depends on, their indices and their columns of the identity, which
    seed the derivatives :meth:`_Loop.newton` carries; and the reset R
    applied on leaving the branch, which zeroes the held current on
    entering the rail."""

    row: np.ndarray
    slope: np.ndarray
    abs_row: np.ndarray
    abs_a: np.ndarray
    peak: float
    unknowns: np.ndarray
    index: np.ndarray
    columns: np.ndarray
    reset: np.ndarray


def _residual(gap: np.ndarray, y_u: np.ndarray) -> float:
    """The periodicity residual ||G(y)[u] - y[u]|| / ||y[u]|| from the gap
    G(y)[u] - y[u] and y[u], the start's unknowns."""
    return math.sqrt(gap @ gap) / max(math.sqrt(y_u @ y_u), _TINY)


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def _bend(a: np.ndarray, row: np.ndarray, dt: float) -> float:
    """How far g = row @ expm(a tau) y_0 may rise within one step ``dt``
    above the larger of its end samples, per unit ||y_0||_inf: M dt^2 / 8
    for |g''| <= M = ||row a^2||_1 exp(max(mu, 0) dt) ||y_0||_inf, with mu
    the inf-norm logarithmic norm of ``a`` (Dahlquist 1958; Lozinskii
    1958).  Infinite where that exponential overflows."""
    off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    growth = max(float(np.max(np.diag(a) + off)), 0.0) * dt
    if growth > 700.0:
        return math.inf
    return float(np.abs(row @ a @ a).sum()) * math.exp(growth) * dt * dt / 8.0


class _Loop:
    """The loop of one plant and controller as a free and a rail branch.

    The state is (x, v[, xi][, i], p, q[, sigma]): body position and velocity,
    controller filter state, the current (winding inductance) or command
    current (inductive controller), the wave oscillator p + iq =
    exp(i(w t + arg F_e)), and the rail value sigma = +-i_max where the rail
    holds no current state.  The free branch is left when |i| exceeds i_max,
    the rail when the command current falls back inside.

    ``steps`` steps of ``dt`` make half a period, the span of the
    anti-period map :meth:`period`, and each branch stacks that many powers
    of its one-step flow.  Neither branch depends on the limit, which the
    methods take as ``i_max``, so one loop serves every limit of its plant,
    controller and step.  Both branches, and their guards, are built with
    the loop.
    """

    def __init__(self, plant: WecPlant, z_c: complex, dt: float, steps: int):
        z_c = complex(z_c)
        if not (z_c.real > 0.0):
            raise DomainError(
                f"controller must be dissipative to realize: Re(z_c) = {z_c.real}"
            )
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

        def generator(i_row, v_row, di_row=None):
            gen = np.zeros((n, n))
            gen[idx["x"]] = row(v=1.0)
            gen[idx["v"]] = (force - c * i_row) / (plant.m + plant.a_added)
            gen[idx["p"]] = row(q=-w)
            gen[idx["q"]] = row(p=w)
            if "xi" in idx:  # xi' = -a xi + v_load
                gen[idx["xi"]] = row(xi=-a) + v_row
            if di_row is not None:
                gen[idx["i"]] = di_row
            return gen, i_row, v_row

        emf = row(v=c)
        if inductive:  # series inductance l_c; the state is the command current
            l_c = x_c / w
            di = (emf - row(i=r + b_c)) / (l_c + l)
            free = (row(i=1.0), row(i=b_c) + l_c * di, di)
            v_rail = emf - row(sigma=r)
            rail = (row(sigma=1.0), v_rail, (v_rail - row(i=b_c)) / l_c)
            release = row(i=1.0, sigma=-1.0)
        elif l > 0.0:
            free = (row(i=1.0), row(i=b_c, xi=a), (emf - row(i=r + b_c, xi=a)) / l)
            v_rail = emf - row(i=r)
            rail = (row(i=1.0), v_rail)
            release = (v_rail - row(xi=a)) / b_c - row(i=1.0)
        else:  # algebraic loop: the unclipped current is a state functional
            i_free = (emf - row(xi=a)) / (r + b_c)
            free = (i_free, emf - r * i_free)
            rail = (row(sigma=1.0), emf - row(sigma=r))
            release = i_free - row(sigma=1.0)
        self.plant, self.z_c = plant, z_c
        self.n = n
        self.dt = dt
        self.steps = steps
        self.sigma = idx.get("sigma", idx.get("i"))
        self.current, self.xi, self.filter_rate = idx.get("i"), idx.get("xi"), a
        self.osc = [idx["p"], idx["q"]]
        phase = math.atan2(plant.f_e.imag, plant.f_e.real)
        self.y0 = row(p=math.cos(phase), q=math.sin(phase))
        self.free = Branch.build(*generator(*free), dt, steps)
        self.rail = Branch.build(*generator(*rail), dt, steps)
        plant_states = np.array([name not in ("p", "q", "sigma") for name in names])
        held = plant_states.copy()  # the rail holds the current at +-i_max
        held[self.sigma] = False
        enter = np.eye(n)  # entering the rail zeroes the held current
        enter[self.sigma, self.sigma] = 0.0
        # the free branch's current and the rail's release guard
        self.guards = tuple(
            _Guard(row, row @ br.a, np.abs(row), np.abs(br.a), _bend(br.a, row, dt),
                   unknowns, np.flatnonzero(unknowns), np.eye(n)[:, unknowns], reset)
            for br, row, unknowns, reset in ((self.free, self.free.i_row, plant_states, enter),
                                             (self.rail, release, held, np.eye(n))))

    def branch(self, rail: bool) -> Branch:
        return self.rail if rail else self.free

    def free_orbit(self) -> np.ndarray:
        """Start state of the free branch's periodic orbit, the fixed point
        y = -E^steps y of its anti-period map, with the oscillator at its
        phase; at rest where that solve has no finite answer.  It is the
        orbit itself, so a row that never clips converges in one map."""
        u = self.guards[False].unknowns
        e = self.free.powers[-1]
        y = self.y0.copy()
        y[u] = np.linalg.solve(np.eye(u.sum()) + e[np.ix_(u, u)], -(e[np.ix_(u, ~u)] @ y[~u]))
        return y if np.isfinite(y).all() else self.y0.copy()

    def start(self, i_max: float, sol) -> tuple[np.ndarray, bool, list | None]:
        """Start state, branch and switch plan of the shooting under the
        limit ``i_max``, from the describing function's solution ``sol`` at
        that limit (None where there is none to use); the plan is the first
        guess of :meth:`shoot`.

        Where the solution says the limit binds (clipping depth I below 1),
        the state at t = 0 of its half-wave symmetric orbit: with I_n and V_n
        the current and load-voltage phasors of harmonic n, the velocity
        U_n = (V_n + Z_w(n w) I_n) / c, the position U_n / (i n w) and the
        filter state V_n / (a + i n w), summed over harmonics 1 to 9 whatever
        the solution holds, so a run's bits do not depend on the harmonics it
        extracts; the held or command current is the pre-clip command
        Re(i_temp), and the start is on the rail, at +-i_max, where that
        exceeds the limit.  The plan is the clipped command's switches in the
        half period, in steps: where w t + psi = m pi -+ acos(I), from the
        branch the start is on.  Elsewhere the free branch's orbit, with no
        plan.
        """
        plant = self.plant
        if sol is None or not sol.factors.i_script < 1.0:
            return self.free_orbit(), False, None
        y = self.y0.copy()
        for h in sol.harmonics[:5]:
            s = 1j * h.n * plant.omega
            velocity = (h.v_load + plant.z_wind(h.n) * h.current) / plant.coupling
            y[0] += (velocity / s).real
            y[1] += velocity.real
            if self.xi is not None:
                y[self.xi] += (h.v_load / (self.filter_rate + s)).real
        command = sol.i_temp.real
        if self.current is not None:
            y[self.current] = command
        rail = abs(command) > i_max
        if rail:
            y[self.sigma] = math.copysign(i_max, command)
        clip = math.acos(sol.factors.i_script)
        first = ((clip if rail else -clip) - sol.psi) % math.pi
        second = first + (math.pi - 2.0 * clip if rail else 2.0 * clip)
        return y, rail, [t * self.steps / math.pi for t in (first, second) if t < math.pi]

    def first_candidate(self, rail: bool, ys, cur, i_max: float) -> int:
        """First step between samples ``ys`` (currents ``cur``) of one branch
        that may hold a switch under the limit ``i_max``: it ends outside the
        branch, or its guard's slope changes sign and the guard may peak
        past its level.  The number of steps if none does.

        The height ``g`` that leaves the branch above ``level`` is |i| over
        i_max on the free branch, and on the rail -sign(sigma) times the
        release guard over 0, with sigma the run's held rail value.  Within
        step j it peaks at most ``peak * ||ys[j]||_inf`` above the larger of
        its end samples (see :func:`_bend`).  A slope change whose bound
        stays below the level is a whole step; one whose bound is infinite
        or reaches the level stays a candidate, as does every step that ends
        outside the branch.  The free branch of a loop with winding
        inductance has a fast pole that makes its bound useless.
        """
        if not math.isfinite(i_max):
            return len(ys) - 1
        guard = self.guards[rail]
        if rail:
            g, level = -np.sign(ys[0, self.sigma]) * (ys @ guard.row), 0.0
        else:
            g, level = np.abs(cur), i_max
        out = g[1:] > level
        slope = np.sign(ys @ guard.slope)
        for j in np.flatnonzero(out | (slope[1:] != slope[:-1])):
            if out[j] or not max(g[j], g[j + 1]) + guard.peak * np.max(np.abs(ys[j])) < level:
                return int(j)
        return len(ys) - 1

    def switch(self, rail: bool, y, h: float, i_max: float, tol: float):
        """End state of a sub-step ``h`` from ``y``, and its first switch
        ``(tau, y_tau, sign)`` under the limit ``i_max``, or None.  The end
        state and every search point are ``Branch.transition(tau) @ y``.

        A guard positive at the end brackets a switch; one whose slope turns
        from rising to falling is checked at its located peak.  A located
        point whose guard rate is zero to within its rounding bound is a
        touch, not a switch: as a switch time of a Newton step (see
        :meth:`newton`) it would have that rate as its pivot.  After a
        release with winding inductance the current leaves the limit with
        zero slope, and a stiff sub-step's matrix exponential reads it one
        ulp above the limit.
        """
        br, guard = self.branch(rail), self.guards[rail]
        at = lambda tau: br.transition(tau) @ y
        y_end = at(h)
        if rail:  # positive once the command current is back inside
            signs, level = (-np.sign(y[self.sigma]),), 0.0
        else:
            signs, level = (1.0, -1.0), i_max
        # the guards +-row share the row's value at the end and its slope
        g_end = guard.row @ y_end
        rate, rate_end = guard.slope @ y, guard.slope @ y_end
        first = None
        for sign in signs:
            hi, y_hi = h, y_end
            if not sign * g_end - level > 0.0:
                if not sign * rate > 0.0 > sign * rate_end:
                    continue
                hi, y_hi = br.locate(at, y, y_end, h, -sign * guard.slope, 0.0, tol)
                if not sign * (guard.row @ y_hi) - level > 0.0:
                    continue
            tau, y_tau = br.locate(at, y, y_hi, hi, sign * guard.row, level, tol)
            # the guard's rate is the pivot of the switch time in :meth:`newton`
            bound = 2.0 * self.n * _EPS * (guard.abs_row @ (guard.abs_a @ np.abs(y_tau)))
            if not abs(guard.row @ (br.a @ y_tau)) > bound:
                continue
            if first is None or tau < first[0]:
                first = (tau, y_tau, sign)
        return y_end, first

    def cross(self, y, rail: bool, i_max: float, tol: float):
        """State and branch one step ``dt`` on from ``y``, through every
        switch on the way, with the step's ``(rail, duration)`` pieces."""
        dt, t = self.dt, 0.0
        pieces = []
        for _ in range(_MAX_EVENTS + 1):
            y_end, event = self.switch(rail, y, dt - t, i_max, tol)
            if event is None:
                pieces.append((rail, dt - t))
                return y_end, rail, pieces
            tau, y_switch, sign = event
            pieces.append((rail, tau))
            y = y_switch.copy()
            if not rail:  # entering the rail: it holds the limit
                y[self.sigma] = sign * i_max
            t += tau
            rail = not rail
        raise SimulationError(f"clip switched more than {_MAX_EVENTS} times in one step")

    def advance(self, rail: bool, t0: float, t1: float, m: np.ndarray) -> np.ndarray:
        """``m`` carried along branch ``rail`` from time t0 to t1 of the half
        period as a scanned map carries a state: by :meth:`Branch.transition`
        over the rest of t0's step, the power of the whole steps between,
        then the transition over the start of t1's step."""
        br, dt = self.branch(rail), self.dt
        first, last = math.ceil(t0 / dt), math.floor(t1 / dt)  # the whole steps' ends
        if first > last:  # t0 and t1 in one step
            return br.transition(t1 - t0) @ m
        m = br.transition(first * dt - t0) @ m
        if last > first:
            m = br.powers[last - first - 1] @ m
        return br.transition(t1 - last * dt) @ m

    def switched(self, m, rail: bool, taus: list, i_max: float):
        """The half period from the state in the first column of the matrix
        ``m``, on branch ``rail``, that switches at the times ``taus``,
        carried with the derivatives in the other columns, by the start's
        unknowns and, in the last s columns, by the switch times: G(y) and
        its derivatives in the same form, and the guard of the branch each
        switch leaves, over its level, as a row of the same columns.

        At a switch the reset R applies to the whole matrix, and the
        switch's column becomes R f- - f+, with f- and f+ the vector fields
        before and after it."""
        guards, t = np.empty((len(taus), m.shape[1])), 0.0
        for k, tau in enumerate(taus):
            m = self.advance(rail, t, tau, m)
            br, guard, t = self.branch(rail), self.guards[rail], tau
            m[:, k - len(taus)] = br.a @ m[:, 0]  # the state before the switch moves with it
            # the guard over its level: the current over +-i_max, the release guard over 0
            level = 0.0 if rail else math.copysign(i_max, guard.row @ m[:, 0])
            guards[k] = guard.row @ m
            guards[k, 0] -= level
            m = guard.reset @ m
            m[self.sigma, 0] += level  # entering the rail, it holds the limit
            rail = not rail
            m[:, k - len(taus)] -= self.branch(rail).a @ m[:, 0]
        return -self.advance(rail, t, self.steps * self.dt, m), guards

    def newton(self, y, rail: bool, taus: list, i_max: float):
        """One Newton step on the plant states y[u] and the switch times
        tau_1..tau_s of the half period from ``y`` on branch ``rail`` that
        switches at ``taus``.

        The equations are the anti-period residual G(y)[u] - y[u] and, per
        switch, the guard of the branch it leaves at its level (Aprille &
        Trick 1972, with the switching instants as unknowns as in di
        Bernardo et al., Piecewise-smooth Dynamical Systems, 2008), with the
        Jacobian :meth:`switched` carries through the s + 1 segments as one
        n x (1 + n_u + s) matrix, with n_u the unknown plant states; the
        system is filled in place from the guard's index arrays and identity
        columns, built with the loop.

        Returns the system, as rows [residual | d/dy[u] | d/dtau], the
        residual rows first, and the step: for y[u], then the s switch times.
        """
        guard = self.guards[rail]
        u, n_u, s = guard.index, len(guard.index), len(taus)
        # y, d/dy[u] and d/dtau: the n x (1 + n_u + s) matrix switched carries
        e = np.zeros((self.n, 1 + n_u + s))
        e[:, 0] = y
        e[:, 1 : 1 + n_u] = guard.columns
        m, guards = self.switched(e, rail, taus, i_max)
        rows = np.empty((n_u + s, 1 + n_u + s))  # G(y)[u] - y[u], then the s guards
        np.subtract(m[u], e[u], out=rows[:n_u])
        rows[n_u:] = guards
        return rows, np.linalg.solve(rows[:, 1:], -rows[:, 0])

    def shoot(self, y, rail: bool, plan, i_max: float, target: float):
        """Newton's method on the plant states y[u] and the half period's
        switch times tau_1..tau_s together, from the start ``y`` on branch
        ``rail`` and the switch ``plan`` in steps (see :meth:`start`), by
        steps of :meth:`newton`.  By half-wave symmetry, a tau at or before
        t = 0 moves to the end of the half period, and the start to the
        other branch, and one at or after T/2 back, in the plan as in every
        iterate.  A start whose residual ||G(y)[u] - y[u]|| / ||y[u]|| is at
        most ``target`` still takes its Newton step, down to rounding.

        Returns ``(start, branch, segments, iterations)``: that start, its
        branch, the s + 1 segments of its half period and the Newton steps
        taken.  On an odd or unordered set of switch times (which also ends
        a non-finite iterate), or no start at the target within
        ``_SWITCH_ITERATIONS`` steps, the iterate of the lowest residual and
        its branch, the start and branch given if no step was taken, with 0
        segments.
        """
        half, iterations = self.steps * self.dt, 0
        best = (math.inf, y, rail)  # (residual, start, branch) of the best iterate
        y, taus, s = y.copy(), [step * self.dt for step in plan], len(plan)
        done = False
        while True:
            if taus and (taus[0] <= 0.0 or taus[-1] >= half):  # a switch at or past an end
                taus = (taus[1:] + [taus[0] + half] if taus[0] <= 0.0
                        else [taus[-1] - half] + taus[:-1])
                rail = not rail  # entering the rail, the start holds the limit
                y[self.sigma] = math.copysign(i_max, self.free.i_row @ y)
            if done:
                return y, rail, s + 1, iterations
            if (iterations == _SWITCH_ITERATIONS or s % 2
                    or not all(a < b for a, b in zip([0.0] + taus, taus + [half]))):
                return best[1], best[2], 0, iterations
            u = self.guards[rail].index
            rows, step = self.newton(y, rail, taus, i_max)
            residual = _residual(rows[: len(u), 0], y[u])
            done = residual <= target
            if residual < best[0]:
                best = (residual, y.copy(), rail)
            iterations += 1
            y[u] += step[: len(u)]
            taus = [tau + d for tau, d in zip(taus, step[len(u) :].tolist())]

    def period(self, y, rail: bool, i_max: float, tol: float) -> _Period:
        """The anti-period map G(y) = -Phi_half(y) under the limit
        ``i_max``: half a period from ``y`` on branch ``rail``, with the
        oscillator restarted at its phase, then the end state negated.  Its
        fixed points are the half-wave symmetric periodic orbits; an
        asymmetric orbit, if the loop has one, is not sought.

        Whole-step runs advance by powers of the one-step flow, steps that
        may hold a switch by :meth:`cross`.  A run is scanned once from its
        start ``ys[k]``: one matrix-vector product of the powers stack
        samples the rest of the half period, and one :meth:`first_candidate`
        call finds where the run ends.  The samples past that step are
        overwritten by the runs that follow it.
        """
        steps, n, dt = self.steps, self.n, self.dt
        ys, cur, vl = np.empty((steps + 1, n)), np.empty(steps + 1), np.empty(steps + 1)
        ys[0] = y
        ys[0, self.osc] = self.y0[self.osc]
        cur[0] = ys[0] @ self.branch(rail).i_row
        vl[0] = ys[0] @ self.branch(rail).v_row
        segments = []

        def add(on_rail, start, duration):
            if segments and segments[-1][0] == on_rail:
                segments[-1] = (on_rail, segments[-1][1], segments[-1][2] + duration)
            else:
                segments.append((on_rail, start, duration))

        k = 0
        while k < steps:
            br = self.branch(rail)
            np.matmul(br.powers[: steps - k].reshape(-1, n), ys[k], out=ys[k + 1 :].reshape(-1))
            # the sample before the run keeps the product a matrix-vector one
            cur[k + 1 :] = (ys[k:] @ br.i_row)[1:]
            m = self.first_candidate(rail, ys[k:], cur[k:], i_max)
            vl[k + 1 : k + 1 + m] = ys[k + 1 : k + 1 + m] @ br.v_row
            if m:
                add(rail, k * dt, m * dt)
            k += m
            if k < steps:
                ys[k + 1], rail, pieces = self.cross(ys[k], rail, i_max, tol)
                cur[k + 1] = ys[k + 1] @ self.branch(rail).i_row
                vl[k + 1] = ys[k + 1] @ self.branch(rail).v_row
                start = k * dt
                for on_rail, duration in pieces:
                    add(on_rail, start, duration)
                    start += duration
                k += 1
        ys[steps], cur[steps], vl[steps] = -ys[steps], -cur[steps], -vl[steps]
        return _Period(ys, cur, vl, rail, segments)


def simulate(
    plant: WecPlant,
    z_c: complex,
    i_max: float = math.inf,
    cfg: SimConfig | None = None,
    n_harmonics: int = 9,
    solution: SaturationSolution | None = None,
) -> SimResult:
    """Shoot to the periodic steady state of the nonlinear loop and extract
    one period.

    ``z_c`` is the controller impedance value at the wave frequency (ohms,
    not normalized); ``i_max`` the hard current clip (infinity disables it).
    The excitation is |F_e| cos(w t + arg F_e).

    Shooting runs the anti-period map G(y) = -Phi_half(y), half a period
    and a negation (see :meth:`_Loop.period`), so it finds the half-wave
    symmetric orbit; an asymmetric one, if it exists, is not sought.  The
    first map starts from the describing function's orbit at t = 0 where it
    says the limit binds, and from the free branch's periodic orbit, the
    answer for a row that never clips, elsewhere (see :meth:`_Loop.start`).
    ``solution`` is the describing function's solution at this limit and
    controller if the caller has one, as :func:`validate_df` does; it is
    solved here where it is None or holds fewer than 9 harmonics.
    The start sets how many maps are run, not which orbit is found, on a
    loop with one attracting periodic response (a convergent one: Pavlov,
    van de Wouw & Nijmeijer, Syst. Control Lett. 2005).

    Every Newton step on y - G(y) = 0 over the plant states (Aprille &
    Trick, Proc. IEEE 1972) is one of the switch-time solve
    :meth:`_Loop.shoot`, which solves for the start and the half period's
    switch times together, propagating each segment exactly without
    sampling it, until the periodicity residual ||G(y) - y|| / ||y|| is at
    most ``min(cfg.convergence_tol, 1e-12)``.  Where the limit binds it
    runs first, from the describing function's clip angles.  One map,
    sampled and screened, is then run from the start it returns: its own
    where it settles, else its best iterate.  The row is done where the
    map meets the target, with the solve's segment count where it settled,
    so the returned orbit always comes from a sampled, fully screened half
    period.  A map that misses hands its end, and its own switch times,
    the starts of its segments after the first, to the solve again; so
    does a first map that misses from the free branch's orbit.

    That is the one path.  A solve that cannot lower the residual returns
    its start, whose map is then one of plain iteration of G, so a run
    whose solves all fail is plain iteration.  The 180 seeded validity
    rows take 183 maps: three settle in two, through the solve from the
    first map's end, where plain iteration after one solve took 26 to 38.
    The 60 rows of the stiff grid (windings of 5 mH down to 5 nH and none,
    on two test plants) take one map each.  With the stiff flows in
    float64, the solve stalled near a residual of 1e-11 on nine of them,
    which took 3 to 19 maps through a fallback to plain iteration of G or
    ran to the 40-map cap; the extended-precision flow (see
    :mod:`.propagate`) settles them.

    At most ``cfg.n_periods`` maps are run, and the run is converged when
    the final residual is at most ``cfg.convergence_tol``.  Extraction uses
    the final half period and its negation, whose samples are exact up to
    the switch-time tolerance ``cfg.algebraic_loop_tol * dt``.  A
    non-finite state, checked once per map, aborts with
    :class:`SimulationError` carrying the step index, counted over the half
    periods run.

    The loop does not depend on the limit: inside a :func:`_shared_loops`
    block, calls with the same plant, controller and step count share one;
    outside one, each call builds its own.  ``n_harmonics`` past the
    Nyquist bin of one period raises :class:`DomainError` before any period
    is run.
    """
    if not (i_max > 0.0):
        raise DomainError(f"current limit must be positive, got {i_max}")
    i_max = float(i_max)
    cfg = cfg or SimConfig()
    _check_nyquist(n_harmonics, cfg.steps_per_period, 1)
    period = 2.0 * math.pi / plant.omega
    steps = cfg.steps_per_period
    half = steps // 2
    dt = period / steps
    tol = cfg.algebraic_loop_tol * dt
    target = min(cfg.convergence_tol, _SHOOTING_TOL)
    loops = _LOOPS.get()
    if loops is None:  # outside a _shared_loops block the loop is this call's own
        loops = {}
    key = (plant, complex(z_c), half)
    if key not in loops:
        loops[key] = _Loop(plant, z_c, dt, half)
    loop = loops[key]

    if (solution is None or len(solution.harmonics) < 5) and math.isfinite(i_max) and plant.f_e:
        solution = solve_operating_point(thevenin_from_plant(plant), i_max, z_c=z_c)
    y, rail, plan = loop.start(i_max, solution)
    period_powers, segments, newton_steps = [], 0, 0
    for p in range(cfg.n_periods):
        if plan is not None:
            y, rail, segments, iterations = loop.shoot(y, rail, plan, i_max, target)
            newton_steps += iterations
        run = loop.period(y, rail, i_max, tol)
        finite = np.isfinite(run.ys[1:])
        if not finite.all():  # the row search runs only on a diverged map
            bad = int(np.flatnonzero(~finite.all(axis=1))[0])
            j = p * half + bad
            raise SimulationError(f"state diverged at step {j} (t = {(j + 1) * dt:.6g} s)",
                                  step=j, trace=tuple(run.ys[1 + bad]))
        period_powers.append(float(np.mean(run.vl[:half] * run.cur[:half])))
        u = loop.guards[rail].unknowns
        end = run.ys[half]
        residual = _residual(end[u] - y[u], y[u])
        # the map from a solved start must also keep the solve's segment count
        settled = residual <= target and (not segments or len(run.segments) == segments)
        if settled or p == cfg.n_periods - 1:
            break
        # solve again from the map's end, at the map's own switch times
        y, rail, plan = end, run.rail, [start / dt for _, start, _ in run.segments[1:]]

    # the stored period: the final half and its negation, as rows i, x, v, v_load
    first = np.stack((run.cur[:half], run.ys[:half, 0], run.ys[:half, 1], run.vl[:half]))
    cur, x, v, vl = rows = np.concatenate((first, -first), axis=1)
    t = np.arange(p * steps, (p + 1) * steps) * dt
    waveforms = np.empty(steps, dtype=[(name, np.float64) for name in WAVEFORM_FIELDS])
    for name, column in zip(WAVEFORM_FIELDS, (t, x, v, cur, vl, vl * cur)):
        waveforms[name] = column
    means, phasors = _phasors(t, rows[:2], plant.omega, n_harmonics)  # i and x in one FFT
    return SimResult(
        waveforms=waveforms,
        p_avg=period_powers[-1],
        harmonic_currents=[complex(b) for b in phasors[0]],
        dc_current=float(means[0]),
        x_amp=abs(complex(phasors[1, 0])),
        peak_current=float(np.max(np.abs(cur))),
        converged=residual <= cfg.convergence_tol,
        omega=plant.omega,
        dt=dt,
        period_powers=period_powers,
        periodicity_residual=residual,
        periods_run=p + 1,
        newton_steps=newton_steps,
        clip_fraction=2.0 * sum(d for on_rail, _, d in run.segments if on_rail) / period,
    )


@contextlib.contextmanager
def _shared_loops():
    """Within the block, :func:`simulate` builds one loop per plant,
    controller and step count and reuses it for every limit; the loops are
    dropped when the block ends, also on an exception."""
    token = _LOOPS.set({})
    try:
        yield
    finally:
        _LOOPS.reset(token)


def harmonic_decompose(result: SimResult, n_max: int) -> tuple[float, list[complex]]:
    """Fourier phasors of the steady-state current over the stored window.

    Returns ``(dc, [I_1, ..., I_n_max])`` with
    I_n = (2/T) integral of i(t) exp(-i n w t) over the window (cosine
    convention).  The DC term is reported separately and should be near zero
    for the odd-symmetric waveforms produced here.  The stored window must
    span an integer number of periods, otherwise the projection would leak,
    and ``n_max`` times that number must not exceed half the samples, else
    the harmonics would alias: both raise :class:`DomainError`.
    """
    return _phasors(result.waveforms["t"], result.waveforms["i"], result.omega, n_max)


def _phasors(t: np.ndarray, y: np.ndarray, omega: float, n_max: int):
    """``(mean, [Y_1, ..., Y_n_max])`` of samples ``y(t)`` on a uniform grid
    spanning a whole number c of periods; for ``y`` that stacks signals on
    that grid as rows, the array of their means and the array of their
    phasors, one row per signal, from one transform.

    Y_n = (2/N) sum y exp(-i n w t), the cosine-convention phasor, is bin
    n c of the real FFT of ``y``, turned back by the window's start phase
    n w t_0.  A window that is not a whole number of periods would leak, and
    a harmonic past the Nyquist bin, n_max c > N / 2, would alias: both raise
    :class:`DomainError`.
    """
    n = y.shape[-1]
    span = (t[-1] - t[0]) * n / (n - 1) * omega / (2.0 * math.pi)
    cycles = round(span)
    if abs(span - cycles) > 1e-9 or cycles < 1:
        raise DomainError(f"window spans {span:.6g} periods; need an integer count")
    _check_nyquist(n_max, n, cycles)
    orders = np.arange(1, n_max + 1)
    bins = np.fft.rfft(y)[..., orders * cycles] * np.exp(-1j * orders * omega * t[0])
    means, phasors = np.mean(y, axis=-1), 2.0 / n * bins
    if y.ndim > 1:
        return means, phasors
    return float(means), [complex(b) for b in phasors]


def _check_nyquist(n_max: int, n: int, cycles: int) -> None:
    """Raise :class:`DomainError` when harmonic ``n_max`` of ``n`` samples over
    ``cycles`` periods, bin ``n_max cycles``, is past the Nyquist bin ``n / 2``."""
    if 2 * n_max * cycles > n:
        raise DomainError(
            f"harmonic {n_max} of {n} samples over {cycles} periods is past the Nyquist bin"
        )


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
    sim = simulate(plant, z_c, i_max=i_max, cfg=cfg, n_harmonics=n_harmonics, solution=sol)

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
    write_csv(path, list(WAVEFORM_FIELDS), [result.waveforms[name] for name in WAVEFORM_FIELDS])
