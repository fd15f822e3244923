"""Seeded check of the describing function against the referee over a
domain of plant designs.

Sixty heave plants with winding inductance are drawn from seed 1 and each
is validated at clip fractions 0.2, 0.5 and 0.8: the ``seeded`` rows of
``row_sets``.  The test pins today's failures among the rows the method
claims (low-pass merit >= 3), so that a fix, or a new failure, shows.
"""

import dataclasses

import numpy as np
import pytest

from row_sets import GOLDEN_INI, N_DESIGNS, SEEDED_FRACTIONS as FRACTIONS, draw_design
from wec_satlin import (
    gamma_for_amplitude_target,
    haskind_plant,
    matched_baseline,
    nondim_from_plant,
    optimal_alpha_m_for_limits,
    power_ratio,
    simulate,
    thevenin_from_plant,
    validate_df,
    z_from_gamma,
)
from wec_satlin.config import load_config
from wec_satlin.simulate import _shared_loops

# (design index, fraction) of the merit >= 3 rows that fail validate_df
KNOWN_FAILURES = {
    (8, 0.2), (32, 0.2), (32, 0.5), (38, 0.2), (38, 0.5), (41, 0.2), (45, 0.2), (45, 0.5),
}


@pytest.fixture(scope="module")
def rows():
    """(design index, fraction) -> (alpha, report) over the whole domain;
    the rows of one design share one referee loop, as in ``verify``."""
    rng = np.random.default_rng(1)
    out = {}
    with _shared_loops():
        for k in range(N_DESIGNS):
            plant = haskind_plant(**draw_design(rng))
            src = thevenin_from_plant(plant)
            i_peak = matched_baseline(src).i_peak_matched
            for fraction in FRACTIONS:
                out[k, fraction] = (src.alpha, validate_df(plant, fraction * i_peak))
    return out


def test_every_row_reaches_its_periodic_orbit(rows):
    for _, rep in rows.values():
        assert rep.sim.converged
        assert rep.sim.periods_run <= 4  # half-period maps: 2 periods


def test_failures_at_merit_three_are_pinned(rows):
    enforced = {key for key, (_, rep) in rows.items() if rep.enforced}
    assert all(rows[key][1].low_pass_merit >= 3.0 for key in enforced)
    assert len(enforced) == 117
    assert {key for key in enforced if not rows[key][1].passed} == KNOWN_FAILURES


def test_failures_are_power_only_and_conservative(rows):
    # every failure sits at alpha > 1 and fraction <= 0.5; the fundamental
    # current holds its 2 % and the referee delivers more power than the
    # describing function predicts
    for key in KNOWN_FAILURES:
        alpha, rep = rows[key]
        assert alpha > 1.0 and key[1] <= 0.5
        assert rep.rel_err_fundamental <= rep.fundamental_tol
        assert rep.p_simulated > rep.p_predicted
        assert rep.rel_err_power < 0.17


def _axis_plant(plant, alpha_m):
    """``plant`` with its mechanical reactance ratio moved to ``alpha_m``: by
    the mass for alpha_m >= 0 and by k_h below 0, so that the other groups
    stay as they are."""
    w, b, k_h, a_added = plant.omega, plant.b_h, plant.k_h, plant.a_added
    if alpha_m >= 0.0:
        return dataclasses.replace(plant, m=(alpha_m * b + k_h / w) / w - a_added)
    return dataclasses.replace(plant, k_h=w * (w * (plant.m + a_added) - alpha_m * b))


def test_limit_claim_along_alpha_m():
    # the paper's claim that plants at alpha_m* are least sensitive to force
    # limits, on the golden.ini plant (r_cal 0.05, d_cal 1, l_cal 0) at
    # equal peak current: it holds for the chart power ratio 1 - |gamma|^2
    # of the optimal-contour linear load, and the clipped conjugate
    # controller is the most sensitive there, under the describing function
    # and the referee alike (at f = 0.2: 0.4428 and 0.4427 at alpha_m = 0,
    # 0.2419 and 0.2467 at alpha_m*, 0.2457 and 0.2515 at 6)
    golden = load_config(GOLDEN_INI).plant
    a_star = optimal_alpha_m_for_limits(nondim_from_plant(golden))[0]
    mass_axis = (0.0, 2.0, a_star, 6.0)
    plants = {am: _axis_plant(golden, am) for am in mass_axis + (-a_star,)}
    for am, plant in plants.items():
        assert nondim_from_plant(plant).alpha_m == pytest.approx(am, rel=1e-12, abs=1e-12)
    sources = {am: thevenin_from_plant(plant) for am, plant in plants.items()}
    size = {am: abs(src.alpha) for am, src in sources.items()}
    assert max(size, key=size.get) in (a_star, -a_star)
    assert size[a_star] == pytest.approx(size[-a_star], rel=1e-12)
    reports = {}
    with _shared_loops():
        for am, plant in plants.items():
            baseline = matched_baseline(sources[am])
            for f in (0.2, 0.5):
                reports[am, f] = validate_df(plant, f * baseline.i_peak_matched)
    for f in (0.2, 0.5):
        p_matched = {am: matched_baseline(sources[am]).p_matched for am in mass_axis}
        df = {am: reports[am, f].p_predicted / p_matched[am] for am in mass_axis}
        referee = {am: reports[am, f].p_simulated / p_matched[am] for am in mass_axis}
        linear = {am: power_ratio(gamma_for_amplitude_target(f, sources[am].alpha, -1))
                  for am in mass_axis}
        assert min(df, key=df.get) == a_star
        assert min(referee, key=referee.get) == a_star
        assert max(linear, key=linear.get) == a_star
    # the describing function holds its merit of 3 at +alpha_m* (3.09), not
    # at 6 (2.67) or at -alpha_m* (0.84, an assumption violation)
    enforced = {am: [reports[am, f].enforced for f in (0.2, 0.5)] for am in plants}
    assert enforced == {0.0: [True, True], 2.0: [True, True], a_star: [True, True],
                        6.0: [False, False], -a_star: [False, False]}
    assert [am for am in plants if reports[am, 0.2].assumption_violated] == [-a_star]
    assert all(rep.passed for rep in reports.values() if rep.enforced)


def test_referee_runs_the_optimal_contour_load():
    # the linear side on the referee: the load z Z_th* on the optimal
    # contour at current ratio f, with no clip, keeps |I_1| at f times the
    # matched current, and its power is the circuit's 0.5 |I|^2 Re Z_L.
    # That equals the chart's 1 - |gamma|^2 at alpha = 0 only: at alpha_m*
    # the referee reads 0.255 and 0.726 of the matched power at f = 0.2 and
    # 0.5, against 0.581 and 0.897
    golden = load_config(GOLDEN_INI).plant
    a_star = optimal_alpha_m_for_limits(nondim_from_plant(golden))[0]
    for am in (0.0, a_star):
        plant = _axis_plant(golden, am)
        src = thevenin_from_plant(plant)
        baseline = matched_baseline(src)
        for f in (0.2, 0.5):
            gamma = gamma_for_amplitude_target(f, src.alpha, -1)
            z_l = z_from_gamma(gamma) * src.z_th.conjugate()
            res = simulate(plant, z_l)
            current = abs(src.v_th / (src.z_th + z_l))
            assert abs(res.harmonic_currents[0]) == pytest.approx(f * baseline.i_peak_matched,
                                                                  rel=1e-12)
            assert res.p_avg == pytest.approx(0.5 * current**2 * z_l.real, rel=1e-12)
            chart = power_ratio(gamma) * baseline.p_matched
            if am == 0.0:
                assert res.p_avg == pytest.approx(chart, rel=1e-12)
            else:
                assert res.p_avg < 0.85 * chart
