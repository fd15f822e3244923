"""Seeded check of the describing function against the referee over a
domain of plant designs.

Sixty heave plants with winding inductance are drawn from seed 1 and each
is validated at clip fractions 0.2, 0.5 and 0.8.  ``draw_design`` is a copy
of the benchmark's design generator, so these draws stay fixed whatever the
benchmark does.  The test pins today's failures among the rows the method
claims (low-pass merit >= 3), so that a fix, or a new failure, shows.
"""

import numpy as np
import pytest

from wec_satlin import haskind_plant, matched_baseline, thevenin_from_plant, validate_df
from wec_satlin.simulate import _shared_loops

N_DESIGNS = 60
FRACTIONS = (0.2, 0.5, 0.8)
# (design index, fraction) of the merit >= 3 rows that fail validate_df
KNOWN_FAILURES = {
    (8, 0.2), (32, 0.2), (32, 0.5), (38, 0.2), (38, 0.5), (41, 0.2), (45, 0.2), (45, 0.5),
}


def draw_design(rng) -> dict:
    """Keyword arguments of a well-posed heave plant with winding inductance."""
    m = rng.uniform(2e4, 2e5)
    w = rng.uniform(0.5, 1.4)
    k_total = m * (w * rng.uniform(0.75, 1.3)) ** 2
    r_w = rng.uniform(0.005, 0.05)
    return {
        "m": 0.7 * m,
        "a_added": 0.3 * m,
        "b_h": rng.uniform(0.15, 0.8) * m * w,
        "k_h": 0.9 * k_total,
        "k_d": 0.1 * k_total,
        "g_ratio": rng.uniform(0.5, 2.0),
        "b_d": rng.uniform(0.0, 0.05) * m * w,
        "k_t": rng.uniform(50.0, 200.0),
        "r_w": r_w,
        "l_w": rng.uniform(0.5, 2.0) * r_w / w,
        "omega": w,
        "j_density": rng.uniform(2e3, 3e4),
        "k_wavenumber": w * w / 9.81,
        "g0": int(rng.integers(1, 3)),
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
