"""Shared fixtures: reference plants and a stability-aware random sampler."""

import math

import numpy as np
import pytest

from wec_satlin import SimConfig, haskind_plant, thevenin_from_plant, z_from_gamma


@pytest.fixture(scope="session")
def lowpass_plant():
    """Resonant heave plant with strong coupling: merit ~ 5, alpha = 0."""
    return haskind_plant(
        m=6.0e4,
        a_added=4.0e4,
        b_h=5.0e4,
        k_h=1.0e5,
        k_t=100.0,
        r_w=0.01,
        omega=1.0,
        j_density=1.0e4,
        k_wavenumber=0.102,
        g0=1,
    )


@pytest.fixture(scope="session")
def fast_sim():
    """Accurate but quick settings for steady-state closure checks."""
    return SimConfig(
        steps_per_period=1200,
        n_periods=36,
        convergence_tol=1e-6,
    )


def random_plant(rng, with_inductance=True):
    """A well-damped, well-posed plant; transients die within ~20 periods."""
    m = rng.uniform(2e4, 2e5)
    w = rng.uniform(0.5, 1.4)
    wn = w * rng.uniform(0.75, 1.3)
    K = m * wn * wn
    r_w = rng.uniform(0.005, 0.05)
    l_w = rng.uniform(0.5, 2.0) * r_w / w if with_inductance else 0.0
    return haskind_plant(
        m=0.7 * m,
        a_added=0.3 * m,
        b_h=rng.uniform(0.15, 0.8) * m * w,
        k_h=0.9 * K,
        k_d=0.1 * K,
        g_ratio=rng.uniform(0.5, 2.0),
        b_d=rng.uniform(0.0, 0.05) * m * w,
        k_t=rng.uniform(50, 200),
        r_w=r_w,
        l_w=l_w,
        omega=w,
        j_density=rng.uniform(2e3, 3e4),
        k_wavenumber=w * w / 9.81,
        g0=int(rng.integers(1, 3)),
    )


def random_load(rng, plant, steps_per_period, gamma_max=0.6):
    """Normalized load z with |gamma| <= gamma_max whose realization is

    dissipative (Re Z_L > 0) and whose fastest pole stays below 0.8 per
    step at the given resolution.  The exact referee needs no such bound;
    it is kept so that seeded draws, and the tests built on them, stay the
    same as under the fixed-step integrator it replaced.
    """
    src = thevenin_from_plant(plant)
    period = 2.0 * math.pi / plant.omega
    dt = period / steps_per_period
    while True:
        gamma = rng.uniform(0.0, gamma_max) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        z = z_from_gamma(gamma)
        z_l = z * np.conj(src.z_th)
        if z_l.real <= 0.05 * abs(z_l):
            continue
        if z_l.imag > 0.0:  # series-inductance realization
            rate = (z_l.real + plant.r_w) / (plant.l_w + z_l.imag / plant.omega)
        elif plant.l_w > 0.0:
            rate = (z_l.real + plant.r_w) / plant.l_w
        else:  # filter pole of the series-stiffness realization
            rate = plant.omega * abs(z_l.imag) / z_l.real
        if rate * dt < 0.8:
            return z, z_l
