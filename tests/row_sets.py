"""The referee's row sets, shared by the tests and ``tools/referee_census.py``.

A row is ``(plant, z_c, i_max)``, or ``(plant, z_c, i_max, cfg)`` where it
has its own :class:`SimConfig`, with conjugate control at a clip fraction
of the matched peak.  The sets:

- ``seeded``: 60 heave plants with winding inductance drawn from seed 1 by
  ``draw_design``, at fractions 0.2, 0.5 and 0.8 (180 rows).
- ``stiff``: the stiff grid, the reactive and the low-pass plant at every
  winding of ``STIFF_WINDINGS``, at fractions 0.4, 0.6 and 0.8 (60 rows).
- ``reactive``: the ``verify_reactive`` rows, the reactive plant with a
  5 mH winding at fractions 0.4, 0.6, 0.8 and 1.0.
- ``golden``: the clipped rows of ``golden.ini``'s verify, with its
  ``[sim]`` settings.
- ``invariants``: 300 heave plants drawn from seed 5 by ``draw_design``,
  each at three fractions drawn uniformly in 0.1 to 1.0 after it (900
  rows), the rows on which ``p_avg`` was seen above ``p_matched``.

The package is looked up when a set is built, not when this module is
imported, so that a tool can install another tree as ``wec_satlin``.
"""

from __future__ import annotations

import importlib
import os

import numpy as np

GOLDEN_INI = os.path.join(os.path.dirname(__file__), "data", "golden.ini")

N_DESIGNS = 60
SEEDED_FRACTIONS = (0.2, 0.5, 0.8)

REACTIVE_PLANT = dict(
    m=6.0e4, a_added=4.0e4, b_h=5.0e4, k_h=1.5e5, k_t=100.0, r_w=0.01, l_w=0.005,
    omega=1.0, j_density=1.0e4, k_wavenumber=0.102, g0=1,
)

# the stiff grid: winding inductances from the benchmark plant's 5 mH to the
# algebraic loop, on the reactive plant and on the low-pass plant, each at
# clip fractions 0.4, 0.6 and 0.8 of the matched peak, default SimConfig
STIFF_WINDINGS = (5e-3, 5e-4, 5e-5, 1e-5, 5e-6, 5e-7, 5e-8, 2e-8, 5e-9, 0.0)
GRID_PLANTS = ("reactive", "lowpass")
GRID_FRACTIONS = (0.4, 0.6, 0.8)


def _pkg():
    return importlib.import_module("wec_satlin")


def draw_design(rng) -> dict:
    """Keyword arguments of a well-posed heave plant with winding inductance.

    A copy of the benchmark's design generator, so these draws stay fixed
    whatever the benchmark does."""
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


def conjugate_rows(plant, fractions) -> list:
    """(plant, z_c, i_max) under conjugate control at each clip fraction of
    the matched peak."""
    w = _pkg()
    src = w.thevenin_from_plant(plant)
    peak = w.matched_baseline(src).i_peak_matched
    return [(plant, src.z_th.conjugate(), frac * peak) for frac in fractions]


def grid_plant(name, l_w):
    """The reactive plant (k_h = 1.5e5) or the low-pass plant (1e5) with
    winding inductance ``l_w``."""
    k_h = REACTIVE_PLANT["k_h"] if name == "reactive" else 1.0e5
    return _pkg().haskind_plant(**dict(REACTIVE_PLANT, k_h=k_h, l_w=l_w))


def reactive_rows() -> list:
    """The verify_reactive rows: fractions 0.4, 0.6, 0.8 and 1.0."""
    return conjugate_rows(_pkg().haskind_plant(**REACTIVE_PLANT), (0.4, 0.6, 0.8, 1.0))


def seeded_rows() -> list:
    """The 180 seeded validity rows, three fractions per design in draw order."""
    rng = np.random.default_rng(1)
    return [row for _ in range(N_DESIGNS)
            for row in conjugate_rows(_pkg().haskind_plant(**draw_design(rng)),
                                      SEEDED_FRACTIONS)]


def invariant_rows() -> list:
    """The 900 invariant rows: each of 300 designs of seed 5, then its
    three fractions, drawn from the same generator."""
    rng = np.random.default_rng(5)
    return [row for _ in range(300)
            for row in conjugate_rows(_pkg().haskind_plant(**draw_design(rng)),
                                      rng.uniform(0.1, 1.0, 3))]


def grid_rows() -> list:
    """The 60 stiff-grid rows, by plant, then winding, then fraction."""
    return [row for name in GRID_PLANTS for l_w in STIFF_WINDINGS
            for row in conjugate_rows(grid_plant(name, l_w), GRID_FRACTIONS)]


def golden_rows() -> list:
    """(plant, z_c, i_max, cfg) of the clipped rows of golden.ini's verify."""
    cfg = importlib.import_module(_pkg().__name__ + ".config").load_config(GOLDEN_INI)
    fractions = [frac for frac in cfg.i_max_fractions if frac < 1.0]
    return [row + (cfg.sim,) for row in conjugate_rows(cfg.require_plant("verify"), fractions)]


ROW_SETS = {"seeded": seeded_rows, "stiff": grid_rows, "reactive": reactive_rows,
            "golden": golden_rows, "invariants": invariant_rows}
