"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Each test also enforces its runtime budget.
"""

import math
import os
import time

import numpy as np

from conftest import random_plant, random_load
from oracles import circuit_solution, clipped_sine_fourier, gamma_disk_grid, ratios_on_grid
from wec_satlin import (
    NondimGroups,
    SimConfig,
    alpha_from_nondim,
    amplitude_ratio,
    gamma_for_amplitude_target,
    low_pass_merit,
    matched_baseline,
    matched_power,
    matched_power_from_plant,
    nondim_from_plant,
    optimal_alpha_m_for_limits,
    optimal_angle,
    power_ratio,
    saturation_factor,
    simulate,
    thevenin_from_plant,
    validate_df,
)
from wec_satlin.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_INI = os.path.join(os.path.dirname(__file__), "data", "golden.ini")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok


def test_criterion_01_identity_suite():
    t0 = time.perf_counter()
    assert power_ratio(0.5) == 0.75
    assert power_ratio(-0.5) == 0.75
    assert power_ratio(0.5j) == 0.75

    worst_sup = 0.0
    worst_eq = 0.0
    for alpha in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
        for g in np.arange(0.1, 0.95, 0.1):
            av = optimal_angle(float(g), alpha, +1)
            ai = optimal_angle(float(g), alpha, -1)
            worst_sup = max(
                worst_sup, abs(math.remainder(av + ai - math.pi, 2.0 * math.pi))
            )
            rv = amplitude_ratio(g * np.exp(1j * av), alpha, +1)
            ri = amplitude_ratio(g * np.exp(1j * ai), alpha, -1)
            worst_eq = max(worst_eq, abs(rv - ri))
    elapsed = time.perf_counter() - t0
    ok = worst_sup < 1e-9 and worst_eq < 1e-9 and elapsed < 1.0
    report(
        1,
        ok,
        f"power(|g|=0.5) exact, supplementary {worst_sup:.2e}, "
        f"equal-optima {worst_eq:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_argmin_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 1_000_000
    phi = np.linspace(-np.pi, np.pi, n, endpoint=False)
    step = 2.0 * np.pi / n
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    worst = 0.0
    for _ in range(50):
        alpha = rng.uniform(-10.0, 10.0)
        g = rng.uniform(0.05, 0.98)
        num = g * g + 2.0 * g * cos_phi + 1.0
        den = alpha * alpha * g * g + 2.0 * alpha * g * sin_phi + 1.0
        eps = 1 if rng.random() < 0.5 else -1
        obj = num / den if eps == 1 else (g * g - 2.0 * g * cos_phi + 1.0) / den
        k = int(np.argmin(obj))
        # parabolic refinement of the discrete minimum
        f0, f1, f2 = obj[(k - 1) % n], obj[k], obj[(k + 1) % n]
        denom = f0 - 2.0 * f1 + f2
        shift = 0.5 * (f0 - f2) / denom if denom != 0.0 else 0.0
        phi_oracle = phi[k] + shift * step
        phi_lib = optimal_angle(g, alpha, eps)
        worst = max(
            worst, abs(math.remainder(phi_lib - phi_oracle, 2.0 * math.pi))
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    report(2, ok, f"50 random (alpha, |gamma|) pairs, worst {worst:.2e} rad, {elapsed:.1f}s")


def test_criterion_03_two_route_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_alpha = 0.0
    worst_power = 0.0
    for _ in range(1000):
        plant = random_plant(rng)
        src = thevenin_from_plant(plant)
        groups = nondim_from_plant(plant)
        a_direct = src.alpha
        a_groups = alpha_from_nondim(groups)
        worst_alpha = max(
            worst_alpha, abs(a_groups - a_direct) / max(abs(a_direct), 1e-30)
        )
        p_direct = matched_power_from_plant(plant)
        p_groups = matched_power(
            groups, plant.j_density, plant.k_wavenumber, plant.g0
        )
        worst_power = max(worst_power, abs(p_groups - p_direct) / p_direct)
    elapsed = time.perf_counter() - t0
    ok = worst_alpha < 1e-12 and worst_power < 1e-10 and elapsed < 5.0
    report(
        3,
        ok,
        f"1000 plants: alpha rel {worst_alpha:.2e}, power rel {worst_power:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_04_describing_function_coefficients():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 3, 5, 7, 9):
        for i_script in np.arange(0.05, 0.951, 0.05):
            diff = abs(
                saturation_factor(n, float(i_script))
                - clipped_sine_fourier(n, float(i_script))
            )
            worst = max(worst, diff)
    worst_asym = 0.0
    for n in (1, 3, 5, 7, 9):
        gain = saturation_factor(n, 1e-4) / 1e-4
        worst_asym = max(worst_asym, abs(gain - 4.0 / (n * math.pi)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and worst_asym < 1e-5
    report(
        4,
        ok,
        f"quadrature worst {worst:.2e}, square-wave asymptote worst "
        f"{worst_asym:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_linear_oracle_closure():
    t0 = time.perf_counter()
    cfg = SimConfig(
        steps_per_period=1200,
        n_periods=36,
        convergence_tol=1e-6,
    )
    rng = np.random.default_rng(55)
    worst_p = 0.0
    worst_i = 0.0
    for k in range(10):
        plant = random_plant(rng, with_inductance=(k % 2 == 0))
        src = thevenin_from_plant(plant)
        for _ in range(3):
            z, z_l = random_load(rng, plant, cfg.steps_per_period)
            i_fd, v_fd = circuit_solution(src.v_th, src.z_th, z_l)
            p_fd = 0.5 * (v_fd * np.conj(i_fd)).real
            res = simulate(plant, z_l, cfg=cfg)
            worst_p = max(worst_p, abs(res.p_avg - p_fd) / abs(p_fd))
            worst_i = max(
                worst_i,
                abs(abs(res.harmonic_currents[0]) - abs(i_fd)) / abs(i_fd),
            )
    elapsed = time.perf_counter() - t0
    ok = worst_p < 0.005 and worst_i < 0.005 and elapsed < 60.0
    report(
        5,
        ok,
        f"30 plant/load combos: power rel {worst_p:.2e}, current rel "
        f"{worst_i:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_nonlinear_oracle_closure(lowpass_plant):
    t0 = time.perf_counter()
    merit = low_pass_merit(lowpass_plant)
    assert merit >= 3.0
    cfg = SimConfig(
        steps_per_period=1200,
        n_periods=32,
        convergence_tol=1e-5,
    )
    worst_p = 0.0
    worst_i = 0.0
    base = matched_baseline(thevenin_from_plant(lowpass_plant))
    for frac in (0.4, 0.6, 0.8):
        rep = validate_df(lowpass_plant, frac * base.i_peak_matched, cfg=cfg)
        worst_p = max(worst_p, rep.rel_err_power)
        worst_i = max(worst_i, rep.rel_err_fundamental)
    elapsed = time.perf_counter() - t0
    ok = worst_p < 0.05 and worst_i < 0.02 and elapsed < 120.0
    report(
        6,
        ok,
        f"merit {merit:.2f} plant: power rel {worst_p:.2e} (<5%), fundamental "
        f"rel {worst_i:.2e} (<2%), {elapsed:.1f}s",
    )


def test_criterion_07_pareto_monotonicity():
    t0 = time.perf_counter()
    achieved = []
    for alpha in (0.0, 1.0, 2.0, 5.0):
        gamma = gamma_for_amplitude_target(0.7, alpha, -1)
        achieved.append(power_ratio(gamma))
    monotone = all(b >= a - 1e-12 for a, b in zip(achieved, achieved[1:]))
    elapsed = time.perf_counter() - t0
    ok = monotone and elapsed < 5.0
    report(
        7,
        ok,
        "power at current ratio 0.7 over alpha {0,1,2,5}: "
        + " -> ".join(f"{p:.4f}" for p in achieved)
        + f", {elapsed:.1f}s",
    )


def test_criterion_08_constraint_targeting():
    t0 = time.perf_counter()
    worst_target = 0.0
    dominated = False
    for alpha, eps, target in (
        (0.0, -1, 0.5),
        (1.0, -1, 0.7),
        (3.0, -1, 0.7),
        (2.0, +1, 0.6),
        (5.0, -1, 0.3),
    ):
        gamma = gamma_for_amplitude_target(target, alpha, eps)
        worst_target = max(
            worst_target, abs(amplitude_ratio(gamma, alpha, eps) - target)
        )
        grid = gamma_disk_grid(300, 600)
        p, v, i = ratios_on_grid(grid, alpha)
        ratios = i if eps == -1 else v
        feasible = np.abs(ratios - target) <= 1e-3
        if np.max(p[feasible]) > power_ratio(gamma) + 1e-3:
            dominated = True
    elapsed = time.perf_counter() - t0
    ok = worst_target < 1e-8 and not dominated and elapsed < 10.0
    report(
        8,
        ok,
        f"target residual {worst_target:.2e} (<1e-8), grid-nondominated at "
        f"1e-3, {elapsed:.1f}s",
    )


def test_criterion_09_plant_design_optimum():
    t0 = time.perf_counter()
    corner = matched_power(NondimGroups(0.0, 1.0, 0.0, 0.0), 1.0, 1.0, 1)
    best = -math.inf
    for r in np.linspace(0.0, 5.0, 26):
        for d in np.linspace(0.04, 1.0, 25):
            for am in np.linspace(-5.0, 5.0, 41):
                p = matched_power(
                    NondimGroups(float(r), float(d), float(am), 0.0), 1.0, 1.0, 1
                )
                best = max(best, p)
    corner_is_max = corner >= best - 1e-14

    groups = NondimGroups(0.7, 0.9, 0.0, 0.0)
    a_star = optimal_alpha_m_for_limits(groups)[0]
    sweep = np.linspace(-8.0, 8.0, 80001)
    mags = np.abs(
        [alpha_from_nondim(NondimGroups(0.7, 0.9, float(am), 0.0)) for am in sweep]
    )
    a_sweep = abs(sweep[int(np.argmax(mags))])
    sweep_match = abs(a_sweep - a_star) <= (sweep[1] - sweep[0]) + 1e-12
    elapsed = time.perf_counter() - t0
    ok = corner_is_max and sweep_match and elapsed < 5.0
    report(
        9,
        ok,
        f"corner (0,1,0) attains grid max {best:.6f}; |alpha| argmax "
        f"{a_sweep:.4f} vs closed form {a_star:.4f}, {elapsed:.1f}s",
    )


def test_criterion_10_determinism_and_golden_files(tmp_path):
    t0 = time.perf_counter()
    identical = True
    matches_golden = True
    checks = (
        ("smith", ("smith_alpha_0.csv", "smith_alpha_1.csv",
                   "smith_alpha_2.csv", "smith_alpha_5.csv")),
        ("pareto", ("pareto.csv",)),
        ("fsat", ("fsat.csv",)),
    )
    for command, names in checks:
        out1 = tmp_path / f"{command}_1"
        out2 = tmp_path / f"{command}_2"
        assert main([command, "--config", GOLDEN_INI, "--out", str(out1)]) == 0
        assert main([command, "--config", GOLDEN_INI, "--out", str(out2)]) == 0
        for name in names:
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            with open(os.path.join(GOLDEN, name), "rb") as fh:
                golden = fh.read()
            identical &= b1 == b2
            matches_golden &= b1 == golden
    elapsed = time.perf_counter() - t0
    ok = identical and matches_golden
    report(
        10,
        ok,
        f"smith/pareto/fsat byte-identical across runs and equal to checked-in "
        f"goldens, {elapsed:.1f}s",
    )
