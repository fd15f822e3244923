"""Tests for the generic impedance-mismatch algebra."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from oracles import (
    amplitude_ratio_bruteforce_angle,
    circuit_power_quadrature,
    circuit_solution,
    gamma_disk_grid,
    gamma_magnitude_scan_bisect,
    nondominated_quadratic,
    ratios_on_grid,
)
from wec_satlin import (
    DomainError,
    InfeasibleError,
    SingularityError,
    TheveninSource,
    amplitude_ratio,
    gamma_for_amplitude_target,
    gamma_from_z,
    matched_baseline,
    operating_point,
    optimal_angle,
    pareto_front,
    power_ratio,
    smith_grid,
    z_from_gamma,
)
from wec_satlin.mismatch import PARETO_DTYPE, _nondominated, _pareto_candidates


class TestTheveninSource:
    def test_rejects_nonpositive_resistance(self):
        with pytest.raises(DomainError):
            TheveninSource(v_th=1.0 + 0j, z_th=-0.5 + 1j)
        with pytest.raises(DomainError):
            TheveninSource(v_th=1.0 + 0j, z_th=1j)

    def test_rejects_zero_voltage(self):
        with pytest.raises(DomainError):
            TheveninSource(v_th=0j, z_th=1.0 + 0j)

    def test_alpha(self):
        assert TheveninSource(2 + 0j, 1 + 2j).alpha == 2.0

    def test_harmonic_fallback_is_constant(self):
        src = TheveninSource(2 + 0j, 1 + 2j)
        assert src.z_th_at(3) == src.z_th


class TestMatchedBaseline:
    def test_unit_resistive_source(self):
        base = matched_baseline(TheveninSource(2 + 0j, 1 + 0j))
        assert base.p_matched == pytest.approx(0.5)
        assert base.v_peak_matched == pytest.approx(1.0)
        assert base.i_peak_matched == pytest.approx(1.0)

    def test_reactive_source(self):
        base = matched_baseline(TheveninSource(2 + 0j, 1 + 1j))
        assert base.p_matched == pytest.approx(0.5)
        assert base.v_peak_matched == pytest.approx(math.sqrt(2.0))
        assert base.i_peak_matched == pytest.approx(1.0)

    def test_power_against_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            v_th = rng.uniform(0.5, 10) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            z_th = complex(rng.uniform(0.1, 5), rng.uniform(-5, 5))
            p_oracle = circuit_power_quadrature(v_th, z_th, np.conj(z_th))
            base = matched_baseline(TheveninSource(v_th, z_th))
            assert base.p_matched == pytest.approx(p_oracle, rel=1e-9)

    def test_baseline_identity(self):
        # p = 0.5 v i / sqrt(1 + alpha^2), an algebraic consequence of the
        # matched expressions
        src = TheveninSource(3 - 2j, 0.7 + 2.1j)
        base = matched_baseline(src)
        expected = 0.5 * base.v_peak_matched * base.i_peak_matched
        expected /= math.sqrt(1.0 + src.alpha**2)
        assert base.p_matched == pytest.approx(expected, rel=1e-14)


class TestGammaTransforms:
    def test_matched_maps_to_origin(self):
        assert gamma_from_z(1.0) == 0.0

    def test_short_maps_to_minus_one(self):
        assert gamma_from_z(0.0) == -1.0

    def test_round_trip(self):
        z = 3.0 + 4.0j
        assert abs(z_from_gamma(gamma_from_z(z)) - z) < 1e-14

    def test_singularities(self):
        with pytest.raises(SingularityError):
            gamma_from_z(-1.0)
        with pytest.raises(SingularityError):
            z_from_gamma(1.0)

    def test_open_circuit_marker(self):
        assert gamma_from_z(complex(math.inf, 0.0)) == 1.0


class TestPowerRatio:
    def test_matched(self):
        assert power_ratio(0.0) == 1.0

    def test_half_magnitude(self):
        assert power_ratio(0.5j) == 0.75
        assert power_ratio(-0.5) == 0.75

    def test_full_reflection(self):
        assert power_ratio(-1.0) == 0.0

    def test_rejects_active_load(self):
        with pytest.raises(DomainError):
            power_ratio(1.0 + 0.1j)

    def test_complement_identity_machine_precision(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = rng.uniform(0, 1) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            assert power_ratio(g) + abs(g) ** 2 == pytest.approx(1.0, abs=5e-16)


class TestAmplitudeRatio:
    def test_matched_is_unity(self):
        for alpha in (0.0, 1.0, -3.0):
            for eps in (+1, -1):
                assert amplitude_ratio(0.0, alpha, eps) == 1.0

    def test_short_kills_voltage(self):
        assert amplitude_ratio(-1.0, 0.0, +1) == 0.0

    def test_real_axis_algebra(self):
        for r in (0.1, 0.4, 0.8):
            assert amplitude_ratio(r, 0.0, +1) == pytest.approx(1.0 + r)
            assert amplitude_ratio(r, 0.0, -1) == pytest.approx(1.0 - r)

    def test_against_phasor_circuit_oracle(self):
        # current ratio at gamma = 0.3 + 0.2j for an alpha = 2 source
        gamma = 0.3 + 0.2j
        z_th = 1.0 + 2.0j
        v_th = 5.0 * np.exp(0.3j)
        z_load = z_from_gamma(gamma) * np.conj(z_th)
        i_mis, _ = circuit_solution(v_th, z_th, z_load)
        i_mat, _ = circuit_solution(v_th, z_th, np.conj(z_th))
        assert amplitude_ratio(gamma, 2.0, -1) == pytest.approx(
            abs(i_mis) / abs(i_mat), rel=1e-12
        )
        assert amplitude_ratio(gamma, 2.0, -1) == pytest.approx(0.4779626302, rel=1e-9)

    def test_voltage_ratio_against_oracle(self):
        gamma = -0.25 + 0.45j
        z_th = 2.0 - 3.0j  # alpha = -1.5
        v_th = 1.0 + 0j
        z_load = z_from_gamma(gamma) * np.conj(z_th)
        i_mis, v_mis = circuit_solution(v_th, z_th, z_load)
        _, v_mat = circuit_solution(v_th, z_th, np.conj(z_th))
        assert amplitude_ratio(gamma, -1.5, +1) == pytest.approx(
            abs(v_mis) / abs(v_mat), rel=1e-12
        )

    def test_singular_denominator(self):
        with pytest.raises(SingularityError):
            amplitude_ratio(-0.5j, 2.0, +1)  # gamma = -i/alpha

    def test_invalid_epsilon(self):
        with pytest.raises(DomainError):
            amplitude_ratio(0.1, 1.0, 0)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            alpha = rng.uniform(0.05, 8)
            eps = +1 if rng.random() < 0.5 else -1
            assert amplitude_ratio(g, -alpha, eps) == pytest.approx(
                amplitude_ratio(np.conj(g), alpha, eps), abs=1e-12, rel=1e-12
            )


class TestOptimalAngle:
    def test_alpha_zero_limits(self):
        for g in (0.1, 0.5, 0.9):
            assert optimal_angle(g, 0.0, +1) == pytest.approx(math.pi)
            assert optimal_angle(g, 0.0, -1) == pytest.approx(0.0, abs=1e-15)

    def test_against_bruteforce_sweep(self):
        phi = optimal_angle(0.4, 2.0, +1)
        phi_bf = amplitude_ratio_bruteforce_angle(0.4, 2.0, +1, 2_000_001)
        assert abs(phi - phi_bf) < 1e-5

    def test_supplementary_angles(self):
        for alpha in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
            for g in np.arange(0.1, 0.95, 0.1):
                total = optimal_angle(g, alpha, +1) + optimal_angle(g, alpha, -1)
                assert math.remainder(total - math.pi, 2.0 * math.pi) == pytest.approx(
                    0.0, abs=1e-9
                )

    def test_equal_ratios_at_optima(self):
        for alpha in (0.25, 1.0, 2.0, 5.0, -3.0):
            for g in (0.2, 0.5, 0.8):
                rv = amplitude_ratio(
                    g * np.exp(1j * optimal_angle(g, alpha, +1)), alpha, +1
                )
                ri = amplitude_ratio(
                    g * np.exp(1j * optimal_angle(g, alpha, -1)), alpha, -1
                )
                assert rv == pytest.approx(ri, abs=1e-9)

    def test_wrapped_range(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            phi = optimal_angle(rng.uniform(0, 1), rng.uniform(-10, 10),
                                +1 if rng.random() < 0.5 else -1)
            assert -math.pi < phi <= math.pi

    def test_domain(self):
        with pytest.raises(DomainError):
            optimal_angle(1.2, 1.0, +1)
        with pytest.raises(DomainError):
            optimal_angle(-0.1, 1.0, +1)


class TestAmplitudeTarget:
    def test_target_one_is_matched(self):
        assert gamma_for_amplitude_target(1.0, 3.0, -1) == 0.0

    def test_real_axis_current_target(self):
        gamma = gamma_for_amplitude_target(0.5, 0.0, -1)
        assert gamma.real == pytest.approx(0.5, abs=1e-9)
        assert gamma.imag == pytest.approx(0.0, abs=1e-9)

    def test_meets_target_and_dominates_grid(self):
        target, alpha = 0.7, 3.0
        gamma = gamma_for_amplitude_target(target, alpha, -1)
        assert amplitude_ratio(gamma, alpha, -1) == pytest.approx(target, abs=1e-8)
        p_found = power_ratio(gamma)
        grid = gamma_disk_grid(400, 720)
        p, _, i = ratios_on_grid(grid, alpha)
        feasible = np.abs(i - target) <= 1e-3
        assert p_found >= np.max(p[feasible]) - 1e-3

    def test_voltage_side(self):
        gamma = gamma_for_amplitude_target(0.6, 1.5, +1)
        assert amplitude_ratio(gamma, 1.5, +1) == pytest.approx(0.6, abs=1e-8)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            gamma_for_amplitude_target(0.0, 1.0, -1)
        with pytest.raises(DomainError):
            gamma_for_amplitude_target(1.2, 1.0, -1)
        # the full ratio range (0, 1] is reachable along the contour, so
        # even extreme targets resolve rather than raising InfeasibleError
        gamma = gamma_for_amplitude_target(1e-6, 0.0, -1)
        assert amplitude_ratio(gamma, 0.0, -1) == pytest.approx(1e-6, abs=1e-8)

    def test_matches_scan_and_bisect_oracle(self):
        # every target in (0, 1) is met on both contours (the ratio runs from
        # 1 at gamma = 0 to 0 at |gamma| = 1), so both infeasible sets are empty
        for alpha in np.linspace(-20.0, 20.0, 81):
            for eps in (+1, -1):
                for target in np.linspace(0.05, 0.99, 40):
                    args = (float(target), float(alpha), eps)
                    try:
                        expected = gamma_magnitude_scan_bisect(*args)
                    except InfeasibleError:
                        with pytest.raises(InfeasibleError):
                            gamma_for_amplitude_target(*args)
                        continue
                    gamma = gamma_for_amplitude_target(*args)
                    phi = optimal_angle(expected, args[1], eps)
                    assert abs(gamma - expected * np.exp(1j * phi)) <= 1e-12

    def test_against_fifty_digit_arithmetic(self):
        # the exact smallest |gamma| meeting target r on either contour is
        # (1 - r^2) / (sqrt(1 + r^4 a^2) + r sqrt(1 + a^2)), evaluated here in
        # 50-digit decimal on the same float inputs
        side = np.geomspace(1e-2, 1e3, 11)
        alphas = np.concatenate([-side[::-1], [0.0], side])
        targets = np.geomspace(1e-6, 1.0 - 1e-9, 40)
        with localcontext() as ctx:
            ctx.prec = 50
            for alpha in alphas.tolist():
                a = Decimal(alpha)
                for target in targets.tolist():
                    r = Decimal(target)
                    g = (1 - r * r) / ((1 + r**4 * a * a).sqrt() + r * (1 + a * a).sqrt())
                    p_exact = float(1 - g * g)
                    for eps in (+1, -1):
                        gamma = gamma_for_amplitude_target(target, alpha, eps)
                        assert abs(abs(gamma) - float(g)) <= 1e-15
                        assert abs(power_ratio(gamma) - p_exact) <= 1e-9 * p_exact


class TestParetoFront:
    def test_matched_endpoint_first(self):
        front = pareto_front(1.0, 101)
        assert front[0]["power_ratio"] == 1.0
        assert front[0]["v_ratio"] == 1.0
        assert front[0]["i_ratio"] == 1.0

    def test_alpha_zero_real_axis_algebra(self):
        front = pareto_front(0.0, 201)
        for rec in front:
            r = math.sqrt(1.0 - rec["power_ratio"]) if rec["power_ratio"] <= 1 else 0.0
            pair = sorted((rec["v_ratio"], rec["i_ratio"]))
            assert pair[0] == pytest.approx(1.0 - r, abs=1e-9)
            assert pair[1] == pytest.approx(1.0 + r, abs=1e-9)

    def test_nondominated_against_dense_grid(self):
        alpha = 2.0
        front = pareto_front(alpha, 101)
        grid = gamma_disk_grid(300, 600)
        p, v, i = ratios_on_grid(grid, alpha)
        ok = np.isfinite(v) & np.isfinite(i)
        p, v, i = p[ok], v[ok], i[ok]
        tol = 1e-3
        for rec in front:
            dominating = (
                (p >= rec["power_ratio"] + tol)
                & (v <= rec["v_ratio"] - tol)
                & (i <= rec["i_ratio"] - tol)
            )
            assert not np.any(dominating)

    @pytest.mark.parametrize("n_points", [2, 3, 201, 2001])
    @pytest.mark.parametrize("alpha", [-3.0, 0.0, 0.5, 1.0, 2.0, 5.0])
    def test_sweep_filter_matches_quadratic_oracle(self, alpha, n_points):
        table = _pareto_candidates(alpha, n_points)
        np.testing.assert_array_equal(_nondominated(table), nondominated_quadratic(table))

    def test_sweep_filter_with_ties_inf_and_nan(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            vals = rng.integers(0, 4, size=(3, 50)).astype(float)
            vals[rng.random(vals.shape) < 0.05] = np.inf
            vals[rng.random(vals.shape) < 0.03] = -np.inf
            vals[rng.random(vals.shape) < 0.03] = np.nan
            table = np.rec.fromarrays(vals, dtype=PARETO_DTYPE)
            np.testing.assert_array_equal(
                _nondominated(table), nondominated_quadratic(table)
            )

    def test_sorted_descending_power(self):
        front = pareto_front(5.0, 101)
        assert np.all(np.diff(front["power_ratio"]) <= 0.0)

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            pareto_front(1.0, 1)

    def test_monotone_benefit_with_alpha(self):
        # at a fixed current ratio the achievable power does not drop as the
        # source grows more reactive
        achieved = []
        for alpha in (0.0, 1.0, 2.0, 5.0):
            gamma = gamma_for_amplitude_target(0.7, alpha, -1)
            achieved.append(power_ratio(gamma))
        assert all(b >= a - 1e-12 for a, b in zip(achieved, achieved[1:]))


class TestSmithGrid:
    def test_center_cell(self):
        grid = smith_grid(1.0, resolution=11, n_angular=8)
        center = grid[np.abs(grid["gamma"]) == 0.0]
        assert np.allclose(center["v_ratio"], 1.0)
        assert np.allclose(center["i_ratio"], 1.0)
        assert not center["v_exceeds_one"].any()
        assert not center["i_exceeds_one"].any()

    def test_alpha_zero_real_axis_flag_equivalence(self):
        grid = smith_grid(0.0, resolution=41, n_angular=36)
        on_axis = (np.abs(grid["gamma"].imag) < 1e-12) & (np.abs(grid["gamma"]) > 0)
        sub = grid[on_axis]
        assert np.array_equal(sub["v_exceeds_one"], sub["i_ratio"] < 1.0)

    def test_flags_match_ratio_recomputation(self):
        grid = smith_grid(2.0, resolution=31, n_angular=60)
        assert np.array_equal(grid["v_exceeds_one"], grid["v_ratio"] > 1.0)
        assert np.array_equal(grid["i_exceeds_one"], grid["i_ratio"] > 1.0)

    def test_flag_boundary_against_root_find(self):
        from scipy.optimize import brentq

        alpha, res, nang = 1.5, 201, 24
        grid = smith_grid(alpha, resolution=res, n_angular=nang)
        v = grid["v_ratio"].reshape(res, nang)
        radii = np.linspace(0.0, 1.0, res)
        thetas = -np.pi + 2.0 * np.pi * np.arange(nang) / nang

        def ratio_minus_one(g, theta):
            return amplitude_ratio(g * np.exp(1j * theta), alpha, +1) - 1.0

        checked = 0
        for j, theta in enumerate(thetas):
            col = v[:, j] - 1.0
            for k in range(res - 1):
                if col[k] * col[k + 1] < 0.0:
                    root = brentq(ratio_minus_one, radii[k], radii[k + 1], args=(theta,))
                    assert radii[k] <= root <= radii[k + 1]
                    checked += 1
        assert checked > 0

    def test_deterministic(self):
        a = smith_grid(2.0, resolution=21, n_angular=36)
        b = smith_grid(2.0, resolution=21, n_angular=36)
        assert np.array_equal(a, b)

    def test_resolution_guard(self):
        with pytest.raises(DomainError):
            smith_grid(1.0, resolution=1)


class TestOperatingPoint:
    def test_assembles_consistent_record(self):
        pt = operating_point(0.2 + 0.1j, alpha=1.0, epsilon=-1)
        assert pt.power_ratio == pytest.approx(1.0 - abs(pt.gamma) ** 2)
        assert abs(gamma_from_z(pt.z) - pt.gamma) < 1e-14
        assert pt.epsilon == -1
