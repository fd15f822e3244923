"""Tests for the generic impedance-mismatch algebra."""

import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from wec_satlin.descfcn import linear_saturation_equivalent
from wec_satlin.mismatch import ALPHA_LIMIT, wrap_angle

GOLDEN = Path(__file__).parent / "golden"


class TestTheveninSource:
    def test_rejects_nonpositive_resistance(self):
        with pytest.raises(DomainError):
            TheveninSource(v_th=1.0 + 0j, z_th=-0.5 + 1j)
        with pytest.raises(DomainError):
            TheveninSource(v_th=1.0 + 0j, z_th=1j)

    def test_rejects_zero_voltage(self):
        with pytest.raises(DomainError):
            TheveninSource(v_th=0j, z_th=1.0 + 0j)

    @pytest.mark.parametrize("v_th, z_th", [
        (1.0 + 0j, complex(1.0, math.nan)),  # alpha and v_peak_matched were nan
        (complex(math.inf, 0.0), 1.0 + 0j),  # p_matched was inf
        (1.0 + 0j, complex(math.inf, 1.0)),
    ])
    def test_rejects_non_finite_source(self, v_th, z_th):
        with pytest.raises(DomainError, match="finite"):
            TheveninSource(v_th=v_th, z_th=z_th)

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
        for g in ([0.5, 1.2], [-0.1, 0.5]):
            with pytest.raises(DomainError, match="gamma magnitude must lie in"):
                optimal_angle(np.array(g), 1.0, +1)


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
        # fixed cases outside the property below (alpha = 0, 2001 points):
        # the quadratic oracle keeps every point of the swept contours
        front = pareto_front(alpha, n_points)
        assert len(front) == 2 * n_points - 1
        assert nondominated_quadratic(front).all()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(magnitude=st.floats(1e-12, 1e6), sign=st.sampled_from((1.0, -1.0)),
           n_points=st.integers(2, 500))
    def test_front_is_nondominated(self, magnitude, sign, n_points):
        front = pareto_front(sign * magnitude, n_points)
        assert len(front) == 2 * n_points - 1
        assert nondominated_quadratic(front).all()

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

    def test_rounded_singular_cell_is_large_and_finite(self):
        # the golden alpha = 5 grid's gamma = -i/alpha cell rounds to
        # 1.2e-17 - 0.2i, where cancellation leaves a finite ratio, not inf
        grid = smith_grid(5.0, resolution=21, n_angular=72)
        cell = grid[4 * 72 + 18]
        assert abs(cell["gamma"] + 0.2j) < 1e-16
        for key in ("v_ratio", "i_ratio"):
            assert math.isfinite(cell[key]) and f"{cell[key]:.12g}" == "68437881.4142"
        with open(GOLDEN / "smith_alpha_5.csv", encoding="utf-8") as fh:
            line = fh.read().splitlines()[307]
        assert line.split(",")[4:6] == ["68437881.4142", "68437881.4142"]

    def test_gamma_and_power_ratio_do_not_depend_on_alpha(self):
        # the CLI renders these columns once for all alphas of a smith run
        base = smith_grid(0.0, resolution=21, n_angular=72)
        for alpha in (1.0, 2.0, 5.0, -3.3, 1e-7, -1.5, 1e8):
            grid = smith_grid(alpha, resolution=21, n_angular=72)
            for key in ("gamma", "power_ratio"):
                # bytes, so that -0.0 and 0.0 count as different
                assert grid[key].tobytes() == base[key].tobytes()
        assert np.signbit(base["gamma"].imag).any() and (base["gamma"].imag == 0.0).any()

    def test_deterministic(self):
        a = smith_grid(2.0, resolution=21, n_angular=36)
        b = smith_grid(2.0, resolution=21, n_angular=36)
        assert np.array_equal(a, b)

    def test_resolution_guard(self):
        with pytest.raises(DomainError):
            smith_grid(1.0, resolution=1)
        with pytest.raises(DomainError, match="n_angular must be at least 2, got 1"):
            smith_grid(1.0, resolution=5, n_angular=1)


class TestAlphaLimit:
    """|alpha| must stay below (largest float)^(1/4), where the closed forms'
    (alpha^2 g^2 + 1)^2 overflows; a warning is an error under this suite."""

    def test_limit_is_where_the_square_overflows(self):
        below = math.nextafter(ALPHA_LIMIT, 0.0)
        assert math.isfinite((below * below + 1.0) ** 2)
        assert math.isinf(ALPHA_LIMIT**2 * ALPHA_LIMIT**2)

    @pytest.mark.parametrize("alpha", [1e76, -1e76, math.nextafter(ALPHA_LIMIT, 0.0)])
    def test_below_the_limit_runs(self, alpha):
        gs = np.linspace(0.0, 1.0, 5)
        for eps in (+1, -1):
            assert np.isfinite(optimal_angle(gs, alpha, eps)).all()
            assert math.isfinite(optimal_angle(1.0, alpha, eps))
            gamma = gamma_for_amplitude_target(0.5, alpha, eps)
            assert amplitude_ratio(gamma, alpha, eps) == pytest.approx(0.5)
        front = pareto_front(alpha, 5)
        assert len(front) == 9 and np.isfinite(front.tolist()).all()
        grid = smith_grid(alpha, resolution=5, n_angular=8)
        assert not np.isnan(grid["v_ratio"]).any()

    @pytest.mark.parametrize("alpha", [ALPHA_LIMIT, 1e78, -1e78, 1e200, -math.inf])
    def test_at_and_above_the_limit_is_rejected(self, alpha):
        calls = [
            lambda: optimal_angle(np.linspace(0.0, 1.0, 5), alpha, +1),
            lambda: optimal_angle(0.5, alpha, -1),
            lambda: amplitude_ratio(0.1 + 0.2j, alpha, +1),
            lambda: amplitude_ratio(np.array([0.1, 0.2j]), alpha, -1),
            lambda: gamma_for_amplitude_target(0.5, alpha, -1),
            lambda: pareto_front(alpha, 5),
            lambda: smith_grid(alpha, resolution=5, n_angular=8),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="alpha"):
                call()


class TestOperatingPoint:
    def test_assembles_consistent_record(self):
        pt = operating_point(0.2 + 0.1j, alpha=1.0, epsilon=-1)
        assert pt.power_ratio == pytest.approx(1.0 - abs(pt.gamma) ** 2)
        assert abs(gamma_from_z(pt.z) - pt.gamma) < 1e-14
        assert pt.epsilon == -1


# Unit roundoff of binary64.
U = 2.0**-53


def scalar_grid():
    """Seeded (alpha, gamma) grid for comparing the scalar and array paths.

    alpha covers [-1000, 1000] with 0 and +-1; |gamma| includes 0, 1,
    1 + 4e-10 and 1 + 5e-10.  Both functions apply the 1e-9 tolerance to
    |gamma|^2, which admits 1 + 4e-10 (power 0, angle clamped to |gamma| = 1)
    and puts 1 + 5e-10 on the bound: exactly for ``optimal_angle``, to the
    rounding of re^2 + im^2 for ``power_ratio``.
    """
    rng = np.random.default_rng(7)
    alphas = np.concatenate([[0.0, 1.0, -1.0, 1000.0, -1000.0],
                             rng.uniform(-1000.0, 1000.0, 10),
                             rng.uniform(-3.0, 3.0, 10)])
    mags = np.concatenate([[0.0, 1.0, 1.0 + 4e-10, 1.0 + 5e-10],
                           rng.uniform(0.0, 1.0, 26)])
    gammas = mags * np.exp(1j * rng.uniform(-np.pi, np.pi, mags.size))
    return alphas, mags, gammas


class TestScalarPath:
    """Scalars go through ``math``; arrays keep the numpy evaluation."""

    def test_power_ratio_agrees_with_array(self):
        _, mags, gammas = scalar_grid()
        gammas = gammas[mags != 1.0 + 5e-10]
        arr = power_ratio(gammas)
        for g, p in zip(gammas.tolist(), arr.tolist()):
            # only |gamma|^2 differs (abs and the square may round
            # differently): allow a few ulp of 1 + |gamma|^2
            assert abs(power_ratio(g) - p) <= 4.0 * U * (1.0 + abs(g) ** 2)

    def test_power_ratio_bound_agrees_with_array(self):
        # |gamma| = 1 + 5e-10 puts |gamma|^2 on the 1e-9 bound to rounding:
        # both paths must reject exactly the same angles
        theta = np.random.default_rng(5).uniform(-np.pi, np.pi, 4000)
        raised = set()
        for g in ((1.0 + 5e-10) * np.exp(1j * theta)).tolist():
            outcome = []
            for value in (g, np.array([g])):
                try:
                    power_ratio(value)
                    outcome.append(False)
                except DomainError:
                    outcome.append(True)
            assert outcome[0] == outcome[1], g
            raised.add(outcome[0])
        assert raised == {False, True}

    def test_amplitude_ratio_agrees_with_array(self):
        alphas, _, gammas = scalar_grid()
        re, im, g2 = np.abs(gammas.real), np.abs(gammas.imag), np.abs(gammas) ** 2
        for alpha in alphas.tolist():
            for eps in (+1, -1):
                arr = amplitude_ratio(gammas, alpha, eps)
                num = g2 + 2.0 * eps * gammas.real + 1.0
                den = alpha**2 * g2 + 2.0 * alpha * gammas.imag + 1.0
                # |gamma|^2 may differ as above; allow a few ulp of the sum of
                # the term magnitudes, where num and den may cancel
                e_num = 4.0 * U * (1.0 + g2 + 2.0 * re)
                e_den = 4.0 * U * (1.0 + alpha**2 * g2 + 2.0 * abs(alpha) * im)
                lo = np.sqrt(np.maximum(num - e_num, 0.0) / (den + e_den))
                hi = np.sqrt((num + e_num) / (den - e_den))
                for k, g in enumerate(gammas.tolist()):
                    r = amplitude_ratio(g, alpha, eps)
                    # plus the division and square root on each side
                    assert lo[k] * (1.0 - 4.0 * U) <= r <= hi[k] * (1.0 + 4.0 * U)
                    assert lo[k] * (1.0 - 4.0 * U) <= arr[k] <= hi[k] * (1.0 + 4.0 * U)

    def test_optimal_angle_agrees_with_array(self):
        # Both paths form the atan and acos arguments with the same correctly
        # rounded operations (squares as products), so only the libraries'
        # atan and acos differ: allow 4 ulp of each result, plus one for the
        # rounded quotient that the scalar path's atan2 does not take.  The
        # atan result is doubled; then the sum and the two wrap additions
        # round once each on each side, by at most half an ulp of 2 pi.
        alphas, mags, _ = scalar_grid()
        tol = (2.0 * 5.0 * math.ulp(math.pi / 2.0) + 4.0 * math.ulp(math.pi)
               + 2.0 * 3.0 * 0.5 * math.ulp(2.0 * math.pi))
        for alpha in alphas.tolist():
            for eps in (+1, -1):
                arr = optimal_angle(mags, alpha, eps)
                for g, phi in zip(mags.tolist(), arr.tolist()):
                    diff = optimal_angle(g, alpha, eps) - phi
                    assert abs(math.remainder(diff, 2.0 * math.pi)) <= tol

    def test_wrap_angle_matches_array_bit_for_bit(self):
        # Python's float % and numpy's mod share the floor-mod rule
        rng = np.random.default_rng(11)
        special = [0.0, math.pi, -math.pi, 2.0 * math.pi, -3.0 * math.pi]
        angles = np.concatenate([special, rng.uniform(-50.0, 50.0, 200)])
        arr = wrap_angle(angles)
        for a, w in zip(angles.tolist(), arr.tolist()):
            assert wrap_angle(a) == w
            assert -math.pi < w <= math.pi

    @pytest.mark.parametrize("wrap", [lambda x: x, np.array], ids=["scalar", "array"])
    def test_same_exceptions_as_array(self, wrap):
        with pytest.raises(DomainError):
            power_ratio(wrap(1.0 + 2e-9))
        with pytest.raises(DomainError):
            optimal_angle(wrap(1.0 + 2e-9), 1.0, +1)
        with pytest.raises(DomainError):
            optimal_angle(wrap(-0.1), 1.0, -1)
        for eps in (+1, -1):
            with pytest.raises(SingularityError):
                amplitude_ratio(wrap(-0.5j), 2.0, eps)  # gamma = -i/alpha
        with pytest.raises(DomainError):
            amplitude_ratio(wrap(0.1), 1.0, 0)
        with pytest.raises(DomainError):
            optimal_angle(wrap(0.1), 1.0, 0)

    @pytest.mark.parametrize("value", [0, 0.5, np.float64(0.5), np.array(0.5)],
                             ids=["int", "float", "float64", "0-d"])
    def test_scalar_types_return_python_float(self, value):
        assert type(power_ratio(value)) is float
        assert type(amplitude_ratio(value, 2.0, -1)) is float
        assert type(optimal_angle(value, 2.0, +1)) is float
        assert type(wrap_angle(value)) is float

    def test_complex_scalars(self):
        for g in (0.3 + 0.4j, np.complex128(0.3 + 0.4j), np.array(0.3 + 0.4j)):
            assert type(power_ratio(g)) is float
            assert type(amplitude_ratio(g, 2.0, -1)) is float
        assert type(gamma_for_amplitude_target(0.4, 2.0, -1)) is complex

    def test_nan_scalar_is_rejected(self):
        nan = math.nan
        for g in (nan, complex(nan, 0.0), complex(0.0, nan), np.array(nan)):
            with pytest.raises(DomainError):
                power_ratio(g)
            with pytest.raises(DomainError):
                amplitude_ratio(g, 1.0, +1)
        with pytest.raises(DomainError):
            amplitude_ratio(0.1, nan, -1)
        with pytest.raises(DomainError):
            optimal_angle(nan, 1.0, +1)
        with pytest.raises(DomainError):
            optimal_angle(0.5, nan, -1)

    def test_cancelled_atan_denominator(self):
        # at g = 0, sigma + eps alpha (1 + g^2) = sqrt(1 + a^2) - |a| rounds
        # to 0 once |alpha| > 2^26.5; the angle is then the limit +-pi/2
        for alpha in (1e8, -1e9):
            eps = -1 if alpha > 0 else +1
            expected = math.copysign(math.pi / 2.0, alpha)
            assert optimal_angle(0.0, alpha, eps) == pytest.approx(expected)
            assert gamma_for_amplitude_target(1.0, alpha, eps) == 0.0

    def test_cancelled_atan_denominator_on_arrays(self):
        # the array path takes the same limit, without dividing by zero
        for alpha, eps in ((1e8, -1), (-1e9, +1)):
            phi = optimal_angle(np.array([0.0, 0.5]), alpha, eps)
            assert phi[0] == pytest.approx(math.copysign(math.pi / 2.0, alpha))
            assert phi[1] == pytest.approx(optimal_angle(0.5, alpha, eps), abs=1e-15)
        assert pareto_front(1e8, 11)[0].tolist() == (1.0, 1.0, 1.0)

    def test_nan_array_entries_give_nan(self):
        g = np.array([math.nan, 0.5])
        assert np.isnan(power_ratio(g)[0]) and power_ratio(g)[1] == 0.75
        assert np.isnan(amplitude_ratio(g, 1.0, +1)[0])
        assert np.isnan(optimal_angle(g, 1.0, +1)[0])

    def test_scalar_path_does_not_touch_numpy(self, monkeypatch):
        # a timing-free guard: routing a scalar back through numpy fails here
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"scalar path used numpy.{name}")

        import wec_satlin.descfcn
        import wec_satlin.mismatch

        src = TheveninSource(v_th=2.0 + 0.5j, z_th=1.0 + 2.0j)
        i_max = 0.4 * matched_baseline(src).i_peak_matched
        monkeypatch.setattr(wec_satlin.mismatch, "np", NoNumpy())
        monkeypatch.setattr(wec_satlin.descfcn, "np", NoNumpy())
        assert power_ratio(0.3 + 0.4j) == pytest.approx(0.75)
        assert amplitude_ratio(0.3 + 0.2j, 2.0, -1) == pytest.approx(0.4779626302)
        assert -math.pi < optimal_angle(0.4, 2.0, -1) <= math.pi
        assert wrap_angle(4.0) == pytest.approx(4.0 - 2.0 * math.pi)
        gamma = gamma_for_amplitude_target(0.4, 2.0, -1)
        assert amplitude_ratio(gamma, 2.0, -1) == pytest.approx(0.4)
        pt = linear_saturation_equivalent(src, i_max)
        assert pt.i_ratio == pytest.approx(0.4)
