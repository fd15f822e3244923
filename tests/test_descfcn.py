"""Tests for the saturation describing functions and the operating-point solve."""

import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import random_plant
from oracles import (
    clipped_cap_fourier,
    clipped_sine_fourier,
    constraint_amplitudes_rederived,
    linear_saturation_equivalent_rederived,
    saturation_factor_decimal,
    saturation_factor_percall,
    saturation_factors_percall,
    solve_gain_three_stage,
    solve_operating_point_percall,
    solve_operating_point_rederived,
    thevenin_fresh,
)
from test_df_validity import draw_design
from wec_satlin import (
    ConvergenceError,
    DomainError,
    TheveninSource,
    WecSatlinError,
    classic_sidf_power,
    constraint_amplitudes,
    descfcn,
    equivalent_z,
    gamma_from_z,
    haskind_plant,
    linear_saturation_equivalent,
    matched_baseline,
    power_ratio,
    reconstruct_current,
    saturation_factor,
    saturation_factors,
    solve_operating_point,
    thevenin_from_plant,
    z_from_gamma,
)

SQ = 4.0 / math.pi


class TestSaturationFactor:
    def test_unclipped_fundamental_is_unity(self):
        for i_script in (1.0, 1.5, 10.0, math.inf):
            assert saturation_factor(1, i_script) == 1.0

    def test_unclipped_harmonics_vanish(self):
        for n in (3, 5, 7):
            assert saturation_factor(n, 2.0) == 0.0

    def test_even_harmonics_vanish(self):
        for n in (2, 4, 6, 8):
            assert saturation_factor(n, 0.3) == 0.0

    def test_continuity_at_clipping_onset(self):
        below = saturation_factor(1, 1.0 - 1e-12)
        assert below == pytest.approx(1.0, abs=1e-6)
        assert saturation_factor(1, 1.0) == 1.0

    def test_square_wave_asymptote_fundamental(self):
        i_script = 1e-4
        assert saturation_factor(1, i_script) / i_script == pytest.approx(
            SQ, abs=1e-6
        )

    def test_square_wave_asymptote_third(self):
        i_script = 1e-4
        assert saturation_factor(3, i_script) / i_script == pytest.approx(
            SQ / 3.0, abs=1e-6
        )

    def test_against_quadrature_oracle(self):
        for n in (1, 3, 5, 7, 9):
            for i_script in np.arange(0.1, 0.95, 0.1):
                oracle = clipped_sine_fourier(n, float(i_script))
                assert saturation_factor(n, float(i_script)) == pytest.approx(
                    oracle, abs=1e-8
                )

    def test_fundamental_dominates_harmonics(self):
        for i_script in np.linspace(0.02, 0.98, 49):
            f1 = saturation_factor(1, float(i_script))
            for n in (3, 5, 7, 9):
                assert abs(saturation_factor(n, float(i_script))) < f1

    def test_harmonic_decay_away_from_nulls(self):
        # magnitudes fall off with n except near the oscillatory nulls of
        # the coefficient formula; 0.5 sits on one (|f_9| > |f_7| there),
        # confirmed against quadrature below
        for i_script in (0.1, 0.3, 0.7, 0.9):
            mags = [abs(saturation_factor(n, i_script)) for n in (1, 3, 5, 7, 9)]
            assert all(b <= a + 1e-15 for a, b in zip(mags, mags[1:]))

    def test_known_ordering_inversion_at_half_depth(self):
        f7 = saturation_factor(7, 0.5)
        f9 = saturation_factor(9, 0.5)
        assert abs(f9) > abs(f7)
        assert f9 == pytest.approx(clipped_sine_fourier(9, 0.5), abs=1e-8)
        assert f7 == pytest.approx(clipped_sine_fourier(7, 0.5), abs=1e-8)

    def test_fundamental_monotone_in_depth(self):
        grid = np.linspace(1e-6, 1.0, 500)
        vals = [saturation_factor(1, g) for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_guards(self):
        with pytest.raises(DomainError):
            saturation_factor(0, 0.5)
        with pytest.raises(DomainError):
            saturation_factor(1, 0.0)
        with pytest.raises(DomainError):
            saturation_factor(1, -0.2)

    def test_rejects_nan_depth(self):
        with pytest.raises(DomainError):
            saturation_factor(1, math.nan)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_clipping_onset_against_cap_quadrature(self, n):
        # the closed form cancels to order (1 - I)^(3/2) here; both the onset
        # series and the closed form above its switch keep full relative accuracy
        for depth in np.geomspace(1e-12, 1e-2, 41):
            i_script = 1.0 - float(depth)
            oracle = clipped_cap_fourier(n, i_script)
            assert abs(saturation_factor(n, i_script) - oracle) <= 1e-10 * abs(oracle)

    @pytest.mark.parametrize("i_script", [1e-300, 1e-20, 1e-14, 1e-12, 1e-6, 1e-3])
    def test_deep_clip_against_decimal_reference(self, i_script):
        # phi = acos(I) rounds near pi/2, and cos(n phi), of order n I, lost
        # all its digits to it: f_sat,3 read -1.0e-16 at I = 1e-20
        bundle = saturation_factors(i_script, n_max=21)
        for n in range(3, 22, 2):
            oracle = saturation_factor_decimal(n, i_script)
            assert oracle > 0.0
            assert abs(saturation_factor(n, i_script) - oracle) <= 1e-15 * oracle
            assert bundle.factors[n] == saturation_factor(n, i_script)

    def test_factors_bundle(self):
        bundle = saturation_factors(0.4, n_max=9)
        assert sorted(bundle.factors) == [1, 3, 5, 7, 9]
        assert 0.0 <= bundle.factors[1] <= 1.0


class TestEquivalentZ:
    def test_matched_unclipped(self):
        assert equivalent_z(1, 1.0 - 1.0j, 1.0, 1.0 + 1.0j) == pytest.approx(1.0)

    def test_half_gain_doubles_impedance(self):
        assert equivalent_z(1, 1.0 - 1.0j, 0.5, 1.0 + 1.0j) == pytest.approx(2.0)

    def test_open_circuit_marker(self):
        marker = equivalent_z(4, 1.0 + 0j, 0.0, 1.0 + 0j)
        assert math.isinf(marker.real)
        assert gamma_from_z(marker) == 1.0

    def test_round_trip_through_gamma(self):
        z = equivalent_z(3, 0.8 - 0.4j, 0.37, 1.1 + 0.9j)
        assert abs(z_from_gamma(gamma_from_z(z)) - z) < 1e-12

    def test_negative_factor_keeps_its_magnitude(self):
        # f_sat,5 is negative at depth 0.7 (f_sat,3 is positive at every
        # depth); the sign lives in the phase of the harmonic, so the
        # impedance takes the factor's magnitude
        f5 = saturation_factor(5, 0.7)
        assert f5 < 0.0
        z = equivalent_z(5, 0.8 - 0.4j, f5, 1.1 + 0.9j)
        assert z == equivalent_z(5, 0.8 - 0.4j, -f5, 1.1 + 0.9j)
        assert z == pytest.approx((0.8 - 0.4j) / (-f5 * (1.1 - 0.9j)), rel=1e-15)


def make_source(alpha: float = 0.0, r: float = 1.0, v: complex = 10.0 + 0j):
    return TheveninSource(v_th=v, z_th=complex(r, alpha * r))


class TestOperatingPointSolve:
    def test_unsaturated_limit(self):
        src = make_source()
        base = matched_baseline(src)
        sol = solve_operating_point(src, i_max=2.0 * base.i_peak_matched)
        assert sol.factors.factors[1] == 1.0
        assert abs(sol.fundamental.current) == pytest.approx(base.i_peak_matched)
        assert sol.p_total == pytest.approx(base.p_matched, rel=1e-12)
        assert all(h.power == 0.0 for h in sol.harmonics[1:])

    def test_square_wave_limit(self):
        src = make_source(alpha=0.8)
        base = matched_baseline(src)
        i_max = 1e-3 * base.i_peak_matched
        sol = solve_operating_point(src, i_max)
        assert abs(sol.fundamental.current) == pytest.approx(SQ * i_max, rel=1e-3)

    def test_residual_and_phase_conditions(self):
        src = make_source(alpha=1.5)
        base = matched_baseline(src)
        for frac in (0.2, 0.5, 0.9):
            sol = solve_operating_point(src, frac * base.i_peak_matched)
            assert sol.residual < 1e-12
            # phase condition: the fundamental keeps the command's phase
            assert math.remainder(
                math.atan2(sol.fundamental.current.imag, sol.fundamental.current.real)
                - sol.psi,
                2.0 * math.pi,
            ) == pytest.approx(0.0, abs=1e-12)
            # amplitude condition
            f1 = sol.factors.factors[1]
            assert abs(sol.fundamental.current) == pytest.approx(
                f1 * abs(sol.i_temp), rel=1e-12
            )

    def test_fundamental_bounded_by_square_wave(self):
        src = make_source(alpha=2.0)
        base = matched_baseline(src)
        for frac in (0.05, 0.3, 0.7):
            i_max = frac * base.i_peak_matched
            sol = solve_operating_point(src, i_max)
            assert abs(sol.fundamental.current) <= SQ * i_max * (1.0 + 1e-12)
            gain = sol.factors.factors[1] / sol.factors.i_script
            assert 1.0 - 1e-12 <= gain <= SQ + 1e-12

    def test_gain_deepens_monotonically(self):
        src = make_source()
        base = matched_baseline(src)
        gains = []
        for frac in (0.9, 0.6, 0.3, 0.1, 0.02):
            sol = solve_operating_point(src, frac * base.i_peak_matched)
            gains.append(sol.factors.factors[1] / sol.factors.i_script)
        assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))

    def test_harmonics_dissipate(self):
        src = make_source(alpha=1.0)
        base = matched_baseline(src)
        sol = solve_operating_point(src, 0.4 * base.i_peak_matched)
        assert all(h.power <= 0.0 for h in sol.harmonics if h.n >= 3)
        assert sol.p_total <= classic_sidf_power(sol)

    def test_peak_respect_of_reconstruction(self):
        # at nine harmonics the truncated series overshoots the clip level
        # by under 2 percent for moderate clipping; deep clipping approaches
        # the square-wave partial-sum overshoot (~18 percent), so the bound
        # there is necessarily looser
        src = make_source()
        base = matched_baseline(src)
        t = np.linspace(0.0, 2.0 * math.pi, 20001)

        sol = solve_operating_point(src, 0.75 * base.i_peak_matched, n_harmonics=9)
        wave = reconstruct_current(sol, 1.0, t)
        assert np.max(np.abs(wave)) <= sol.i_max * 1.02

        deep = solve_operating_point(src, 0.05 * base.i_peak_matched, n_harmonics=9)
        wave = reconstruct_current(deep, 1.0, t)
        assert np.max(np.abs(wave)) <= deep.i_max * 1.20

    def test_guards(self):
        src = make_source()
        with pytest.raises(DomainError):
            solve_operating_point(src, 0.0)
        with pytest.raises(DomainError):
            solve_operating_point(src, 1.0, n_harmonics=4)

    def test_rejects_nan_limit_and_nonfinite_controller(self):
        src = make_source()
        with pytest.raises(DomainError):
            solve_operating_point(src, math.nan)
        for z_c in (complex(math.nan, 0.0), complex(0.0, math.nan),
                    complex(math.inf, 0.0), complex(1.0, math.inf)):
            with pytest.raises(DomainError):
                solve_operating_point(src, 1.0, z_c=z_c)

    def test_infinite_limit_never_clips(self):
        src = make_source(alpha=0.7)
        base = matched_baseline(src)
        sol = solve_operating_point(src, math.inf)
        assert sol.converged and sol.iterations == 0
        assert sol.factors.factors[1] == 1.0
        assert sol.p_total == pytest.approx(base.p_matched, rel=1e-12)

    def test_custom_controller(self):
        src = make_source(alpha=0.5)
        z_c = 2.0 - 0.3j
        base = matched_baseline(src)
        sol = solve_operating_point(src, 0.5 * base.i_peak_matched, z_c=z_c)
        # loop closure: i_temp (f z_th + z_c) = v_th
        f1 = sol.factors.factors[1]
        assert abs(sol.i_temp * (f1 * src.z_th + z_c) - src.v_th) < 1e-9 * abs(
            src.v_th
        )


GRID_ALPHAS = np.linspace(-50.0, 50.0, 201)
GRID_FRACTIONS = np.geomspace(1e-6, 1.0 - 1e-6, 60)


def loop_gain(src, i_max, z_c):
    """f -> f_sat,1 at the command amplitude implied by loop gain f."""
    return lambda f: saturation_factor(1, i_max / (abs(src.v_th) / abs(f * src.z_th + z_c)))


def brentq_root(gain):
    """Root of f - gain(f) on [1e-15, 1] by Brent's method."""
    return brentq(lambda f: f - gain(f), 1e-15, 1.0, xtol=1e-16, rtol=1e-15)


class TestBracketedSolve:
    def test_alpha_fraction_grid_matches_brentq(self):
        # the grid holds the rows (|alpha| >~ 18, fractions 0.12-0.79) where
        # a damped fixed-point iteration with a bisection fallback runs out
        # of iterations
        for alpha in GRID_ALPHAS:
            src = make_source(alpha=float(alpha))
            for z_c in (src.z_th.conjugate(), 2.0 * src.z_th.conjugate()):
                i_unsat = abs(src.v_th / (src.z_th + z_c))
                for frac in GRID_FRACTIONS:
                    i_max = float(frac) * i_unsat
                    sol = solve_operating_point(src, i_max, z_c=z_c)
                    assert sol.residual < 1e-12 and sol.iterations <= 12
                    gain = loop_gain(src, i_max, z_c)
                    assert abs(sol.factors.factors[1] - gain(brentq_root(gain))) <= 1e-12

    def test_fixed_controller_within_conditioned_bound(self):
        # a fixed z_c that is small against |z_th| makes the loop gain nearly
        # proportional to f (slope g' -> 1), so a residual below tol pins
        # f_sat,1 only to tol |g'| / |1 - g'| (2.8e-11 measured at alpha 40.5)
        z_c = 2.0 - 0.3j
        for alpha in GRID_ALPHAS:
            src = make_source(alpha=float(alpha))
            i_unsat = abs(src.v_th / (src.z_th + z_c))
            for frac in GRID_FRACTIONS:
                i_max = float(frac) * i_unsat
                sol = solve_operating_point(src, i_max, z_c=z_c)
                assert sol.residual < 1e-12
                gain = loop_gain(src, i_max, z_c)
                f = brentq_root(gain)
                h = 1e-6 * f
                slope = (gain(f + h) - gain(f - h)) / (2.0 * h)
                bound = 1e-12 * (1.0 + abs(slope) / abs(1.0 - slope))
                assert abs(sol.factors.factors[1] - gain(f)) <= bound

    def test_agrees_with_three_stage_solve_where_it_converged(self):
        for alpha in GRID_ALPHAS[::10]:
            src = make_source(alpha=float(alpha))
            for frac in GRID_FRACTIONS[::3]:
                i_max = float(frac) * matched_baseline(src).i_peak_matched
                sol = solve_operating_point(src, i_max)
                try:
                    f_old, _, _ = solve_gain_three_stage(src, i_max, src.z_th.conjugate())
                except ConvergenceError:
                    continue
                assert sol.factors.factors[1] == pytest.approx(f_old, abs=2e-12)

    def test_solves_where_three_stage_solve_failed(self):
        src = make_source(alpha=20.0)
        i_max = 0.5 * matched_baseline(src).i_peak_matched
        with pytest.raises(ConvergenceError):
            solve_gain_three_stage(src, i_max, src.z_th.conjugate())
        sol = solve_operating_point(src, i_max)
        assert sol.residual < 1e-12
        assert sol.iterations <= 12

    def test_clipping_onset_needs_no_bracket(self):
        # a limit that binds by less than tol at f = 1 is solved there; a
        # bracket whose upper end is already a root would only be bisected
        # towards it.  The last source puts i_max = |i_unsat| - 1 ulp, where
        # the residual at f = 1 rounds to exactly zero.
        sources = [make_source(alpha=alpha) for alpha in (0.0, 2.0, -30.0)]
        sources.append(
            TheveninSource(
                v_th=218.81713656943077 + 196.9354229124877j,
                z_th=0.12049723756906076 + 0.10264751381215469j,
            )
        )
        for src in sources:
            for shortfall in (0.0, 1e-15, 1e-13, 1e-11):
                i_max = (1.0 - shortfall) * matched_baseline(src).i_peak_matched
                sol = solve_operating_point(src, i_max)
                assert sol.residual < 1e-12 and sol.iterations <= 2
                assert sol.factors.factors[1] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, -30.0])
    def test_clip_deeper_than_the_bracket_end(self, alpha):
        # at alpha 0 and a fraction of 1e-15 the root is 6.4e-16: the residual
        # at 1e-15 is positive, so [0, 1e-15] brackets the root instead
        src = make_source(alpha=alpha)
        for frac in (1e-15, 1e-16, 1e-18, 1e-300):
            i_max = frac * matched_baseline(src).i_peak_matched
            gain = loop_gain(src, i_max, src.z_th.conjugate())
            sol = solve_operating_point(src, i_max)
            f = sol.factors.factors[1]
            assert sol.converged and sol.residual < 1e-12
            assert gain(f) == pytest.approx(f, rel=1e-12)
            assert f == pytest.approx(SQ * sol.factors.i_script, rel=1e-12)

    def test_short_circuit_controller_takes_no_deep_bracket(self, monkeypatch):
        # at z_c = 0 the residual has no value at f = 0, and at or below
        # pi |v_th| / (4 |z_th|) it stays positive on (0, 1]: no root, and no
        # division by zero; the error says so after two evaluations
        src = make_source(alpha=0.5)
        bound = math.pi * abs(src.v_th) / (4.0 * abs(src.z_th))
        calls = []

        def counted(i_script, fundamental=descfcn._fundamental):
            calls.append(i_script)
            return fundamental(i_script)

        monkeypatch.setattr(descfcn, "_fundamental", counted)
        for i_max in (1e-20, 1.0, 3.0, 0.99 * bound):
            calls.clear()
            with pytest.raises(DomainError, match=r"no operating point: with z_c = 0"):
                solve_operating_point(src, i_max, z_c=0.0)
            assert 0 < len(calls) <= 3

    def test_short_circuit_controller_above_the_bound_converges(self):
        src = make_source(alpha=0.5)
        i_max = 1.01 * math.pi * abs(src.v_th) / (4.0 * abs(src.z_th))
        sol = solve_operating_point(src, i_max, z_c=0.0)
        f = sol.factors.factors[1]
        assert sol.converged and sol.residual < 1e-12
        assert loop_gain(src, i_max, 0.0)(f) == pytest.approx(f, rel=1e-12)
        assert abs(sol.fundamental.current) <= SQ * i_max

    def test_chord_point_on_a_bracket_end_takes_the_midpoint(self):
        # the chord point 0.5 * 5e-324 / 1 underflows onto the lower end, so
        # the first point is the bracket's midpoint, a root of the function
        points = []

        def func(x):
            points.append(x)
            return x - 0.25

        root, residuals = descfcn._bracketed_root(func, 0.0, 0.5, -5e-324, 1.0, 1e-12, 10)
        assert points == [0.25] and root == 0.25 and residuals == [0.0]

    def test_convergence_error_carries_residual_trace(self):
        src = make_source(alpha=1.0)
        i_max = 0.4 * matched_baseline(src).i_peak_matched
        with pytest.raises(ConvergenceError) as info:
            solve_operating_point(src, i_max, max_iter=2)
        assert len(info.value.residuals) == 2
        assert all(r >= 1e-12 for r in info.value.residuals)
        assert solve_operating_point(src, i_max).iterations > 2

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        alpha=st.floats(-50.0, 50.0),
        fraction=st.floats(1e-6, 1.0, exclude_max=True),
    )
    def test_domain_properties(self, alpha, fraction):
        src = make_source(alpha=alpha)
        base = matched_baseline(src)
        i_max = fraction * base.i_peak_matched
        sol = solve_operating_point(src, i_max)
        assert sol.converged and sol.residual < 1e-12
        assert sol.p_total <= classic_sidf_power(sol)
        assert abs(sol.fundamental.current) <= SQ * i_max * (1.0 + 1e-12)
        p_linear = linear_saturation_equivalent(src, i_max).power_ratio * base.p_matched
        assert sol.p_total / p_linear <= SQ * (1.0 + 1e-6)

    def test_linear_baseline_near_open_circuit(self):
        # the linear baseline's gamma is close to the open circuit here, so
        # any cancellation in its power shows up as a ratio above 4/pi
        src = make_source(alpha=0.0)
        base = matched_baseline(src)
        i_max = 1.1492187010036997e-06 * base.i_peak_matched
        sol = solve_operating_point(src, i_max)
        p_linear = linear_saturation_equivalent(src, i_max).power_ratio * base.p_matched
        assert sol.p_total / p_linear <= SQ * (1.0 + 1e-6)


class TestDesignEvaluatedOnce:
    """A design evaluation that takes V_th, |V_th|, Z_th and the matched
    current once returns every field that re-deriving them on each call did."""

    FRACTIONS = (0.2, 0.4, 0.6, 0.8)

    def test_seeded_designs(self):
        rng = np.random.default_rng(2900)
        for _ in range(30):
            plant = haskind_plant(**draw_design(rng))
            cold = dataclasses.replace(plant)  # an empty memo for the re-deriving calls
            src = thevenin_from_plant(plant)
            i_matched = matched_baseline(src).i_peak_matched
            for frac in self.FRACTIONS:
                i_max = frac * i_matched
                sol = solve_operating_point(src, i_max)
                assert_same(sol, solve_operating_point_rederived(src, i_max))
                assert_same(linear_saturation_equivalent(src, i_max),
                            linear_saturation_equivalent_rederived(src, i_max))
                z_eff = equivalent_z(1, src.z_th.conjugate(), sol.factors.factors[1], src.z_th)
                for z in (z_eff, 1.0, 0.6 - 0.3j):
                    assert_same(constraint_amplitudes(plant, z),
                                constraint_amplitudes_rederived(cold, z))

    def test_hand_built_source(self):
        for alpha in (-3.0, 0.0, 0.7, 2.5):
            src = TheveninSource(v_th=complex(40.0, -25.0), z_th=complex(0.8, 0.8 * alpha))
            assert src.harmonic_impedance is None
            i_matched = matched_baseline(src).i_peak_matched
            for frac in self.FRACTIONS:
                i_max = frac * i_matched
                for z_c in (None, complex(0.4, -1.1)):
                    assert_same(solve_operating_point(src, i_max, z_c),
                                solve_operating_point_rederived(src, i_max, z_c))
                assert_same(linear_saturation_equivalent(src, i_max),
                            linear_saturation_equivalent_rederived(src, i_max))

    def test_short_circuit_controller_just_above_its_bound(self):
        for alpha in (0.0, 0.5, 3.0):
            src = make_source(alpha=alpha)
            bound = math.pi * abs(src.v_th) / (4.0 * abs(src.z_th))
            for i_max in (math.nextafter(bound, math.inf), bound * (1.0 + 1e-9), 1.01 * bound):
                got = outcome(solve_operating_point, src, i_max, 0.0)
                assert_same(got, outcome(solve_operating_point_rederived, src, i_max, 0.0))
            assert got.converged


class TestClassicSidfPower:
    def test_unsaturated_equals_matched(self):
        src = make_source(alpha=1.0)
        base = matched_baseline(src)
        sol = solve_operating_point(src, 10.0 * base.i_peak_matched)
        assert classic_sidf_power(sol) == pytest.approx(base.p_matched, rel=1e-12)

    def test_route_equivalence_with_mismatch_algebra(self):
        # on a purely resistive source the fundamental power equals the
        # mismatch-algebra power at the clipper's equivalent impedance
        src = make_source(alpha=0.0, r=0.7, v=4.0 + 0j)
        base = matched_baseline(src)
        for frac in (0.2, 0.5, 0.8):
            sol = solve_operating_point(src, frac * base.i_peak_matched)
            f1 = sol.factors.factors[1]
            z1 = equivalent_z(1, src.z_th.conjugate(), f1, src.z_th)
            expected = power_ratio(gamma_from_z(z1)) * base.p_matched
            assert classic_sidf_power(sol) == pytest.approx(expected, rel=1e-10)

    def test_bounds_full_sum(self):
        src = make_source(alpha=3.0)
        base = matched_baseline(src)
        for frac in (0.1, 0.4, 0.7):
            sol = solve_operating_point(src, frac * base.i_peak_matched)
            assert classic_sidf_power(sol) >= sol.p_total

    def test_unconverged_solution_has_no_estimate(self):
        src = make_source(alpha=1.0)
        sol = solve_operating_point(src, 0.5 * matched_baseline(src).i_peak_matched)
        with pytest.raises(DomainError, match="did not converge"):
            classic_sidf_power(dataclasses.replace(sol, converged=False))


def _decimal_power_ratio(r: float, alpha: float):
    """1 - g*^2 of the linear baseline at current ratio ``r``, in 700-digit
    decimal arithmetic: 1 - g* is near 1e-300 at the smallest ratio."""
    with decimal.localcontext(prec=700):
        r, a = decimal.Decimal(r), decimal.Decimal(alpha)
        g = (1 - r * r) / ((1 + r**4 * a * a).sqrt() + r * (1 + a * a).sqrt())
        return 1 - g * g


class TestLinearBaseline:
    def test_power_ratio_within_four_ulp_up_to_the_open_circuit(self):
        ratios = [10.0**k for k in range(-300, 1, 5)] + [5e-17, 0.03, 0.3, 0.75, 0.999]
        for alpha in (-50.0, -7.3, -1.0, 0.0, 0.95, 2.0, 31.1, 50.0):
            src = make_source(alpha=alpha)
            peak = matched_baseline(src).i_peak_matched
            for r in ratios:
                got = linear_saturation_equivalent(src, r * peak)
                exact = _decimal_power_ratio(r * peak / peak, src.alpha)
                assert abs(decimal.Decimal(got.power_ratio) - exact) <= 4 * decimal.Decimal(
                    math.ulp(float(exact))), (r, alpha)
                assert math.isfinite(abs(got.z)) and got.z.real > 0.0

    def test_nonlinear_over_linear_tends_to_four_over_pi(self):
        # the fundamental's square-wave gain: 4/pi is the deep-clip limit of
        # the power ratio, approached from below
        src = make_source(alpha=0.0)
        base = matched_baseline(src)
        ratios = []
        for fraction in (1e-8, 1e-12, 1e-14, 1e-15, 5e-17):
            i_max = fraction * base.i_peak_matched
            p_linear = linear_saturation_equivalent(src, i_max).power_ratio * base.p_matched
            ratios.append(solve_operating_point(src, i_max).p_total / p_linear)
        assert all(r <= SQ * (1.0 + 1e-12) for r in ratios)
        assert ratios[-1] == pytest.approx(SQ, rel=1e-12)
        assert SQ - ratios[0] < 5e-9

    def test_full_limit_is_matched_point(self):
        src = make_source(alpha=1.0)
        base = matched_baseline(src)
        pt = linear_saturation_equivalent(src, base.i_peak_matched)
        assert pt.gamma == 0.0
        assert pt.power_ratio == 1.0

    def test_real_axis_case(self):
        src = make_source(alpha=0.0)
        base = matched_baseline(src)
        pt = linear_saturation_equivalent(src, 0.5 * base.i_peak_matched)
        assert pt.gamma.real == pytest.approx(0.5, abs=1e-9)
        assert pt.power_ratio == pytest.approx(0.75, abs=1e-8)
        assert pt.epsilon == -1

    def test_nonlinear_beats_linear_when_clipping_hard(self):
        src = make_source(alpha=0.0)
        base = matched_baseline(src)
        for frac in (0.2, 0.4, 0.6):
            i_max = frac * base.i_peak_matched
            sol = solve_operating_point(src, i_max)
            linear = linear_saturation_equivalent(src, i_max)
            assert sol.p_total > linear.power_ratio * base.p_matched

    def test_guard_above_matched(self):
        src = make_source()
        base = matched_baseline(src)
        with pytest.raises(DomainError):
            linear_saturation_equivalent(src, 1.5 * base.i_peak_matched)


def assert_same(got, want):
    """Equal, and equal in every printed bit (so -0.0 is not 0.0)."""
    assert got == want
    assert repr(got) == repr(want)


def outcome(fn, *args):
    """``fn(*args)``, or the type and text of the package error it raises."""
    try:
        return fn(*args)
    except WecSatlinError as exc:
        return type(exc), str(exc)


class TestPerCallOracle:
    """The shared factor kernel and the plant memo reproduce the per-call
    paths bit for bit."""

    # clip-free (I >= 1), the onset series at every n up to 21, both branches
    # across n, and deep clips
    DEPTHS = (
        1e-300, 1e-15, 1e-3, 0.1, 0.4, 0.7, 0.9, 0.999, 1.0 - 1e-6,
        1.0 - 1e-12, 1.0, 1.5, math.inf,
    )
    # the last two below 1e-14 bracket on [0, 1e-15]; 1.5 never clips
    FRACTIONS = (0.05, 0.3, 0.7, 0.999, 1.0 - 1e-9, 1.0, 1.5, 1e-15, 1e-300)
    N_MAX = (1, 3, 9, 21)

    def test_factors(self):
        rng = np.random.default_rng(15)
        depths = list(self.DEPTHS) + [float(d) for d in rng.uniform(0.0, 1.0, 50)]
        depths += [1.0 - float(d) for d in np.geomspace(1e-14, 1e-2, 25)]
        for i_script in depths:
            for n_max in (-1, 0) + self.N_MAX:  # below 1 the bundle is empty
                assert_same(
                    saturation_factors(i_script, n_max),
                    saturation_factors_percall(i_script, n_max),
                )
            for n in range(1, 23):
                assert_same(saturation_factor(n, i_script), saturation_factor_percall(n, i_script))

    def test_seeded_solves(self):
        rng = np.random.default_rng(1500)
        for _ in range(12):
            plant = random_plant(rng)
            src, fresh = thevenin_from_plant(plant), thevenin_fresh(plant)
            assert_same((src.v_th, src.z_th), (fresh.v_th, fresh.z_th))
            base = matched_baseline(src)
            other = complex(0.5 * src.z_th.real, 2.0 * src.z_th.imag)
            for frac in self.FRACTIONS:
                i_max = frac * base.i_peak_matched
                for z_c in (None, other):
                    for n_max in self.N_MAX:
                        assert_same(
                            solve_operating_point(src, i_max, z_c, n_max),
                            solve_operating_point_percall(fresh, i_max, z_c, n_max),
                        )
                if frac <= 1.0:  # at 1e-300 both raise: gamma rounds to the open circuit
                    assert_same(
                        outcome(linear_saturation_equivalent, src, i_max),
                        outcome(linear_saturation_equivalent, fresh, i_max),
                    )

    @pytest.mark.parametrize(
        "call, text",
        [
            (lambda f: f(2.5, 0.5), "harmonic index must be a positive integer, got 2.5"),
            (lambda f: f(1, 0.0), "clipping depth must be positive, got 0.0"),
            (lambda f: f(3, math.nan), "clipping depth must be positive, got nan"),
        ],
    )
    def test_factor_errors_keep_their_text(self, call, text):
        for factor in (saturation_factor, saturation_factor_percall):
            with pytest.raises(DomainError) as info:
                call(factor)
            assert str(info.value) == text

    def test_bundle_and_solve_errors_keep_their_text(self):
        with pytest.raises(DomainError) as info:
            saturation_factors(0.0)
        assert str(info.value) == "clipping depth must be positive, got 0.0"
        with pytest.raises(DomainError) as info:
            saturation_factors(math.nan, n_max=21)
        assert str(info.value) == "clipping depth must be positive, got nan"
        with pytest.raises(DomainError) as info:
            solve_operating_point(make_source(), math.nan)
        assert str(info.value) == "current limit must be positive, got nan"
