"""Tests for the converter model and its Thevenin reduction."""

import copy
import dataclasses
import itertools
import math
import os
import pickle
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_plant
from oracles import groups_exact, thevenin_fresh, z_mech_fresh, z_thevenin_fresh
from wec_satlin import (
    DomainError,
    NondimGroups,
    SingularityError,
    TheveninSource,
    WecPlant,
    alpha_from_nondim,
    constraint_amplitudes,
    equivalent_z,
    haskind_force_amplitude,
    haskind_plant,
    low_pass_merit,
    matched_baseline,
    matched_power,
    matched_power_from_plant,
    nondim_from_plant,
    optimal_alpha_m_for_limits,
    rescale_to_haskind,
    simulate,
    solve_operating_point,
    thevenin_from_plant,
)
from wec_satlin.config import load_config

GOLDEN_INI = os.path.join(os.path.dirname(__file__), "data", "golden.ini")


def basic_plant(**overrides):
    fields = dict(
        m=6.0e4,
        a_added=4.0e4,
        b_h=5.0e4,
        k_h=1.0e5,
        k_t=100.0,
        r_w=0.01,
        omega=1.0,
        f_e=2.0e5 + 0j,
        j_density=1.0e4,
        k_wavenumber=0.102,
    )
    fields.update(overrides)
    return WecPlant(**fields)


class TestWecPlant:
    def test_invariants(self):
        with pytest.raises(DomainError):
            basic_plant(m=-1e5, a_added=0.0)
        with pytest.raises(DomainError):
            basic_plant(b_h=0.0)
        with pytest.raises(DomainError):
            basic_plant(k_t=0.0)
        with pytest.raises(DomainError):
            basic_plant(omega=0.0)
        with pytest.raises(DomainError):
            basic_plant(g0=3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(WecPlant)]
    )
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            basic_plant(**{name: value})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(k_h=-1.0), "hydrostatic stiffness k_h must be non-negative"),
            (dict(r_w=-0.01), "winding resistance and inductance must be non-negative"),
            (dict(l_w=-1e-3), "winding resistance and inductance must be non-negative"),
            (dict(b_d=-1.0), "drivetrain damping b_d must be non-negative"),
            (dict(g_ratio=0.0), "gear ratio must be nonzero"),
        ],
    )
    def test_range_check_names_the_quantity(self, overrides, message):
        with pytest.raises(DomainError, match=message):
            basic_plant(**overrides)

    def test_non_finite_force_phase_rejected(self):
        with pytest.raises(DomainError, match="f_e must be finite"):
            basic_plant(f_e=complex(2.0e5, math.nan))

    def test_haskind_builder_consistency(self):
        plant = haskind_plant(
            m=6.0e4, a_added=4.0e4, b_h=5.0e4, k_h=1.0e5, k_t=100.0, r_w=0.01,
            omega=1.0, j_density=1.0e4, k_wavenumber=0.102, g0=1,
        )
        target = 8.0 * plant.b_h * plant.g0 * plant.j_density / plant.k_wavenumber
        assert abs(plant.f_e) ** 2 == pytest.approx(target, rel=1e-12)
        assert plant.haskind_consistent

    def test_haskind_amplitude_requires_wave_data(self):
        with pytest.raises(DomainError):
            haskind_force_amplitude(0.0, 1, 1e4, 0.1)
        with pytest.raises(DomainError):
            haskind_force_amplitude(1e4, 1, 1e4, 0.0)

    def test_haskind_plant_without_wave_data_is_a_domain_error(self):
        with pytest.raises(DomainError, match="haskind relation"):
            haskind_plant(m=6.0e4, a_added=4.0e4, b_h=5.0e4, k_h=1.0e5, k_t=100.0, omega=1.0)

    def test_raw_plant_not_flagged_consistent(self):
        assert not basic_plant().haskind_consistent
        assert not basic_plant(j_density=0.0).haskind_consistent

    def test_haskind_plant_derives_the_force_itself(self):
        with pytest.raises(DomainError, match="f_e is derived here"):
            haskind_plant(m=6.0e4, a_added=4.0e4, b_h=5.0e4, k_h=1.0e5, k_t=100.0,
                          omega=1.0, j_density=1.0e4, k_wavenumber=0.102, f_e=1.0e5)

    def test_rescale_to_haskind_keeps_phase(self):
        plant = basic_plant(f_e=1e5 * np.exp(0.5j))
        fixed = rescale_to_haskind(plant)
        assert fixed.haskind_consistent
        assert math.isclose(
            math.atan2(fixed.f_e.imag, fixed.f_e.real), 0.5, rel_tol=1e-12
        )


class TestThevenin:
    def test_weak_coupling_limit(self):
        plant = basic_plant(k_t=1e-9, l_w=0.02)
        src = thevenin_from_plant(plant)
        assert abs(src.z_th - plant.z_wind()) < 1e-12
        assert abs(src.v_th) < 1e-8

    def test_resonant_plant_is_real(self):
        # omega_n = sqrt(k_h / (m + a)); pick k_h to resonate at omega = 1
        plant = basic_plant(k_h=1.0e5, b_d=0.0, k_d=0.0, l_w=0.0)
        src = thevenin_from_plant(plant)
        expected = plant.r_w + plant.coupling**2 / plant.b_h
        assert src.z_th.imag == pytest.approx(0.0, abs=1e-12)
        assert src.z_th.real == pytest.approx(expected)

    def test_voltage_phase_follows_excitation(self):
        plant = basic_plant(f_e=2.0e5 * np.exp(0.7j))
        src = thevenin_from_plant(plant)
        zm = plant.z_mech()
        expected = 0.7 - math.atan2(zm.imag, zm.real)
        assert math.remainder(
            math.atan2(src.v_th.imag, src.v_th.real) - expected, 2.0 * math.pi
        ) == pytest.approx(0.0, abs=1e-12)

    def test_harmonic_impedance_hook(self):
        plant = basic_plant(l_w=0.01)
        src = thevenin_from_plant(plant)
        assert src.z_th_at(1) == src.z_th
        assert src.z_th_at(3) == pytest.approx(plant.z_thevenin(3))

    def test_two_route_alpha(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            plant = random_plant(rng)
            a_direct = thevenin_from_plant(plant).alpha
            a_groups = alpha_from_nondim(nondim_from_plant(plant))
            assert a_groups == pytest.approx(a_direct, rel=1e-12, abs=1e-12)


class TestImpedanceMemo:
    """Each plant memoizes its impedances and source; the memo is invisible."""

    def test_memo_keeps_every_bit(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            plant = random_plant(rng)
            for _ in range(2):  # the first call fills the memo, the second reads it
                for n in (1, 3, 5, 7, 9, 21):
                    assert repr(plant.z_mech(n)) == repr(z_mech_fresh(plant, n))
                    assert repr(plant.z_thevenin(n)) == repr(z_thevenin_fresh(plant, n))
                src, fresh = thevenin_from_plant(plant), thevenin_fresh(plant)
                assert repr((src.v_th, src.z_th)) == repr((fresh.v_th, fresh.z_th))
            merit = abs(z_thevenin_fresh(plant, 1)) / abs(z_thevenin_fresh(plant, 3))
            assert repr(low_pass_merit(plant)) == repr(merit)
            z = 0.7 - 0.2j
            cold = dataclasses.replace(plant)
            assert repr(constraint_amplitudes(plant, z)) == repr(constraint_amplitudes(cold, z))

    def test_memo_takes_no_part_in_the_value(self):
        used, unused = basic_plant(l_w=0.01), basic_plant(l_w=0.01)
        before = repr(used)
        src = thevenin_from_plant(used)
        used.z_thevenin(3)
        assert used == unused and hash(used) == hash(unused)
        assert repr(used) == before == repr(unused)
        assert "_memo" not in repr(used) and "_memo" not in repr(src)
        assert pickle.dumps(used) == pickle.dumps(unused)

    def test_replace_gives_fresh_impedances(self):
        plant = basic_plant(l_w=0.01)
        src = thevenin_from_plant(plant)
        old_z3 = plant.z_thevenin(3)
        stiffer = dataclasses.replace(plant, k_h=2.0 * plant.k_h)
        new = thevenin_from_plant(stiffer)
        assert new is not src and new.z_th != src.z_th
        assert stiffer.z_thevenin(3) == z_thevenin_fresh(stiffer, 3) != old_z3
        assert new.z_th_at(3) == z_thevenin_fresh(stiffer, 3)
        assert (new.v_th, new.z_th) == (thevenin_fresh(stiffer).v_th, thevenin_fresh(stiffer).z_th)

    def test_plants_never_share_a_memo(self):
        plant = basic_plant(l_w=0.01)
        src = thevenin_from_plant(plant)
        plant.z_thevenin(3)
        twins = [
            basic_plant(l_w=0.01),
            copy.copy(plant),
            copy.deepcopy(plant),
            pickle.loads(pickle.dumps(plant)),
            dataclasses.replace(plant),
        ]
        for twin in twins:
            assert twin == plant and hash(twin) == hash(plant)
            assert twin._memo == {} and twin._memo is not plant._memo
            twin_src = thevenin_from_plant(twin)
            assert twin_src == src and twin_src.z_th_at(3) == src.z_th_at(3)

    def test_hand_built_source_calls_its_callable(self):
        calls = []

        def z_at(n):
            calls.append(n)
            return complex(1.0, 0.5 * n)

        src = TheveninSource(v_th=10.0 + 0j, z_th=1.0 + 0.5j, harmonic_impedance=z_at)
        assert src.z_th_at(3) == src.z_th_at(3) == 1.0 + 1.5j
        assert calls == [3, 3]
        calls.clear()
        first = solve_operating_point(src, 1.0)
        assert solve_operating_point(src, 1.0) == first
        assert calls == [3, 5, 7, 9] * 2


class TestNondimGroups:
    def test_no_drivetrain_loss_means_unit_damping_ratio(self):
        assert nondim_from_plant(basic_plant(b_d=0.0)).d_cal == 1.0

    def test_resonance_zeroes_alpha_m(self):
        plant = basic_plant()  # k_h = (m + a) omega^2 at omega = 1
        assert nondim_from_plant(plant).alpha_m == pytest.approx(0.0, abs=1e-12)

    def test_alpha_m_matches_damping_ratio_form(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            plant = random_plant(rng)
            groups = nondim_from_plant(plant)
            minertia = plant.m + plant.a_added
            k_total = plant.k_h + plant.g_ratio**2 * plant.k_d
            b_total = plant.b_h + plant.g_ratio**2 * plant.b_d
            omega_n = math.sqrt(k_total / minertia)
            zeta = b_total / (2.0 * math.sqrt(minertia * k_total))
            expected = (plant.omega**2 - omega_n**2) / (
                2.0 * zeta * plant.omega * omega_n
            )
            assert groups.alpha_m == pytest.approx(expected, rel=1e-12)

    def test_undefined_winding_ratio(self):
        with pytest.raises(DomainError):
            nondim_from_plant(basic_plant(r_w=0.0, l_w=0.01))
        assert nondim_from_plant(basic_plant(r_w=0.0, l_w=0.0)).l_cal == 0.0

    def test_group_invariants(self):
        with pytest.raises(DomainError):
            NondimGroups(r_cal=-0.1, d_cal=1.0, alpha_m=0.0, l_cal=0.0)
        with pytest.raises(DomainError):
            NondimGroups(r_cal=0.1, d_cal=1.2, alpha_m=0.0, l_cal=0.0)
        with pytest.raises(DomainError, match="winding time-constant ratio must be non-negative"):
            NondimGroups(r_cal=0.1, d_cal=1.0, alpha_m=0.0, l_cal=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["r_cal", "d_cal", "alpha_m", "l_cal"])
    def test_non_finite_group_rejected(self, name, value):
        groups = dict(r_cal=0.1, d_cal=1.0, alpha_m=0.0, l_cal=0.0)
        groups[name] = value
        with pytest.raises(DomainError, match="finite"):
            NondimGroups(**groups)


class TestMatchedPower:
    def test_ideal_heave_plant_absorbs_j_over_k(self):
        groups = NondimGroups(r_cal=0.0, d_cal=1.0, alpha_m=0.0, l_cal=0.0)
        assert matched_power(groups, 1.0e4, 0.1, 1) == pytest.approx(1.0e5)

    def test_unit_resistance_halves_power(self):
        groups = NondimGroups(r_cal=1.0, d_cal=1.0, alpha_m=0.0, l_cal=0.0)
        assert matched_power(groups, 1.0e4, 0.1, 1) == pytest.approx(0.5e5)

    def test_two_route_consistency(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            plant = random_plant(rng)
            p_groups = matched_power(
                nondim_from_plant(plant),
                plant.j_density,
                plant.k_wavenumber,
                plant.g0,
            )
            assert p_groups == pytest.approx(
                matched_power_from_plant(plant), rel=1e-10
            )

    def test_even_in_alpha_m(self):
        for am in (0.3, 1.7, 4.0):
            p_pos = matched_power(NondimGroups(0.4, 0.8, am, 0.0), 1.0, 1.0, 1)
            p_neg = matched_power(NondimGroups(0.4, 0.8, -am, 0.0), 1.0, 1.0, 1)
            assert p_pos == p_neg

    @pytest.mark.parametrize(
        "j_density, k_wavenumber, g0, message",
        [
            (0.0, 0.1, 1, "positive wave energy flux and wavenumber"),
            (1.0e4, -0.1, 1, "positive wave energy flux and wavenumber"),
            (1.0e4, 0.1, 3, "mode gain g0 must be 1 or 2, got 3"),
        ],
    )
    def test_guards(self, j_density, k_wavenumber, g0, message):
        groups = NondimGroups(r_cal=0.1, d_cal=1.0, alpha_m=0.0, l_cal=0.0)
        with pytest.raises(DomainError, match=message):
            matched_power(groups, j_density, k_wavenumber, g0)

    def test_surge_doubles_gain(self):
        groups = NondimGroups(0.0, 1.0, 0.0, 0.0)
        assert matched_power(groups, 1.0, 1.0, 2) == 2.0 * matched_power(
            groups, 1.0, 1.0, 1
        )


class TestAlphaFromGroups:
    def test_zero_cases(self):
        assert alpha_from_nondim(NondimGroups(0.5, 1.0, 0.0, 0.0)) == 0.0

    def test_vanishing_resistance_limit(self):
        # alpha -> -alpha_m as R -> 0 with no winding time constant
        for am in (0.5, -2.0):
            val = alpha_from_nondim(NondimGroups(1e-12, 1.0, am, 0.0))
            assert val == pytest.approx(-am, rel=1e-9)

    def test_degenerate_denominator(self):
        # the denominator R (1 + alpha_m^2) + D is at least D, which the
        # record keeps positive; here it is 1e-300
        groups = NondimGroups(0.0, 1e-300, 0.0, 0.0)
        assert alpha_from_nondim(groups) == 0.0


def _signed(values):
    return [s * v for v in values for s in (1.0, -1.0)]


class TestGroupsAtExtremeReactance:
    """alpha_from_nondim and matched_power on every valid record of groups,
    also where alpha_m^2 or a quotient's float terms overflow."""

    @staticmethod
    def _check_against_exact(groups):
        # the matched power at a unit flux g0 J / k and at 1e20, where a
        # group factor below the normal floats still gives a normal power
        alpha, power = groups_exact(groups)
        got = [(alpha_from_nondim(groups), alpha)]
        got += [(matched_power(groups, j, k, 1), Fraction(j / k) * power)
                for j, k in ((1.0, 1.0), (1e10, 1e-10))]
        for value, exact in got:
            # correctly rounded: the nearest float, 0.0 where it underflows
            assert value == float(exact), groups

    def test_correctly_rounded(self):
        grid = itertools.product((0.0, 1e-3, 1.0), (1e-3, 1.0),
                                 _signed((0.0, 1e-300, 1.0, 1e150, 1e162, 1e300)), (0.0, 2.0))
        for r_cal, d_cal, alpha_m, l_cal in grid:
            self._check_against_exact(NondimGroups(r_cal, d_cal, alpha_m, l_cal))

    def test_correctly_rounded_at_the_float_range_ends(self):
        big, tiny = 1.7976931348623157e308, 5e-324
        grid = itertools.product((0.0, tiny, 1e-300, 1.0, 1e300, big), (tiny, 1e-300, 1.0),
                                 _signed((0.0, tiny, 1.0, 1e300, big)), (0.0, 1.0, 1e300))
        for r_cal, d_cal, alpha_m, l_cal in grid:
            self._check_against_exact(NondimGroups(r_cal, d_cal, alpha_m, l_cal))


class TestOptimalAlphaM:
    def test_closed_form(self):
        pair = optimal_alpha_m_for_limits(NondimGroups(1.0, 1.0, 0.0, 0.0))
        assert pair[0] == pytest.approx(math.sqrt(2.0))
        assert pair[1] == pytest.approx(-math.sqrt(2.0))

    def test_limit_of_small_damping_ratio(self):
        pair = optimal_alpha_m_for_limits(NondimGroups(1.0, 1e-9, 0.0, 0.0))
        assert pair[0] == pytest.approx(1.0, rel=1e-6)

    def test_maximizes_alpha_magnitude(self):
        groups = NondimGroups(0.7, 0.9, 0.0, 0.0)
        best = optimal_alpha_m_for_limits(groups)[0]
        sweep = np.linspace(-8.0, 8.0, 100001)
        mags = [
            abs(alpha_from_nondim(NondimGroups(0.7, 0.9, am, 0.0))) for am in sweep
        ]
        assert abs(sweep[int(np.argmax(mags))] - best) < 2e-4 or abs(
            sweep[int(np.argmax(mags))] + best
        ) < 2e-4

    def test_tiny_resistance_stays_finite(self):
        # sqrt(1 + D/R) at the least subnormal R: 1 + D/R overflows a float
        pair = optimal_alpha_m_for_limits(NondimGroups(5e-324, 1.0, 0.0, 0.0))
        assert pair[0] == pytest.approx(4.4989137945431964e161, rel=1e-15)
        assert pair[1] == -pair[0]

    def test_correctly_rounded_at_the_float_range_ends(self):
        # the nearest float to sqrt(1 + D/R): the exact 1 + D/R lies between
        # the squares of the midpoints to its two neighbours
        big, tiny = 1.7976931348623157e308, 5e-324
        grid = itertools.product((tiny, 1e-300, 1e-3, 0.7, 1.0, 3.0, 1e300, big),
                                 (tiny, 1e-300, 1e-3, 0.9, 1.0))
        for r_cal, d_cal in grid:
            value, negative = optimal_alpha_m_for_limits(NondimGroups(r_cal, d_cal, 0.0, 0.0))
            exact = 1 + Fraction(d_cal) / Fraction(r_cal)
            below = (Fraction(math.nextafter(value, 0.0)) + Fraction(value)) / 2
            above = (Fraction(value) + Fraction(math.nextafter(value, math.inf))) / 2
            assert below**2 <= exact <= above**2, (r_cal, d_cal)
            assert negative == -value

    def test_guards(self):
        with pytest.raises(DomainError):
            optimal_alpha_m_for_limits(NondimGroups(0.0, 1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            optimal_alpha_m_for_limits(NondimGroups(1.0, 1.0, 0.0, 0.5))


class TestConstraintAmplitudes:
    def test_zero_inductance_phase_voltage_is_terminal_voltage(self):
        plant = basic_plant(l_w=0.0)
        src = thevenin_from_plant(plant)
        z = 0.8 + 0.3j
        amps = constraint_amplitudes(plant, z)
        i_l = src.v_th / (src.z_th + z * np.conj(src.z_th))
        v_l = z * np.conj(src.z_th) * i_l
        assert amps.v_s_amp == pytest.approx(abs(v_l), rel=1e-12)

    def test_inductance_raises_phase_voltage(self):
        plant = basic_plant(l_w=0.05, p_poles=8)
        src = thevenin_from_plant(plant)
        amps = constraint_amplitudes(plant, 1.0)
        i_l = src.v_th / (src.z_th + np.conj(src.z_th))
        v_l = np.conj(src.z_th) * i_l
        assert amps.v_s_amp > abs(v_l)  # d-axis term adds in quadrature
        omega_gen = plant.g_ratio * 1j * plant.omega * amps.x_amp
        expected = math.hypot(
            abs(v_l), plant.l_w * plant.p_poles * abs(omega_gen) * abs(i_l)
        )
        assert amps.v_s_amp == pytest.approx(expected, rel=1e-12)

    def test_matched_apparent_power_extremes(self):
        plant = basic_plant(l_w=0.02)
        src = thevenin_from_plant(plant)
        base = matched_baseline(src)
        alpha = src.alpha
        amps = constraint_amplitudes(plant, 1.0)
        root = math.sqrt(1.0 + alpha**2)
        assert amps.s_max / base.p_matched == pytest.approx(1.0 + root, rel=1e-10)
        assert amps.s_min / base.p_matched == pytest.approx(1.0 - root, rel=1e-10)

    def test_apparent_power_difference_identity(self):
        plant = basic_plant(l_w=0.01, k_h=1.4e5)
        src = thevenin_from_plant(plant)
        base = matched_baseline(src)
        for z in (0.5 + 0.4j, 1.3 - 0.2j, 2.0 + 0j):
            amps = constraint_amplitudes(plant, z)
            i_l = src.v_th / (src.z_th + z * np.conj(src.z_th))
            v_l = z * np.conj(src.z_th) * i_l
            v_ratio = abs(v_l) / base.v_peak_matched
            i_ratio = abs(i_l) / base.i_peak_matched
            expected = (
                2.0 * v_ratio * i_ratio
                * math.sqrt(1.0 + src.alpha**2) * base.p_matched
            )
            assert amps.s_max - amps.s_min == pytest.approx(expected, rel=1e-10)

    def test_position_amplitude_against_time_domain(self, fast_sim):
        plant = basic_plant()
        src = thevenin_from_plant(plant)
        for z in (1.0 + 0j, 0.6 + 0.25j, 1.8 - 0.3j):
            amps = constraint_amplitudes(plant, z)
            res = simulate(plant, z * np.conj(src.z_th), cfg=fast_sim)
            assert abs(amps.x_amp) == pytest.approx(res.x_amp, rel=5e-3)

    def test_speed_consistency(self):
        # the generator-speed phasor from the position chain matches the one
        # recovered electrically from V + Z_w I = K_t Omega
        plant = basic_plant(l_w=0.015)
        src = thevenin_from_plant(plant)
        z = 0.9 + 0.35j
        amps = constraint_amplitudes(plant, z)
        i_l = src.v_th / (src.z_th + z * np.conj(src.z_th))
        v_l = z * np.conj(src.z_th) * i_l
        omega_mech = plant.g_ratio * 1j * plant.omega * amps.x_amp
        omega_elec = (v_l + plant.z_wind() * i_l) / plant.k_t
        assert abs(omega_mech - omega_elec) < 1e-9 * abs(omega_elec)

    def test_singular_load_guard(self):
        plant = basic_plant(l_w=0.0, b_d=0.0, k_d=0.0)
        src = thevenin_from_plant(plant)
        z_singular = -plant.r_w / np.conj(src.z_th)
        with pytest.raises(SingularityError):
            constraint_amplitudes(plant, z_singular)
        # this plant is resonant, so Z_th is real and z = -1 puts -Z_th in
        # series with Z_th
        assert thevenin_from_plant(plant).z_th.imag == 0.0
        with pytest.raises(SingularityError, match="series loop resonates"):
            constraint_amplitudes(plant, -1.0)

    def test_open_circuit_marker_is_the_open_circuit_limit(self):
        # equivalent_z's marker for a harmonic that carries no current, and
        # any other infinite load, give what z = 1e300 gives: no current, so
        # no power, and the source voltage across the load
        plant = load_config(GOLDEN_INI).plant
        src = thevenin_from_plant(plant)
        far = constraint_amplitudes(plant, 1e300)
        assert far.x_amp == pytest.approx(-3.9606j, abs=1e-4)
        assert far.v_s_amp == pytest.approx(396.06, abs=1e-2)
        assert far.s_min == 0.0 and far.s_max == pytest.approx(0.0, abs=1e-290)
        marker = equivalent_z(3, src.z_th.conjugate(), 0.0, src.z_th)
        assert marker == complex(math.inf, 0.0)
        for z in (marker, complex(0.0, -math.inf), complex(math.inf, math.inf), -math.inf):
            amps = constraint_amplitudes(plant, z)
            assert amps.x_amp == far.x_amp
            assert amps.v_s_amp == far.v_s_amp == abs(src.v_th)
            assert amps.s_max == amps.s_min == 0.0

    def test_nan_load_raises(self):
        plant = basic_plant(l_w=0.01)
        for z in (math.nan, complex(math.nan, 0.0), complex(0.5, math.nan),
                  complex(math.inf, math.nan), np.complex128(complex(math.nan, 1.0))):
            with pytest.raises(DomainError, match="load must not be NaN"):
                constraint_amplitudes(plant, z)


class TestSignConventionLock:
    """The unsaturated matched simulation must reproduce the closed-form
    matched power; this pins the sign of the back-EMF in the generator
    equation and the direction of positive power flow."""

    def test_matched_power_reproduced(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        base = matched_baseline(src)
        res = simulate(lowpass_plant, src.z_th.conjugate(), cfg=fast_sim)
        assert res.p_avg == pytest.approx(base.p_matched, rel=5e-3)
        assert res.p_avg > 0.0
