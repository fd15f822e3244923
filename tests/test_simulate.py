"""Tests for the nonlinear time-domain reference simulation."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import random_plant, random_load
from oracles import circuit_solution, dump_waveforms_rowwise
from wec_satlin import (
    DomainError,
    SimConfig,
    dump_waveforms,
    harmonic_decompose,
    haskind_plant,
    low_pass_merit,
    matched_baseline,
    power_ratio,
    simulate,
    solve_operating_point,
    thevenin_from_plant,
    validate_df,
    z_from_gamma,
)
from wec_satlin.wec import WecPlant


class TestSimConfig:
    def test_guards(self):
        with pytest.raises(DomainError):
            SimConfig(steps_per_period=50)
        with pytest.raises(DomainError):
            SimConfig(n_periods=10, transient_periods=10)


class TestLinearClosure:
    def test_matched_reproduces_baseline(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        base = matched_baseline(src)
        res = simulate(lowpass_plant, src.z_th.conjugate(), cfg=fast_sim)
        assert res.converged
        assert res.p_avg == pytest.approx(base.p_matched, rel=5e-3)
        assert abs(res.harmonic_currents[0]) == pytest.approx(
            base.i_peak_matched, rel=5e-3
        )

    def test_mismatch_power_route_on_resistive_source(self, lowpass_plant, fast_sim):
        # the source here is purely resistive (resonant plant, no winding
        # inductance), where the reflection-coefficient power formula is the
        # exact circuit power
        src = thevenin_from_plant(lowpass_plant)
        base = matched_baseline(src)
        for gamma in (0.3, -0.4, 0.2 + 0.3j):
            z_l = z_from_gamma(gamma) * np.conj(src.z_th)
            res = simulate(lowpass_plant, z_l, cfg=fast_sim)
            assert res.p_avg == pytest.approx(
                power_ratio(gamma) * base.p_matched, rel=5e-3
            )

    def test_random_plants_match_phasor_solution(self, fast_sim):
        rng = np.random.default_rng(77)
        for k in range(4):
            plant = random_plant(rng, with_inductance=(k % 2 == 0))
            src = thevenin_from_plant(plant)
            z, z_l = random_load(rng, plant, fast_sim.steps_per_period)
            i_fd, v_fd = circuit_solution(src.v_th, src.z_th, z_l)
            p_fd = 0.5 * (v_fd * np.conj(i_fd)).real
            res = simulate(plant, z_l, cfg=fast_sim)
            assert res.converged
            assert res.p_avg == pytest.approx(p_fd, rel=5e-3)
            assert abs(res.harmonic_currents[0]) == pytest.approx(abs(i_fd), rel=5e-3)

    def test_unforced_system_decays(self, fast_sim):
        plant = WecPlant(
            m=6.0e4, a_added=4.0e4, b_h=5.0e4, k_h=1.0e5, k_t=100.0, r_w=0.01,
            omega=1.0, f_e=0j,
        )
        res = simulate(plant, 0.21 + 0j, cfg=fast_sim)
        assert abs(res.p_avg) < 1e-12
        assert res.x_amp < 1e-12
        assert res.converged


class TestSaturationBehavior:
    def test_peak_current_hard_bound(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        base = matched_baseline(src)
        i_max = 0.5 * base.i_peak_matched
        res = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=fast_sim)
        assert res.peak_current <= i_max
        assert np.max(np.abs(res.waveforms["i"])) <= i_max

    def test_deep_saturation_square_wave(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        base = matched_baseline(src)
        i_max = 0.02 * base.i_peak_matched
        res = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=fast_sim)
        assert abs(res.harmonic_currents[0]) == pytest.approx(
            (4.0 / math.pi) * i_max, rel=2e-3
        )

    def test_saturated_harmonics_match_factors(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        base = matched_baseline(src)
        i_max = 0.6 * base.i_peak_matched
        sol = solve_operating_point(src, i_max)
        res = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=fast_sim)
        i_temp_mag = abs(sol.i_temp)
        for n in (1, 3, 5):
            f_n = abs(sol.factors.factors[n])
            sim_ratio = abs(res.harmonic_currents[n - 1]) / i_temp_mag
            assert sim_ratio == pytest.approx(f_n, abs=0.02)

    def test_even_harmonics_negligible(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        base = matched_baseline(src)
        res = simulate(
            lowpass_plant,
            src.z_th.conjugate(),
            i_max=0.5 * base.i_peak_matched,
            cfg=fast_sim,
        )
        fund = abs(res.harmonic_currents[0])
        for n in (2, 4, 6):
            assert abs(res.harmonic_currents[n - 1]) < 0.01 * fund


class TestNumericalQuality:
    def test_energy_bookkeeping(self, lowpass_plant, fast_sim):
        # input wave power = mechanical dissipation + winding loss +
        # electrical output, cycle-averaged at steady state
        plant = dataclasses.replace(lowpass_plant, l_w=0.004, b_d=2.0e3)
        src = thevenin_from_plant(plant)
        base = matched_baseline(src)
        res = simulate(plant, src.z_th.conjugate(), i_max=0.7 * base.i_peak_matched,
                       cfg=fast_sim)
        w = res.waveforms
        f_amp = abs(plant.f_e)
        f_exc = f_amp * np.cos(plant.omega * w["t"])
        p_in = np.mean(f_exc * w["v"])
        b_total = plant.b_h + plant.g_ratio**2 * plant.b_d
        p_mech = b_total * np.mean(w["v"] ** 2)
        p_wind = plant.r_w * np.mean(w["i"] ** 2)
        p_out = res.p_avg
        assert p_in == pytest.approx(p_mech + p_wind + p_out, rel=1e-3)

    def test_step_halving(self, lowpass_plant):
        src = thevenin_from_plant(lowpass_plant)
        base = matched_baseline(src)
        i_max = 0.6 * base.i_peak_matched
        cfg1 = SimConfig(steps_per_period=2000, n_periods=30, transient_periods=20)
        cfg2 = SimConfig(steps_per_period=4000, n_periods=30, transient_periods=20)
        p1 = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=cfg1).p_avg
        p2 = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=cfg2).p_avg
        assert abs(p1 - p2) / abs(p2) < 5e-4

    def test_bit_identical_reruns(self, lowpass_plant):
        cfg = SimConfig(steps_per_period=400, n_periods=25, transient_periods=15)
        src = thevenin_from_plant(lowpass_plant)
        base = matched_baseline(src)
        a = simulate(lowpass_plant, src.z_th.conjugate(),
                     i_max=0.5 * base.i_peak_matched, cfg=cfg)
        b = simulate(lowpass_plant, src.z_th.conjugate(),
                     i_max=0.5 * base.i_peak_matched, cfg=cfg)
        assert np.array_equal(a.waveforms, b.waveforms)
        assert a.p_avg == b.p_avg
        assert a.harmonic_currents == b.harmonic_currents

    def test_stiffness_guard(self, lowpass_plant):
        plant = dataclasses.replace(lowpass_plant, l_w=1e-6)
        src = thevenin_from_plant(plant)
        with pytest.raises(DomainError, match="steps_per_period"):
            simulate(plant, src.z_th.conjugate())

    def test_controller_must_dissipate(self, lowpass_plant):
        with pytest.raises(DomainError):
            simulate(lowpass_plant, -0.1 + 0.2j)


class TestHarmonicDecompose:
    def test_pure_sinusoid_single_line(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        res = simulate(lowpass_plant, src.z_th.conjugate(), cfg=fast_sim)
        dc, phasors = harmonic_decompose(res, 6)
        fund = abs(phasors[0])
        assert abs(dc) < 1e-10 * fund
        for p in phasors[1:]:
            assert abs(p) < 1e-9 * fund

    def test_matches_simresult_phasors(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        base = matched_baseline(src)
        res = simulate(lowpass_plant, src.z_th.conjugate(),
                       i_max=0.5 * base.i_peak_matched, cfg=fast_sim)
        _, phasors = harmonic_decompose(res, 9)
        assert phasors == res.harmonic_currents

    def test_window_validation(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        res = simulate(lowpass_plant, src.z_th.conjugate(), cfg=fast_sim)
        truncated = dataclasses.replace(res, waveforms=res.waveforms[: len(res.waveforms) // 2])
        with pytest.raises(DomainError, match="integer"):
            harmonic_decompose(truncated, 3)


class TestValidateDf:
    def test_unsaturated_row(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        base = matched_baseline(src)
        rep = validate_df(lowpass_plant, 2.0 * base.i_peak_matched, cfg=fast_sim)
        assert not rep.saturated
        assert rep.enforced
        assert rep.rel_err_power < 0.005
        assert rep.rel_err_fundamental < 0.005
        assert rep.rel_err_position < 0.005
        assert rep.passed

    def test_saturated_lowpass_rows(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        base = matched_baseline(src)
        assert low_pass_merit(lowpass_plant) >= 3.0
        for frac in (0.4, 0.8):
            rep = validate_df(lowpass_plant, frac * base.i_peak_matched, cfg=fast_sim)
            assert rep.saturated and rep.enforced
            assert rep.rel_err_power < 0.05
            assert rep.rel_err_fundamental < 0.02
            assert rep.passed

    def test_saturated_closure_on_reactive_plants(self, fast_sim):
        # method accuracy holds on reactive sources too (conjugate controller
        # then exercises the series-stiffness and series-inductance
        # realizations), not just the resistive resonant plant
        w, M = 1.0, 1.0e5
        for wn_ratio in (0.85, 1.2):
            K = M * (wn_ratio * w) ** 2
            plant = haskind_plant(
                m=0.7 * M, a_added=0.3 * M, b_h=4.0e4, k_h=K, k_t=120.0,
                r_w=0.02, omega=w, j_density=1.0e4, k_wavenumber=w * w / 9.81,
                g0=1,
            )
            assert low_pass_merit(plant) >= 3.0
            src = thevenin_from_plant(plant)
            assert abs(src.alpha) > 0.5
            base = matched_baseline(src)
            rep = validate_df(plant, 0.5 * base.i_peak_matched, cfg=fast_sim)
            assert rep.saturated and rep.enforced and rep.passed
            assert rep.rel_err_power < 0.05
            assert rep.rel_err_fundamental < 0.02

    def test_broadband_plant_flagged_not_failed(self, fast_sim):
        # weak electromechanical coupling leaves Z_th dominated by the
        # winding resistance: nearly flat across harmonics, merit ~ 1
        plant = WecPlant(
            m=6.0e4, a_added=4.0e4, b_h=5.0e4, k_h=1.0e5, k_t=10.0, r_w=0.05,
            omega=1.0, f_e=2.0e5 + 0j, j_density=1.0e4, k_wavenumber=0.102,
        )
        assert low_pass_merit(plant) < 1.5
        src = thevenin_from_plant(plant)
        base = matched_baseline(src)
        rep = validate_df(plant, 0.5 * base.i_peak_matched, cfg=fast_sim)
        assert rep.assumption_violated
        assert not rep.enforced

    def test_report_carries_its_simulation(self, lowpass_plant):
        cfg = SimConfig(steps_per_period=250, n_periods=22, transient_periods=12)
        base = matched_baseline(thevenin_from_plant(lowpass_plant))
        rep = validate_df(lowpass_plant, 0.5 * base.i_peak_matched, cfg=cfg)
        assert rep.sim.p_avg == rep.p_simulated
        assert abs(rep.sim.harmonic_currents[0]) == rep.i1_simulated
        assert rep.sim.x_amp == rep.x_simulated
        assert "sim=" not in repr(rep)
        assert dataclasses.replace(rep, sim=None) == rep


class TestWaveformDump:
    def test_csv_contract(self, lowpass_plant, tmp_path):
        cfg = SimConfig(steps_per_period=250, n_periods=22, transient_periods=12)
        src = thevenin_from_plant(lowpass_plant)
        res = simulate(lowpass_plant, src.z_th.conjugate(), cfg=cfg)
        path = tmp_path / "wave.csv"
        dump_waveforms(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,v,i,v_load,p_inst"
        assert len(lines) == 1 + cfg.steps_per_period
        values = [float(tok) for tok in lines[1].split(",")]
        assert len(values) == 6

    @pytest.mark.parametrize("fraction", [0.3, math.inf])
    def test_bytes_match_per_cell_format(self, lowpass_plant, tmp_path, fraction):
        cfg = SimConfig(steps_per_period=250, n_periods=22, transient_periods=12)
        src = thevenin_from_plant(lowpass_plant)
        i_max = fraction * matched_baseline(src).i_peak_matched
        res = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=cfg)
        dump_waveforms(res, tmp_path / "new.csv")
        dump_waveforms_rowwise(res, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
