"""Tests for the nonlinear time-domain reference simulation."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from conftest import random_plant, random_load
from oracles import circuit_solution, dump_waveforms_rowwise, simulate_rk4
from wec_satlin import (
    DomainError,
    SimConfig,
    SimulationError,
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
from wec_satlin.propagate import Branch, expm, flow
from wec_satlin.simulate import _Loop
from wec_satlin.wec import WecPlant


class TestSimConfig:
    def test_guards(self):
        with pytest.raises(DomainError):
            SimConfig(steps_per_period=50)
        with pytest.raises(DomainError):
            SimConfig(n_periods=10, transient_periods=10)
        for key in ("convergence_tol", "algebraic_loop_tol"):
            for value in (0.0, -1.0, math.nan):
                with pytest.raises(DomainError, match=f"{key} must be positive"):
                    SimConfig(**{key: value})


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

    def test_stiff_winding_matches_phasor_oracle(self, lowpass_plant):
        # a 1 uH winding puts the electrical pole near 2e5 rad/s, about 660
        # times the default step rate; exact propagation needs no finer step
        plant = dataclasses.replace(lowpass_plant, l_w=1e-6)
        src = thevenin_from_plant(plant)
        z_c = src.z_th.conjugate()
        i_fd, v_fd = circuit_solution(src.v_th, src.z_th, z_c)
        res = simulate(plant, z_c)
        assert res.converged
        assert res.p_avg == pytest.approx(0.5 * (v_fd * np.conj(i_fd)).real, rel=5e-3)
        assert abs(res.harmonic_currents[0]) == pytest.approx(abs(i_fd), rel=5e-3)
        i_max = 0.5 * matched_baseline(src).i_peak_matched
        clipped = simulate(plant, z_c, i_max=i_max)
        assert clipped.converged
        assert clipped.peak_current <= i_max

    def test_non_finite_state_names_its_step(self, lowpass_plant, monkeypatch):
        # poison the one-step powers from E^41 on: sample 41 of the first
        # period, produced by step 40, is the first non-finite state
        build = Branch.build.__func__

        def poisoned(cls, *args):
            branch = build(cls, *args)
            powers = branch.powers.copy()
            powers[40:] = np.nan
            return dataclasses.replace(branch, powers=powers)

        monkeypatch.setattr(Branch, "build", classmethod(poisoned))
        cfg = SimConfig(steps_per_period=100, n_periods=3, transient_periods=1)
        with pytest.raises(SimulationError, match="diverged at step 40") as info:
            simulate(lowpass_plant, lowpass_plant.z_thevenin().conjugate(), cfg=cfg)
        assert info.value.step == 40
        assert not all(math.isfinite(c) for c in info.value.trace)

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


class TestExpm:
    def test_zero_matrix_is_identity(self):
        assert np.array_equal(expm(np.zeros((5, 5))), np.eye(5))

    def test_oscillator_block_over_one_period(self):
        # the wave oscillator block advanced by w T = 2 pi returns to identity
        w_t = 2.0 * math.pi
        block = np.array([[0.0, -w_t], [w_t, 0.0]])
        np.testing.assert_allclose(expm(block), scipy_expm(block), rtol=0, atol=1e-15)
        np.testing.assert_allclose(expm(block), np.eye(2), rtol=0, atol=1e-14)

    def test_defective_jordan_block(self):
        jordan = 2.0 * (-0.3 * np.eye(3) + np.eye(3, k=1))
        np.testing.assert_allclose(expm(jordan), scipy_expm(jordan), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("rate", [1e2, 1e3, 1e4, 1e5, 1e6])
    def test_stiff_blocks(self, rate):
        # a fast decaying mode coupled to a slow oscillator, and a fast
        # transfer term, with ||A dt|| from 1e2 to 1e6
        coupled = np.array([[0.0, 1.0, 0.0], [-1.0, -0.5, -1e-3], [0.0, 1e2, -rate]])
        transfer = np.array([[-1.0, rate], [0.0, -2.0]])
        for block in (coupled, transfer):
            assert np.linalg.norm(block, 1) >= rate
            ref = scipy_expm(block)
            err = np.max(np.abs(expm(block) - ref)) / np.max(np.abs(ref))
            assert err < 1e-10

    def test_held_states_keep_exact_identity_rows(self):
        # the Pade solve and squarings leave rounding in this matrix's zero
        # row; flow restores it, so a held rail value stays exactly +-i_max
        gen = np.array([[0.0, 0.0, 0.0], [4.9, -25.04, 16.91], [60.97, 44.28, -32.9]])
        assert np.array_equal(flow(gen, 1.0)[0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(flow(gen, 1.0), scipy_expm(gen), rtol=1e-12, atol=1e-14)


class TestSubStepFlow:
    def test_taylor_path_matches_matrix_exponential(self, lowpass_plant):
        loop = _Loop(lowpass_plant, 0.21 - 0.1j, 1e3, 2 * math.pi / 600, 600)
        y0 = loop.y0 + np.arange(loop.n)
        h = 2 * math.pi / 600
        for tau in (0.0, 0.3 * h, h):
            exact = flow(loop.free.a, tau) @ y0
            np.testing.assert_allclose(loop.free.path(y0, h)(tau), exact, rtol=1e-13, atol=1e-13)

    def test_stiff_sub_step_falls_back_to_matrix_exponential(self, lowpass_plant):
        plant = dataclasses.replace(lowpass_plant, l_w=1e-6)
        h = 2 * math.pi / 2000
        loop = _Loop(plant, plant.z_thevenin().conjugate(), 1e3, h, 2000)
        y0 = loop.y0 + np.arange(loop.n)
        tau = 0.6 * h
        assert np.array_equal(loop.free.path(y0, h)(tau), flow(loop.free.a, tau) @ y0)


REACTIVE_PLANT = dict(
    m=6.0e4, a_added=4.0e4, b_h=5.0e4, k_h=1.5e5, k_t=100.0, r_w=0.01, l_w=0.005,
    omega=1.0, j_density=1.0e4, k_wavenumber=0.102, g0=1,
)


def _waveform_gap(coarse, fine, stride):
    """Largest relative gap of x, v, i, v_load between the coarse samples and
    the fine run's samples at the same instants."""
    return max(
        np.max(np.abs(coarse.waveforms[k] - fine.waveforms[k][::stride]))
        / np.max(np.abs(fine.waveforms[k]))
        for k in ("x", "v", "i", "v_load")
    )


class TestClipEvents:
    @pytest.mark.parametrize("l_w", [0.0, 0.004])
    def test_enter_and_release_inside_one_step(self, lowpass_plant, l_w):
        # half a step of phase puts each current peak midway between
        # samples; a clip 1e-4 below it lasts under half a step
        steps = 100
        plant = dataclasses.replace(
            lowpass_plant, l_w=l_w, f_e=lowpass_plant.f_e * cmath.exp(1j * math.pi / steps)
        )
        z_c = plant.z_thevenin().conjugate()
        coarse_cfg = SimConfig(steps_per_period=steps, n_periods=30, transient_periods=20)
        fine_cfg = dataclasses.replace(coarse_cfg, steps_per_period=4 * steps)
        free = simulate(plant, z_c, cfg=coarse_cfg)
        i_max = 0.9999 * abs(free.harmonic_currents[0])
        coarse = simulate(plant, z_c, i_max=i_max, cfg=coarse_cfg)
        fine = simulate(plant, z_c, i_max=i_max, cfg=fine_cfg)
        assert coarse.peak_current < i_max  # no coarse sample on the rail
        assert fine.peak_current == i_max  # the fine run samples the rail
        assert _waveform_gap(coarse, free, 1) > 1e-8  # so the clip was seen
        assert _waveform_gap(coarse, fine, 4) < 1e-10

    @pytest.mark.parametrize("l_w", [0.0, 0.005])
    def test_grazing_full_fraction_row(self, l_w):
        # i_max equal to the matched peak: the steady current touches the
        # limit tangentially every half period
        plant = haskind_plant(**dict(REACTIVE_PLANT, l_w=l_w))
        src = thevenin_from_plant(plant)
        i_max = matched_baseline(src).i_peak_matched
        coarse_cfg = SimConfig(steps_per_period=400, n_periods=30, transient_periods=20)
        fine_cfg = dataclasses.replace(coarse_cfg, steps_per_period=1600)
        coarse = simulate(plant, src.z_th.conjugate(), i_max=i_max, cfg=coarse_cfg)
        fine = simulate(plant, src.z_th.conjugate(), i_max=i_max, cfg=fine_cfg)
        assert coarse.peak_current <= i_max and fine.peak_current <= i_max
        assert coarse.converged and fine.converged
        assert coarse.p_avg == pytest.approx(fine.p_avg, rel=1e-8)
        assert _waveform_gap(coarse, fine, 4) < 1e-9


class TestRk4Oracle:
    """The exact referee against the fixed-step RK4 integrator it replaced."""

    @pytest.mark.parametrize("fraction", [math.inf, 0.4, 0.8])
    @pytest.mark.parametrize(
        "l_w, reactance",
        [
            pytest.param(0.0, -0.5, id="pi"),
            pytest.param(0.004, -0.5, id="pi-winding"),
            pytest.param(0.0, 0.5, id="ind"),
            pytest.param(0.0, 0.0, id="res"),
            pytest.param(0.004, 0.0, id="res-winding"),
        ],
    )
    def test_agrees_with_rk4(self, lowpass_plant, l_w, reactance, fraction):
        plant = dataclasses.replace(lowpass_plant, l_w=l_w)
        src = thevenin_from_plant(plant)
        z_c = complex(src.z_th.real, reactance * src.z_th.real)
        i_max = fraction * matched_baseline(src).i_peak_matched
        cfg = SimConfig(steps_per_period=600, n_periods=12, transient_periods=6)
        new = simulate(plant, z_c, i_max=i_max, cfg=cfg)
        ref = simulate_rk4(plant, z_c, i_max=i_max, cfg=cfg)
        assert new.p_avg == pytest.approx(ref.p_avg, rel=1e-4)
        assert abs(new.harmonic_currents[0]) == pytest.approx(
            abs(ref.harmonic_currents[0]), rel=1e-4
        )
        assert new.x_amp == pytest.approx(ref.x_amp, rel=1e-4)
        if math.isfinite(i_max):
            assert new.peak_current == i_max  # the clip engages, exactly
