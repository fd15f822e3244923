"""Tests for the nonlinear time-domain reference simulation."""

import cmath
import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from conftest import random_plant, random_load
from oracles import (
    circuit_solution,
    dump_waveforms_rowwise,
    expm_decimal,
    free_orbit_start,
    period_windowed,
    powers_by_concatenation,
    simulate_horizon,
    simulate_rk4,
)
from row_sets import (
    GOLDEN_INI,
    GRID_FRACTIONS,
    GRID_PLANTS,
    REACTIVE_PLANT,
    STIFF_WINDINGS,
    conjugate_rows,
    draw_design,
    golden_rows,
    grid_plant,
    reactive_rows,
    seeded_rows,
)
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
from wec_satlin.config import load_config
from wec_satlin.propagate import Branch, balance, expm, flow
from wec_satlin.simulate import _Loop, _shared_loops
from wec_satlin.wec import WecPlant

simulate_mod = importlib.import_module("wec_satlin.simulate")

# (l_w, controller reactance / resistance) of the five realizations of the
# loop on the low-pass plant: series stiffness with and without a winding,
# series inductance, and a resistive controller with and without a winding
REALIZATIONS = [
    pytest.param(0.0, -0.5, id="pi"),
    pytest.param(0.004, -0.5, id="pi-winding"),
    pytest.param(0.0, 0.5, id="ind"),
    pytest.param(0.0, 0.0, id="res"),
    pytest.param(0.004, 0.0, id="res-winding"),
]


class TestSimConfig:
    def test_guards(self):
        with pytest.raises(DomainError):
            SimConfig(steps_per_period=50)
        for n_periods in (0, -3):  # no period to extract the result from
            with pytest.raises(DomainError, match="n_periods must be at least 1"):
                SimConfig(n_periods=n_periods)
        for key in ("convergence_tol", "algebraic_loop_tol"):
            for value in (0.0, -1.0, math.nan):
                with pytest.raises(DomainError, match=f"{key} must be positive"):
                    SimConfig(**{key: value})

    @pytest.mark.parametrize("steps", [101, 401, 2001])
    def test_odd_step_count_is_rejected(self, steps):
        # half a period of an odd count falls between two samples
        with pytest.raises(DomainError, match=f"steps_per_period must be even, got {steps}"):
            SimConfig(steps_per_period=steps)
        assert SimConfig(steps_per_period=steps + 1).steps_per_period == steps + 1

    def test_no_transient_skip(self):
        # shooting needs no transient periods, so a short cap is valid alone
        assert SimConfig(n_periods=3).n_periods == 3
        assert "transient_periods" not in {f.name for f in dataclasses.fields(SimConfig)}


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
        cfg1 = SimConfig(steps_per_period=2000, n_periods=30)
        cfg2 = SimConfig(steps_per_period=4000, n_periods=30)
        p1 = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=cfg1).p_avg
        p2 = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=cfg2).p_avg
        assert abs(p1 - p2) / abs(p2) < 5e-4

    def test_bit_identical_reruns(self, lowpass_plant):
        cfg = SimConfig(steps_per_period=400, n_periods=25)
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
        cfg = SimConfig(steps_per_period=100, n_periods=3)
        with pytest.raises(SimulationError, match="diverged at step 40") as info:
            simulate(lowpass_plant, lowpass_plant.z_thevenin().conjugate(), cfg=cfg)
        assert info.value.step == 40
        assert not all(math.isfinite(c) for c in info.value.trace)

    def test_finite_states_whose_sum_overflows_pass(self, lowpass_plant, monkeypatch):
        # two finite samples of 1.7e308 overflow the sum of the states;
        # the per-map check looks at each state, so the run goes on as
        # without them: the oscillator columns of a mid-map sample feed
        # neither the residual nor the extraction
        z_c = lowpass_plant.z_thevenin().conjugate()
        i_max = 0.5 * matched_baseline(thevenin_from_plant(lowpass_plant)).i_peak_matched
        cfg = SimConfig(steps_per_period=100, n_periods=6)
        plain = simulate(lowpass_plant, z_c, i_max=i_max, cfg=cfg)
        period, huge = _Loop.period, []

        def overflowing(self, *args):
            run = period(self, *args)
            run.ys[5, self.osc] = 1.7e308
            with np.errstate(over="ignore"):
                huge.append(run.ys[1:].sum())
            return run

        monkeypatch.setattr(_Loop, "period", overflowing)
        res = simulate(lowpass_plant, z_c, i_max=i_max, cfg=cfg)
        assert huge and all(total == math.inf for total in huge)
        assert _result_bits(res) == _result_bits(plain)

    def test_controller_must_dissipate(self, lowpass_plant):
        with pytest.raises(DomainError):
            simulate(lowpass_plant, -0.1 + 0.2j)

    @pytest.mark.parametrize("i_max", [0.0, -1.0, math.nan])
    def test_limit_must_be_positive(self, lowpass_plant, i_max):
        with pytest.raises(DomainError, match="current limit must be positive"):
            simulate(lowpass_plant, lowpass_plant.z_thevenin().conjugate(), i_max=i_max)


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

    @pytest.mark.parametrize("cycles, t0", [(1, 0.0), (1, 4.1), (3, 7.3)])
    def test_fft_matches_direct_sum(self, cycles, t0):
        # the direct DFT the FFT replaced is the reference, on a sine clipped
        # unevenly, so that odd and even harmonics are both present
        omega, n = 1.3, 1200
        t = t0 + np.arange(n) * (cycles * 2.0 * math.pi / omega / n)
        y = np.clip(3.0 * np.cos(omega * t + 0.4), -1.7, 2.2)
        phase = np.exp(-1j * omega * t)
        direct = [complex(2.0 / n * np.sum(y * phase**k)) for k in range(1, 10)]
        dc, phasors = simulate_mod._phasors(t, y, omega, 9)
        assert dc == float(np.mean(y))
        assert min(abs(p) for p in direct[:3]) > 1e-2 * abs(direct[0])
        for new, ref in zip(phasors, direct):
            assert abs(new - ref) <= 1e-12 * abs(direct[0])

    def test_harmonics_past_nyquist_raise(self, lowpass_plant):
        cfg = SimConfig(steps_per_period=100)
        z_c = lowpass_plant.z_thevenin().conjugate()
        res = simulate(lowpass_plant, z_c, cfg=cfg, n_harmonics=50)
        assert len(harmonic_decompose(res, 50)[1]) == 50
        with pytest.raises(DomainError, match="Nyquist"):
            harmonic_decompose(res, 51)
        with pytest.raises(DomainError, match="Nyquist"):
            simulate(lowpass_plant, z_c, cfg=cfg, n_harmonics=51)
        t = np.arange(100) * (3 * 2.0 * math.pi / 100)  # three periods at omega 1
        with pytest.raises(DomainError, match="Nyquist"):
            simulate_mod._phasors(t, np.cos(t), 1.0, 17)

    def test_harmonics_past_nyquist_raise_before_shooting(self, lowpass_plant, monkeypatch):
        periods = []
        monkeypatch.setattr(_Loop, "period", lambda *args: periods.append(args))
        z_c = lowpass_plant.z_thevenin().conjugate()
        cfg = SimConfig(steps_per_period=100)
        with pytest.raises(DomainError, match="harmonic 61 of 100 samples over 1 periods"):
            simulate(lowpass_plant, z_c, i_max=1.0, cfg=cfg, n_harmonics=61)
        assert periods == []

    def test_window_validation(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        res = simulate(lowpass_plant, src.z_th.conjugate(), cfg=fast_sim)
        truncated = dataclasses.replace(res, waveforms=res.waveforms[: len(res.waveforms) // 2])
        with pytest.raises(DomainError, match="integer"):
            harmonic_decompose(truncated, 3)

    @pytest.mark.parametrize("periods", [0.5, 1.5, 2.999])
    def test_phasors_need_whole_periods(self, periods):
        t = np.arange(100) * (periods * 2.0 * math.pi / 100)
        with pytest.raises(DomainError, match=f"window spans {periods:.6g} periods"):
            simulate_mod._phasors(t, np.cos(t), 1.0, 1)


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
        cfg = SimConfig(steps_per_period=250, n_periods=22)
        base = matched_baseline(thevenin_from_plant(lowpass_plant))
        rep = validate_df(lowpass_plant, 0.5 * base.i_peak_matched, cfg=cfg)
        assert rep.sim.p_avg == rep.p_simulated
        assert abs(rep.sim.harmonic_currents[0]) == rep.i1_simulated
        assert rep.sim.x_amp == rep.x_simulated
        assert "sim=" not in repr(rep)
        assert dataclasses.replace(rep, sim=None) == rep

    def test_numpy_scalar_fields_run_as_python_numbers(self):
        # the golden.ini plant with every float field a numpy.float64 and
        # f_e a numpy.complex128: its clipped rows raised TypeError, and
        # would equal, and so share a loop with, the Python-float plant
        plant = load_config(GOLDEN_INI).require_plant("verify")
        numpy_fields = {f.name: np.asarray(getattr(plant, f.name))[()]
                        for f in dataclasses.fields(plant)
                        if isinstance(getattr(plant, f.name), (float, complex))}
        numpy_plant = dataclasses.replace(plant, **numpy_fields)
        assert {type(value) for value in numpy_fields.values()} == {np.float64, np.complex128}
        assert numpy_plant == plant and hash(numpy_plant) == hash(plant)
        assert all(type(getattr(numpy_plant, name)) is type(getattr(plant, name))
                   for name in numpy_fields)
        peak = matched_baseline(thevenin_from_plant(plant)).i_peak_matched
        for fraction in (0.3, 0.6):
            ref = validate_df(plant, fraction * peak)
            rep = validate_df(numpy_plant, fraction * peak)
            assert rep.sim.clip_fraction > 0.0
            assert _result_bits(rep.sim) == _result_bits(ref.sim)
            assert rep.p_predicted == ref.p_predicted


class TestWaveformDump:
    def test_csv_contract(self, lowpass_plant, tmp_path):
        cfg = SimConfig(steps_per_period=250, n_periods=22)
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
        cfg = SimConfig(steps_per_period=250, n_periods=22)
        src = thevenin_from_plant(lowpass_plant)
        i_max = fraction * matched_baseline(src).i_peak_matched
        res = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=cfg)
        dump_waveforms(res, tmp_path / "new.csv")
        dump_waveforms_rowwise(res, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestExpm:
    def test_longdouble_is_extended_precision(self):
        # expm, the stiff branches' flow, runs in np.longdouble; as plain
        # double it errs by about rounding times ||a dt|| again, and the
        # stiff-grid rows stall short of the shooting target
        assert np.finfo(np.longdouble).nmant >= 63, (
            "np.longdouble is not x87 extended precision on this platform, so "
            "propagate.expm, the stiff flow, has only float64's rounding")

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
        # a zero generator row stays an exact identity row through the
        # series and the squarings, so a held rail value stays exactly
        # +-i_max
        gen = np.array([[0.0, 0.0, 0.0], [4.9, -25.04, 16.91], [60.97, 44.28, -32.9]])
        assert np.array_equal(flow(gen, 1.0)[0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(flow(gen, 1.0), scipy_expm(gen), rtol=1e-12, atol=1e-14)

    def test_balance_is_an_exact_similarity_that_ignores_the_step(self):
        # a badly scaled current row, 1e4 against at most 3 for the other
        # rows: the power-of-two diagonal evens its row and column, cutting
        # the 1-norm from 1e4 to 14, and leaves the held state's zero row
        gen = np.array([[0.0, 1.0, 0.0, 0.0], [-2.5, -0.5, -1e-3, 0.0],
                        [0.0, 1e4, -10.0, 1e2], [0.0, 0.0, 0.0, 0.0]])
        d = balance(gen)
        assert np.all(np.frexp(d)[0] == 0.5) and d[3] == 1.0
        for h in (1e-3, 0.37, 2.0**-10, 5.0):
            assert np.array_equal(balance(gen * h), d)
        balanced = gen * (d / d[:, None])
        assert np.array_equal(balanced * (d[:, None] / d), gen)
        assert np.linalg.norm(balanced, 1) < 15.0 < 1e4 < np.linalg.norm(gen, 1)
        # flow balances the generator itself where no scale is given
        assert np.array_equal(flow(gen, 0.01), flow(gen, 0.01, d))

    def test_non_finite_generator_is_not_balanced(self):
        assert np.array_equal(balance(np.array([[0.0, np.inf], [1.0, 0.0]])), [1.0, 1.0])

    def test_balance_stays_finite_across_the_whole_float_range(self):
        # entries 2e631 apart: one unbounded update would scale by 2^1048,
        # which overflows to inf
        d = balance(np.array([[0.0, 1e308], [5e-324, 0.0]]))
        assert np.isfinite(d).all() and np.all(np.frexp(d)[0] == 0.5)

    def test_decimal_reference_on_closed_forms(self):
        # the oracle itself: a rotation, and a stiff transfer term whose
        # exponential is [[e^-1, r (e^-1 - e^-2)], [0, e^-2]]
        np.testing.assert_allclose(expm_decimal(np.array([[0.0, -1.0], [1.0, 0.0]]), 0.5),
                                   [[math.cos(0.5), -math.sin(0.5)],
                                    [math.sin(0.5), math.cos(0.5)]], rtol=2e-16, atol=0)
        ref = expm_decimal(np.array([[-1.0, 1e6], [0.0, -2.0]]), 1.0)
        exact = [[math.exp(-1.0), 1e6 * (math.exp(-1.0) - math.exp(-2.0))],
                 [0.0, math.exp(-2.0)]]
        np.testing.assert_allclose(ref, exact, rtol=4e-16, atol=0)


class TestLocate:
    """The switch search on a guard with a cubic tangency: the first state
    of the nilpotent chain y' = (y_2, y_3, y_4, 0) from y_0 reads
    level + (tau - t0)^3 / 6, which is flat to rounding over a span far
    wider than the tolerance.  Newton's steps from the low side shrink by
    2/3 each, then advance by half a tolerance; without the bisection they
    took up to the 100-evaluation cap here, and the last case ended 1.3e-3
    off."""

    @pytest.mark.parametrize("h, t0, tol, level", [
        (1.0, 0.3, 1e-15, 1.0),
        (1.0, 1.0 / 3.0, 1e-9, 1.0),
        (1.0, 0.3, 1e-12, 1e3),
        (1.0, 0.7, 1e-12, 0.0),
        (2e-3, 7e-4, 2e-15, 1.0),
    ])
    def test_flat_guard_is_bisected(self, h, t0, tol, level):
        br = Branch.build(np.diag([1.0, 1.0, 1.0], 1), np.eye(4)[0], np.eye(4)[0], h, 1)
        y0 = np.array([level - t0**3 / 6.0, t0 * t0 / 2.0, -t0, 1.0])
        taus = []

        def at(t):
            return br.transition(t) @ y0

        tau, y = br.locate(lambda t: taus.append(t) or at(t), y0, at(h), h, np.eye(4)[0],
                           level, tol)
        assert len(taus) <= math.log2(h / tol) + 5
        # positive, and inside the span where the cubic is below 8 ulp of
        # the largest state
        assert y[0] > level
        assert abs(tau - t0) <= (48.0 * np.spacing(np.abs(y0).max())) ** (1.0 / 3.0)


class TestSubStepFlow:
    def test_taylor_path_matches_matrix_exponential(self, lowpass_plant):
        loop = _Loop(lowpass_plant, 0.21 - 0.1j, 2 * math.pi / 600, 600)
        y0 = loop.y0 + np.arange(loop.n)
        h = 2 * math.pi / 600
        for tau in (0.0, 0.3 * h, h):
            exact = flow(loop.free.a, tau) @ y0
            np.testing.assert_allclose(loop.free.transition(tau) @ y0, exact, rtol=1e-13,
                                       atol=1e-13)

    def test_stiff_sub_step_falls_back_to_matrix_exponential(self, lowpass_plant):
        plant = dataclasses.replace(lowpass_plant, l_w=1e-6)
        h = 2 * math.pi / 2000
        loop = _Loop(plant, plant.z_thevenin().conjugate(), h, 2000)
        y0 = loop.y0 + np.arange(loop.n)
        tau = 0.6 * h
        assert np.array_equal(loop.free.transition(tau) @ y0, flow(loop.free.a, tau) @ y0)

    @pytest.mark.parametrize("fraction", [0.4, 0.6, 0.8])
    def test_path_keeps_the_taylor_sum_per_state(self, lowpass_plant, fraction):
        # a 0.5 mH winding: on the transition's test of the generator's
        # tail, 6, 2 and 2 of the 12, 11 and 12 sub-step flows of these
        # rows' switch searches take the balanced matrix exponential, and
        # each row settles in one map at a residual of 5.4e-14, 1.0e-15 and
        # 3.7e-15.  Before the balance, that test took these rows to the
        # 40-map cap, at residuals of 9.7e-13, 7.0e-11 and 1.8e-11
        plant = dataclasses.replace(lowpass_plant, l_w=5e-4)
        src = thevenin_from_plant(plant)
        i_max = fraction * matched_baseline(src).i_peak_matched
        res = simulate(plant, src.z_th.conjugate(), i_max=i_max)
        assert res.periods_run <= 4
        assert res.periodicity_residual <= 1e-12


def _waveform_gap(coarse, fine, stride):
    """Largest relative gap of x, v, i, v_load between the coarse samples and
    the fine run's samples at the same instants."""
    return max(
        np.max(np.abs(coarse.waveforms[k] - fine.waveforms[k][::stride]))
        / np.max(np.abs(fine.waveforms[k]))
        for k in ("x", "v", "i", "v_load")
    )


def _enter_and_release_row(lowpass_plant, l_w):
    """(plant, z_c, i_max, cfg, unclipped run) at 100 steps per period whose
    clip is entered and released inside one step, twice a period: half a
    step of phase puts each current peak midway between samples, and the
    clip lies 1e-4 below the peak."""
    steps = 100
    plant = dataclasses.replace(
        lowpass_plant, l_w=l_w, f_e=lowpass_plant.f_e * cmath.exp(1j * math.pi / steps)
    )
    z_c = plant.z_thevenin().conjugate()
    cfg = SimConfig(steps_per_period=steps, n_periods=30)
    free = simulate(plant, z_c, cfg=cfg)
    return plant, z_c, 0.9999 * abs(free.harmonic_currents[0]), cfg, free


def _grazing_row(l_w):
    """(plant, z_c, i_max) of the reactive plant with i_max equal to the
    matched peak: the steady current touches the limit tangentially every
    half period."""
    plant = haskind_plant(**dict(REACTIVE_PLANT, l_w=l_w))
    src = thevenin_from_plant(plant)
    return plant, src.z_th.conjugate(), matched_baseline(src).i_peak_matched


class TestClipEvents:
    @pytest.mark.parametrize("l_w", [0.0, 0.004])
    def test_enter_and_release_inside_one_step(self, lowpass_plant, l_w):
        plant, z_c, i_max, coarse_cfg, free = _enter_and_release_row(lowpass_plant, l_w)
        fine_cfg = dataclasses.replace(coarse_cfg, steps_per_period=400)
        coarse = simulate(plant, z_c, i_max=i_max, cfg=coarse_cfg)
        fine = simulate(plant, z_c, i_max=i_max, cfg=fine_cfg)
        assert coarse.peak_current < i_max  # no coarse sample on the rail
        assert fine.peak_current == i_max  # the fine run samples the rail
        assert _waveform_gap(coarse, free, 1) > 1e-8  # so the clip was seen
        assert _waveform_gap(coarse, fine, 4) < 1e-10

    @pytest.mark.parametrize("l_w", [0.0, 0.005])
    def test_grazing_full_fraction_row(self, l_w):
        plant, z_c, i_max = _grazing_row(l_w)
        coarse_cfg = SimConfig(steps_per_period=400, n_periods=30)
        fine_cfg = dataclasses.replace(coarse_cfg, steps_per_period=1600)
        coarse = simulate(plant, z_c, i_max=i_max, cfg=coarse_cfg)
        fine = simulate(plant, z_c, i_max=i_max, cfg=fine_cfg)
        assert coarse.peak_current <= i_max and fine.peak_current <= i_max
        assert coarse.converged and fine.converged
        assert coarse.p_avg == pytest.approx(fine.p_avg, rel=1e-8)
        assert _waveform_gap(coarse, fine, 4) < 1e-9

    @pytest.mark.parametrize("l_w", [0.005, 0.0])
    def test_limits_just_below_the_peak_converge(self, l_w):
        # i_max = (1 - 10^-k) of the unclipped sampled peak, k = 2..14: the
        # clip holds for a share of the period that shrinks with k
        plant = haskind_plant(**dict(REACTIVE_PLANT, l_w=l_w))
        z_c = thevenin_from_plant(plant).z_th.conjugate()
        peak = simulate(plant, z_c).peak_current
        clip = []
        with _shared_loops():
            for k in range(2, 15):
                res = simulate(plant, z_c, i_max=(1.0 - 10.0**-k) * peak)
                assert res.converged and res.periods_run <= 3
                assert res.periodicity_residual <= 1e-12
                clip.append(res.clip_fraction)
        assert all(a > b for a, b in zip(clip, clip[1:]))
        assert clip[-1] > 0.0

    def test_tangential_release_is_not_a_reentry(self):
        # with winding inductance the current leaves the rail tangentially:
        # it starts at the limit with a rate of zero to rounding.  The stiff
        # winding (l_w = 5e-5, tau_l = dt / 7.5) puts the sub-step flow on
        # the matrix exponential, which reads the current one ulp above the
        # limit 1e-16 s after the release.  That touch is not a switch: its
        # guard rate, the pivot of its switch time in the Newton step, is
        # zero to rounding.  The state is the start of the step of the
        # verify_reactive plant at fraction 0.4 whose release was followed
        # by a re-entry 1.4e-16 s later and a second release 2.1e-15 s after
        # that
        plant = haskind_plant(**dict(REACTIVE_PLANT, l_w=5e-5))
        src = thevenin_from_plant(plant)
        i_max = 0.4 * matched_baseline(src).i_peak_matched
        dt = 2.0 * math.pi / plant.omega / 2000
        loop = _Loop(plant, src.z_th.conjugate(), dt, 1000)
        y = np.array([1.2754632585823462, 2.2498832567616365, 179.87306806879317, i_max,
                      0.9991661343425408, 0.040829351978509995])
        y_end, rail, pieces = loop.cross(y, True, i_max, 1e-12 * dt)
        assert [on_rail for on_rail, _ in pieces] == [True, False]
        assert not rail and abs(y_end @ loop.free.i_row) < i_max
        assert np.isfinite(y_end).all()


class TestPeakBound:
    """Steps whose guard changes slope but provably stays inside its branch
    are whole steps, not candidates for :meth:`_Loop.cross`."""

    def test_skipped_steps_hold_no_switch(self, lowpass_plant, monkeypatch):
        # the reference makes the bound infinite, so that every slope change
        # is crossed as before the bound; the seeded designs are joined by
        # rows whose clip is entered and released inside one step, and by
        # grazing rows
        rng = np.random.default_rng(1)
        cfg = SimConfig()
        cases = []
        for _ in range(25):
            plant = haskind_plant(**draw_design(rng))
            src = thevenin_from_plant(plant)
            r = src.z_th.real
            for z_c in (src.z_th.conjugate(), complex(r, 0.5 * r), complex(r, -0.5 * r)):
                peak = abs(src.v_th / (src.z_th + z_c))  # the unclipped current
                cases += [(plant, z_c, frac * peak, cfg) for frac in (0.2, 0.5, 0.8)]
        for l_w in (0.0, 0.004):
            cases.append(_enter_and_release_row(lowpass_plant, l_w)[:4])
        for l_w in (0.0, 0.005):
            cases.append((*_grazing_row(l_w), cfg))
        period, cross = _Loop.period, _Loop.cross
        segments, crossed = [], []

        def recorded_period(self, *args):
            run = period(self, *args)
            segments[-1].append(run.segments)
            return run

        def counted_cross(self, *args):
            crossed[-1] += 1
            return cross(self, *args)

        monkeypatch.setattr(_Loop, "period", recorded_period)
        monkeypatch.setattr(_Loop, "cross", counted_cross)

        def run_all():
            crossed.append(0)
            out = []
            with _shared_loops():  # loops made under one bound stay in its run
                for plant, z_c, i_max, sim_cfg in cases:
                    segments.append([])
                    out.append((simulate(plant, z_c, i_max=i_max, cfg=sim_cfg), segments[-1]))
            return out

        skipped = run_all()
        monkeypatch.setattr(simulate_mod, "_bend", lambda *args: math.inf)
        reference = run_all()
        assert crossed[0] < crossed[1]
        for (res, segs), (ref, ref_segs) in zip(skipped, reference):
            # a whole step rounds otherwise than a crossed one, and a switch
            # moves by that rounding over the guard's slope: up to 20 times
            # the switch tolerance 1e-12 dt, so switch times are held to the
            # outputs' 1e-12 relative, of the period
            tol = 1e-12 * 2.0 * math.pi / ref.omega
            assert res.periods_run == ref.periods_run
            for ours, theirs in zip(segs, ref_segs):
                assert [rail for rail, _, _ in ours] == [rail for rail, _, _ in theirs]
                for (_, start, _), (_, ref_start, _) in zip(ours, theirs):
                    assert abs(start - ref_start) <= tol
            for name in ("p_avg", "x_amp", "peak_current", "clip_fraction"):
                assert getattr(res, name) == pytest.approx(getattr(ref, name), rel=1e-12)
            i1 = abs(ref.harmonic_currents[0])
            for new, old in zip(res.harmonic_currents, ref.harmonic_currents):
                assert abs(new - old) <= 1e-12 * i1


def _run_samples(loop, rail, heights, slopes, sign=1.0, knob=0.0, i_max=2.0):
    """Samples of one run of ``loop`` on branch ``rail``, and their currents.

    The exit height, |i| on the free branch and -sign(sigma) times the
    release guard on the rail, reads ``heights``, and the guard's slope row
    reads ``slopes``; the rail holds sigma = ``sign * i_max``, and the
    oscillator state q, which neither row reads, is ``knob`` throughout.
    """
    guard = loop.guards[rail]
    rows = np.stack([guard.row, guard.slope])
    q = loop.osc[1]
    ys = np.zeros((len(heights), loop.n))
    ys[:, q] = knob
    solve = np.arange(loop.n) != q
    if rail:
        solve[loop.sigma] = False
        ys[:, loop.sigma] = sign * i_max
    targets = np.stack([np.multiply(heights, -sign if rail else 1.0), slopes])
    ys[:, solve] = np.linalg.lstsq(rows[:, solve], targets - rows @ ys.T, rcond=None)[0].T
    if not rail:
        ys[:, loop.current] = heights  # the current itself, exactly
    return ys, ys @ loop.branch(rail).i_row


class TestFirstCandidate:
    """The branch-exit screen of one run, on hand-built samples of the
    verify_reactive loop: the first step that ends outside the branch or
    whose guard changes slope and may peak past the level, else the number
    of steps."""

    @pytest.fixture(scope="class")
    def loop(self):
        plant = haskind_plant(**REACTIVE_PLANT)
        z_c = thevenin_from_plant(plant).z_th.conjugate()
        return _Loop(plant, z_c, 2.0 * math.pi / plant.omega / 2000, 1000)

    def test_free_branch_is_left_past_the_limit_not_at_it(self, loop):
        rising = [1.0] * 6
        ys, cur = _run_samples(loop, False, [1.0, 1.4, 1.7, 2.0, 2.0, 1.9], rising)
        assert loop.first_candidate(False, ys, cur, 2.0) == 5  # steps 2, 3 end at the level
        ys, cur = _run_samples(loop, False, [1.0, 1.4, 1.7, 2.0, 2.3, 2.6], rising)
        assert loop.first_candidate(False, ys, cur, 2.0) == 3
        ys, cur = _run_samples(loop, False, [-1.0, -1.4, -1.7, -2.0, -2.3, -2.6], rising)
        assert loop.first_candidate(False, ys, cur, 2.0) == 3  # |i| is what leaves

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rail_is_left_where_the_release_guard_turns_positive(self, loop, sign):
        rising = [1.0] * 6
        ys, cur = _run_samples(loop, True, [-0.8, -0.5, -0.2, -0.1, -0.05, -0.01], rising, sign)
        assert loop.first_candidate(True, ys, cur, 2.0) == 5
        ys, cur = _run_samples(loop, True, [-0.8, -0.5, -0.2, -0.1, 0.3, 0.6], rising, sign)
        assert loop.first_candidate(True, ys, cur, 2.0) == 3

    @pytest.mark.parametrize("rail, sign", [(False, 1.0), (True, 1.0), (True, -1.0)])
    def test_slope_change_is_a_candidate_once_its_bound_reaches_the_level(self, loop, rail,
                                                                          sign):
        # the guard turns between samples 2 and 3; the free branch's bound
        # (about 2e27 per unit state) leaves room below the limit 1 only for
        # states near 1e-30.  The knob q sets ||ys[2]||_inf and so the bound
        if rail:
            heights, level, i_max = [-3.0, -2.0, -1.5, -2.0, -3.0, -4.0], 0.0, 2.0
        else:
            heights, level = [1e-30 * h for h in (0.2, 0.5, 0.7, 0.5, 0.2, 0.1)], 1.0
            i_max = level
        slopes = np.multiply([1.0, 1.0, 1.0, -1.0, -1.0, -1.0], abs(heights[0]))
        ys, cur = _run_samples(loop, rail, heights, slopes, sign, i_max=i_max)
        assert loop.first_candidate(rail, ys, cur, i_max) == 5
        peak = loop.guards[rail].peak
        top = max(heights[2:4]) if not rail else max(
            -np.sign(ys[0, loop.sigma]) * (ys[2:4] @ loop.guards[True].row))
        knob = (level - top) / peak  # the least knob whose bound reaches the level
        while top + peak * knob < level:
            knob = np.nextafter(knob, math.inf)
        while not top + peak * np.nextafter(knob, 0.0) < level:
            knob = np.nextafter(knob, 0.0)
        assert knob > np.max(np.abs(ys[2]))
        for q, expected in ((knob, 2), (np.nextafter(knob, 0.0), 5)):
            ys, cur = _run_samples(loop, rail, heights, slopes, sign, q, i_max)
            assert loop.first_candidate(rail, ys, cur, i_max) == expected

    @pytest.mark.parametrize("rail", [False, True])
    def test_no_limit_no_candidate(self, loop, rail):
        ys, cur = _run_samples(loop, rail, [1.0, 3.0, 2.0, 5.0, 1.0, 9.0],
                               [1.0, -1.0, 1.0, -1.0, 1.0, -1.0], knob=1e300)
        assert loop.first_candidate(rail, ys, cur, math.inf) == 5


class TestPowerStack:
    @pytest.mark.parametrize("steps", [100, 600, 2000, 2001])
    @pytest.mark.parametrize(
        "l_w, reactance", REALIZATIONS + [pytest.param(1e-6, -0.5, id="stiff-winding")]
    )
    def test_matches_concatenating_doubling(self, lowpass_plant, l_w, reactance, steps):
        plant = dataclasses.replace(lowpass_plant, l_w=l_w)
        z_th = plant.z_thevenin()
        dt = 2.0 * math.pi / plant.omega / steps
        loop = _Loop(plant, complex(z_th.real, reactance * z_th.real), dt, steps)
        for br in (loop.free, loop.rail):
            assert br.powers.shape == (steps, loop.n, loop.n)
            assert np.array_equal(br.powers, powers_by_concatenation(br, dt, steps))


class TestBranchFlows:
    """Each branch's one-step flow E = ``powers[0]`` at the default step,
    with conjugate control, against expm(a dt) in 60-digit decimal
    arithmetic, as max |dE| / max |E|."""

    @staticmethod
    def _errors(name, l_w):
        """(error of E, error of scipy's expm(a dt)) for the free and the
        rail branch."""
        plant = grid_plant(name, l_w)
        dt = 2.0 * math.pi / plant.omega / 2000
        loop = _Loop(plant, plant.z_thevenin().conjugate(), dt, 1000)
        out = []
        for br in (loop.free, loop.rail):
            ref = expm_decimal(br.a, dt)
            scale = np.max(np.abs(ref))
            out.append((np.max(np.abs(br.powers[0] - ref)) / scale,
                        np.max(np.abs(scipy_expm(br.a * dt) - ref)) / scale))
        return out

    @pytest.mark.parametrize("l_w", STIFF_WINDINGS)
    @pytest.mark.parametrize("name", GRID_PLANTS)
    def test_flows_match_a_decimal_reference(self, name, l_w):
        # at most 1e-15 down to 50 uH, and 1e-13 below: the extended
        # precision exponential reads at most 1.5e-14 (the low-pass free
        # branch at 5 nH), where a float64 Pade-13 one read 2.6e-12, about
        # rounding times ||a dt||.  The reactive plant at 5 mH is the
        # verify_reactive plant; the overscaled matrix exponential was
        # 2.1e-14 off on its free branch
        for err, _ in self._errors(name, l_w):
            assert err <= (1e-15 if l_w >= 5e-5 else 1e-13)

    @pytest.mark.parametrize("l_w", STIFF_WINDINGS)
    @pytest.mark.parametrize("name", GRID_PLANTS)
    def test_flows_are_as_accurate_as_scipy(self, name, l_w):
        # up to rounding: within 2 ulp of the largest entry, or a factor of
        # 4 of scipy's error where a stiff branch's squarings leave more
        # (a float64 Pade-13 exponential read 4.7e-14 against 1.9e-14 on the
        # reactive plant at 5e-7 H); the overscaled exponential was 5.9e-12
        # off at 5e-5 H and 8.4e-7 at 5e-9 H
        for err, scipy_err in self._errors(name, l_w):
            assert err <= max(4.0 * scipy_err, 2.0 * np.finfo(float).eps)

    def test_unclipped_reactive_row_is_exact_to_rounding(self):
        # the verify_reactive row at fraction 1.0, where the phasor solution
        # is exact: 7.4e-14, against 5.9e-10 with the overscaled exponential
        plant = haskind_plant(**REACTIVE_PLANT)
        rep = validate_df(plant, matched_baseline(thevenin_from_plant(plant)).i_peak_matched)
        assert not rep.saturated and rep.sim.clip_fraction == 0.0
        assert rep.rel_err_power <= 1e-13


class TestStiffGrid:
    """Every row of the stiff grid settles in one half-period map, from the
    switch-time solve's start, at a periodicity residual of at most 1e-12.

    With the stiff flows in float64 (a Pade-13 exponential), whose error
    is about rounding times ||a dt||, the switch-time solve on six low-pass
    rows converged quadratically to about 1e-11 and then stalled: the rows
    at 5e-7 H, 0.8 and 5e-9 H, 0.4 to 0.8 took 3 to 19 maps through plain
    iteration of G, and those at 2e-8 H, 0.6 and 5e-8 H, 0.8 ran to the
    40-map cap.  The extended-precision flow settles each in one map."""

    @pytest.mark.parametrize("l_w", STIFF_WINDINGS)
    @pytest.mark.parametrize("name", GRID_PLANTS)
    def test_rows_settle(self, name, l_w):
        with _shared_loops():
            for plant, z_c, i_max in conjugate_rows(grid_plant(name, l_w), GRID_FRACTIONS):
                res = simulate(plant, z_c, i_max=i_max)
                assert res.converged
                assert res.periods_run == 1
                assert res.periodicity_residual <= 1e-12


def _result_bits(res):
    """Every field of a run's result, in a form == compares bit for bit
    (the residual and powers are finite here)."""
    return (res.waveforms.tobytes(), res.p_avg, res.harmonic_currents, res.period_powers,
            res.periods_run, res.newton_steps, res.periodicity_residual, res.clip_fraction)


def _describing_function(loop, i_max):
    """The describing function's solution :func:`simulate` hands the
    loop's start at the limit ``i_max``; None with no limit."""
    if not math.isfinite(i_max):
        return None
    return solve_operating_point(thevenin_from_plant(loop.plant), i_max, z_c=loop.z_c)


def _period_bits(run):
    """Every field of one anti-period map, in a form == compares bit for bit."""
    return run.ys.tobytes(), run.cur.tobytes(), run.vl.tobytes(), run.rail, run.segments


class TestWindowedScan:
    """One scan per branch run against the windowed scan it replaced."""

    @pytest.mark.parametrize(
        "row",
        [pytest.param(("grazing", l_w), id=f"grazing-{l_w}") for l_w in (0.0, 0.005)]
        + [pytest.param(("enter-release", l_w), id=f"enter-release-{l_w}")
           for l_w in (0.0, 0.004)]
        + [pytest.param(("clipped",) + tuple(p.values), id=p.id) for p in REALIZATIONS]
        # seeded designs where a map ends with a one-step run
        + [pytest.param(("seeded",) + case, id="seeded-{}-{}-{}-{}".format(*case))
           for case in ((1, 1, 0.5, 100), (6, 0, 0.8, 400))],
    )
    def test_window_does_not_move_a_bit(self, lowpass_plant, monkeypatch, row):
        kind, *args = row
        if kind == "seeded":  # design k of seed 1, controller z_th* or r(1 +- j/2)
            k, controller, fraction, steps = args
            rng = np.random.default_rng(1)
            for _ in range(k + 1):
                plant = haskind_plant(**draw_design(rng))
            src = thevenin_from_plant(plant)
            r = src.z_th.real
            z_c = (src.z_th.conjugate(), complex(r, 0.5 * r), complex(r, -0.5 * r))[controller]
            i_max = fraction * abs(src.v_th / (src.z_th + z_c))
            cfg = SimConfig(steps_per_period=steps)
        elif kind == "grazing":
            plant, z_c, i_max = _grazing_row(*args)
            cfg = SimConfig(steps_per_period=400)
        elif kind == "enter-release":
            plant, z_c, i_max, cfg, _ = _enter_and_release_row(lowpass_plant, *args)
        else:
            l_w, reactance = args
            plant = dataclasses.replace(lowpass_plant, l_w=l_w)
            src = thevenin_from_plant(plant)
            z_c = complex(src.z_th.real, reactance * src.z_th.real)
            i_max = 0.4 * matched_baseline(src).i_peak_matched
            cfg = SimConfig(steps_per_period=600)
        period, maps = _Loop.period, []

        def recorded_period(self, y, *args):
            run = period(self, y, *args)
            maps.append((self, y.copy(), args, run))
            return run

        monkeypatch.setattr(_Loop, "period", recorded_period)
        res = simulate(plant, z_c, i_max=i_max, cfg=cfg)
        if kind != "grazing":
            assert res.clip_fraction > 0.0
        assert maps
        for loop, y, args, run in maps:
            for window in (1, 2, 7, 256):
                ref = period_windowed(loop, y, *args, window)
                assert _period_bits(run) == _period_bits(ref), window

    def test_clipped_period_scans_about_one_period(self, monkeypatch):
        # the verify_reactive rows: conjugate control on the reactive plant
        # at the default step count; each map runs half a period, and each
        # branch run is scanned by one first_candidate call, so a map makes
        # at most one call more than the candidates it crosses; each row
        # runs one map from the switch-time solve's start
        plant = haskind_plant(**REACTIVE_PLANT)
        src = thevenin_from_plant(plant)
        peak = matched_baseline(src).i_peak_matched
        counts = []  # [first_candidate calls, candidates crossed] per map
        period, first_candidate, cross = _Loop.period, _Loop.first_candidate, _Loop.cross

        def counted_period(self, *args):
            counts.append([0, 0])
            return period(self, *args)

        def counted_first_candidate(self, *args):
            counts[-1][0] += 1
            return first_candidate(self, *args)

        def counted_cross(self, *args):
            counts[-1][1] += 1
            return cross(self, *args)

        monkeypatch.setattr(_Loop, "period", counted_period)
        monkeypatch.setattr(_Loop, "first_candidate", counted_first_candidate)
        monkeypatch.setattr(_Loop, "cross", counted_cross)
        runs = [simulate(plant, src.z_th.conjugate(), i_max=frac * peak)
                for frac in (0.4, 0.6, 0.8, 1.0)]
        assert [res.periods_run for res in runs] == [1, 1, 1, 1]  # half periods
        assert len(counts) == 4
        # the peak bound leaves 7 steps to cross, of 10 without it: 2 per
        # clipped row.  The unclipped row's sampled peak sits 7e-11 A below
        # its limit, the matched peak, so its bound reaches the limit in one
        # step; with the overscaled matrix exponential of the one-step flow
        # its orbit was 4e-10 off and the peak 3.7e-7 A below
        assert sum(candidates for _, candidates in counts) == 7
        for calls, candidates in counts:
            assert 1 <= calls <= candidates + 1


class TestRk4Oracle:
    """The exact referee against the fixed-step RK4 integrator it replaced."""

    @pytest.mark.parametrize("fraction", [math.inf, 0.4, 0.8])
    @pytest.mark.parametrize("l_w, reactance", REALIZATIONS)
    def test_agrees_with_rk4(self, lowpass_plant, l_w, reactance, fraction):
        plant = dataclasses.replace(lowpass_plant, l_w=l_w)
        src = thevenin_from_plant(plant)
        z_c = complex(src.z_th.real, reactance * src.z_th.real)
        i_max = fraction * matched_baseline(src).i_peak_matched
        cfg = SimConfig(steps_per_period=600, n_periods=12)
        new = simulate(plant, z_c, i_max=i_max, cfg=cfg)
        ref = simulate_rk4(plant, z_c, i_max=i_max, cfg=cfg)
        assert new.p_avg == pytest.approx(ref.p_avg, rel=1e-4)
        assert abs(new.harmonic_currents[0]) == pytest.approx(
            abs(ref.harmonic_currents[0]), rel=1e-4
        )
        assert new.x_amp == pytest.approx(ref.x_amp, rel=1e-4)
        if math.isfinite(i_max):
            assert new.peak_current == i_max  # the clip engages, exactly


def _closure_cases(lowpass_plant, fast_sim):
    """(plant, z_c, i_max, cfg) of every closure check in this suite and in
    acceptance criteria 05 and 06."""
    conj = lowpass_plant.z_thevenin().conjugate()
    peak = matched_baseline(thevenin_from_plant(lowpass_plant)).i_peak_matched
    cases = [(lowpass_plant, conj, frac * peak, fast_sim)
             for frac in (math.inf, 2.0, 0.8, 0.6, 0.5, 0.4, 0.02)]
    cases += [(lowpass_plant, z_from_gamma(g) * conj, math.inf, fast_sim)
              for g in (0.3, -0.4, 0.2 + 0.3j)]
    rng = np.random.default_rng(77)
    for k in range(4):
        plant = random_plant(rng, with_inductance=(k % 2 == 0))
        cases.append((plant, random_load(rng, plant, fast_sim.steps_per_period)[1],
                      math.inf, fast_sim))
    for wn_ratio in (0.85, 1.2):
        plant = haskind_plant(
            m=0.7e5, a_added=0.3e5, b_h=4.0e4, k_h=1.0e5 * wn_ratio**2, k_t=120.0,
            r_w=0.02, omega=1.0, j_density=1.0e4, k_wavenumber=1.0 / 9.81, g0=1,
        )
        src = thevenin_from_plant(plant)
        cases.append((plant, src.z_th.conjugate(),
                      0.5 * matched_baseline(src).i_peak_matched, fast_sim))
    plant = dataclasses.replace(lowpass_plant, l_w=0.004, b_d=2.0e3)
    src = thevenin_from_plant(plant)
    cases.append((plant, src.z_th.conjugate(),
                  0.7 * matched_baseline(src).i_peak_matched, fast_sim))
    criterion_05 = SimConfig(steps_per_period=1200, n_periods=36, convergence_tol=1e-6)
    rng = np.random.default_rng(55)
    for k in range(10):
        plant = random_plant(rng, with_inductance=(k % 2 == 0))
        for _ in range(3):
            cases.append((plant, random_load(rng, plant, 1200)[1], math.inf, criterion_05))
    criterion_06 = SimConfig(steps_per_period=1200, n_periods=32, convergence_tol=1e-5)
    cases += [(lowpass_plant, conj, frac * peak, criterion_06) for frac in (0.4, 0.6, 0.8)]
    return cases


class TestShooting:
    """Newton shooting on the period map against the horizon run it replaced."""

    def test_matches_horizon_oracle_on_closure_cases(self, lowpass_plant, fast_sim):
        # the horizon runs 60 periods: at 36, the slowest case (the energy
        # bookkeeping plant) still moves its power by 5e-10 per period
        for plant, z_c, i_max, cfg in _closure_cases(lowpass_plant, fast_sim):
            new = simulate(plant, z_c, i_max=i_max, cfg=cfg)
            ref = simulate_horizon(plant, z_c, i_max=i_max,
                                   cfg=dataclasses.replace(cfg, n_periods=60))
            assert new.converged and ref.converged
            assert new.p_avg == pytest.approx(ref.p_avg, rel=1e-9)
            assert abs(new.harmonic_currents[0]) == pytest.approx(
                abs(ref.harmonic_currents[0]), rel=1e-9
            )
            assert new.x_amp == pytest.approx(ref.x_amp, rel=1e-9)

    @pytest.mark.parametrize("fraction", [math.inf, 0.4, 0.8])
    @pytest.mark.parametrize("l_w, reactance", REALIZATIONS)
    def test_monodromy_matches_central_differences(self, lowpass_plant, l_w, reactance,
                                                   fraction):
        # near the orbit, at the switch times of a sampled map from there:
        # the system's state and switch-time columns, in its residual and
        # guard rows, against central differences of its residual column;
        # and its Schur complement, the map's Jacobian, against central
        # differences of the sampled map
        plant = dataclasses.replace(lowpass_plant, l_w=l_w)
        src = thevenin_from_plant(plant)
        z_c = complex(src.z_th.real, reactance * src.z_th.real)
        i_max = fraction * matched_baseline(src).i_peak_matched
        steps = 600
        dt = 2.0 * math.pi / plant.omega / steps
        tol = 1e-12 * dt
        loop = _Loop(plant, z_c, dt, steps // 2)  # the anti-period map
        y, rail, _ = loop.start(i_max, _describing_function(loop, i_max))
        for _ in range(3):
            run = loop.period(y, rail, i_max, tol)
            y, rail = run.ys[-1], run.rail
        run = loop.period(y, rail, i_max, tol)
        y, taus = run.ys[0], [start for _, start, _ in run.segments[1:]]
        assert bool(taus) == math.isfinite(i_max)
        u, n_u = loop.guards[rail].index, len(loop.guards[rail].index)
        rows = loop.newton(y, rail, taus, i_max)[0]
        # units: each state's amplitude over the map, the current's for a
        # guard, and 1 / omega for a switch time
        scale = np.abs(run.ys).max(axis=0)
        row_scale = np.concatenate([scale[u], np.full(len(taus), np.abs(run.cur).max())])
        col_scale = np.concatenate([scale[u], np.full(len(taus), 1.0 / plant.omega)])

        def shifted(col, h):
            y_h, taus_h = y.copy(), list(taus)
            if col < n_u:
                y_h[u[col]] += h
            else:
                taus_h[col - n_u] += h
            return y_h, taus_h

        diff = np.empty(rows[:, 1:].shape)
        for col, unit in enumerate(col_scale):
            ends = []
            for h in (1e-6 * unit, -1e-6 * unit):
                y_h, taus_h = shifted(col, h)
                ends.append(loop.newton(y_h, rail, taus_h, i_max)[0][:, 0])
            diff[:, col] = (ends[0] - ends[1]) / (2e-6 * unit)
        gap = (rows[:, 1:] - diff) * col_scale[None, :] / row_scale[:, None]
        assert np.max(np.abs(gap)) < 1e-6
        # eliminating the switch times through the guard rows
        a, b = rows[:n_u, 1 : 1 + n_u] + np.eye(n_u), rows[:n_u, 1 + n_u :]
        c, d = rows[n_u:, 1 : 1 + n_u], rows[n_u:, 1 + n_u :]
        jac = a - b @ np.linalg.solve(d, c) if taus else a
        for col, j in enumerate(u):
            h = 1e-6 * scale[j]
            ends = [loop.period(shifted(col, dh)[0], rail, i_max, tol).ys[-1, u]
                    for dh in (h, -h)]
            diff[:n_u, col] = (ends[0] - ends[1]) / (2.0 * h)
        gap = (jac - diff[:n_u, :n_u]) * scale[u][None, :] / scale[u][:, None]
        assert np.max(np.abs(gap)) < 1e-6

    @pytest.mark.parametrize("fraction", [0.4, 1.0])
    def test_cap_does_not_move_the_result(self, fraction):
        # the oscillator restarts at its exact phase every period, so the
        # wave amplitude cannot drift and a longer cap changes nothing
        plant = haskind_plant(**REACTIVE_PLANT)
        src = thevenin_from_plant(plant)
        i_max = fraction * matched_baseline(src).i_peak_matched
        runs = [simulate(plant, src.z_th.conjugate(), i_max=i_max,
                         cfg=SimConfig(n_periods=n)) for n in (40, 80)]
        assert runs[0].p_avg == runs[1].p_avg
        assert np.array_equal(runs[0].waveforms, runs[1].waveforms)
        assert runs[0].periods_run == runs[1].periods_run <= 5

    def test_stalled_newton_falls_back_to_period_iteration(self, lowpass_plant, fast_sim,
                                                           monkeypatch):
        # steps that run backwards, as a Jacobian of 2I would: each solve
        # raises the residual and returns its start, so the maps iterate G,
        # as with the solve off, until a map's start is at the target; its
        # solve then takes one step, down to rounding, and returns
        src = thevenin_from_plant(lowpass_plant)
        i_max = 0.4 * matched_baseline(src).i_peak_matched
        good = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=fast_sim)
        newton, cap = _Loop.newton, simulate_mod._SWITCH_ITERATIONS

        def backwards(self, y, rail, taus, i_max):
            rows, step = newton(self, y, rail, taus, i_max)
            n_u = len(rows) - len(taus)
            step[:n_u], step[n_u:] = -rows[:n_u, 0], 0.0
            return rows, step

        with monkeypatch.context() as patch:
            patch.setattr(_Loop, "newton", backwards)
            res = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=fast_sim)
        _solve_off(monkeypatch)
        ref = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=fast_sim)
        assert res.periods_run == ref.periods_run > 8  # half periods
        assert res.newton_steps == cap * (res.periods_run - 1) + 1
        assert res.period_powers[:-1] == ref.period_powers[:-1]
        assert res.converged and res.periodicity_residual <= 1e-12
        for other in (good, ref):
            assert res.p_avg == pytest.approx(other.p_avg, rel=1e-9)

    def test_unclipped_row_needs_at_most_one_newton_step(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        for frac in (math.inf, 2.0):
            i_max = frac * matched_baseline(src).i_peak_matched
            res = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=fast_sim)
            assert res.clip_fraction == 0.0
            assert res.newton_steps <= 1
            assert res.periods_run == res.newton_steps + 1
            assert len(res.period_powers) == res.periods_run

    def test_clip_fraction_grows_with_clipping_depth(self, lowpass_plant, fast_sim):
        src = thevenin_from_plant(lowpass_plant)
        peak = matched_baseline(src).i_peak_matched
        fractions = [
            simulate(lowpass_plant, src.z_th.conjugate(), i_max=frac * peak,
                     cfg=fast_sim).clip_fraction
            for frac in (0.9, 0.6, 0.3, 0.05)
        ]
        assert 0.0 < fractions[0] < fractions[1] < fractions[2] < fractions[3] < 1.0

    @pytest.mark.parametrize("n_periods, tol", [(2, 1e-3), (3, 1e-3), (40, 1e-3), (40, 1e-14)])
    def test_converged_is_the_residual_test(self, lowpass_plant, n_periods, tol):
        src = thevenin_from_plant(lowpass_plant)
        i_max = 0.4 * matched_baseline(src).i_peak_matched
        cfg = SimConfig(steps_per_period=400, n_periods=n_periods, convergence_tol=tol)
        res = simulate(lowpass_plant, src.z_th.conjugate(), i_max=i_max, cfg=cfg)
        assert res.periods_run <= n_periods
        assert res.converged == (res.periodicity_residual <= tol)


class TestHalfWaveSymmetry:
    """Shooting on the anti-period map G(y) = -Phi_half(y) finds the
    half-wave symmetric orbit, which the full-period map keeps."""

    def _shoot(self, monkeypatch, rows):
        """Each row's result and its full-period residual ||Phi(y) - y|| /
        ||y||, for y the start of the final map and Phi run by a loop whose
        map spans a whole period's steps."""
        period = _Loop.period
        starts = []

        def recorded(self, *args):
            starts.append((self, *args))
            return period(self, *args)

        monkeypatch.setattr(_Loop, "period", recorded)
        out = []
        for plant, z_c, i_max in rows:
            res = simulate(plant, z_c, i_max=i_max)
            loop, y, rail, _, tol = starts[-1][:5]  # the final map's start
            steps = 2 * loop.steps
            whole = _Loop(plant, z_c, loop.dt, steps)
            end = -period(whole, y, rail, i_max, tol).ys[steps]  # Phi(y)
            u = loop.guards[rail].unknowns
            out.append((res, np.linalg.norm(end[u] - y[u]) / np.linalg.norm(y[u])))
        return out

    def test_stored_period_is_a_half_and_its_negation(self):
        for plant, z_c, i_max in reactive_rows():
            res = simulate(plant, z_c, i_max=i_max)
            w, half = res.waveforms, len(res.waveforms) // 2
            for name in ("x", "v", "i", "v_load"):
                assert np.array_equal(w[name][half:], -w[name][:half])
            assert np.array_equal(w["p_inst"][half:], w["p_inst"][:half])
            # the window starts at periods_run - 1 whole periods
            steps = 2 * half
            start = (res.periods_run - 1) * steps
            assert np.array_equal(w["t"], np.arange(start, start + steps) * res.dt)

    def test_dc_and_even_harmonics_vanish(self):
        for plant, z_c, i_max in reactive_rows():
            res = simulate(plant, z_c, i_max=i_max)
            i1 = abs(res.harmonic_currents[0])
            assert abs(res.dc_current) <= 1e-13 * i1
            for n in (2, 4, 6, 8):
                assert abs(res.harmonic_currents[n - 1]) <= 1e-13 * i1

    def test_full_period_map_keeps_the_reactive_orbit(self, monkeypatch):
        for res, full in self._shoot(monkeypatch, reactive_rows()):
            assert res.periodicity_residual <= 1e-12
            assert full <= 1e-11

    def test_full_period_map_keeps_the_seeded_orbits(self, monkeypatch):
        with _shared_loops():
            for res, full in self._shoot(monkeypatch, seeded_rows()):
                assert res.periodicity_residual <= 1e-12
                assert full <= 1e-11

    def test_reruns_are_bit_identical(self):
        for plant, z_c, i_max in reactive_rows():
            first = simulate(plant, z_c, i_max=i_max)
            assert _result_bits(simulate(plant, z_c, i_max=i_max)) == _result_bits(first)


class _Drawn:
    """A stand-in for ``draw_design``'s generator whose uniform and integer
    draws come from hypothesis, over the same ranges."""

    def __init__(self, draw):
        self.draw = draw

    def uniform(self, low, high):
        return self.draw(st.floats(low, high))

    def integers(self, low, high):
        return self.draw(st.integers(low, high - 1))


class TestRefereeInvariants:
    """Physics every row must obey, on designs from ``draw_design``'s
    ranges under conjugate control, at clip fractions 0.1 to 1.0 of the
    matched peak current: each run settles, reruns bit for bit, holds the
    limit and stores a half-wave symmetric period.

    Three more invariants of the loop are not checked, as the referee does
    not meet them.  ``p_avg`` <= ``p_matched`` and ``p_avg`` nondecreasing
    in i_max fail at fractions near 1: ``p_avg`` is a rectangle sum over
    the samples, first order at a rail switch with winding inductance, and
    at fraction 0.98 to 0.995 it reads up to 1.4e-4 above ``p_matched``
    (13 of 900 runs on seeded designs).  ``clip_fraction`` nonincreasing in
    i_max fails at limits one ulp apart on a grazing clip, where the clip's
    2e-7 of a period moves by rounding."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data(),
           fractions=st.lists(st.floats(0.1, 1.0), min_size=2, max_size=3, unique=True))
    def test_runs_settle_and_hold_the_limit(self, data, fractions):
        plant = haskind_plant(**draw_design(_Drawn(data.draw)))
        src = thevenin_from_plant(plant)
        baseline = matched_baseline(src)
        limits = sorted(f * baseline.i_peak_matched for f in fractions)
        with _shared_loops():
            runs = [simulate(plant, src.z_th.conjugate(), i_max=i_max) for i_max in limits]
            again = [simulate(plant, src.z_th.conjugate(), i_max=i_max) for i_max in limits]
        for res, rerun, i_max in zip(runs, again, limits):
            assert res.converged and res.periodicity_residual <= 1e-12
            assert _result_bits(rerun) == _result_bits(res)
            assert res.peak_current <= i_max * (1.0 + 1e-9)
            w, half = res.waveforms, len(res.waveforms) // 2
            for name in ("x", "v", "i", "v_load"):
                assert np.array_equal(w[name][half:], -w[name][:half])


class TestDescribingFunctionStart:
    """Where the describing function says the limit binds, shooting starts
    from its orbit; elsewhere from the free branch's orbit, as before."""

    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("l_w, reactance", REALIZATIONS)
    def test_same_orbit_whichever_start(self, lowpass_plant, monkeypatch, l_w, reactance,
                                        fraction):
        plant = dataclasses.replace(lowpass_plant, l_w=l_w)
        src = thevenin_from_plant(plant)
        z_c = complex(src.z_th.real, reactance * src.z_th.real)
        i_max = fraction * abs(src.v_th / (src.z_th + z_c))  # of the unclipped current
        new = simulate(plant, z_c, i_max=i_max)
        monkeypatch.setattr(_Loop, "start", free_orbit_start)
        old = simulate(plant, z_c, i_max=i_max)
        assert new.clip_fraction > 0.0
        for res in (new, old):
            assert res.periodicity_residual <= 1e-12
        assert new.p_avg == pytest.approx(old.p_avg, rel=1e-10)
        assert abs(new.harmonic_currents[0]) == pytest.approx(
            abs(old.harmonic_currents[0]), rel=1e-10
        )

    def test_rows_that_never_clip_keep_their_bits(self, lowpass_plant, monkeypatch):
        plant = haskind_plant(**REACTIVE_PLANT)
        src = thevenin_from_plant(plant)
        peak = matched_baseline(src).i_peak_matched
        rows = [(plant, src.z_th.conjugate(), frac * peak) for frac in (math.inf, 2.0, 1.0)]
        conj = lowpass_plant.z_thevenin().conjugate()
        rows += [(lowpass_plant, conj, math.inf),
                 (dataclasses.replace(lowpass_plant, f_e=0.0), conj, 1.0)]
        new = [simulate(*row[:2], i_max=row[2]) for row in rows]
        monkeypatch.setattr(_Loop, "start", free_orbit_start)
        for (plant, z_c, i_max), res in zip(rows, new):
            assert _result_bits(simulate(plant, z_c, i_max=i_max)) == _result_bits(res)

    def test_start_does_not_depend_on_the_harmonics_extracted(self):
        # the start's solve keeps 9 harmonics whatever the run extracts
        plant, z_c, i_max = reactive_rows()[0]
        few, many = (simulate(plant, z_c, i_max=i_max, n_harmonics=n) for n in (1, 15))
        assert few.waveforms.tobytes() == many.waveforms.tobytes()
        assert few.periods_run == many.periods_run and few.p_avg == many.p_avg
        assert few.harmonic_currents == many.harmonic_currents[:1]

    def test_validation_solves_the_describing_function_once(self, monkeypatch):
        # validate_df hands its solution to the shooting start, which sums
        # harmonics 1 to 9 of it; with fewer harmonics simulate solves its own
        plant, _, i_max = reactive_rows()[0]
        reports = {n: validate_df(plant, i_max, n_harmonics=n) for n in (3, 9, 15)}
        solve, calls = simulate_mod.solve_operating_point, []
        monkeypatch.setattr(simulate_mod, "solve_operating_point",
                            lambda *args, **kw: calls.append(kw) or solve(*args, **kw))
        for n, report in reports.items():
            calls.clear()
            again = validate_df(plant, i_max, n_harmonics=n)
            assert len(calls) == (2 if n < 9 else 1)
            assert again.sim.waveforms.tobytes() == report.sim.waveforms.tobytes()
            assert again.sim.waveforms.tobytes() == reports[9].sim.waveforms.tobytes()

    def test_first_map_starts_nearer_the_orbit(self):
        # the verify_reactive rows: the free orbit's first residual is 0.36,
        # 0.20 and 0.012 at fractions 0.4, 0.6 and 0.8, the describing
        # function's at most 0.0045
        for plant, z_c, i_max in reactive_rows()[:3]:
            dt = 2.0 * math.pi / plant.omega / 2000
            loop = _Loop(plant, z_c, dt, 1000)
            first = []
            for start in (free_orbit_start, _Loop.start):
                y, rail, _ = start(loop, i_max, _describing_function(loop, i_max))
                u = loop.guards[rail].unknowns
                end = loop.period(y, rail, i_max, 1e-12 * dt).ys[-1]
                first.append(np.linalg.norm(end[u] - y[u]) / np.linalg.norm(y[u]))
            assert first[1] < 5e-3 < first[0]


def _solve_off(monkeypatch):
    """Switch off the switch-time solve of :meth:`_Loop.shoot`, so that
    every row iterates the scanned map G from the describing function's
    start, with no Newton step."""
    monkeypatch.setattr(simulate_mod, "_SWITCH_ITERATIONS", 0)


# plain iteration of G as a reference: slow rows need up to about 900 maps
# to reach the shooting target, and some rows' p_avg is still 9e-11 off
# there, so the reference runs on to 1e-13
PLAIN = SimConfig(n_periods=1000, convergence_tol=1e-13)


def _final_maps(monkeypatch, rows):
    """Each row's result and the segments of its final map, for rows
    ``(plant, z_c, i_max[, cfg])``."""
    period, last, out = _Loop.period, [], []

    def recorded(self, *args):
        run = period(self, *args)
        last.append(run.segments)
        return run

    with monkeypatch.context() as patch, _shared_loops():
        patch.setattr(_Loop, "period", recorded)
        for plant, z_c, i_max, *cfg in rows:
            out.append((simulate(plant, z_c, i_max=i_max, cfg=(cfg or [None])[0]), last[-1]))
    return out


def _assert_same_orbits(solved, scanned):
    """The rows reach the same switch structure and power both ways: the
    final maps' branch sequences agree, their switches to 1e-9 of the
    period, and p_avg to 1e-11 relative."""
    for (res, segments), (ref, ref_segments) in zip(solved, scanned, strict=True):
        assert res.periodicity_residual <= 1e-12
        assert res.p_avg == pytest.approx(ref.p_avg, rel=1e-11)
        assert [rail for rail, _, _ in segments] == [rail for rail, _, _ in ref_segments]
        period = 2.0 * math.pi / res.omega
        for (_, start, _), (_, ref_start, _) in zip(segments, ref_segments):
            assert abs(start - ref_start) <= 1e-9 * period


class TestPlannedMaps:
    """Shooting from the describing function's plan of switch times: Newton's
    method on the start and the switch times together, then one scanned
    map, against plain iteration of the scanned map with the solve off."""

    def test_reactive_rows_match_maps_run_without_plans(self, monkeypatch):
        # the verify_reactive rows and the clipped golden.ini rows
        rows = reactive_rows() + golden_rows()
        solved = _final_maps(monkeypatch, rows)
        _solve_off(monkeypatch)
        scanned = _final_maps(monkeypatch, rows)
        _assert_same_orbits(solved, scanned)
        for (res, _), (ref, _) in zip(solved, scanned):
            assert res.periods_run <= ref.periods_run

    def test_seeded_rows_match_maps_run_without_plans(self, monkeypatch):
        solved = _final_maps(monkeypatch, seeded_rows())
        _solve_off(monkeypatch)
        scanned = _final_maps(monkeypatch, [row + (PLAIN,) for row in seeded_rows()])
        _assert_same_orbits(solved, scanned)
        # a row whose solve fails, or whose map misses, may run one map more
        for (res, _), (ref, _) in zip(solved, scanned):
            assert res.periods_run <= ref.periods_run + 1
        # 177 of the 180 rows settle in one map, and the other three in two
        assert sum(res.periods_run == 1 for res, _ in solved) >= 170

    def test_clipped_rows_sample_one_map(self):
        # four switch-time iterations, the last one taken from a start
        # already at the target, then one scanned map; the unclipped row
        # has no plan and starts on its free orbit
        runs = [simulate(plant, z_c, i_max=i_max) for plant, z_c, i_max in reactive_rows()]
        assert [res.newton_steps for res in runs] == [4, 4, 4, 0]
        for res in runs:
            assert res.periods_run == 1 and res.period_powers == [res.p_avg]

    @pytest.mark.parametrize("change", ["+40", "-40", "missing"])
    def test_a_wrong_first_plan_reaches_the_same_orbit(self, monkeypatch, change):
        # the describing function's switches moved 40 steps later or
        # earlier, or its last switch dropped, which the solve cannot use;
        # moved earlier, the first switch of the rows at 0.4 and 0.6 falls
        # before t = 0 and wraps to the end of the half period, as an
        # iterate's does, so the solve settles every row either way
        start = _Loop.start

        def changed(self, *args):
            y, rail, plan = start(self, *args)
            if plan is not None:
                plan = plan[:-1] if change == "missing" else [s + int(change) for s in plan]
            return y, rail, plan

        with monkeypatch.context() as patch:
            patch.setattr(_Loop, "start", changed)
            solved = _final_maps(monkeypatch, reactive_rows()[:3])
        _solve_off(monkeypatch)
        scanned = _final_maps(monkeypatch, reactive_rows()[:3])
        _assert_same_orbits(solved, scanned)
        for (res, _), (ref, _) in zip(solved, scanned):
            assert res.periods_run <= ref.periods_run + 1
        if change != "missing":
            assert [res.periods_run for res, _ in solved] == [1, 1, 1]

    def test_a_failed_solve_returns_its_best_iterate(self):
        # three iterations cannot reach the target: the solve returns the
        # iterate of the lowest residual, which is not its start; with no
        # iteration allowed, the start as given
        plant, z_c, i_max = reactive_rows()[0]
        dt = 2.0 * math.pi / plant.omega / 2000
        loop = _Loop(plant, z_c, dt, 1000)
        y, rail, plan = loop.start(i_max, _describing_function(loop, i_max))
        newton, iterates = loop.newton, []

        def recorded(y, rail, taus, i_max):
            rows, step = newton(y, rail, taus, i_max)
            u = loop.guards[rail].index
            gap = rows[: len(u), 0]
            iterates.append((math.sqrt(gap @ gap) / math.sqrt(y[u] @ y[u]), y.copy(), rail))
            return rows, step

        loop.newton = recorded
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate_mod, "_SWITCH_ITERATIONS", 3)
            best, best_rail, segments, iterations = loop.shoot(y, rail, plan, i_max, 1e-12)
            assert (segments, iterations, len(iterates)) == (0, 3, 3)
            residual, start, on_rail = min(iterates, key=lambda iterate: iterate[0])
            assert residual > 1e-12 and residual < iterates[0][0]
            assert np.array_equal(best, start) and best_rail == on_rail
            patch.setattr(simulate_mod, "_SWITCH_ITERATIONS", 0)
            given = loop.shoot(y, rail, plan, i_max, 1e-12)
        assert np.array_equal(given[0], y) and given[1:] == (rail, 0, 0)
        assert len(iterates) == 3

    def test_a_capped_solve_iterates_the_scanned_map(self, monkeypatch):
        # one switch-time iteration cannot reach the target: each solve
        # returns its start, so the maps are those of plain iteration, bit
        # for bit, with at most one iteration before each, until the last, whose
        # solve starts at the target and takes its step
        rows = reactive_rows()[:3]
        with monkeypatch.context() as patch:
            patch.setattr(simulate_mod, "_SWITCH_ITERATIONS", 1)
            capped = _final_maps(monkeypatch, rows)
        _solve_off(monkeypatch)
        scanned = _final_maps(monkeypatch, rows)
        _assert_same_orbits(capped, scanned)
        for (res, _), (ref, _) in zip(capped, scanned):
            assert res.converged and res.periods_run == ref.periods_run > 1
            assert 0 < res.newton_steps <= res.periods_run
            assert res.period_powers[:-1] == ref.period_powers[:-1]

    def test_a_non_finite_iterate_falls_back_to_scanned_shooting(self, monkeypatch):
        # a NaN first step of the first solve, whose iterate then fails the
        # next iteration's order check: the solve returns the describing
        # function's start, whose map is plain iteration's first, and the
        # solve from that map's end settles the row.  At 0.6 that map
        # leaves the rail at its start, so its switch count is odd, and the
        # solve from its end, with no plan to use, returns that end: one
        # map more
        rows = reactive_rows()[:3]
        newton, steps = _Loop.newton, []

        def poisoned(self, *args):
            system, step = newton(self, *args)
            if not steps:
                step[:] = np.nan
            steps.append(step)
            return system, step

        broken = []
        for row in rows:
            steps.clear()
            with monkeypatch.context() as patch:
                patch.setattr(_Loop, "newton", poisoned)
                broken += _final_maps(monkeypatch, [row])
        _solve_off(monkeypatch)
        scanned = _final_maps(monkeypatch, [row + (PLAIN,) for row in rows])
        _assert_same_orbits(broken, scanned)
        assert [res.periods_run for res, _ in broken] == [2, 3, 2]
        for (res, _), (ref, _) in zip(broken, scanned):
            assert res.periods_run < ref.periods_run
            assert res.period_powers[0] == ref.period_powers[0]

    @pytest.mark.parametrize("miss", ["start", "segments"])
    def test_a_map_off_the_solve_carries_on_shooting(self, monkeypatch, miss):
        # the map from the solved start must meet the target with the
        # solve's segment count; else the solve runs again from the map's
        # end, at its switch times: the first solve's start moved by 1e-9
        # relative, or its count off by two
        shoot = _Loop.shoot
        missed = []

        def first_missed(self, *args):
            y, rail, segments, iterations = shoot(self, *args)
            if not missed:
                missed.append(True)
                if miss == "start":
                    y = y * (1.0 + 1e-9)
                segments += 2 * (miss == "segments")
            return y, rail, segments, iterations

        rows = reactive_rows()[:3]
        solved = _final_maps(monkeypatch, rows)
        missing = []
        for row in rows:
            missed.clear()
            with monkeypatch.context() as patch:
                patch.setattr(_Loop, "shoot", first_missed)
                missing += _final_maps(monkeypatch, [row])
        _assert_same_orbits(missing, solved)
        _solve_off(monkeypatch)
        _assert_same_orbits(missing, _final_maps(monkeypatch, [row + (PLAIN,) for row in rows]))
        for (res, _), (ref, _) in zip(missing, solved):
            assert res.periods_run == 2  # one map off the solve, one from the second solve
            assert res.newton_steps > ref.newton_steps

    def test_stiff_row_settles_in_one_map(self, monkeypatch):
        # at l_w = 5e-5 a whole step's Taylor sum does not converge, so the
        # solve's part steps take the balanced matrix exponential; the solve
        # settles the row in one map, on the orbit plain iteration of the
        # scanned map reaches in 29
        plant = haskind_plant(**dict(REACTIVE_PLANT, l_w=5e-5))
        src = thevenin_from_plant(plant)
        rows = [(plant, src.z_th.conjugate(), 0.6 * matched_baseline(src).i_peak_matched)]
        dt = 2.0 * math.pi / plant.omega / 2000
        loop = _Loop(plant, rows[0][1], dt, 1000)
        assert max(loop.free.tail, loop.rail.tail) * dt**20 > 1e-16
        solved = _final_maps(monkeypatch, rows)
        _solve_off(monkeypatch)
        scanned = _final_maps(monkeypatch, rows)
        _assert_same_orbits(solved, scanned)
        assert solved[0][0].periods_run == 1 < scanned[0][0].periods_run

    def test_no_switch_search_runs_long(self, monkeypatch):
        # with the solve off, the row at fraction 0.6 starts on the rail
        # with its release guard already positive; the search returns the
        # end of the halving onto 0 without evaluating the path 40 times
        locate, evaluations = Branch.locate, []

        def counted(self, at, *args):
            evaluations.append(0)

            def counted_at(tau):
                evaluations[-1] += 1
                return at(tau)

            return locate(self, counted_at, *args)

        _solve_off(monkeypatch)
        monkeypatch.setattr(Branch, "locate", counted)
        for plant, z_c, i_max in reactive_rows():
            simulate(plant, z_c, i_max=i_max)
        assert evaluations and max(evaluations) <= 10


def test_too_many_switches_in_one_step_raise(monkeypatch):
    plant, z_c, i_max = reactive_rows()[0]
    monkeypatch.setattr(simulate_mod, "_MAX_EVENTS", 0)
    with pytest.raises(SimulationError, match="clip switched more than 0 times in one step"):
        simulate(plant, z_c, i_max=i_max)
