"""Tests for configuration parsing, command dispatch, and emitted artifacts."""

import copy
import dataclasses
import gc
import importlib
import itertools
import math
import os
import weakref

import numpy as np
import pytest

from oracles import csv_rows, level_crossings_loop, write_csv_rowwise
from oracles import fsat_svg_pointwise, pareto_svg_pointwise, smith_svg_pointwise
from wec_satlin import amplitude_ratio, pareto_front, power_ratio, saturation_factor, smith_grid
from wec_satlin import solve_operating_point
from wec_satlin import cli, svg
from wec_satlin.cli import main
from wec_satlin.config import RunConfig, parse_config
from wec_satlin.errors import ConfigError, SimulationError
from wec_satlin.propagate import Branch
from wec_satlin.simulate import SimConfig, validate_df

# the package namespace binds the function ``simulate`` over the submodule
simulate_mod = importlib.import_module("wec_satlin.simulate")

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_INI = os.path.join(DATA, "golden.ini")

MINIMAL_PLANT = """
[plant]
m = 6.0e4
a_added = 4.0e4
b_h = 5.0e4
k_h = 1.0e5
k_t = 100.0
r_w = 0.01
omega = 1.0
haskind = true
j_density = 1.0e4
k_wavenumber = 0.102
"""

NONDIM_ONLY = """
[nondim]
r_cal = 0.05
d_cal = 1.0
alpha_m = 0.0
"""


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


class TestConfigParsing:
    def test_minimal_plant(self):
        cfg = parse_config(MINIMAL_PLANT)
        assert cfg.plant is not None
        assert cfg.plant.haskind_consistent
        assert cfg.alphas == (0.0, 1.0, 2.0, 5.0)
        # absent [sweep] and [sim] keys take the dataclass defaults
        defaults = RunConfig()
        for key in ("alphas", "smith_resolution", "smith_angular", "pareto_points",
                    "fsat_points", "fsat_i_inv_max", "i_max_fractions", "n_harmonics"):
            assert getattr(cfg, key) == getattr(defaults, key), key
        assert cfg.sim == SimConfig()

    def test_transient_periods_is_read_and_dropped(self):
        sim = "\n[sim]\nsteps_per_period = 400\nn_periods = 24\n"
        assert parse_config(MINIMAL_PLANT + sim + "transient_periods = 7\n") == parse_config(
            MINIMAL_PLANT + sim
        )
        for value in ("2.5", "many"):  # still read as an integer
            with pytest.raises(ConfigError, match="transient_periods"):
                parse_config(MINIMAL_PLANT + sim + f"transient_periods = {value}\n")

    def test_nondim_route(self):
        cfg = parse_config(
            """
            [nondim]
            r_cal = 0.05
            d_cal = 1.0
            alpha_m = 0.0
            l_cal = 0.0

            [waves]
            j_density = 1.0e4
            k_wavenumber = 0.102
            """
        )
        assert cfg.plant is None
        assert cfg.groups.r_cal == 0.05
        assert cfg.wave_data().j_density == 1.0e4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(MINIMAL_PLANT + "\nb_hh = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL_PLANT + "\n[plantt]\nx = 1\n")

    def test_exactly_one_description(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config("[sweep]\nalphas = 1\n")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(
                MINIMAL_PLANT + "\n[nondim]\nr_cal=0\nd_cal=1\nalpha_m=0\n"
            )

    def test_waves_conflicts_with_plant(self):
        with pytest.raises(ConfigError, match="duplicates"):
            parse_config(MINIMAL_PLANT + "\n[waves]\nj_density = 1\nk_wavenumber = 1\n")

    def test_haskind_conflicts_with_amplitude(self):
        with pytest.raises(ConfigError, match="pick one"):
            parse_config(MINIMAL_PLANT + "f_e_amplitude = 1.0e5\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="not a number"):
            parse_config(MINIMAL_PLANT.replace("6.0e4", "sixty"))

    def test_physics_violation_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_PLANT.replace("b_h = 5.0e4", "b_h = -5.0e4"))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_config("[plant]\nm = 1.0\n")


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert main(["smith", "--config", "/nonexistent.ini"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_usage_error_is_config_error(self, capsys):
        assert main(["frobnicate", "--config", "x"]) == 1

    def test_parser_is_built_once_and_parses_every_call(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()
        assert main(["frobnicate", "--config", "x"]) == 1
        assert main(["fsat"]) == 1
        err = capsys.readouterr().err
        assert err.count("config error:") == 2 and "--config" in err
        cfg = tmp_path / "run.ini"
        cfg.write_text(NONDIM_ONLY + "\n[sweep]\nfsat_points = 5\n")
        assert main(["fsat", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / "fsat.csv")[1]) == 5

    def test_matched_on_nondim_needs_waves(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(NONDIM_ONLY)
        assert main(["matched", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'matched'" in err and "[waves]" in err
        assert not (tmp_path / "matched.csv").exists()

    def test_nondim_alone_runs_the_normalized_commands(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            NONDIM_ONLY
            + "\n[sweep]\nsmith_resolution = 5\nsmith_angular = 8\n"
            + "pareto_points = 11\nfsat_points = 11\n"
        )
        for command in ("smith", "pareto", "fsat"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("g0", ["0", "3"])
    def test_bad_waves_mode_gain_is_config_error(self, tmp_path, capsys, g0):
        cfg = tmp_path / "run.ini"
        waves = f"\n[waves]\nj_density = 1.0e4\nk_wavenumber = 0.1\ng0 = {g0}\n"
        cfg.write_text(NONDIM_ONLY + waves)
        assert main(["matched", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: invalid configuration value: "
            f"mode gain g0 must be 1 or 2, got {g0}\n"
        )

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("saturate", NONDIM_ONLY, "command 'saturate' needs a dimensional [plant] section"),
            ("fsat", MINIMAL_PLANT + "\n[output]\nsvg = maybe\n",
             "[output] svg = 'maybe' is not a boolean"),
            ("smith", MINIMAL_PLANT + "\n[sweep]\nalphas = 1, x\n",
             "[sweep] alphas = '1, x' is not a number list"),
            ("saturate", MINIMAL_PLANT + "\n[sweep]\ni_max_fractions = ,\n",
             "[sweep] i_max_fractions must list at least one value"),
            ("fsat", "[plant\nm = 6.0e4\n", "malformed config: "),
        ],
    )
    def test_bad_config_text_exits_one(self, tmp_path, capsys, command, text, message):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not list(tmp_path.glob("*.csv"))

    def test_false_boolean_turns_emission_off(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + "\n[sweep]\nfsat_points = 5\n[output]\nsvg = off\n")
        assert main(["fsat", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fsat.csv").exists() and not list(tmp_path.glob("*.svg"))

    def test_stiff_winding_verify_exits_zero(self, tmp_path, capsys):
        # a 1 uH winding, far faster than the default step, is propagated
        # exactly rather than rejected
        cfg = tmp_path / "stiff.ini"
        cfg.write_text(MINIMAL_PLANT + "l_w = 1.0e-6\n[sweep]\ni_max_fractions = 0.5\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_simulation_error_exits_two(self, tmp_path, monkeypatch, capsys):
        def diverging(*args, **kwargs):
            raise SimulationError("state diverged at step 7 (t = 0.02 s)", step=7)

        def two_iterations(*args, **kwargs):
            return solve_operating_point(*args, **kwargs, max_iter=2)

        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + "\n[sweep]\ni_max_fractions = 0.5\n")
        for attr, replacement, message in (
            ("simulate", diverging, "diverged at step 7"),
            ("solve_operating_point", two_iterations, "did not converge in 2 iterations"),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(simulate_mod, attr, replacement)
                assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
            assert message in capsys.readouterr().err

    def test_harmonics_past_referee_nyquist_is_config_error(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(simulate_mod, "simulate", lambda *args, **kw: calls.append(args))
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + "\n[sweep]\nn_harmonics = 61\n"
                       + "\n[sim]\nsteps_per_period = 100\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "[sweep] n_harmonics = 61" in err and "[sim] steps_per_period = 100" in err
        assert calls == [] and not (tmp_path / "verify.csv").exists()
        # the describing-function commands do not run the referee
        assert main(["saturate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "saturate.csv").exists()

    def test_verification_failure_exit(self, tmp_path, monkeypatch, capsys):
        import wec_satlin.cli as cli_mod

        real = cli_mod.validate_df

        def failing(plant, i_max, cfg=None, n_harmonics=9):
            rep = real(plant, i_max, cfg=cfg, n_harmonics=n_harmonics)
            import dataclasses

            return dataclasses.replace(rep, passed=False, enforced=True)

        monkeypatch.setattr(cli_mod, "validate_df", failing)
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            MINIMAL_PLANT
            + "\n[sweep]\ni_max_fractions = 1.0\n"
            + "\n[sim]\nsteps_per_period = 400\nn_periods = 24\ntransient_periods = 14\n"
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", ["m", "a_added", "b_h", "k_h", "k_t", "r_w", "l_w", "g_ratio",
                "omega", "j_density", "k_wavenumber"],
    )
    def test_non_finite_plant_value_is_config_error(self, tmp_path, capsys, key, value):
        kept = [ln for ln in MINIMAL_PLANT.splitlines() if not ln.startswith(f"{key} =")]
        cfg = tmp_path / "run.ini"
        cfg.write_text("\n".join(kept) + f"\n{key} = {value}\n")
        assert main(["matched", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("sim", "steps_per_period", "inf"),
            ("sim", "n_periods", "inf"),
            ("sim", "transient_periods", "-inf"),
            ("sim", "convergence_tol", "nan"),
            ("sweep", "alphas", "0, nan"),
            ("sweep", "smith_resolution", "nan"),
            ("sweep", "smith_angular", "inf"),
            ("sweep", "pareto_points", "inf"),
            ("sweep", "fsat_points", "nan"),
            ("sweep", "fsat_i_inv_max", "inf"),
            ("sweep", "i_max_fractions", "nan"),
            ("sweep", "n_harmonics", "inf"),
        ],
    )
    def test_non_finite_run_setting_is_config_error(
        self, tmp_path, capsys, section, key, value
    ):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + f"\n[{section}]\n{key} = {value}\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("fsat", "fsat_points", "-1"),
            ("fsat", "fsat_points", "1"),
            ("fsat", "fsat_i_inv_max", "-1"),
            ("fsat", "fsat_i_inv_max", "0"),
            ("saturate", "n_harmonics", "4"),
            ("saturate", "n_harmonics", "-1"),
            ("smith", "smith_resolution", "1"),
            ("smith", "smith_angular", "-5"),
            ("pareto", "pareto_points", "1"),
        ],
    )
    def test_out_of_range_sweep_setting_is_config_error(
        self, tmp_path, capsys, command, key, value
    ):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + f"\n[sweep]\n{key} = {value}\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("value", ["0", "-1.0"])
    def test_non_positive_convergence_tol_is_config_error(self, tmp_path, capsys, value):
        # a tolerance no run can meet would otherwise fail every verify row
        with open(GOLDEN_INI) as fh:
            text = fh.read()
        cfg = tmp_path / "run.ini"
        cfg.write_text(text.replace("convergence_tol = 1.0e-5", f"convergence_tol = {value}"))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "convergence_tol must be positive" in err

    def test_no_period_to_run_is_config_error(self, tmp_path, capsys):
        # a cap of 0 periods left simulate with no period to extract
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + "\n[sim]\nn_periods = 0\ntransient_periods = -1\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "n_periods must be at least 1" in err

    @pytest.mark.parametrize("command", ["verify", "fsat"])
    def test_odd_step_count_is_config_error(self, tmp_path, capsys, command):
        # the referee shoots over half a period, which must end on a sample
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + "\n[sim]\nsteps_per_period = 401\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "steps_per_period must be even, got 401" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_cap_alone_runs_without_transient_periods(self, tmp_path, capsys):
        # n_periods no longer has to exceed an unused transient skip of 20
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + "\n[sim]\nn_periods = 10\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_empty_output_dir_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + "\n[output]\ndir =\n")
        assert main(["fsat", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "output directory" in err

    def test_empty_out_flag_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT)
        assert main(["fsat", "--config", str(cfg), "--out", ""]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "output directory" in err

    @pytest.mark.parametrize(
        "command, key, values",
        [("smith", "alphas", "1, 1.0000000000001"), ("pareto", "alphas", "2, 0, 2"),
         ("saturate", "i_max_fractions", "0.5, 0.4, 0.5")],
    )
    def test_repeated_sweep_value_is_config_error(self, tmp_path, capsys, command, key, values):
        # each value names its own files and rows by its 12-digit text
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + f"\n[sweep]\n{key} = {values}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [sweep] {key} repeats ") and "12 significant" in err
        assert not out.exists()

    @pytest.mark.parametrize("alphas", ["1e78", "0, 1e200", "-1e200"])
    @pytest.mark.parametrize("command", ["smith", "pareto", "fsat"])
    def test_alpha_past_the_overflow_limit_is_an_error(self, tmp_path, capsys, command, alphas):
        # a config error before any command runs, so nothing is written,
        # not even the files of the alphas below the limit
        cfg = tmp_path / "run.ini"
        cfg.write_text(NONDIM_ONLY + f"\n[sweep]\nalphas = {alphas}\n"
                       "smith_resolution = 5\nsmith_angular = 8\npareto_points = 5\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--svg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [sweep] |alpha| must be below 1.158e+77")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("command", ["smith", "pareto"])
    def test_alpha_below_the_overflow_limit_runs(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.ini"
        cfg.write_text(NONDIM_ONLY + "\n[sweep]\nalphas = 1e76, -1e76\n"
                       "smith_resolution = 5\nsmith_angular = 8\npareto_points = 5\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path), "--svg"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("taken", ["out", "out/fsat.csv"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, taken):
        # --out names a file, or a directory stands where the CSV goes
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT)
        if taken == "out":
            (tmp_path / "out").write_text("")
        else:
            (tmp_path / taken).mkdir(parents=True)
        assert main(["fsat", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ") and "out" in err

    def test_non_finite_mass_names_the_field(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT.replace("m = 6.0e4", "m = nan"))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "m must be finite" in capsys.readouterr().err


class TestEmittedArtifacts:
    def test_matched_report(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT)
        assert main(["matched", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "matched.csv")
        assert header == ["name", "value"]
        values = dict(rows)
        assert float(values["p_matched"]) == pytest.approx(
            float(values["p_matched_nondim"]), rel=1e-10
        )
        assert values["haskind_consistent"] == "1"

    def test_smith_round_trip_integrity(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            MINIMAL_PLANT + "\n[sweep]\nalphas = 0, 2\nsmith_resolution = 11\nsmith_angular = 24\n"
        )
        assert main(["smith", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        for name in ("smith_alpha_0.csv", "smith_alpha_2.csv"):
            header, rows = read_csv(tmp_path / name)
            assert header[:3] == ["alpha", "gamma_re", "gamma_im"]
            for row in rows:
                rec = dict(zip(header, row))
                gamma = complex(float(rec["gamma_re"]), float(rec["gamma_im"]))
                alpha = float(rec["alpha"])
                assert float(rec["power_ratio"]) == pytest.approx(
                    power_ratio(gamma), abs=1e-10
                )
                v = float(rec["v_ratio"])
                if math.isfinite(v):
                    assert v == pytest.approx(
                        amplitude_ratio(gamma, alpha, +1), rel=1e-9
                    )
                assert rec["v_exceeds_one"] == ("1" if v > 1.0 else "0")

    def test_smith_alpha_zero_conjugation_symmetry(self, tmp_path):
        # emitted alpha = 0 grid must be symmetric under gamma -> conj(gamma)
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            MINIMAL_PLANT + "\n[sweep]\nalphas = 0\nsmith_resolution = 9\nsmith_angular = 16\n"
        )
        assert main(["smith", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "smith_alpha_0.csv")
        table = {}
        for row in rows:
            rec = dict(zip(header, row))
            key = (rec["gamma_re"], float(rec["gamma_im"]))
            table[key] = (float(rec["v_ratio"]), float(rec["i_ratio"]))
        for (re, im), (v, i) in table.items():
            mirrored = table.get((re, -im))
            if mirrored is not None:
                assert mirrored[0] == pytest.approx(v, rel=1e-12)
                assert mirrored[1] == pytest.approx(i, rel=1e-12)

    def test_pareto_round_trip_integrity(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + "\n[sweep]\nalphas = 0, 1\npareto_points = 51\n")
        assert main(["pareto", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "pareto.csv")
        by_alpha = {}
        for row in rows:
            rec = dict(zip(header, row))
            by_alpha.setdefault(rec["alpha"], []).append(
                (float(rec["power_ratio"]), float(rec["v_ratio"]), float(rec["i_ratio"]))
            )
        for triples in by_alpha.values():
            assert triples[0] == (1.0, 1.0, 1.0)
            powers = [t[0] for t in triples]
            assert powers == sorted(powers, reverse=True)

    def test_fsat_round_trip_integrity(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + "\n[sweep]\nfsat_points = 41\nfsat_i_inv_max = 4\n")
        assert main(["fsat", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fsat.csv")
        assert header == ["i_inv", "f_sat_1", "f_sat_3", "f_sat_5", "f_sat_7"]
        for row in rows:
            inv = float(row[0])
            i_script = math.inf if inv == 0.0 else 1.0 / inv
            assert float(row[1]) == pytest.approx(
                saturation_factor(1, i_script), abs=1e-10
            )
            if inv <= 1.0:
                assert float(row[1]) == 1.0

    def test_saturate_report(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + "\n[sweep]\ni_max_fractions = 0.001, 0.3, 1.0\n")
        assert main(["saturate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "saturate.csv")
        # the column order is part of the CLI contract
        assert ",".join(header) == (
            "i_max_fraction,i_max,converged,iterations,f_sat_1,i_script,i_temp_mag,"
            "i1_mag,fundamental_gain,p_total,p_fundamental,p_matched,"
            "p_linear_baseline,nonlinear_over_linear"
        )
        deep = dict(zip(header, rows[0]))
        # vanishing limit: clipped command tends to a square wave
        assert float(deep["fundamental_gain"]) == pytest.approx(
            4.0 / math.pi, abs=1e-3
        )
        rec = dict(zip(header, rows[1]))
        assert float(rec["fundamental_gain"]) > 1.0
        assert float(rec["nonlinear_over_linear"]) > 1.0
        last = dict(zip(header, rows[-1]))
        assert float(last["f_sat_1"]) == 1.0
        assert float(last["p_total"]) == pytest.approx(
            float(last["p_matched"]), rel=1e-9
        )

    def test_saturate_up_to_the_open_circuit(self, tmp_path):
        # the linear baseline's gamma rounds to one below a fraction of about
        # 1e-16; its power ratio and z are built without 1 - |gamma|^2
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINIMAL_PLANT + "\n[sweep]\ni_max_fractions = 1e-300, 5e-17, 1e-15\n")
        assert main(["saturate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "saturate.csv")
        rows = [dict(zip(header, row)) for row in rows]
        assert all(float(row["p_linear_baseline"]) > 0.0 for row in rows)
        # 4/pi to the 12 digits printed
        assert [row["nonlinear_over_linear"] for row in rows[1:]] == ["1.27323954474"] * 2

    def test_matched_ideal_nondim_plant(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            """
            [nondim]
            r_cal = 0.0
            d_cal = 1.0
            alpha_m = 0.0
            l_cal = 0.0

            [waves]
            j_density = 1.0e4
            k_wavenumber = 0.1
            g0 = 1
            """
        )
        assert main(["matched", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        values = dict(read_csv(tmp_path / "matched.csv")[1])
        assert float(values["p_matched_nondim"]) == pytest.approx(1.0e5)
        assert float(values["alpha"]) == 0.0

    @pytest.mark.parametrize("alpha_m", [1e160, 1e200])
    def test_matched_at_extreme_mechanical_reactance(self, tmp_path, capsys, alpha_m):
        # alpha_m^2 overflows a float; alpha is -D / (R alpha_m) to rounding
        # and the matched power D^2 / (R alpha_m^2) times 1e5 underflows
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            NONDIM_ONLY.replace("alpha_m = 0.0", f"alpha_m = {alpha_m!r}")
            + "\n[waves]\nj_density = 1.0e4\nk_wavenumber = 0.1\ng0 = 1\n"
        )
        assert main(["matched", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        values = dict(read_csv(tmp_path / "matched.csv")[1])
        assert float(values["alpha"]) == pytest.approx(-1.0 / (0.05 * alpha_m), rel=1e-11)
        assert 0.0 <= float(values["p_matched_nondim"]) <= 1e5 / (0.05 * alpha_m) / alpha_m

    def test_verify_flagged_rows_do_not_fail(self, tmp_path):
        # broadband plant: the saturated row is flagged, not failed, so the
        # command still exits 0
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            """
            [plant]
            m = 6.0e4
            a_added = 4.0e4
            b_h = 5.0e4
            k_h = 1.0e5
            k_t = 10.0
            r_w = 0.05
            omega = 1.0
            f_e_amplitude = 2.0e5
            j_density = 1.0e4
            k_wavenumber = 0.102

            [sweep]
            i_max_fractions = 0.5

            [sim]
            steps_per_period = 800
            n_periods = 26
            transient_periods = 16

            [output]
            dump_waveforms = true
            """
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "verify.csv")
        rec = dict(zip(header, rows[0]))
        assert rec["assumption_violated"] == "1"
        assert rec["enforced"] == "0"
        wave_header, wave_rows = read_csv(tmp_path / "waveforms_0p5.csv")
        assert wave_header == ["t", "x", "v", "i", "v_load", "p_inst"]
        assert len(wave_rows) == 800

    def test_verify_report(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            MINIMAL_PLANT
            + "\n[sweep]\ni_max_fractions = 0.6, 1.0\n"
            + "\n[sim]\nsteps_per_period = 1000\nn_periods = 28\ntransient_periods = 18\nconvergence_tol = 1.0e-5\n"
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "verify.csv")
        # the column order is part of the CLI contract
        assert ",".join(header) == (
            "i_max_fraction,i_max,saturated,low_pass_merit,assumption_violated,"
            "enforced,p_predicted,p_simulated,i1_predicted,i1_simulated,x_predicted,"
            "x_simulated,rel_err_power,rel_err_fundamental,rel_err_position,"
            "power_tol,fundamental_tol,passed"
        )
        for row in rows:
            rec = dict(zip(header, row))
            assert rec["passed"] == "1"
            assert float(rec["rel_err_power"]) <= float(rec["power_tol"])

    def test_svg_emission(self, tmp_path):
        import xml.etree.ElementTree as ET

        cfg = tmp_path / "run.ini"
        cfg.write_text(
            MINIMAL_PLANT
            + "\n[sweep]\nalphas = 0, 1\nsmith_resolution = 11\nsmith_angular = 24\n"
            + "pareto_points = 21\nfsat_points = 21\n"
        )
        for cmd in ("smith", "pareto", "fsat"):
            assert main([cmd, "--config", str(cfg), "--out", str(tmp_path), "--svg"]) == 0
        for name in ("smith_alpha_0.svg", "smith_alpha_1.svg", "pareto.svg", "fsat.svg"):
            text = (tmp_path / name).read_text()
            assert text.startswith("<svg ")
            root = ET.fromstring(text)  # well-formed XML
            assert root.tag.endswith("svg")

    def test_negative_alpha_file_tag(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            MINIMAL_PLANT
            + "\n[sweep]\nalphas = -1.5\nsmith_resolution = 7\nsmith_angular = 8\n"
        )
        assert main(["smith", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "smith_alpha_m1p5.csv")
        assert all(row[0] == "-1.5" for row in rows)


GOLDEN_OUTPUTS = [
    ("smith", "smith_alpha_0.csv"),
    ("smith", "smith_alpha_1.csv"),
    ("smith", "smith_alpha_2.csv"),
    ("smith", "smith_alpha_5.csv"),
    ("pareto", "pareto.csv"),
    ("fsat", "fsat.csv"),
]


SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e16, 1e-5,
                  -2.5, 1.0 / 3.0, 123456789012.5]

EMISSION_CASES = {
    "special_floats": [SPECIAL_FLOATS, np.array(SPECIAL_FLOATS),
                       [np.float64(x) for x in SPECIAL_FLOATS]],
    "bools": [[True, False, True], np.array([False, True, True]),
              [np.bool_(True), np.bool_(False), np.bool_(False)]],
    "ints": [[0, -7, 2**40], np.array([1, -2, 3], dtype=np.int64),
             [np.int64(-5), np.int64(0), np.int64(9)]],
    "text": [["a", "b_c", "x-y"], [1.5, 2.0, -0.0]],
    "matched_value": [("omega", "alpha", "haskind_consistent", "r_cal", "l_cal"),
                      (1.0, np.float64(-0.25), True, 5e-324, False)],
    "no_rows": [[], np.array([], dtype=bool)],
    "scalars_and_rendered_text": [-1.5, ["1,2", "%s", "-0"], np.array([0.5, 1e-7, -0.0]),
                                  "50%", np.float64(1e-7), True, ["x", 1.0 / 3.0, False]],
    # adjacent boolean columns print as one cell per run
    "bool_run_1": [np.array([1.5, -0.0, math.inf]), np.array([True, False, True]),
                   [0.25, 0.5, 1.0]],
    "bool_run_2": [[1.0, 2.0, 3.0, 4.0], np.array([False, False, True, True]),
                   np.array([False, True, False, True]), [7, 8, 9, 10]],
    "bool_run_3": [*(np.array(bits, dtype=bool) for bits in
                     zip(*itertools.product((False, True), repeat=3)))],
    "bool_runs_split_by_float": [np.array([True, False]), np.array([True, True]),
                                 [0.5, math.nan], np.array([False, True]),
                                 np.array([False, False]), np.array([True, False])],
    "bool_runs_split_by_scalar": [np.array([True, False]), True, np.array([False, True])],
    "bool_run_longer_than_one_table": [np.arange(3) & (1 << k) > 0 for k in range(11)],
    "python_and_numpy_bool_lists": [[True, False, True], [np.bool_(False), np.bool_(True),
                                    np.bool_(True)], [True, np.bool_(False), False]],
    "empty_bool_run": [[], np.array([], dtype=bool), np.array([], dtype=bool), -2.5],
}


class TestEmissionContract:
    """Column-wise CSV and vectorized contours against their per-cell oracles."""

    @pytest.mark.parametrize("case", sorted(EMISSION_CASES))
    def test_write_csv_matches_per_cell_join(self, tmp_path, case):
        columns = EMISSION_CASES[case]
        header = [f"c{k}" for k in range(len(columns))]
        cli.write_csv(tmp_path / "new.csv", header, columns)
        write_csv_rowwise(tmp_path / "oracle.csv", header, csv_rows(columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_write_csv_rejects_ragged_columns(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            cli.write_csv(tmp_path / "bad.csv", ["a", "b"], [[1.0, 2.0], [1.0]])

    def test_every_command_matches_per_cell_join(self, tmp_path, monkeypatch):
        real = cli.write_csv
        written = []

        def checked(path, header, columns):
            real(path, header, columns)
            oracle = f"{path}.oracle"
            # smith's shared gamma/power_ratio text is an S array; NUL bytes pad it
            columns = [[cell.replace(b"\0", b"").decode() for cell in column.tolist()]
                       if isinstance(column, np.ndarray) and column.dtype.kind == "S"
                       else column for column in columns]
            write_csv_rowwise(oracle, header, csv_rows(columns))
            with open(path, "rb") as fa, open(oracle, "rb") as fb:
                assert fa.read() == fb.read(), path
            written.append(os.path.basename(path))

        monkeypatch.setattr(cli, "write_csv", checked)
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            MINIMAL_PLANT
            + "\n[sweep]\nalphas = -1.5, 0, 1, 2\nsmith_resolution = 21\n"
            + "smith_angular = 72\npareto_points = 51\nfsat_points = 31\n"
            + "i_max_fractions = 0.5, 1.0\n"
            + "\n[sim]\nsteps_per_period = 200\nn_periods = 22\ntransient_periods = 20\n"
        )
        out = str(tmp_path / "out")
        for command in ("matched", "smith", "pareto", "fsat", "saturate", "verify"):
            assert main([command, "--config", str(cfg), "--out", out]) in (0, 3)
        assert len(written) == 9

    def test_smith_default_size_matches_per_cell_join(self, tmp_path, monkeypatch):
        # the gamma and power_ratio text is rendered once and shared by all
        # alphas; each file must still equal a per-cell rendering of its grid
        real = cli.write_csv
        calls = []

        def counting(path, header, columns):
            calls.append(os.path.basename(path))
            real(path, header, columns)

        monkeypatch.setattr(cli, "write_csv", counting)
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            MINIMAL_PLANT + "\n[sweep]\nalphas = -1.5, 0, 1e-07, 5\n"
            + "smith_resolution = 101\nsmith_angular = 360\n"
        )
        assert main(["smith", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        tags = {-1.5: "m1p5", 0.0: "0", 1e-7: "1em07", 5.0: "5"}
        assert calls == [f"smith_alpha_{tag}.csv" for tag in tags.values()]
        for alpha, tag in tags.items():
            grid = smith_grid(alpha, 101, 360)
            gamma = grid["gamma"]
            columns = [gamma.real, gamma.imag, grid["power_ratio"], grid["v_ratio"],
                       grid["i_ratio"], grid["v_exceeds_one"], grid["i_exceeds_one"]]
            rows = ((alpha, *row) for row in zip(*(c.tolist() for c in columns)))
            header = ["alpha", "gamma_re", "gamma_im", "power_ratio", "v_ratio",
                      "i_ratio", "v_exceeds_one", "i_exceeds_one"]
            write_csv_rowwise(tmp_path / "oracle.csv", header, rows)
            emitted = (tmp_path / f"smith_alpha_{tag}.csv").read_bytes()
            assert emitted == (tmp_path / "oracle.csv").read_bytes(), tag
        # the alpha = 5 grid holds the singular cell at gamma = -0.2i
        line = emitted.decode().splitlines()[1 + 20 * 360 + 90].split(",")
        assert line[2] == "-0.2" and float(line[4]) > 1e6

    @pytest.mark.parametrize("size", [(21, 72), (101, 360)])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 5.0])
    def test_level_crossings_match_loop(self, alpha, size):
        resolution, n_angular = size
        grid = smith_grid(alpha, resolution, n_angular)
        if alpha in (1.0, 2.0) and size == (21, 72):
            # the grid holds the divergent cell at gamma = -i/alpha
            assert np.isinf(grid["v_ratio"]).any() and np.isinf(grid["i_ratio"]).any()
        for field in ("v_ratio", "i_ratio"):
            want = level_crossings_loop(grid, field, resolution, n_angular)
            assert want
            theta, radius = svg._level_crossings(grid, field, resolution, n_angular)
            assert list(zip(theta.tolist(), radius.tolist())) == want

    @staticmethod
    def _same_svg(tmp_path, render, oracle, *args):
        render(tmp_path / "new.svg", *args)
        oracle(tmp_path / "oracle.svg", *args)
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "oracle.svg").read_bytes()

    @pytest.mark.parametrize("alpha", [-1.5, 0.0, 1.0, 2.0, 5.0])
    def test_smith_svg_matches_oracle_render(self, tmp_path, alpha):
        for resolution, n_angular in ((21, 72), (101, 360)):
            grid = smith_grid(alpha, resolution, n_angular)
            if alpha in (1.0, 2.0) and resolution == 21:  # the divergent cell
                assert np.isinf(grid["v_ratio"]).any()
            self._same_svg(tmp_path, svg.smith_svg, smith_svg_pointwise,
                           alpha, grid, resolution, n_angular)

    def test_pareto_svg_matches_oracle_render(self, tmp_path):
        alphas = [-1.5, 0.0, 1.0, 2.0, 5.0]
        for n_points in (101, 201):
            fronts = {alpha: pareto_front(alpha, n_points) for alpha in alphas}
            assert any((front["i_ratio"] > 1.0).any() for front in fronts.values())
            self._same_svg(tmp_path, svg.pareto_svg, pareto_svg_pointwise, fronts)
        # a front wholly past the current axis draws no circle; NaN, inf and
        # values on or past the axis ends are placed as the row walk placed them
        past = pareto_front(1.0, 21)
        past["i_ratio"] += 1.5
        edges = np.zeros(6, dtype=past.dtype)
        edges["i_ratio"] = [math.nan, math.inf, 1.0, 0.5, -0.0, 1.0 + 1e-12]
        edges["power_ratio"] = [0.5, 0.5, 1.0, 2.0, math.nan, 0.25]
        fronts = {0.0: past, 2.0: edges, 5.0: edges[:0]}
        self._same_svg(tmp_path, svg.pareto_svg, pareto_svg_pointwise, fronts)
        assert (tmp_path / "new.svg").read_text().count("<circle") == 4

    def test_fsat_svg_matches_oracle_render(self, tmp_path):
        for n_points in (101, 201):
            i_inv = np.linspace(0.0, 10.0, n_points)
            curves = {n: np.array([saturation_factor(n, math.inf if x == 0.0 else 1.0 / x)
                                   for x in i_inv]) for n in cli.FSAT_HARMONICS}
            self._same_svg(tmp_path, svg.fsat_svg, fsat_svg_pointwise, i_inv, curves)
        # values past either clamp, NaN, and curves of one point or none
        i_inv = np.array([0.0, 0.5, 1.0, 2.0])
        curves = {1: np.array([math.nan, 1.5, -0.5, -0.1]), 3: np.array([0.2, 1.0, 0.0, -0.0])}
        self._same_svg(tmp_path, svg.fsat_svg, fsat_svg_pointwise, i_inv, curves)
        for i_inv in (np.array([2.0]), np.array([])):
            curves = {1: np.ones(len(i_inv)), 3: np.zeros(len(i_inv))}
            self._same_svg(tmp_path, svg.fsat_svg, fsat_svg_pointwise, i_inv, curves)
            assert (tmp_path / "new.svg").read_text().count("<polyline") == 1  # the axes

    def test_verify_simulates_once_per_row(self, tmp_path, monkeypatch):
        calls = []
        real = simulate_mod.simulate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # also bound on the CLI, should it ever call the referee itself
        monkeypatch.setattr(simulate_mod, "simulate", counting)
        monkeypatch.setattr(cli, "simulate", counting, raising=False)
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            MINIMAL_PLANT
            + "\n[sweep]\ni_max_fractions = 0.6, 1.0\n"
            + "\n[sim]\nsteps_per_period = 200\nn_periods = 22\ntransient_periods = 20\n"
            + "\n[output]\ndump_waveforms = true\n"
        )
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) in (0, 3)
        assert len(calls) == 2
        assert (tmp_path / "waveforms_0p6.csv").exists()
        assert (tmp_path / "waveforms_1.csv").exists()


class TestSharedLoops:
    """One ``verify`` call shares one referee loop between its rows, kept
    in its plant's memo, and the loop is freed with the plant, by reference
    counting, when the call returns."""

    FOUR_ROWS = (MINIMAL_PLANT + "\n[sweep]\ni_max_fractions = 0.4, 0.6, 0.8, 1.0\n"
                 + "\n[sim]\nsteps_per_period = 400\n")

    @staticmethod
    def _loops_built(monkeypatch) -> list:
        """Weak references to the loops built from now on."""
        init, refs = simulate_mod._Loop.__init__, []

        def recorded(self, *args):
            init(self, *args)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(simulate_mod._Loop, "__init__", recorded)
        return refs

    def _verify_without_gc(self, tmp_path) -> int:
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.FOUR_ROWS)
        gc.disable()
        try:
            return main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
        finally:
            gc.enable()

    def test_four_rows_build_one_branch_pair_per_call(self, tmp_path, monkeypatch):
        build = Branch.build.__func__
        calls = []

        def counted(cls, *args):
            calls.append(args)
            return build(cls, *args)

        monkeypatch.setattr(Branch, "build", classmethod(counted))
        refs = self._loops_built(monkeypatch)
        for _ in range(2):  # nothing carries over from one call to the next
            calls.clear()
            refs.clear()
            assert self._verify_without_gc(tmp_path) == 0
            assert len(calls) == 2  # the free and the rail branch
            assert len(refs) == 1 and refs[0]() is None

    def test_loops_are_dropped_after_a_simulation_error(self, tmp_path, monkeypatch, capsys):
        def diverging(self, *args):
            raise SimulationError("state diverged at step 3 (t = 0.01 s)", step=3)

        monkeypatch.setattr(simulate_mod._Loop, "period", diverging)
        refs = self._loops_built(monkeypatch)
        assert self._verify_without_gc(tmp_path) == 2
        assert "diverged at step 3" in capsys.readouterr().err
        assert len(refs) == 1 and refs[0]() is None

    def test_rows_match_validate_df_on_a_fresh_plant(self, tmp_path, monkeypatch):
        calls = []
        real = cli.validate_df

        def recorded(plant, i_max, cfg=None, n_harmonics=9):
            rep = real(plant, i_max, cfg=cfg, n_harmonics=n_harmonics)
            calls.append(((plant, i_max, cfg, n_harmonics), rep))
            return rep

        monkeypatch.setattr(cli, "validate_df", recorded)
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.FOUR_ROWS)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert len(calls) == 4
        for (plant, i_max, sim_cfg, n_harmonics), shared in calls:
            # a copy starts with an empty memo, so this run builds its own loop
            alone = validate_df(copy.copy(plant), i_max, cfg=sim_cfg, n_harmonics=n_harmonics)
            for field in dataclasses.fields(alone):
                if field.name != "sim":
                    assert getattr(shared, field.name) == getattr(alone, field.name), field.name
            assert shared.sim.waveforms.tobytes() == alone.sim.waveforms.tobytes()
            assert shared.sim.harmonic_currents == alone.sim.harmonic_currents
            assert shared.sim.period_powers == alone.sim.period_powers
            assert shared.sim.periodicity_residual == alone.sim.periodicity_residual
            assert shared.sim.clip_fraction == alone.sim.clip_fraction


class TestGoldenFiles:
    @pytest.mark.parametrize("command,name", GOLDEN_OUTPUTS)
    def test_byte_identical_with_golden(self, tmp_path, command, name):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main([command, "--config", GOLDEN_INI, "--out", str(out1)]) == 0
        assert main([command, "--config", GOLDEN_INI, "--out", str(out2)]) == 0
        fresh1 = (out1 / name).read_bytes()
        fresh2 = (out2 / name).read_bytes()
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            golden = fh.read()
        assert fresh1 == fresh2, "same config must give byte-identical output"
        assert fresh1 == golden, f"{name} drifted from the checked-in golden file"
