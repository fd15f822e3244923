"""Tests for the config key table and the range checks of the config dataclasses."""

import cmath
import dataclasses
import re

import pytest

from wec_satlin.config import _SECTION_KEYS, RunConfig, WaveData, parse_config
from wec_satlin.errors import ConfigError, DomainError
from wec_satlin.simulate import SimConfig
from wec_satlin.wec import NondimGroups, WecPlant

# table keys that name no field of their section's dataclass
EXTRAS = {"haskind", "f_e_amplitude", "f_e_phase", "transient_periods", "dir"}
# fields no INI key sets: f_e comes from the three plant extras, the nested
# records from their own sections, and algebraic_loop_tol is library-only
NOT_KEYS = {"f_e", "plant", "groups", "waves", "sim", "algebraic_loop_tol", "out_dir"}

# every key with a non-default value: INI text and the value it must land as
PLANT = {
    "m": ("6.0e4", 6.0e4), "a_added": ("4.0e4", 4.0e4), "b_h": ("5.0e4", 5.0e4),
    "k_h": ("1.0e5", 1.0e5), "k_t": ("100", 100.0), "omega": ("0.8", 0.8),
    "g_ratio": ("2.5", 2.5), "b_d": ("10", 10.0), "k_d": ("7", 7.0),
    "r_w": ("0.02", 0.02), "l_w": ("0.001", 0.001), "p_poles": ("4", 4),
    "j_density": ("2.0e4", 2.0e4), "k_wavenumber": ("0.2", 0.2), "g0": ("2", 2),
}
NONDIM = {
    "r_cal": ("0.1", 0.1), "d_cal": ("0.5", 0.5), "alpha_m": ("2", 2.0),
    "l_cal": ("0.3", 0.3),
}
WAVES = {"j_density": ("3.0e3", 3.0e3), "k_wavenumber": ("0.05", 0.05), "g0": ("2", 2)}
SWEEP = {
    "alphas": ("0.5, 3", (0.5, 3.0)), "smith_resolution": ("11", 11),
    "smith_angular": ("12", 12), "pareto_points": ("13", 13), "fsat_points": ("14", 14),
    "fsat_i_inv_max": ("2.5", 2.5), "i_max_fractions": ("0.3, 0.7", (0.3, 0.7)),
    "n_harmonics": ("5", 5),
}
SIM = {
    "steps_per_period": ("400", 400), "n_periods": ("7", 7),
    "convergence_tol": ("1e-4", 1e-4),
}
OUTPUT = {"out_dir": ("/tmp/elsewhere", "/tmp/elsewhere"), "svg": ("yes", True),
          "dump_waveforms": ("on", True)}


def section(name, settings, **extra):
    keys = {("dir" if key == "out_dir" else key): text for key, (text, _) in settings.items()}
    return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in {**keys, **extra}.items())


def run_sections():
    return section("sweep", SWEEP) + section("sim", SIM, transient_periods="3") + section(
        "output", OUTPUT
    )


def assert_lands(record, settings):
    defaults = {f.name: f.default for f in dataclasses.fields(record)}
    for key, (_, value) in settings.items():
        assert getattr(record, key) == value, key
        assert value != defaults[key], key


class TestKeyTable:
    def test_every_key_is_a_field_or_a_documented_extra(self):
        for name, (cls, readers) in _SECTION_KEYS.items():
            names = {f.name for f in dataclasses.fields(cls)}
            assert set(readers) - names <= EXTRAS, name

    def test_every_settable_field_has_a_key(self):
        keys = {}
        for cls, readers in _SECTION_KEYS.values():
            keys.setdefault(cls, set()).update(readers)
        for cls in (WecPlant, NondimGroups, WaveData, SimConfig, RunConfig):
            settable = {f.name for f in dataclasses.fields(cls)} - NOT_KEYS
            assert settable <= keys[cls], cls.__name__
        assert "dir" in _SECTION_KEYS["output"][1]

    def test_plant_keys_land_in_their_fields(self):
        text = section("plant", PLANT, f_e_amplitude="2.0e5", f_e_phase="0.3")
        cfg = parse_config(text + run_sections())
        assert_lands(cfg.plant, PLANT)
        assert cfg.plant.f_e == 2.0e5 * cmath.exp(0.3j)
        assert_lands(cfg, SWEEP)
        assert_lands(cfg, OUTPUT)
        assert_lands(cfg.sim, SIM)

    def test_haskind_plant_keys_land_in_their_fields(self):
        cfg = parse_config(section("plant", PLANT, haskind="true", f_e_phase="0.3"))
        assert_lands(cfg.plant, PLANT)
        assert cfg.plant.haskind_consistent
        assert cmath.phase(cfg.plant.f_e) == pytest.approx(0.3, rel=1e-12)

    def test_nondim_and_waves_keys_land_in_their_fields(self):
        cfg = parse_config(section("nondim", NONDIM) + section("waves", WAVES))
        assert_lands(cfg.groups, NONDIM)
        assert_lands(cfg.waves, WAVES)
        assert cfg.wave_data() == cfg.waves

    def test_optional_keys_without_field_default(self):
        cfg = parse_config(section("plant", {k: v for k, v in PLANT.items() if k != "a_added"},
                                   haskind="true"))
        assert cfg.plant.a_added == 0.0
        cfg = parse_config(section("nondim", {k: v for k, v in NONDIM.items() if k != "l_cal"}))
        assert cfg.groups.l_cal == 0.0

    @pytest.mark.parametrize(
        "name, settings, required",
        [
            ("plant", PLANT, ["m", "b_h", "k_h", "k_t", "omega"]),
            ("nondim", NONDIM, ["r_cal", "d_cal", "alpha_m"]),
            ("waves", WAVES, ["j_density", "k_wavenumber"]),
        ],
    )
    def test_missing_required_key_names_the_first_in_reading_order(
        self, name, settings, required
    ):
        extra = {"f_e_amplitude": "1e5"} if name == "plant" else {}
        head = section("nondim", NONDIM) if name == "waves" else ""
        for k, key in enumerate(required):
            kept = {k2: v for k2, v in settings.items() if k2 not in required[k:]}
            message = f"missing required key '{key}' in [{name}]"
            with pytest.raises(ConfigError, match=re.escape(message)):
                parse_config(head + section(name, kept, **extra))

    def test_amplitude_required_without_haskind(self):
        message = "missing required key 'f_e_amplitude' in [plant]"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(section("plant", PLANT, f_e_phase="0.3"))
        with pytest.raises(ConfigError, match="pick one"):
            parse_config(section("plant", PLANT, haskind="true", f_e_amplitude="1e5"))


class TestRanges:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("i_max_fractions", (0.5, 0.0), "i_max fractions must be positive, got 0.0"),
            ("i_max_fractions", (-0.1,), "i_max fractions must be positive, got -0.1"),
            ("smith_resolution", 1, "[sweep] smith_resolution must be at least 2, got 1"),
            ("smith_angular", 0, "[sweep] smith_angular must be at least 2, got 0"),
            ("pareto_points", -3, "[sweep] pareto_points must be at least 2, got -3"),
            ("fsat_points", 1, "[sweep] fsat_points must be at least 2, got 1"),
            ("fsat_i_inv_max", 0.0, "[sweep] fsat_i_inv_max must be positive, got 0.0"),
            ("n_harmonics", 4, "[sweep] n_harmonics must be odd and positive, got 4"),
            ("n_harmonics", -1, "[sweep] n_harmonics must be odd and positive, got -1"),
            # values alike at 12 significant digits name the same output files
            ("alphas", (1.0, 1.0000000000001),
             "[sweep] alphas repeats 1 at 12 significant digits"),
            ("i_max_fractions", (0.5, 0.4, 0.5),
             "[sweep] i_max_fractions repeats 0.5 at 12 significant digits"),
            # past the limit alpha^4 overflows; refused whatever the command
            ("alphas", (0.0, 1e80), "[sweep] |alpha| must be below 1.158e+77, got 1e+80"),
            ("alphas", (-1.2e77,), "[sweep] |alpha| must be below 1.158e+77, got -1.2e+77"),
        ],
    )
    def test_run_config_checks_its_own_fields(self, field, value, message):
        with pytest.raises(ConfigError) as built:
            RunConfig(**{field: value})
        assert str(built.value) == message
        ini = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        with pytest.raises(ConfigError) as parsed:
            parse_config(section("nondim", NONDIM) + f"[sweep]\n{field} = {ini}\n")
        assert str(parsed.value) == message

    def test_run_config_defaults_pass(self):
        assert RunConfig() == dataclasses.replace(RunConfig())

    @pytest.mark.parametrize("g0", [0, 3, -1])
    def test_wave_data_mode_gain(self, g0):
        with pytest.raises(DomainError, match="mode gain g0 must be 1 or 2"):
            WaveData(1.0e4, 0.1, g0)
        with pytest.raises(ConfigError, match=f"mode gain g0 must be 1 or 2, got {g0}"):
            parse_config(section("nondim", NONDIM) + section("waves", WAVES, g0=str(g0)))

    @pytest.mark.parametrize("g0", [1, 2])
    def test_wave_data_from_a_plant_passes(self, g0):
        text = section("plant", dict(PLANT, g0=(str(g0), g0)), haskind="true")
        assert parse_config(text).wave_data().g0 == g0
