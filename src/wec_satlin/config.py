"""Run configuration: INI-style key = value files with section headers.

Exactly one of the ``[plant]`` (dimensional) or ``[nondim]`` (dimensionless
groups) sections must be present.  Unknown sections or keys are errors so a
typo in a physics parameter cannot silently fall back to a default.  The
``[waves]`` section supplies the incident-wave data when running from
dimensionless groups; a dimensional plant carries its own.

Example::

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

    [sweep]
    alphas = 0, 1, 2, 5
    i_max_fractions = 0.4, 0.6, 0.8, 1.0
"""

from __future__ import annotations

import cmath
import configparser
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .simulate import SimConfig
from .wec import NondimGroups, WecPlant, haskind_plant

__all__ = ["RunConfig", "WaveData", "parse_config", "load_config"]


@dataclass(frozen=True)
class WaveData:
    """Incident-wave data needed by the dimensionless matched-power route."""

    j_density: float
    k_wavenumber: float
    g0: int = 1


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: one plant description plus sweep ranges."""

    plant: WecPlant | None = None
    groups: NondimGroups | None = None
    waves: WaveData | None = None
    alphas: tuple[float, ...] = (0.0, 1.0, 2.0, 5.0)
    smith_resolution: int = 101
    smith_angular: int = 360
    pareto_points: int = 201
    fsat_points: int = 201
    fsat_i_inv_max: float = 10.0
    i_max_fractions: tuple[float, ...] = (0.4, 0.6, 0.8, 1.0)
    n_harmonics: int = 9
    sim: SimConfig = field(default_factory=SimConfig)
    out_dir: str = "./out"
    svg: bool = False
    dump_waveforms: bool = False

    def require_plant(self, command: str) -> WecPlant:
        if self.plant is None:
            raise ConfigError(
                f"command '{command}' needs a dimensional [plant] section"
            )
        return self.plant

    def wave_data(self) -> WaveData:
        if self.plant is not None:
            return WaveData(
                j_density=self.plant.j_density,
                k_wavenumber=self.plant.k_wavenumber,
                g0=self.plant.g0,
            )
        assert self.waves is not None
        return self.waves


_PLANT_KEYS = {
    "m", "a_added", "b_h", "k_h", "g_ratio", "b_d", "k_d", "k_t",
    "r_w", "l_w", "p_poles", "omega", "g0", "j_density", "k_wavenumber",
    "haskind", "f_e_amplitude", "f_e_phase",
}
_NONDIM_KEYS = {"r_cal", "d_cal", "alpha_m", "l_cal"}
_WAVES_KEYS = {"j_density", "k_wavenumber", "g0"}

def _finite(sec, key, value: float) -> float:
    """No key gives NaN or infinity a meaning, so both are rejected here."""
    if not math.isfinite(value):
        raise ConfigError(f"[{sec.name}] {key} must be finite, got {sec[key]!r}")
    return value


def _get_float(sec, key, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(f"missing required key '{key}' in [{sec.name}]")
        return default
    try:
        value = float(sec[key])
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key} = {sec[key]!r} is not a number") from exc
    return _finite(sec, key, value)


def _get_int(sec, key, default=None):
    value = _get_float(sec, key, default)
    if value != int(value):
        raise ConfigError(f"[{sec.name}] {key} must be an integer, got {value}")
    return int(value)


def _get_bool(sec, key, default=False):
    if key not in sec:
        return default
    raw = sec[key].strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{sec.name}] {key} = {sec[key]!r} is not a boolean")


def _get_float_list(sec, key):
    try:
        values = tuple(float(tok) for tok in sec[key].split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key} = {sec[key]!r} is not a number list") from exc
    if not values:
        raise ConfigError(f"[{sec.name}] {key} must list at least one value")
    return tuple(_finite(sec, key, v) for v in values)


# Each [sweep] and [sim] key with its reader, in reading order.  A key the
# config leaves out keeps the default of its RunConfig or SimConfig field.
_SWEEP_READERS = {
    "alphas": _get_float_list,
    "smith_resolution": _get_int,
    "smith_angular": _get_int,
    "pareto_points": _get_int,
    "fsat_points": _get_int,
    "fsat_i_inv_max": _get_float,
    "i_max_fractions": _get_float_list,
    "n_harmonics": _get_int,
}
_SIM_READERS = {
    "steps_per_period": _get_int,
    "n_periods": _get_int,
    # shooting needs no transient skip: read so that older configs load, then dropped
    "transient_periods": _get_int,
    "convergence_tol": _get_float,
}
_SECTIONS = {
    "plant": _PLANT_KEYS,
    "nondim": _NONDIM_KEYS,
    "waves": _WAVES_KEYS,
    "sweep": _SWEEP_READERS.keys(),
    "sim": _SIM_READERS.keys(),
    "output": {"dir", "svg", "dump_waveforms"},
}


def _read_section(sec, readers) -> dict:
    """The keys of ``readers`` that ``sec`` gives, each checked by its reader."""
    return {key: read(sec, key) for key, read in readers.items() if key in sec}


def _build_plant(sec) -> WecPlant:
    kwargs = dict(
        m=_get_float(sec, "m"),
        a_added=_get_float(sec, "a_added", 0.0),
        b_h=_get_float(sec, "b_h"),
        k_h=_get_float(sec, "k_h"),
        k_t=_get_float(sec, "k_t"),
        omega=_get_float(sec, "omega"),
        g_ratio=_get_float(sec, "g_ratio", 1.0),
        b_d=_get_float(sec, "b_d", 0.0),
        k_d=_get_float(sec, "k_d", 0.0),
        r_w=_get_float(sec, "r_w", 0.0),
        l_w=_get_float(sec, "l_w", 0.0),
        p_poles=_get_int(sec, "p_poles", 2),
        j_density=_get_float(sec, "j_density", 0.0),
        k_wavenumber=_get_float(sec, "k_wavenumber", 0.0),
        g0=_get_int(sec, "g0", 1),
    )
    phase = _get_float(sec, "f_e_phase", 0.0)
    if _get_bool(sec, "haskind", False):
        if "f_e_amplitude" in sec:
            raise ConfigError(
                "[plant] gives both haskind = true and f_e_amplitude; pick one"
            )
        return haskind_plant(phase=phase, **kwargs)
    amp = _get_float(sec, "f_e_amplitude")
    return WecPlant(f_e=amp * cmath.exp(1j * phase), **kwargs)


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into a validated :class:`RunConfig`."""
    cp = configparser.ConfigParser(
        interpolation=None, strict=True, inline_comment_prefixes=("#", ";")
    )
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for name in cp.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
        unknown = set(cp[name]) - _SECTIONS[name]
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}"
            )

    has_plant = cp.has_section("plant")
    has_nondim = cp.has_section("nondim")
    if has_plant == has_nondim:
        raise ConfigError("exactly one of [plant] or [nondim] must be given")
    if has_plant and cp.has_section("waves"):
        raise ConfigError("[waves] duplicates wave data already in [plant]")

    try:
        plant = _build_plant(cp["plant"]) if has_plant else None
        groups = None
        waves = None
        if has_nondim:
            sec = cp["nondim"]
            groups = NondimGroups(
                r_cal=_get_float(sec, "r_cal"),
                d_cal=_get_float(sec, "d_cal"),
                alpha_m=_get_float(sec, "alpha_m"),
                l_cal=_get_float(sec, "l_cal", 0.0),
            )
            if cp.has_section("waves"):
                wsec = cp["waves"]
                waves = WaveData(
                    j_density=_get_float(wsec, "j_density"),
                    k_wavenumber=_get_float(wsec, "k_wavenumber"),
                    g0=_get_int(wsec, "g0", 1),
                )

        for optional in ("sweep", "sim", "output"):
            if not cp.has_section(optional):
                cp.add_section(optional)
        sim = _read_section(cp["sim"], _SIM_READERS)
        sim.pop("transient_periods", None)
        out, defaults = cp["output"], RunConfig()
        cfg = RunConfig(
            plant=plant,
            groups=groups,
            waves=waves,
            sim=SimConfig(**sim),
            **_read_section(cp["sweep"], _SWEEP_READERS),
            out_dir=out.get("dir", defaults.out_dir),
            svg=_get_bool(out, "svg", defaults.svg),
            dump_waveforms=_get_bool(out, "dump_waveforms", defaults.dump_waveforms),
        )
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        # domain violations inside WecPlant/NondimGroups are config errors here
        raise ConfigError(f"invalid configuration value: {exc}") from exc

    for frac in cfg.i_max_fractions:
        if frac <= 0.0:
            raise ConfigError(f"i_max fractions must be positive, got {frac}")
    # sample counts below two leave a grid, front or curve without extent
    for key in ("smith_resolution", "smith_angular", "pareto_points", "fsat_points"):
        value = getattr(cfg, key)
        if value < 2:
            raise ConfigError(f"[sweep] {key} must be at least 2, got {value}")
    if cfg.fsat_i_inv_max <= 0.0:
        raise ConfigError(
            f"[sweep] fsat_i_inv_max must be positive, got {cfg.fsat_i_inv_max}"
        )
    if cfg.n_harmonics < 1 or cfg.n_harmonics % 2 == 0:
        raise ConfigError(
            f"[sweep] n_harmonics must be odd and positive, got {cfg.n_harmonics}"
        )
    return cfg


def load_config(path) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)
