"""Run configuration: INI-style key = value files with section headers.

Exactly one of the ``[plant]`` (dimensional) or ``[nondim]`` (dimensionless
groups) sections must be present.  Unknown sections or keys are errors so a
typo in a physics parameter cannot silently fall back to a default.  The
``[waves]`` section supplies the incident-wave data when running from
dimensionless groups; a dimensional plant carries its own, and ``matched``
on ``[nondim]`` needs it.

Each key is defined once, with the reader that checks its form, in
``_SECTION_KEYS``.  A key left out takes its dataclass field's default; a
field without one is a required key.  Each range is checked by the
dataclass that holds it, :class:`RunConfig` included.

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
from dataclasses import MISSING, dataclass, field, fields
from operator import getitem

from .emit import fmt
from .errors import ConfigError, DomainError
from .mismatch import ALPHA_LIMIT
from .simulate import SimConfig
from .wec import NondimGroups, WecPlant, haskind_plant

__all__ = ["RunConfig", "WaveData", "parse_config", "load_config"]


@dataclass(frozen=True)
class WaveData:
    """Incident-wave data needed by the dimensionless matched-power route."""

    j_density: float
    k_wavenumber: float
    g0: int = 1

    def __post_init__(self):
        if self.g0 not in (1, 2):
            raise DomainError(f"mode gain g0 must be 1 or 2, got {self.g0}")


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

    def __post_init__(self):
        for frac in self.i_max_fractions:
            if frac <= 0.0:
                raise ConfigError(f"i_max fractions must be positive, got {frac}")
        for alpha in self.alphas:  # past the limit alpha^4 overflows
            if abs(alpha) >= ALPHA_LIMIT:
                raise ConfigError(f"[sweep] |alpha| must be below {ALPHA_LIMIT:.4g}, got {alpha}")
        # each value's 12-digit text names its output files and CSV rows
        for key in ("alphas", "i_max_fractions"):
            texts = [fmt(value) for value in getattr(self, key)]
            for k, text in enumerate(texts):
                if text in texts[:k]:
                    raise ConfigError(f"[sweep] {key} repeats {text} at 12 significant digits")
        # sample counts below two leave a grid, front or curve without extent
        for key in ("smith_resolution", "smith_angular", "pareto_points", "fsat_points"):
            value = getattr(self, key)
            if value < 2:
                raise ConfigError(f"[sweep] {key} must be at least 2, got {value}")
        if self.fsat_i_inv_max <= 0.0:
            raise ConfigError(
                f"[sweep] fsat_i_inv_max must be positive, got {self.fsat_i_inv_max}"
            )
        if self.n_harmonics < 1 or self.n_harmonics % 2 == 0:
            raise ConfigError(
                f"[sweep] n_harmonics must be odd and positive, got {self.n_harmonics}"
            )
        if not self.out_dir:
            raise ConfigError("the output directory ([output] dir or --out) is empty")

    def require_plant(self, command: str) -> WecPlant:
        if self.plant is None:
            raise ConfigError(
                f"command '{command}' needs a dimensional [plant] section"
            )
        return self.plant

    def wave_data(self, command: str = "matched") -> WaveData:
        if self.plant is not None:
            return WaveData(self.plant.j_density, self.plant.k_wavenumber, self.plant.g0)
        if self.waves is None:
            raise ConfigError(f"command '{command}' needs a [waves] section with [nondim]")
        return self.waves


def _finite(sec, key, value: float) -> float:
    """No key gives NaN or infinity a meaning, so both are rejected here."""
    if not math.isfinite(value):
        raise ConfigError(f"[{sec.name}] {key} must be finite, got {sec[key]!r}")
    return value


def _get_float(sec, key):
    try:
        value = float(sec[key])
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key} = {sec[key]!r} is not a number") from exc
    return _finite(sec, key, value)


def _get_int(sec, key):
    value = _get_float(sec, key)
    if value != int(value):
        raise ConfigError(f"[{sec.name}] {key} must be an integer, got {value}")
    return int(value)


def _get_bool(sec, key):
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


def _get_haskind(sec, key):
    """haskind derives the excitation force, so f_e_amplitude may not be given."""
    haskind = _get_bool(sec, key)
    if haskind and "f_e_amplitude" in sec:
        raise ConfigError("[plant] gives both haskind = true and f_e_amplitude; pick one")
    return haskind


# Each section's dataclass and its keys with their readers, in reading order.
# Every key names a field of that dataclass except five: haskind, f_e_phase
# and f_e_amplitude make WecPlant.f_e, transient_periods is read and dropped,
# and dir sets RunConfig.out_dir.
_SECTION_KEYS = {
    "plant": (WecPlant, {
        "m": _get_float, "a_added": _get_float, "b_h": _get_float, "k_h": _get_float,
        "k_t": _get_float, "omega": _get_float, "g_ratio": _get_float, "b_d": _get_float,
        "k_d": _get_float, "r_w": _get_float, "l_w": _get_float, "p_poles": _get_int,
        "j_density": _get_float, "k_wavenumber": _get_float, "g0": _get_int,
        "f_e_phase": _get_float, "haskind": _get_haskind, "f_e_amplitude": _get_float,
    }),
    "nondim": (NondimGroups, dict.fromkeys(("r_cal", "d_cal", "alpha_m", "l_cal"), _get_float)),
    "waves": (WaveData, {"j_density": _get_float, "k_wavenumber": _get_float, "g0": _get_int}),
    "sweep": (RunConfig, {
        "alphas": _get_float_list, "smith_resolution": _get_int, "smith_angular": _get_int,
        "pareto_points": _get_int, "fsat_points": _get_int, "fsat_i_inv_max": _get_float,
        "i_max_fractions": _get_float_list, "n_harmonics": _get_int,
    }),
    "sim": (SimConfig, {
        "steps_per_period": _get_int, "n_periods": _get_int,
        # shooting needs no transient skip: read so that older configs load, then dropped
        "transient_periods": _get_int, "convergence_tol": _get_float,
    }),
    "output": (RunConfig, {"dir": getitem, "svg": _get_bool, "dump_waveforms": _get_bool}),
}
# Keys a config may leave out although their field has no default.
_CONFIG_DEFAULTS = {"a_added": 0.0, "l_cal": 0.0}


def _missing(key, name) -> ConfigError:
    return ConfigError(f"missing required key '{key}' in [{name}]")


def _read_section(cp, name) -> dict:
    """The values of ``[name]``, each checked by its reader in table order.

    A key left out takes its config default, else its field's default; a
    key whose field has neither is missing.
    """
    cls, readers = _SECTION_KEYS[name]
    sec = cp[name] if cp.has_section(name) else {}
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    values = {}
    for key, read in readers.items():
        if key in sec:
            values[key] = read(sec, key)
        elif key in _CONFIG_DEFAULTS:
            values[key] = _CONFIG_DEFAULTS[key]
        elif key in required:
            raise _missing(key, name)
    return values


def _build_plant(values: dict) -> WecPlant:
    phase = values.pop("f_e_phase", 0.0)
    if values.pop("haskind", False):
        return haskind_plant(phase=phase, **values)
    if "f_e_amplitude" not in values:
        raise _missing("f_e_amplitude", "plant")
    return WecPlant(f_e=values.pop("f_e_amplitude") * cmath.exp(1j * phase), **values)


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
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        unknown = set(cp[name]) - _SECTION_KEYS[name][1].keys()
        if unknown:
            raise ConfigError(f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}")

    has_plant = cp.has_section("plant")
    has_nondim = cp.has_section("nondim")
    if has_plant == has_nondim:
        raise ConfigError("exactly one of [plant] or [nondim] must be given")
    has_waves = cp.has_section("waves")
    if has_plant and has_waves:
        raise ConfigError("[waves] duplicates wave data already in [plant]")

    try:
        plant = _build_plant(_read_section(cp, "plant")) if has_plant else None
        groups = NondimGroups(**_read_section(cp, "nondim")) if has_nondim else None
        waves = WaveData(**_read_section(cp, "waves")) if has_waves else None
        sim = _read_section(cp, "sim")
        sim.pop("transient_periods", None)
        sim = SimConfig(**sim)
        sweep = _read_section(cp, "sweep")
        output = _read_section(cp, "output")
        if "dir" in output:
            output["out_dir"] = output.pop("dir")
        return RunConfig(plant=plant, groups=groups, waves=waves, sim=sim, **sweep, **output)
    except DomainError as exc:  # a range check inside a dataclass
        raise ConfigError(f"invalid configuration value: {exc}") from exc


def load_config(path) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)
