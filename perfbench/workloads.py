"""The four benchmark workloads: inputs, one operation each, and output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  ``op`` is the timed part; building the
input before it and checking the output after it are not timed.  Functions of
the package are looked up on their modules at call time, so the tracer's
wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import sys

import numpy as np

PLANT = """\
[plant]
m = 6.0e4
a_added = 4.0e4
b_h = 5.0e4
k_h = {k_h}
k_t = 100.0
r_w = 0.01
l_w = {l_w}
omega = 1.0
haskind = true
j_density = 1.0e4
k_wavenumber = 0.102
"""

# golden.ini sweep sizes: used by the smoke test in place of the defaults
TINY_SWEEP = """\
[sweep]
alphas = 0, 1, 2, 5
smith_resolution = 21
smith_angular = 72
pareto_points = 101
fsat_points = 101
"""

# a coarse referee for the smoke test; two rows, one clipped, one not
TINY_SIM = """\
[sweep]
i_max_fractions = 0.6, 1.0

[sim]
steps_per_period = 600
n_periods = 24
transient_periods = 16
"""

SWEEP_COMMANDS = ("matched", "smith", "pareto", "fsat", "saturate")
GOLDEN_FILES = (
    "smith_alpha_0.csv", "smith_alpha_1.csv", "smith_alpha_2.csv",
    "smith_alpha_5.csv", "pareto.csv", "fsat.csv",
)
SCAN_FRACTIONS = (0.2, 0.4, 0.6, 0.8)
SQUARE_WAVE_GAIN = 4.0 / math.pi


def _pkg():
    return sys.modules["wec_satlin"]


def _cli():
    return sys.modules["wec_satlin.cli"]


def run_cli(argv: list[str]) -> int:
    """``wec_satlin.cli.main`` with its console lines captured and dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return _cli().main(argv)


class Workload:
    """One named input set.  Subclasses define ``op`` and ``check``."""

    name = ""
    item = ""  # the work item its throughput counts: cells, rows or designs
    seeded = False  # only seeded workloads draw their inputs from the seed

    def __init__(self, root: str, work: str, seed: int, tiny: bool = False):
        self.root = root
        self.work = work
        self.seed = seed
        self.tiny = tiny
        self.config_path = os.path.join(work, f"{self.name}.ini")

    def config_text(self) -> str:
        raise NotImplementedError

    def inputs(self) -> list:
        """What the program is given, for the determinism test."""
        return [self.config_text()]

    def prepare(self) -> None:
        """Write the config and parse it once, before any tracing starts."""
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(self.config_text())
        self.cfg = sys.modules["wec_satlin.config"].load_config(self.config_path)

    def once_checks(self) -> list[bool]:
        """Untimed checks made once per run; each counts as one operation."""
        return []

    def next_input(self, k: int):
        out = os.path.join(self.work, f"op{k}")
        shutil.rmtree(out, ignore_errors=True)
        return out

    def op(self, arg):
        raise NotImplementedError

    def check(self, arg, result) -> int | None:
        """Work items the operation completed, or None if its output is wrong."""
        raise NotImplementedError

    def cleanup(self, out) -> None:
        shutil.rmtree(out, ignore_errors=True)


class Sweep(Workload):
    """The five sweep commands with --svg, in-process, into a fresh directory."""

    name = "sweep"
    item = "cells"
    digest = None  # CSV bytes of the first operation, which later ones must match

    def config_text(self):
        text = PLANT.format(k_h="1.0e5", l_w="0.0")
        return text + ("\n" + TINY_SWEEP if self.tiny else "")

    def once_checks(self):
        """The same commands on golden.ini reproduce the golden CSVs byte for byte."""
        out = os.path.join(self.work, "golden")
        shutil.rmtree(out, ignore_errors=True)
        cfg = os.path.join(self.root, "tests", "data", "golden.ini")
        try:
            if any(run_cli([c, "--config", cfg, "--out", out, "--svg"])
                   for c in SWEEP_COMMANDS):
                return [False]
            for name in GOLDEN_FILES:
                with open(os.path.join(out, name), "rb") as fh:
                    got = fh.read()
                with open(os.path.join(self.root, "tests", "golden", name), "rb") as fh:
                    if fh.read() != got:
                        return [False]
            return [True]
        except OSError:
            return [False]
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def op(self, out):
        return [run_cli([c, "--config", self.config_path, "--out", out, "--svg"])
                for c in SWEEP_COMMANDS]

    def check(self, out, codes):
        if any(codes):
            return None
        cfg = self.cfg
        tags = [f"{a:.12g}".replace(".", "p").replace("-", "m") for a in cfg.alphas]
        rows = {f"smith_alpha_{t}.csv": cfg.smith_resolution * cfg.smith_angular
                for t in tags}
        rows.update({"fsat.csv": cfg.fsat_points,
                     "saturate.csv": len(cfg.i_max_fractions)})
        csvs = sorted(rows) + ["matched.csv", "pareto.csv"]
        svgs = [f"smith_alpha_{t}.svg" for t in tags] + ["pareto.svg", "fsat.svg"]
        if sorted(os.listdir(out)) != sorted(csvs + svgs):
            return None
        digest = hashlib.sha256()
        cells = 0
        for name in csvs:
            with open(os.path.join(out, name), "rb") as fh:
                data = fh.read()
            if name in rows and data.count(b"\n") != rows[name] + 1:
                return None
            if data.count(b"\n") < 2:
                return None
            header, _, body = data.partition(b"\n")
            cells += body.count(b"\n") * (header.count(b",") + 1)
            digest.update(data)
        if any(os.path.getsize(os.path.join(out, s)) == 0 for s in svgs):
            return None
        # every operation of a run writes the same bytes
        if self.digest is None:
            self.digest = digest.digest()
        elif digest.digest() != self.digest:
            return None
        return cells


class Verify(Workload):
    """CLI verify on the resonant golden plant, dumping waveforms."""

    name = "verify"
    item = "rows"
    k_h, l_w, dump = "1.0e5", "0.0", True

    def config_text(self):
        text = PLANT.format(k_h=self.k_h, l_w=self.l_w)
        if self.dump:
            text += "\n[output]\ndump_waveforms = true\n"
        return text + ("\n" + TINY_SIM if self.tiny else "")

    def op(self, out):
        return run_cli(["verify", "--config", self.config_path, "--out", out])

    def check(self, out, code):
        """Exit 0, one passed row per fraction, one waveform dump per row."""
        if code != 0:
            return None
        cfg = self.cfg
        with open(os.path.join(out, "verify.csv"), encoding="utf-8") as fh:
            header, *lines = fh.read().splitlines()
        col = header.split(",").index("passed")
        if len(lines) != len(cfg.i_max_fractions):
            return None
        if any(line.split(",")[col] != "1" for line in lines):
            return None
        dumps = [n for n in os.listdir(out) if n.startswith("waveforms_")]
        if len(dumps) != (len(lines) if self.dump else 0):
            return None
        for name in dumps:
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                if fh.readline() != "t,x,v,i,v_load,p_inst\n" or not fh.readline():
                    return None
        return len(lines)


class VerifyReactive(Verify):
    """CLI verify off resonance with winding inductance, no dump."""

    name = "verify_reactive"
    k_h, l_w, dump = "1.5e5", "0.005", False


def draw_design(rng) -> dict:
    """Keyword arguments of a well-posed heave plant with winding inductance."""
    m = rng.uniform(2e4, 2e5)
    w = rng.uniform(0.5, 1.4)
    k_total = m * (w * rng.uniform(0.75, 1.3)) ** 2
    r_w = rng.uniform(0.005, 0.05)
    return {
        "m": 0.7 * m,
        "a_added": 0.3 * m,
        "b_h": rng.uniform(0.15, 0.8) * m * w,
        "k_h": 0.9 * k_total,
        "k_d": 0.1 * k_total,
        "g_ratio": rng.uniform(0.5, 2.0),
        "b_d": rng.uniform(0.0, 0.05) * m * w,
        "k_t": rng.uniform(50.0, 200.0),
        "r_w": r_w,
        "l_w": rng.uniform(0.5, 2.0) * r_w / w,
        "omega": w,
        "j_density": rng.uniform(2e3, 3e4),
        "k_wavenumber": w * w / 9.81,
        "g0": int(rng.integers(1, 3)),
    }


class Scan(Workload):
    """One design evaluation per operation: scalar library calls only."""

    name = "scan"
    item = "designs"
    seeded = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rng = np.random.default_rng(self.seed)
        self.first = draw_design(np.random.default_rng(self.seed))

    def inputs(self) -> list:
        rng = np.random.default_rng(self.seed)
        return [draw_design(rng) for _ in range(4)]

    def config_text(self):
        lines = ["[plant]"] + [f"{k} = {v!r}" for k, v in self.first.items()]
        return "\n".join(lines + ["haskind = true", ""])

    def next_input(self, k):
        return _pkg().haskind_plant(**draw_design(self.rng))

    def cleanup(self, plant):
        pass

    def op(self, plant):
        w = _pkg()
        src = w.thevenin_from_plant(plant)
        w.nondim_from_plant(plant)
        base = w.matched_baseline(src)
        w.low_pass_merit(plant)
        rows = []
        for frac in SCAN_FRACTIONS:
            i_max = frac * base.i_peak_matched
            sol = w.solve_operating_point(src, i_max)
            p_classic = w.classic_sidf_power(sol)
            p_linear = w.linear_saturation_equivalent(src, i_max).power_ratio * base.p_matched
            z_eff = w.equivalent_z(1, src.z_th.conjugate(), sol.factors.factors[1], src.z_th)
            w.constraint_amplitudes(plant, z_eff)
            rows.append((i_max, sol, p_classic, p_linear))
        return rows

    def check(self, plant, rows):
        """Clipping never beats the single-harmonic estimate, the peak-limited
        fundamental or linear control by more than 4/pi."""
        for i_max, sol, p_classic, p_linear in rows:
            if not sol.converged or not sol.p_total <= p_classic:
                return None
            if not abs(sol.fundamental.current) <= SQUARE_WAVE_GAIN * i_max:
                return None
            if not sol.p_total / p_linear <= SQUARE_WAVE_GAIN:
                return None
        return 1


WORKLOADS = {w.name: w for w in (Sweep, Verify, VerifyReactive, Scan)}
