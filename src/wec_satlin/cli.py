"""Command-line interface: sweep orchestration over the emission module.

    wec-satlin <matched|smith|pareto|fsat|saturate|verify> --config <path>
               [--out <dir>] [--svg]

Exit codes: 0 success, 1 configuration error (an output that cannot be
written included), 2 numerical or convergence error, 3 verification failure.
The CSV format is :mod:`.emit`'s.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import svg as svgmod
from .config import RunConfig, load_config
from .descfcn import (
    classic_sidf_power,
    linear_saturation_equivalent,
    saturation_factors,
    solve_operating_point,
)
from .emit import _row_text, fmt, tag, write_csv
from .errors import ConfigError, WecSatlinError
from .mismatch import matched_baseline, pareto_front, smith_grid
from .simulate import _shared_loops, dump_waveforms, validate_df
from .wec import (
    alpha_from_nondim,
    matched_power,
    nondim_from_plant,
    thevenin_from_plant,
)

__all__ = ["main", "run"]

FSAT_HARMONICS = (1, 3, 5, 7)
# the ValidationReport fields verify.csv holds after its i_max_fraction column
VERIFY_FIELDS = (
    "i_max", "saturated", "low_pass_merit", "assumption_violated", "enforced",
    "p_predicted", "p_simulated", "i1_predicted", "i1_simulated", "x_predicted",
    "x_simulated", "rel_err_power", "rel_err_fundamental", "rel_err_position",
    "power_tol", "fundamental_tol", "passed",
)


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def cmd_matched(cfg: RunConfig) -> int:
    """Matched baselines and dimensionless groups, both routes when possible."""
    rows: list[tuple[str, object]] = []
    waves = cfg.wave_data("matched")
    if cfg.plant is not None:
        plant = cfg.plant
        src = thevenin_from_plant(plant)
        base = matched_baseline(src)
        groups = nondim_from_plant(plant)
        rows += [
            ("omega", plant.omega),
            ("v_th_re", src.v_th.real),
            ("v_th_im", src.v_th.imag),
            ("z_th_re", src.z_th.real),
            ("z_th_im", src.z_th.imag),
            ("alpha", src.alpha),
            ("p_matched", base.p_matched),
            ("v_peak_matched", base.v_peak_matched),
            ("i_peak_matched", base.i_peak_matched),
            ("haskind_consistent", plant.haskind_consistent),
        ]
    else:
        groups = cfg.groups
        rows.append(("alpha", alpha_from_nondim(groups)))
    rows += [
        ("r_cal", groups.r_cal),
        ("d_cal", groups.d_cal),
        ("alpha_m", groups.alpha_m),
        ("l_cal", groups.l_cal),
    ]
    if waves.j_density > 0.0 and waves.k_wavenumber > 0.0:
        p_nd = matched_power(groups, waves.j_density, waves.k_wavenumber, waves.g0)
        rows.append(("p_matched_nondim", p_nd))
        rows.append(("p_absorbed_limit", waves.g0 * waves.j_density / waves.k_wavenumber))
    write_csv(_out_path(cfg, "matched.csv"), ["name", "value"], list(zip(*rows)))
    for name, value in rows:
        print(f"{name} = {fmt(value)}")
    return 0


def cmd_smith(cfg: RunConfig) -> int:
    """Ratio grids over the reflection-coefficient disk, one file per alpha.

    Files are split per alpha so each stays a few megabytes even at the
    default 101 x 360 resolution.
    """
    header = [
        "alpha", "gamma_re", "gamma_im", "power_ratio", "v_ratio", "i_ratio",
        "v_exceeds_one", "i_exceeds_one",
    ]
    total = 0
    shared = None  # gamma and power_ratio text, the same for every alpha
    for alpha in cfg.alphas:
        grid = smith_grid(alpha, cfg.smith_resolution, cfg.smith_angular)
        if shared is None:
            cols = [grid["gamma"].real, grid["gamma"].imag, grid["power_ratio"]]
            shared = _row_text(cols)
        columns = [alpha, shared] + [grid[name] for name in header[4:]]
        total += len(grid)
        write_csv(_out_path(cfg, f"smith_alpha_{tag(alpha)}.csv"), header, columns)
        if cfg.svg:
            svgmod.smith_svg(_out_path(cfg, f"smith_alpha_{tag(alpha)}.svg"), alpha, grid,
                             cfg.smith_resolution, cfg.smith_angular)
    print(f"smith grid: {total} cells over {len(cfg.alphas)} alpha value(s)")
    return 0


def cmd_pareto(cfg: RunConfig) -> int:
    """(power, voltage, current) fronts per alpha: the minimum-voltage and
    minimum-current optimal contours, which hold only nondominated points."""
    header = ["alpha", "power_ratio", "v_ratio", "i_ratio"]
    fronts = [(alpha, pareto_front(alpha, cfg.pareto_points)) for alpha in cfg.alphas]
    table = np.concatenate([front for _, front in fronts])
    columns = [np.concatenate([np.full(len(front), alpha) for alpha, front in fronts])]
    columns += [table[name] for name in header[1:]]
    write_csv(_out_path(cfg, "pareto.csv"), header, columns)
    if cfg.svg:
        svgmod.pareto_svg(_out_path(cfg, "pareto.svg"), dict(fronts))
    print(f"pareto front: {len(table)} nondominated points")
    return 0


def cmd_fsat(cfg: RunConfig) -> int:
    """Saturation-factor curves against inverse clipping depth."""
    i_inv = np.linspace(0.0, cfg.fsat_i_inv_max, cfg.fsat_points)
    header = ["i_inv"] + [f"f_sat_{n}" for n in FSAT_HARMONICS]
    curves = {n: np.empty(len(i_inv)) for n in FSAT_HARMONICS}
    for k, inv in enumerate(i_inv):
        i_script = math.inf if inv == 0.0 else 1.0 / inv
        factors = saturation_factors(i_script, max(FSAT_HARMONICS)).factors
        for n in FSAT_HARMONICS:
            curves[n][k] = factors[n]
    write_csv(_out_path(cfg, "fsat.csv"), header, [i_inv, *curves.values()])
    if cfg.svg:
        svgmod.fsat_svg(_out_path(cfg, "fsat.svg"), i_inv, curves)
    print(f"saturation factors: {len(i_inv)} points, harmonics {FSAT_HARMONICS}")
    return 0


def cmd_saturate(cfg: RunConfig) -> int:
    """Quasi-linear operating point per current-limit fraction, with linear baseline."""
    plant = cfg.require_plant("saturate")
    src = thevenin_from_plant(plant)
    base = matched_baseline(src)
    rows = []
    for frac in cfg.i_max_fractions:
        i_max = frac * base.i_peak_matched
        sol = solve_operating_point(src, i_max, n_harmonics=cfg.n_harmonics)
        f1 = sol.factors.factors[1]
        i_script = sol.factors.i_script
        if frac >= 1.0:
            p_lin = base.p_matched
        else:
            p_lin = (
                linear_saturation_equivalent(src, i_max).power_ratio * base.p_matched
            )
        rows.append(
            {
                "i_max_fraction": frac,
                "i_max": i_max,
                "converged": sol.converged,
                "iterations": sol.iterations,
                "f_sat_1": f1,
                "i_script": i_script,
                "i_temp_mag": abs(sol.i_temp),
                "i1_mag": abs(sol.fundamental.current),
                "fundamental_gain": f1 / i_script if i_script < 1.0 else 1.0,
                "p_total": sol.p_total,
                "p_fundamental": classic_sidf_power(sol),
                "p_matched": base.p_matched,
                "p_linear_baseline": p_lin,
                "nonlinear_over_linear": sol.p_total / p_lin if p_lin != 0.0 else math.inf,
            }
        )
    columns = list(zip(*(row.values() for row in rows)))
    write_csv(_out_path(cfg, "saturate.csv"), list(rows[0]), columns)
    for row in rows:
        print(
            f"fraction {fmt(row['i_max_fraction'])}: f_sat_1 = {fmt(row['f_sat_1'])}, "
            f"p_total = {fmt(row['p_total'])} W, "
            f"nonlinear/linear = {fmt(row['nonlinear_over_linear'])}"
        )
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    """Quasi-linear predictions against the time-domain reference, row per limit."""
    plant = cfg.require_plant("verify")
    steps = cfg.sim.steps_per_period
    if 2 * cfg.n_harmonics > steps:  # the referee's phasors would alias
        raise ConfigError(
            f"[sweep] n_harmonics = {cfg.n_harmonics} is past the Nyquist bin of "
            f"[sim] steps_per_period = {steps}; verify needs n_harmonics <= {steps // 2}"
        )
    src = thevenin_from_plant(plant)
    base = matched_baseline(src)
    rows = []
    all_ok = True
    with _shared_loops():  # every row's referee shares one loop
        for frac in cfg.i_max_fractions:
            i_max = frac * base.i_peak_matched
            rep = validate_df(plant, i_max, cfg=cfg.sim, n_harmonics=cfg.n_harmonics)
            rows.append((frac, *(getattr(rep, name) for name in VERIFY_FIELDS)))
            status = "PASS" if rep.passed else "FAIL"
            if not rep.enforced:
                status = "FLAGGED (low-pass assumption not met)"
            elif not rep.passed:
                all_ok = False
            print(
                f"fraction {fmt(frac)}: power err {rep.rel_err_power:.3%}, "
                f"fundamental err {rep.rel_err_fundamental:.3%}, "
                f"merit {rep.low_pass_merit:.2f} -> {status}"
            )
            if cfg.dump_waveforms:
                dump_waveforms(rep.sim, _out_path(cfg, f"waveforms_{tag(frac)}.csv"))
    header = ["i_max_fraction", *VERIFY_FIELDS]
    write_csv(_out_path(cfg, "verify.csv"), header, list(zip(*rows)))
    return 0 if all_ok else 3


_COMMANDS = {
    "matched": cmd_matched,
    "smith": cmd_smith,
    "pareto": cmd_pareto,
    "fsat": cmd_fsat,
    "saturate": cmd_saturate,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors
        raise ConfigError(message)


@functools.cache  # built once per process; each call parses afresh
def _build_parser() -> _Parser:
    parser = _Parser(prog="wec-satlin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__.splitlines()[0])
        p.add_argument("--config", required=True, help="path to INI-style run config")
        p.add_argument("--out", default=None, help="output directory (default ./out)")
        p.add_argument("--svg", action="store_true", help="also render SVG figures")
    return parser


def run(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    cfg = load_config(args.config)
    out_dir = cfg.out_dir if args.out is None else args.out
    cfg = dataclasses.replace(cfg, out_dir=out_dir, svg=args.svg or cfg.svg)
    return _COMMANDS[args.command](cfg)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return run(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except WecSatlinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # load_config reports its own: this one is an output
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
