"""Command-line interface: sweep orchestration and CSV/SVG emission.

    wec-satlin <matched|smith|pareto|fsat|saturate|verify> --config <path>
               [--out <dir>] [--svg]

Exit codes: 0 success, 1 configuration error, 2 numerical or convergence
error, 3 verification failure.

CSV output is deterministic: fixed column order, lowercase snake_case
headers, floats at 12 significant digits, complex values split into paired
``_re``/``_im`` columns.  Identical configuration produces byte-identical
files.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np

from . import svg as svgmod
from .config import RunConfig, load_config
from .descfcn import (
    classic_sidf_power,
    linear_saturation_equivalent,
    saturation_factor,
    solve_operating_point,
)
from .errors import ConfigError, WecSatlinError
from .mismatch import matched_baseline, pareto_front, smith_grid
from .simulate import dump_waveforms, validate_df
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


def fmt(value) -> str:
    """Deterministic scalar formatting: floats at 12 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _column_cells(column) -> tuple[str, list | None]:
    """printf spec and cell values of one CSV column.

    A list of ``str`` prints as ``%s``; a scalar, the same on every row, has
    its :func:`fmt` text in the spec and no cells.  Otherwise bool and integer
    dtypes print as ``%d`` and floats as ``%.12g``, the text :func:`fmt` gives
    each cell (``inf``, ``nan`` and ``-0`` included); any other column goes
    through :func:`fmt` cell by cell.
    """
    if isinstance(column, list) and set(map(type, column)) <= {str}:
        return "%s", column
    arr = np.asarray(column)
    if arr.ndim == 0:
        return fmt(column).replace("%", "%%"), None
    if arr.dtype.kind in "biu":
        return "%d", arr.tolist()
    if arr.dtype.kind == "f":
        return "%.12g", arr.tolist()
    return "%s", [fmt(v) for v in column]


def _format_rows(columns) -> str:
    """Text of ``columns``, one line per row, formatted column-wise.

    One row template built from the column kinds is applied to all cells in
    a single ``%``, so the bytes match a per-cell :func:`fmt` join.
    """
    specs, cells = zip(*map(_column_cells, columns))
    cells = [c for c in cells if c is not None]
    if len({len(c) for c in cells}) != 1:
        raise ValueError("CSV columns differ in length, or none holds cells")
    row = ",".join(specs) + "\n"
    return row * len(cells[0]) % tuple(itertools.chain.from_iterable(zip(*cells)))


def write_csv(path: str, header: list[str], columns) -> None:
    """Write ``columns`` under ``header``; see :func:`_column_cells` for the kinds."""
    text = ",".join(header) + "\n" + _format_rows(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def cmd_matched(cfg: RunConfig, out_dir: str, use_svg: bool) -> int:
    """Matched baselines and dimensionless groups, both routes when possible."""
    rows: list[tuple[str, object]] = []
    waves = cfg.wave_data()
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
    write_csv(_out_path(out_dir, "matched.csv"), ["name", "value"], list(zip(*rows)))
    for name, value in rows:
        print(f"{name} = {fmt(value)}")
    return 0


def _alpha_tag(alpha: float) -> str:
    return fmt(alpha).replace(".", "p").replace("-", "m")


def cmd_smith(cfg: RunConfig, out_dir: str, use_svg: bool) -> int:
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
            shared = _format_rows(cols).splitlines()
        columns = [alpha, shared] + [grid[name] for name in header[4:]]
        total += len(grid)
        tag = _alpha_tag(alpha)
        write_csv(_out_path(out_dir, f"smith_alpha_{tag}.csv"), header, columns)
        if use_svg:
            svgmod.smith_svg(
                _out_path(out_dir, f"smith_alpha_{tag}.svg"),
                alpha,
                grid,
                cfg.smith_resolution,
                cfg.smith_angular,
            )
    print(f"smith grid: {total} cells over {len(cfg.alphas)} alpha value(s)")
    return 0


def cmd_pareto(cfg: RunConfig, out_dir: str, use_svg: bool) -> int:
    """Nondominated (power, voltage, current) fronts per alpha."""
    header = ["alpha", "power_ratio", "v_ratio", "i_ratio"]
    fronts = [(alpha, pareto_front(alpha, cfg.pareto_points)) for alpha in cfg.alphas]
    table = np.concatenate([front for _, front in fronts])
    columns = [np.concatenate([np.full(len(front), alpha) for alpha, front in fronts])]
    columns += [table[name] for name in header[1:]]
    write_csv(_out_path(out_dir, "pareto.csv"), header, columns)
    if use_svg:
        svgmod.pareto_svg(_out_path(out_dir, "pareto.svg"), dict(fronts))
    print(f"pareto front: {len(table)} nondominated points")
    return 0


def cmd_fsat(cfg: RunConfig, out_dir: str, use_svg: bool) -> int:
    """Saturation-factor curves against inverse clipping depth."""
    i_inv = np.linspace(0.0, cfg.fsat_i_inv_max, cfg.fsat_points)
    header = ["i_inv"] + [f"f_sat_{n}" for n in FSAT_HARMONICS]
    curves = {n: np.empty(len(i_inv)) for n in FSAT_HARMONICS}
    for k, inv in enumerate(i_inv):
        i_script = math.inf if inv == 0.0 else 1.0 / inv
        for n in FSAT_HARMONICS:
            curves[n][k] = saturation_factor(n, i_script)
    write_csv(_out_path(out_dir, "fsat.csv"), header, [i_inv, *curves.values()])
    if use_svg:
        svgmod.fsat_svg(_out_path(out_dir, "fsat.svg"), i_inv, curves)
    print(f"saturation factors: {len(i_inv)} points, harmonics {FSAT_HARMONICS}")
    return 0


def cmd_saturate(cfg: RunConfig, out_dir: str, use_svg: bool) -> int:
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
    write_csv(_out_path(out_dir, "saturate.csv"), list(rows[0]), columns)
    for row in rows:
        print(
            f"fraction {fmt(row['i_max_fraction'])}: f_sat_1 = {fmt(row['f_sat_1'])}, "
            f"p_total = {fmt(row['p_total'])} W, "
            f"nonlinear/linear = {fmt(row['nonlinear_over_linear'])}"
        )
    return 0


def cmd_verify(cfg: RunConfig, out_dir: str, use_svg: bool) -> int:
    """Quasi-linear predictions against the time-domain reference, row per limit."""
    plant = cfg.require_plant("verify")
    src = thevenin_from_plant(plant)
    base = matched_baseline(src)
    rows = []
    all_ok = True
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
            tag = fmt(frac).replace(".", "p")
            dump_waveforms(rep.sim, _out_path(out_dir, f"waveforms_{tag}.csv"))
    header = ["i_max_fraction", *VERIFY_FIELDS]
    write_csv(_out_path(out_dir, "verify.csv"), header, list(zip(*rows)))
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
    out_dir = args.out if args.out is not None else cfg.out_dir
    if not out_dir:
        raise ConfigError("the output directory ([output] dir or --out) is empty")
    use_svg = args.svg or cfg.svg
    return _COMMANDS[args.command](cfg, out_dir, use_svg)


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


if __name__ == "__main__":
    sys.exit(main())
