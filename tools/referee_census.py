"""Run the time-domain referee over the test row sets and count what it took.

The row sets are those of ``tests/row_sets.py``: the 180 seeded validity
rows, the 60-row stiff grid, the ``verify_reactive`` rows and the clipped
``golden.ini`` verify rows.  For each set the script prints one line: rows,
half-period maps, Newton steps of the switch-time solves, the largest
periodicity residual, rows that ran to the map cap and rows above the
shooting target of 1e-12.  Run from the repository root:

    python tools/referee_census.py [--against OLD_SRC] [--set NAME] [--json]

The tree measured is the ``src`` beside this script's ``tools``.  With
``--against``, the sets also run on OLD_SRC, a directory that holds the
``wec_satlin`` package (a checkout's ``src``), and the script prints that
tree's lines too, then every row whose result differs in any bit: its map
counts and its ``p_avg`` move, relative to the old value.  Each tree is
imported by path under its own name, as ``tools/ab_inprocess.py`` does,
and the row sets are built with each tree's own plants.  ``--set``, which
may be repeated, runs only the sets named; ``--json`` prints the same
counts and rows as one JSON object instead.  The exit status is 0.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "tests")]

from ab_inprocess import bits, installed, load_package  # noqa: E402
from row_sets import ROW_SETS  # noqa: E402

TARGET = 1e-12  # the shooting target of simulate


def run_set(package, name: str) -> list[dict]:
    """Each row of set ``name`` run on ``package``: its label, map cap and
    result, and the result's bits.  The rows of one plant share one loop,
    as in ``verify``."""
    shared_loops = importlib.import_module(package.__name__ + ".simulate")._shared_loops
    out = []
    with installed(package):
        rows = ROW_SETS[name]()
        for plant, group in itertools.groupby(rows, key=lambda row: row[0]):
            src = package.thevenin_from_plant(plant)
            peak = package.matched_baseline(src).i_peak_matched
            with shared_loops():
                for _, z_c, i_max, *cfg in group:
                    cfg = cfg[0] if cfg else package.SimConfig()
                    res = package.simulate(plant, z_c, i_max=i_max, cfg=cfg)
                    out.append({
                        "label": f"{name}[{len(out)}] l_w {plant.l_w:.3g} "
                                 f"fraction {i_max / peak:.3g}",
                        "cap": cfg.n_periods, "res": res,
                        "bits": (res.waveforms.tobytes(), bits([
                            res.p_avg, res.harmonic_currents, res.period_powers,
                            res.periods_run, res.newton_steps, res.periodicity_residual,
                            res.clip_fraction])),
                    })
    return out


def summary(rows: list[dict]) -> dict:
    """The counts of one set's rows."""
    results = [row["res"] for row in rows]
    return {
        "rows": len(rows),
        "maps": sum(res.periods_run for res in results),
        "newton_steps": sum(res.newton_steps for res in results),
        "max_residual": max(res.periodicity_residual for res in results),
        "at_cap": sum(row["res"].periods_run == row["cap"] for row in rows),
        "above_target": sum(res.periodicity_residual > TARGET for res in results),
    }


def differences(old: list[dict], new: list[dict]) -> list[dict]:
    """The rows whose results differ in any bit, with both map counts and
    the p_avg move relative to the old value."""
    return [{"row": b["label"], "maps_old": a["res"].periods_run,
             "maps_new": b["res"].periods_run, "p_avg_old": a["res"].p_avg,
             "p_avg_move": (b["res"].p_avg - a["res"].p_avg) / abs(a["res"].p_avg)}
            for a, b in zip(old, new, strict=True) if a["bits"] != b["bits"]]


def print_counts(tree: str, counts: dict) -> None:
    print(f"{tree}: set  rows  maps  newton  max residual  at cap  above {TARGET:g}")
    for name, c in counts.items():
        print(f"  {name:8s} {c['rows']:4d} {c['maps']:5d} {c['newton_steps']:7d}"
              f" {c['max_residual']:13.2e} {c['at_cap']:7d} {c['above_target']:7d}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="OLD_SRC",
                        help="a tree to run the same rows on and compare bit for bit")
    parser.add_argument("--set", action="append", choices=list(ROW_SETS),
                        help="run only this row set; repeat it to run several")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    names = args.set or list(ROW_SETS)
    trees = {"src": load_package(str(ROOT / "src"), "wec_satlin_census")}
    if args.against:
        trees[args.against] = load_package(args.against, "wec_satlin_against")
    runs = {tree: {name: run_set(package, name) for name in names}
            for tree, package in trees.items()}
    counts = {tree: {name: summary(rows) for name, rows in sets.items()}
              for tree, sets in runs.items()}
    differ = {}
    if args.against:
        differ = {name: differences(runs[args.against][name], runs["src"][name])
                  for name in names}
    if args.json:
        print(json.dumps({"counts": counts, "differ": differ}, indent=1))
        return 0
    for tree, by_set in counts.items():
        print_counts(tree, by_set)
    for name, rows in differ.items():
        print(f"{name}: {len(rows)} of {counts['src'][name]['rows']} rows differ")
        for row in rows:
            print(f"  {row['row']}  maps {row['maps_old']} -> {row['maps_new']}"
                  f"  p_avg {row['p_avg_old']:.12g} moved {row['p_avg_move']:+.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
