"""Run the time-domain referee over the test row sets and count what it took.

The row sets are those of ``tests/row_sets.py``: the 180 seeded validity
rows, the 60-row stiff grid, the ``verify_reactive`` rows, the clipped
``golden.ini`` verify rows and the 900 invariant rows.  For each set the
script prints one line: rows, half-period maps, Newton steps of the
switch-time solves, switch searches (the steps the maps hand to
``_Loop.cross``, counted by wrapping it while the set runs), rows whose
switch-time solve gave up and the give-ups, the solves that did (the
``_Loop.shoot`` calls that returned their best iterate, with None for its
switch times, counted by wrapping it the same way), the largest
periodicity residual, rows that ran to the map cap, rows above the
shooting target of 1e-12, rows whose ``p_avg`` exceeds their plant's
``p_matched``, which no load can draw, and the largest relative excess
``p_avg / p_matched - 1`` of the set (negative where no row exceeds it).
Each plant keeps its latest referee loop, so the rows of one plant share
one, as in ``verify``; a plant, and its loop with it, is dropped once its
last row has run, and each row keeps the numbers the counts read and
digests of its result's bits, not the result.  Run from the repository
root:

    python tools/referee_census.py [--against OLD_SRC] [--set NAME] [--json]

The tree measured is the ``src`` beside this script's ``tools``.  With
``--against``, the sets also run on OLD_SRC, a directory that holds the
``wec_satlin`` package (a checkout's ``src``), and the script prints that
tree's lines too, then every row whose result differs in any bit the
digests cover: its map counts and its ``p_avg`` move, relative to the old
value.  The final map's ``start_on_rail`` and ``switch_times`` are
compared only where both trees' results have them.  Each tree is
imported by path under its own name, as ``tools/ab_inprocess.py`` does,
and the row sets are built with each tree's own plants.  ``--set``, which
may be repeated, runs only the sets named; ``--json`` prints the same
counts and rows as one JSON object instead.  The exit status is 1 where
a set of the measured tree has a row at the map cap or above the shooting
target, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "tests")]

from ab_inprocess import bits, installed, load_package  # noqa: E402
from row_sets import ROW_SETS  # noqa: E402

TARGET = 1e-12  # the shooting target of simulate


def run_set(package, name: str) -> list[dict]:
    """Each row of set ``name`` run on ``package``: its label, map cap,
    switch searches, switch-time solves that gave up, its plant's matched
    power, the result's fields the counts read, a SHA-256 digest of the
    bits of its waveforms, ``p_avg``, harmonic currents, period powers,
    map and Newton counts, periodicity residual and ``clip_fraction``, and
    one of its ``start_on_rail`` and ``switch_times``, None in a tree
    whose results have no such fields."""
    simulate = importlib.import_module(package.__name__ + ".simulate")
    cross, shoot, searches, gave_up = simulate._Loop.cross, simulate._Loop.shoot, [0], [0]

    def counted_cross(self, *args):
        searches[0] += 1
        return cross(self, *args)

    def counted_shoot(self, *args):
        start = shoot(self, *args)
        # the best iterate: None for its switch times, 0 segments in older trees
        gave_up[0] += start[2] is None or start[2] == 0
        return start

    out = []
    simulate._Loop.cross, simulate._Loop.shoot = counted_cross, counted_shoot
    try:
        with installed(package):
            rows = ROW_SETS[name]()[::-1]  # popped in order: a plant goes with its last row
            while rows:
                plant, z_c, i_max, *cfg = rows.pop()
                cfg = cfg[0] if cfg else package.SimConfig()
                baseline = package.matched_baseline(package.thevenin_from_plant(plant))
                searches[0], gave_up[0] = 0, 0
                res = package.simulate(plant, z_c, i_max=i_max, cfg=cfg)
                digest = hashlib.sha256(res.waveforms.tobytes())
                digest.update(repr(bits([
                    res.p_avg, res.harmonic_currents, res.period_powers, res.periods_run,
                    res.newton_steps, res.periodicity_residual, res.clip_fraction])).encode())
                orbit = getattr(res, "switch_times", None)  # older trees keep no orbit
                if orbit is not None:
                    orbit = bits([res.start_on_rail, orbit])
                    orbit = hashlib.sha256(repr(orbit).encode()).hexdigest()
                out.append({
                    "label": f"{name}[{len(out)}] l_w {plant.l_w:.3g} "
                             f"fraction {i_max / baseline.i_peak_matched:.3g}",
                    "cap": cfg.n_periods, "searches": searches[0],
                    "gave_up": gave_up[0], "p_matched": baseline.p_matched,
                    "p_avg": res.p_avg, "maps": res.periods_run,
                    "newton_steps": res.newton_steps, "residual": res.periodicity_residual,
                    "digest": digest.hexdigest(),
                    "orbit": orbit,
                })
    finally:
        simulate._Loop.cross, simulate._Loop.shoot = cross, shoot
    return out


def summary(rows: list[dict]) -> dict:
    """The counts of one set's rows."""
    excess = [row["p_avg"] / row["p_matched"] - 1.0 for row in rows]
    return {
        "rows": len(rows),
        "maps": sum(row["maps"] for row in rows),
        "newton_steps": sum(row["newton_steps"] for row in rows),
        "searches": sum(row["searches"] for row in rows),
        "gave_up": sum(row["gave_up"] > 0 for row in rows),
        "gave_up_solves": sum(row["gave_up"] for row in rows),
        "max_residual": max(row["residual"] for row in rows),
        "at_cap": sum(row["maps"] == row["cap"] for row in rows),
        "above_target": sum(row["residual"] > TARGET for row in rows),
        "over_matched": sum(e > 0.0 for e in excess),
        "max_excess": max(excess),
    }


def differences(old: list[dict], new: list[dict]) -> list[dict]:
    """The rows whose results differ in any bit the digests of both trees
    cover, with both map counts and the p_avg move relative to the old
    value."""
    return [{"row": b["label"], "maps_old": a["maps"], "maps_new": b["maps"],
             "p_avg_old": a["p_avg"], "p_avg_move": (b["p_avg"] - a["p_avg"]) / abs(a["p_avg"])}
            for a, b in zip(old, new, strict=True)
            if a["digest"] != b["digest"]
            or None not in (a["orbit"], b["orbit"]) and a["orbit"] != b["orbit"]]


def print_counts(tree: str, counts: dict) -> None:
    print(f"{tree}: set    rows  maps  newton  searches  gave up  give-ups  max residual"
          f"  at cap  above {TARGET:g}  over matched  max excess")
    for name, c in counts.items():
        print(f"  {name:10s} {c['rows']:4d} {c['maps']:5d} {c['newton_steps']:7d}"
              f" {c['searches']:9d} {c['gave_up']:8d} {c['gave_up_solves']:9d}"
              f" {c['max_residual']:13.2e}"
              f" {c['at_cap']:7d} {c['above_target']:11d} {c['over_matched']:13d}"
              f" {c['max_excess']:11.2e}")


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
    failed = any(c["at_cap"] or c["above_target"] for c in counts["src"].values())
    if args.json:
        print(json.dumps({"counts": counts, "differ": differ}, indent=1))
        return int(failed)
    for tree, by_set in counts.items():
        print_counts(tree, by_set)
    for name, rows in differ.items():
        print(f"{name}: {len(rows)} of {counts['src'][name]['rows']} rows differ")
        for row in rows:
            print(f"  {row['row']}  maps {row['maps_old']} -> {row['maps_new']}"
                  f"  p_avg {row['p_avg_old']:.12g} moved {row['p_avg_move']:+.2e}")
    if failed:
        print(f"rows at the map cap or above {TARGET:g} in the measured tree")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
