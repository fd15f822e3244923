"""Time CLI commands, or the benchmark's scan operation, of two source trees in one process.

Both trees are imported side by side, each under its own package name, and
their operations interleave: pair k runs OLD then NEW for even k and NEW
then OLD for odd k, so drift in the machine's speed falls on both alike.
Each operation runs every ``--command`` in turn, as
``cli.main([command, "--config", ini, "--out", dir])`` plus ``--svg`` when
given, with its console lines captured.  The script prints the median of the
per-pair time ratios NEW / OLD, their quartiles, how many pairs read lower,
with several commands each command's own median ratio, and whether every
output file and console line of the two trees is byte-identical.  Run from
the repository root, for example against an unpacked copy of an older commit:

    python tools/ab_inprocess.py OLD_SRC src --config tests/data/golden.ini \\
        --command verify -n 200

The ``sweep`` benchmark's operation is ``--command matched --command smith
--command pareto --command fsat --command saturate --svg``.

With ``--scan N`` an operation is instead the ``scan`` benchmark's operation
(``Scan.op`` of ``perfbench/workloads.py``, read and not changed) on each of
N designs drawn by its ``draw_design`` from ``--seed``, each on a plant
built afresh and untimed, as the benchmark does.  The untimed first
operation of each tree records the value of every package call the
operation makes, and the script prints whether all of them, with the plants
and the rows returned, are bit-identical:

    python tools/ab_inprocess.py OLD_SRC src --scan 20 -n 80

OLD_SRC and NEW_SRC are directories that hold the ``wec_satlin`` package
(a checkout's ``src``).  The exit status is 0 when the outputs are
byte-identical and 1 when they differ.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_module(name: str, path: Path, search: list[str] | None = None):
    """The module or package at ``path``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_package(src: str, alias: str):
    """The ``wec_satlin`` package in ``src``, imported as ``alias``."""
    init = Path(src, "wec_satlin", "__init__.py").resolve()
    return load_module(alias, init, [str(init.parent)])


def operation(cli, argvs: list[list[str]], out: Path) -> tuple[list[float], list[int], str]:
    """Seconds each CLI call took, their exit statuses and their console text."""
    console = io.StringIO()
    seconds, codes = [], []
    with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        for argv in argvs:
            start = time.perf_counter()
            codes.append(cli.main(argv + ["--out", str(out)]))
            seconds.append(time.perf_counter() - start)
    return seconds, codes, console.getvalue()


def outputs(out: Path) -> dict[str, bytes]:
    """Every file the operation wrote, by name."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class Recorder:
    """A package whose functions record each value they return, in call order."""

    def __init__(self, package):
        self.package, self.values = package, []

    def __getattr__(self, name):
        attr = getattr(self.package, name)
        if not callable(attr):
            return attr

        def recorded(*args, **kwargs):
            value = attr(*args, **kwargs)
            self.values.append((name, value))
            return value
        return recorded


def bits(value):
    """``value`` as nested tuples that compare equal only when every float in
    it has the same bits, whichever tree's classes built it."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple((key, bits(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(bits(item) for item in value)
    return "<callable>" if callable(value) else value


@contextlib.contextmanager
def installed(package):
    """``package`` as ``wec_satlin``, where the workloads look the package up."""
    saved = sys.modules.get("wec_satlin")
    sys.modules["wec_satlin"] = package
    try:
        yield
    finally:
        if saved is None:
            del sys.modules["wec_satlin"]
        else:
            sys.modules["wec_satlin"] = saved


def scan_operation(scan, package, designs: list[dict]) -> tuple[float, list]:
    """Seconds the scan operation took over every design, and its results."""
    with installed(package):
        plants = [package.haskind_plant(**design) for design in designs]
        start = time.perf_counter()
        rows = [scan.op(plant) for plant in plants]
        seconds = time.perf_counter() - start
    return seconds, plants + rows


def run_scan(args, packages) -> tuple[list[float], bool]:
    workloads = load_module("ab_perfbench_workloads", WORKLOADS)
    rng = np.random.default_rng(args.seed)
    designs = [workloads.draw_design(rng) for _ in range(args.scan)]
    scan = workloads.Scan(str(WORKLOADS.parent.parent), tempfile.gettempdir(), args.seed)
    # one untimed operation each warms both trees and records every call's value
    recorders = [Recorder(package) for package in packages]
    results = [scan_operation(scan, recorder, designs)[1] + recorder.values
               for recorder in recorders]
    identical = bits(results[0]) == bits(results[1])
    ratios = []
    for k in range(args.n):
        seconds = [0.0, 0.0]
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            seconds[side] = scan_operation(scan, packages[side], designs)[0]
        ratios.append(seconds[1] / seconds[0])
    return ratios, identical


def run_commands(args, packages) -> tuple[list[float], bool, list[list[float]]]:
    """Per-pair time ratios of the whole operation, whether the outputs are
    byte-identical, and per-pair time ratios of each command."""
    clis = [importlib.import_module(f"{package.__name__}.cli") for package in packages]
    cli_argvs = [[command, "--config", args.config] + ["--svg"] * args.svg
                 for command in args.command]
    ratios, by_command = [], []
    with tempfile.TemporaryDirectory() as work:
        dirs = [Path(work, "old"), Path(work, "new")]
        # one untimed operation each warms both trees and gives the outputs compared
        results = [operation(cli, cli_argvs, out) for cli, out in zip(clis, dirs)]
        identical = (results[0][1:] == results[1][1:]
                     and outputs(dirs[0]) == outputs(dirs[1]))
        for k in range(args.n):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            seconds = [[], []]
            for side in order:
                seconds[side] = operation(clis[side], cli_argvs, dirs[side])[0]
            ratios.append(sum(seconds[1]) / sum(seconds[0]))
            by_command.append([new / old for old, new in zip(*seconds)])
    return ratios, identical, by_command


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--config", help="INI config the command reads")
    parser.add_argument("--command", action="append",
                        help="CLI command, such as verify; repeat it to run several")
    parser.add_argument("--svg", action="store_true", help="pass --svg to every command")
    parser.add_argument("--scan", type=int, metavar="N",
                        help="time the scan benchmark's operation on N designs instead")
    parser.add_argument("--seed", type=int, default=0, help="seed of the --scan designs")
    parser.add_argument("-n", type=int, default=100, help="interleaved pairs (default 100)")
    args = parser.parse_args(argv)
    if args.scan is None and not (args.config and args.command):
        parser.error("give --config and --command, or --scan")
    if args.scan is not None and (args.config or args.command or args.svg or args.scan < 1):
        parser.error("--scan takes a positive count and no --config, --command or --svg")
    packages = (load_package(args.old_src, "wec_satlin_old"),
                load_package(args.new_src, "wec_satlin_new"))
    by_command = []
    if args.scan is None:
        ratios, identical, by_command = run_commands(args, packages)
        print(f"pairs {len(ratios)}  command {' '.join(args.command)}  config {args.config}")
    else:
        ratios, identical = run_scan(args, packages)
        print(f"pairs {len(ratios)}  scan {args.scan} designs  seed {args.seed}")
    if len(ratios) > 1:
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        print(f"time ratio new/old: median {median:.4f}  quartiles {q1:.4f} {q3:.4f}")
    elif ratios:
        print(f"time ratio new/old: {ratios[0]:.4f}")
    if ratios:
        print(f"pairs lower: {sum(ratio < 1.0 for ratio in ratios)}/{len(ratios)}")
    if by_command and len(args.command) > 1:
        medians = (statistics.median(pair[i] for pair in by_command)
                   for i in range(len(args.command)))
        print("by command, median new/old: " + "  ".join(
            f"{command} {median:.4f}" for command, median in zip(args.command, medians)))
    print(f"outputs byte-identical: {'yes' if identical else 'no'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
