"""Time one CLI command of two source trees of the package in one process.

Both trees are imported side by side, each under its own package name, and
their operations interleave: pair k runs OLD then NEW for even k and NEW
then OLD for odd k, so drift in the machine's speed falls on both alike.
Each operation runs every ``--command`` in turn, as
``cli.main([command, "--config", ini, "--out", dir])`` plus ``--svg`` when
given, with its console lines captured.  The script prints the median of the
per-pair time ratios NEW / OLD, their quartiles, and whether every output
file and console line of the two trees is byte-identical.  Run from the
repository root, for example against an unpacked copy of an older commit:

    python tools/ab_inprocess.py OLD_SRC src --config tests/data/golden.ini \\
        --command verify -n 200

The ``sweep`` benchmark's operation is ``--command matched --command smith
--command pareto --command fsat --command saturate --svg``.

OLD_SRC and NEW_SRC are directories that hold the ``wec_satlin`` package
(a checkout's ``src``).  The exit status is 0 when the outputs are
byte-identical and 1 when they differ.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load_cli(src: str, alias: str):
    """The ``cli`` module of the package in ``src``, imported as ``alias``."""
    init = Path(src, "wec_satlin", "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{alias}.cli")


def operation(cli, argvs: list[list[str]], out: Path) -> tuple[float, list[int], str]:
    """Seconds the CLI calls took, their exit statuses and their console text."""
    console = io.StringIO()
    with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        start = time.perf_counter()
        codes = [cli.main(argv + ["--out", str(out)]) for argv in argvs]
        seconds = time.perf_counter() - start
    return seconds, codes, console.getvalue()


def outputs(out: Path) -> dict[str, bytes]:
    """Every file the operation wrote, by name."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--config", required=True, help="INI config the command reads")
    parser.add_argument("--command", required=True, action="append",
                        help="CLI command, such as verify; repeat it to run several")
    parser.add_argument("--svg", action="store_true", help="pass --svg to every command")
    parser.add_argument("-n", type=int, default=100, help="interleaved pairs (default 100)")
    args = parser.parse_args(argv)
    clis = (load_cli(args.old_src, "wec_satlin_old"), load_cli(args.new_src, "wec_satlin_new"))
    cli_argvs = [[command, "--config", args.config] + ["--svg"] * args.svg
                for command in args.command]
    ratios = []
    with tempfile.TemporaryDirectory() as work:
        dirs = [Path(work, "old"), Path(work, "new")]
        # one untimed operation each warms both trees and gives the outputs compared
        results = [operation(cli, cli_argvs, out) for cli, out in zip(clis, dirs)]
        identical = (results[0][1:] == results[1][1:]
                     and outputs(dirs[0]) == outputs(dirs[1]))
        for k in range(args.n):
            order = (0, 1) if k % 2 == 0 else (1, 0)
            seconds = [0.0, 0.0]
            for side in order:
                seconds[side] = operation(clis[side], cli_argvs, dirs[side])[0]
            ratios.append(seconds[1] / seconds[0])
    print(f"pairs {len(ratios)}  command {' '.join(args.command)}  config {args.config}")
    if len(ratios) > 1:
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        print(f"time ratio new/old: median {median:.4f}  quartiles {q1:.4f} {q3:.4f}")
    elif ratios:
        print(f"time ratio new/old: {ratios[0]:.4f}")
    print(f"outputs byte-identical: {'yes' if identical else 'no'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
