"""Benchmark of wec-satlin: closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a source checkout; it imports the package from
the checkout's ``src`` directory and writes only under ``.perfbench_out`` at
the checkout root.  Workloads: sweep, verify, verify_reactive, scan (see
README.md beside this file).

With ``--trace 0`` it measures the untraced loop for ``--seconds`` and reports
the end-to-end metrics.  With ``--trace 1`` it traces every second operation
and reports the per-layer metrics and the tracing overhead; the spans go to
``.perfbench_out/trace-<workload>-<seed>.jsonl``.
Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  ``--tiny`` runs
the workloads at smoke-test sizes.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

from tracing import OP, Totals, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REQUIRED = (
    os.path.join("src", "wec_satlin", "__init__.py"),
    os.path.join("tests", "data", "golden.ini"),
    os.path.join("tests", "golden"),
)

SETUP_CHILDREN = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import wec_satlin, wec_satlin.cli; "
    "from wec_satlin.config import load_config; load_config(sys.argv[2])"
)
P90_MIN_OPS = 100  # ten samples beyond the 90th percentile

# per-operation call counts and busy times of single functions
_CALLS_AND_S = (
    "cli.write_csv",
    "mismatch.smith_grid",
    "mismatch.pareto_front",
    "mismatch.gamma_for_amplitude_target",
    "wec.thevenin_from_plant",
    "wec.nondim_from_plant",
    "wec.constraint_amplitudes",
    "descfcn.solve_operating_point",
    "descfcn.saturation_factor",
    "simulate.simulate",
)
# the per-layer metrics of a traced run, in output order
PER_LAYER = (
    (("config.load_config.s", "s"), ("cli.self_s", "s"))
    + tuple((f"{f}.{k}", u) for f in _CALLS_AND_S for k, u in (("calls", "count"), ("s", "s")))
    + (
        ("cli.csv_cells", "count"),
        ("cli.csv_bytes", "bytes"),
        ("cli.write_csv.us_per_cell", "us"),
        ("svg.smith_svg.s", "s"),
        ("svg.pareto_svg.s", "s"),
        ("svg.fsat_svg.s", "s"),
        ("svg.bytes", "bytes"),
        ("descfcn.solve_operating_point.iterations", "count"),
        ("descfcn.linear_saturation_equivalent.self_s", "s"),
        ("simulate.validate_df.s", "s"),
        ("simulate.validate_df.self_s", "s"),
        ("simulate.calls_per_row", "ratio"),
        ("simulate.us_per_step", "us"),
        ("simulate.dump_waveforms.s", "s"),
        ("simulate.converged_frac", "fraction"),
        ("simulate.unsat_rel_err", "fraction"),
        ("trace.op_p50_s", "s"),
        ("trace.untraced_op_p50_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.covered_frac", "fraction"),
    )
)


REF_EVERY_S = 0.25  # how often the loop samples the reference kernel
REF_REPEATS = 5  # kernel runs per sample, at least
REF_SHARE = 0.02  # and at least this share of the time since the last sample


def reference_s(min_seconds: float = 0.0) -> float:
    """Median wall time of a fixed Python-and-numpy kernel that calls nothing in the package.

    The kernel runs ``REF_REPEATS`` times, and more until ``min_seconds`` have
    passed.  The machine's speed drifts by tens of percent over seconds to
    minutes when it is shared; an operation's time divided by this time does not.
    """
    times = []
    start = time.perf_counter()
    while len(times) < REF_REPEATS or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(4000):
            acc += math.sqrt(k) * 0.5
        text = ",".join(f"{x:.12g}" for x in np.linspace(0.0, 1.0, 1000))
        a = np.arange(1000.0)
        for _ in range(50):
            a = np.sqrt(a + 1.0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Loop:
    """Outcome of one closed loop: operation times, items done, failures."""

    def __init__(self):
        self.times: list[float] = []  # untraced operations
        self.traced_times: list[float] = []
        self.rel: list[float] = []  # untraced times over the nearby reference time
        self.refs: list[float] = []  # reference samples, seconds
        self.items = 0
        self.failed = 0
        self._pending: list[float] = []
        self._sampled = 0.0

    def sample_reference(self) -> None:
        """Close the untraced operations since the last sample against the mean of both."""
        since = time.perf_counter() - self._sampled if self.refs else 0.0
        self.refs.append(reference_s(REF_SHARE * since))
        self._sampled = time.perf_counter()
        if len(self.refs) > 1:
            scale = 0.5 * (self.refs[-2] + self.refs[-1])
            self.rel.extend(t / scale for t in self._pending)
        self._pending.clear()

    def add(self, elapsed: float, traced: bool) -> None:
        if traced:
            self.traced_times.append(elapsed)
        else:
            self.times.append(elapsed)
            self._pending.append(elapsed)

    @property
    def attempted(self) -> int:
        return len(self.times) + len(self.traced_times)


def closed_loop(wl, seconds: float, tracer=None) -> Loop:
    """Run operations back to back until ``seconds`` have passed (at least one).

    With a tracer, every second operation is traced, so traced and untraced
    times interleave and see the same drift in machine speed.  The loop then
    runs until it has one of each, and stops early once the tracer is full.
    """
    loop = Loop()
    loop.sample_reference()
    until = time.perf_counter() + seconds
    k = 0
    while True:
        if time.perf_counter() - loop._sampled >= REF_EVERY_S:
            loop.sample_reference()
        traced = tracer is not None and k % 2 == 1
        arg = wl.next_input(k)
        if traced:
            tracer.install()
            tracer.begin_op(k)
        t0 = time.perf_counter()
        try:
            result = wl.op(arg)
            error = None
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.end_op()
            tracer.restore()
        loop.add(elapsed, traced)
        items = None
        if error is None:
            try:
                items = wl.check(arg, result)
            except (OSError, ValueError, IndexError):
                error = traceback.format_exc()
        wl.cleanup(arg)
        if items is None:
            loop.failed += 1
            if loop.failed <= 3:
                print(f"operation {k} failed" + (f":\n{error}" if error else ""),
                      file=sys.stderr)
        else:
            loop.items += items
        k += 1
        if tracer is None:
            done = time.perf_counter() >= until
        else:
            done = k >= 2 and (time.perf_counter() >= until or tracer.full)
        if done:
            loop.sample_reference()
            return loop


def setup_times(config_path: str, n: int) -> list[float]:
    """Wall time of fresh interpreters that import the package and load the config."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, config_path],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, check=False,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr.decode(errors='replace')}")
    return times


def git_sha(root: str) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tot, load_times: list, loop: Loop) -> dict:
    """Per-layer metrics from the traced spans.

    Counts and times are per operation, except ``config.load_config.s``: the
    median time of one config load, the in-process part of set-up.
    """
    n = tot.n_ops
    per = tot.per_op
    m = {}
    m["config.load_config.s"] = statistics.median(load_times)
    m["cli.self_s"] = per(tot.self_time, "cli.main")
    for f in _CALLS_AND_S:
        m[f"{f}.calls"] = per(tot.calls, f)
        m[f"{f}.s"] = per(tot.busy, f)
    cells = tot.extra_sum("cli.write_csv", "cells")
    m["cli.csv_cells"] = cells / n
    m["cli.csv_bytes"] = tot.extra_sum("cli.write_csv", "bytes") / n
    m["cli.write_csv.us_per_cell"] = (
        1e6 * tot.busy.get("cli.write_csv", 0.0) / cells if cells else 0.0
    )
    svgs = ("svg.smith_svg", "svg.pareto_svg", "svg.fsat_svg")
    for f in svgs:
        m[f"{f}.s"] = per(tot.busy, f)
    m["svg.bytes"] = sum(tot.extra_sum(f, "bytes") for f in svgs) / n
    m["descfcn.solve_operating_point.iterations"] = (
        tot.extra_sum("descfcn.solve_operating_point", "iterations") / n
    )
    m["descfcn.linear_saturation_equivalent.self_s"] = per(
        tot.self_time, "descfcn.linear_saturation_equivalent"
    )
    m["simulate.validate_df.s"] = per(tot.busy, "simulate.validate_df")
    m["simulate.validate_df.self_s"] = per(tot.self_time, "simulate.validate_df")
    sims = tot.calls.get("simulate.simulate", 0)
    rows = tot.calls.get("simulate.validate_df", 0)
    steps = tot.extra_sum("simulate.simulate", "steps")
    m["simulate.calls_per_row"] = sims / rows if rows else 0.0
    m["simulate.us_per_step"] = (
        1e6 * tot.busy.get("simulate.simulate", 0.0) / steps if steps else 0.0
    )
    m["simulate.dump_waveforms.s"] = per(tot.busy, "simulate.dump_waveforms")
    m["simulate.converged_frac"] = (
        tot.extra_sum("simulate.simulate", "converged") / sims if sims else 0.0
    )
    unsat = [e["rel_err_power"] for e in tot.extras.get("simulate.validate_df", ())
             if not e["saturated"]]
    m["simulate.unsat_rel_err"] = max(unsat) if unsat else 0.0
    m["trace.op_p50_s"] = statistics.median(loop.traced_times)
    m["trace.untraced_op_p50_s"] = statistics.median(loop.times)
    m["trace.overhead_s"] = m["trace.op_p50_s"] - m["trace.untraced_op_p50_s"]
    op_busy = tot.busy[OP]
    m["trace.covered_frac"] = (op_busy - tot.self_time[OP]) / op_busy
    return {name: _metric(m[name], unit) for name, unit in PER_LAYER}


def layer_table(tot) -> list[str]:
    op_s = tot.per_op(tot.busy, OP)
    lines = [f"{'traced function':44s} {'calls/op':>10s} {'s/op':>11s} "
             f"{'self s/op':>11s} {'of op':>7s}"]
    for name in sorted(tot.calls, key=lambda k: -tot.busy[k]):
        busy = tot.per_op(tot.busy, name)
        lines.append(f"{name:44s} {tot.per_op(tot.calls, name):10.4g} {busy:11.4g} "
                     f"{tot.per_op(tot.self_time, name):11.4g} {busy / op_s:7.1%}")
    return lines


def import_package() -> None:
    """Import wec_satlin from the checkout's own sources."""
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise FileNotFoundError(f"not a wec-satlin source checkout, missing {missing}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in ("wec_satlin", "wec_satlin.cli"):
        importlib.import_module(name)


def run(workload: str, seed: int, seconds: float, trace: int = 0,
        tiny: bool = False, report=print) -> dict:
    """Measure one workload and return the result object; ``report`` gets the text lines."""
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        wl = WORKLOADS[workload](ROOT, work, seed, tiny=tiny)
        wl.prepare()
        setup = [] if trace else setup_times(wl.config_path, SETUP_CHILDREN)
        checks = wl.once_checks()  # also warms up every code path the loop takes
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
            try:
                sys.modules["wec_satlin.config"].load_config(wl.config_path)
            finally:
                tracer.restore()
        try:
            loop = closed_loop(wl, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(checks) + loop.attempted
    failed = checks.count(False) + loop.failed
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "operations": len(loop.times),
        "traced_operations": len(loop.traced_times),
        "once_checks": len(checks),
        "attempted": attempted,
        "failed": failed,
    }
    report(f"perfbench {workload}: closed loop, one client, seed {seed}")
    if not trace:
        n = len(loop.times)
        op_time = sum(loop.times)
        p50 = statistics.median(loop.times)
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "op_p50_rel": _metric(statistics.median(loop.rel), "ref"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        p90 = statistics.quantiles(loop.times, n=10)[-1] if n >= P90_MIN_OPS else None
        for name, value, note in (
            ("setup_s", f"{metrics['setup_s']['value']:.4f} s",
             f"median of {len(setup)} fresh interpreters"),
            ("op_p50_s", f"{p50:.6g} s", f"{n} operations"),
            ("op_p50_rel", f"{metrics['op_p50_rel']['value']:.6g} ref",
             f"median of operation time / reference time; reference median "
             f"{statistics.median(loop.refs) * 1e3:.4g} ms over {len(loop.refs)} samples"),
            ("op_p90_s", "-" if p90 is None else f"{p90:.6g} s",
             f"reported only with >= {P90_MIN_OPS} operations"),
            (f"{wl.item}_per_s", f"{loop.items / op_time:.6g} {wl.item}/s",
             f"{loop.items} {wl.item} in {op_time:.3f} s of operation time"),
            ("peak_rss_mb", f"{peak_rss_mb:.1f} MB", "ru_maxrss of this process"),
            ("fail_frac", f"{failed / attempted:.4g} fraction",
             f"{failed} of {attempted} operations, {len(checks)} of them once-per-run checks"),
        ):
            report(f"  {name:14s} {value:24s} {note}")
        if n <= 30:
            report("  operation times, s: " + " ".join(f"{t:.4f}" for t in loop.times))
    else:
        tot = Totals(tracer.spans, tracer.extra)
        loads = [t1 - t0 for name, t0, t1, _, _ in tracer.spans if name == "config.load_config"]
        metrics = layer_metrics(tot, loads, loop)
        report(f"op_p50_s untraced {metrics['trace.untraced_op_p50_s']['value']:.6g} s "
               f"({len(loop.times)} ops), traced {metrics['trace.op_p50_s']['value']:.6g} s "
               f"({len(loop.traced_times)} ops, interleaved)")
        for line in layer_table(tot):
            report(line)
        if tracer.missing:
            report(f"not in the package, so not traced: {', '.join(tracer.missing)}")
        trace_path = os.path.join(OUT, f"trace-{workload}-{seed}.jsonl")
        tracer.write(trace_path, meta)
        report(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
    report("meta " + json.dumps(meta))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    try:
        import_package()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
