"""Spans around calls into the wec_satlin layers, recorded from outside the package.

``Tracer.install`` replaces every traced function at each module-global name
bound to it, in every loaded ``wec_satlin`` module: the package namespace,
the defining module and every module that imported it by name.  Calls the
package makes between its own modules therefore go through the wrapper too
(``cli.simulate`` and the ``simulate`` global that ``validate_df`` calls are
both wrapped).  ``Tracer.restore`` puts the originals back.  The bindings are
found once, when the tracer is built.

Modules are looked up in ``sys.modules``: the attribute ``wec_satlin.simulate``
is the function, because the package ``__init__`` shadows the submodule.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples and
written out by ``Tracer.write`` once the run is over.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

PACKAGE = "wec_satlin"

# layer -> public functions whose calls are timed
TRACED = {
    "config": ("load_config",),
    "wec": ("thevenin_from_plant", "nondim_from_plant", "constraint_amplitudes"),
    "mismatch": (
        "matched_baseline",
        "smith_grid",
        "pareto_front",
        "gamma_for_amplitude_target",
    ),
    "descfcn": (
        "solve_operating_point",
        "classic_sidf_power",
        "linear_saturation_equivalent",
        "equivalent_z",
        "saturation_factor",
    ),
    "simulate": ("simulate", "validate_df", "dump_waveforms", "low_pass_merit"),
    "cli": ("main", "write_csv"),
    "svg": ("smith_svg", "pareto_svg", "fsat_svg"),
}

OP = "op"  # span name of one workload operation
MAX_SPANS = 100_000  # a traced loop stops at the first operation boundary past this


def _file_size(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0]))}


def _csv_size(args, kwargs, result):
    """Bytes and data cells (rows after the header times columns) of a written CSV."""
    with open(kwargs.get("path", args[0]), "rb") as fh:
        data = fh.read()
    header, _, body = data.partition(b"\n")
    return {"bytes": len(data), "cells": body.count(b"\n") * (header.count(b",") + 1)}


def _solve_info(args, kwargs, result):
    return {"iterations": result.iterations}


def _validate_info(args, kwargs, result):
    return {"saturated": bool(result.saturated), "rel_err_power": result.rel_err_power}


class Tracer:
    """Wraps the traced functions and collects one span per call.

    Build it after the package is imported; ``install`` and ``restore`` then
    only swap the bindings it found.
    """

    def __init__(self):
        self.spans: list = []
        self.extra: dict[int, dict] = {}
        self.op_id = -1
        self._stack = [-1]
        self.missing: list[str] = []
        observers = self._observers()
        wrappers = {}  # id(original) -> wrapper
        for layer, names in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:  # gone from the package: its metrics read 0
                    self.missing.append(f"{layer}.{name}")
                    continue
                qualname = f"{layer}.{name}"
                wrappers[id(fn)] = self._wrap(qualname, fn, observers.get(qualname))
        self._bindings = []  # (module, attribute, original, wrapper)
        for key, module in list(sys.modules.items()):
            if key == PACKAGE or key.startswith(PACKAGE + "."):
                for attr, value in vars(module).items():
                    if id(value) in wrappers:
                        self._bindings.append((module, attr, value, wrappers[id(value)]))

    def _observers(self):
        sim_mod = sys.modules[f"{PACKAGE}.simulate"]
        simulate_sig = inspect.signature(sim_mod.simulate)

        def simulate_info(args, kwargs, result):
            bound = simulate_sig.bind(*args, **kwargs)
            cfg = bound.arguments.get("cfg") or sim_mod.SimConfig()
            return {
                "steps": cfg.n_periods * cfg.steps_per_period,
                "converged": bool(result.converged),
            }

        return {
            "cli.write_csv": _csv_size,
            "svg.smith_svg": _file_size,
            "svg.pareto_svg": _file_size,
            "svg.fsat_svg": _file_size,
            "descfcn.solve_operating_point": _solve_info,
            "simulate.simulate": simulate_info,
            "simulate.validate_df": _validate_info,
        }

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _wrap(self, qualname, fn, observe):
        spans = self.spans
        stack = self._stack
        extra = self.extra
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (qualname, t0, t1, parent, self.op_id)
            if observe is not None:
                extra[sid] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        sid = len(self.spans)
        self.spans.append((OP, time.perf_counter(), None, -1, op_id))
        self._stack.append(sid)

    def end_op(self) -> None:
        sid = self._stack.pop()
        name, t0, _, parent, op_id = self.spans[sid]
        self.spans[sid] = (name, t0, time.perf_counter(), parent, op_id)
        self.op_id = -1

    @property
    def full(self) -> bool:
        return len(self.spans) >= MAX_SPANS

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for sid, (name, t0, t1, parent, op_id) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": t0, "end": t1,
                       "parent": parent, "op": op_id}
                if sid in self.extra:
                    rec["extra"] = self.extra[sid]
                fh.write(json.dumps(rec) + "\n")


class Totals:
    """Per-name call counts, busy time and self time of the spans inside operations."""

    def __init__(self, spans: list, extra: dict):
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.extras: dict[str, list] = {}
        for sid, (name, t0, t1, _, op_id) in enumerate(spans):
            if op_id < 0:
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + (t1 - t0)
            self.self_time[name] = self.self_time.get(name, 0.0) + (t1 - t0 - child[sid])
            if sid in extra:
                self.extras.setdefault(name, []).append(extra[sid])
        self.n_ops = self.calls.get(OP, 0)

    def per_op(self, table: dict, name: str) -> float:
        return table.get(name, 0) / self.n_ops if self.n_ops else 0.0

    def extra_sum(self, name: str, key: str) -> float:
        return sum(e[key] for e in self.extras.get(name, ()))
