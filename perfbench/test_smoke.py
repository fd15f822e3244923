"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a corrupted program output is counted as a failed operation, and that
the seed changes the scan inputs and nothing else.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

run.import_package()

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        item = WORKLOADS[workload].item
        names = ("setup_s", "op_p50_s", "op_p90_s", f"{item}_per_s", "peak_rss_mb", "fail_frac")
        report = "\n".join(lines)
        assert all(f"  {name} " in report for name in names)
        assert all(v["value"] > 0.0 for v in result["metrics"].values())


def _corrupt_sweep(monkeypatch):
    cli = sys.modules["wec_satlin.cli"]
    write_csv = cli.write_csv

    def write_then_append(path, header, rows):
        write_csv(path, header, rows)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("0\n")

    monkeypatch.setattr(cli, "write_csv", write_then_append)


def _corrupt_verify(monkeypatch):
    cli = sys.modules["wec_satlin.cli"]
    validate_df = cli.validate_df

    def failing(*args, **kwargs):
        return dataclasses.replace(validate_df(*args, **kwargs), passed=False)

    monkeypatch.setattr(cli, "validate_df", failing)


def _corrupt_scan(monkeypatch):
    pkg = sys.modules["wec_satlin"]
    classic = pkg.classic_sidf_power
    monkeypatch.setattr(pkg, "classic_sidf_power", lambda sol: 0.5 * classic(sol))


CORRUPT = {
    "sweep": _corrupt_sweep,
    "verify": _corrupt_verify,
    "verify_reactive": _corrupt_verify,
    "scan": _corrupt_scan,
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_output_raises_fail_frac(workload, trace, monkeypatch):
    clean = run.run(workload, 5, 0.1, trace, tiny=True, report=lambda line: None)
    assert clean["failed"] == 0
    CORRUPT[workload](monkeypatch)
    bad = run.run(workload, 5, 0.1, trace, tiny=True, report=lambda line: None)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] >= 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_only_scan_inputs(workload, tmp_path):
    one = WORKLOADS[workload](run.ROOT, str(tmp_path), 1).inputs()
    again = WORKLOADS[workload](run.ROOT, str(tmp_path), 1).inputs()
    other = WORKLOADS[workload](run.ROOT, str(tmp_path), 2).inputs()
    assert one == again
    assert (one != other) == WORKLOADS[workload].seeded
    assert WORKLOADS[workload].seeded == (workload == "scan")
