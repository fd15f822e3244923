"""Smoke tests for the scripts in tools/."""

import importlib.util
import json
import math
import os
import sys

HERE = os.path.dirname(__file__)
ROOT = os.path.dirname(HERE)


def _tool(name):
    """The script ``tools/<name>.py`` imported as a module."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_inprocess_runs_one_tree_against_itself(capsys):
    src = os.path.join(ROOT, "src")
    ini = os.path.join(HERE, "data", "golden.ini")
    code = _tool("ab_inprocess").main([src, src, "--config", ini, "--command", "verify",
                                        "--command", "fsat", "--svg", "-n", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0].startswith("pairs 2  command verify fsat")
    median, q1, q3 = (float(word) for word in lines[1].split()[-4:] if word != "quartiles")
    assert q1 <= median <= q3 and median > 0.0
    lower, pairs = lines[2].removeprefix("pairs lower: ").split("/")
    assert 0 <= int(lower) <= int(pairs) == 2
    words = lines[3].removeprefix("by command, median new/old: ").split()
    assert words[0::2] == ["verify", "fsat"] and all(float(word) > 0.0 for word in words[1::2])
    assert lines[4] == "outputs byte-identical: yes"


def test_ab_inprocess_prints_no_command_medians_for_one_command(capsys):
    ini = os.path.join(HERE, "data", "golden.ini")
    src = os.path.join(ROOT, "src")
    code = _tool("ab_inprocess").main([src, src, "--config", ini, "--command", "saturate",
                                        "-n", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[1].startswith("time ratio new/old: ")
    assert lines[2] in ("pairs lower: 0/1", "pairs lower: 1/1")
    assert lines[3:] == ["outputs byte-identical: yes"]


def test_ab_inprocess_scans_one_tree_against_itself(capsys):
    src = os.path.join(ROOT, "src")
    code = _tool("ab_inprocess").main([src, src, "--scan", "3", "--seed", "1", "-n", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "pairs 2  scan 3 designs  seed 1"
    median, q1, q3 = (float(word) for word in lines[1].split()[-4:] if word != "quartiles")
    assert q1 <= median <= q3 and median > 0.0
    assert lines[2] in ("pairs lower: 0/2", "pairs lower: 1/2", "pairs lower: 2/2")
    assert lines[3] == "outputs byte-identical: yes"


def test_ab_inprocess_bits_tell_every_float_apart():
    bits = _tool("ab_inprocess").bits
    assert bits([1.0, {1: 0.5 + 0j}]) == bits([1.0, {1: 0.5 + 0j}])
    assert bits(0.0) != bits(-0.0)
    assert bits(complex(1.0, 0.0)) != bits(complex(1.0, -0.0))
    assert bits(1.0) != bits(math.nextafter(1.0, 2.0))


def test_referee_census_runs_one_set_against_its_own_tree(capsys):
    src = os.path.join(ROOT, "src")
    code = _tool("referee_census").main(["--set", "reactive", "--against", src])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == ("src: set  rows  maps  newton  searches  max residual  at cap"
                        "  above 1e-12")
    words = lines[1].split()
    # one map a row; every row crosses its switches and guard turns, 3 a
    # clipped row and 1 the unclipped one
    assert words[:3] == ["reactive", "4", "4"] and words[4] == "10"
    assert words[-2:] == ["0", "0"]
    assert float(words[5]) <= 1e-12
    assert lines[2].startswith(src) and lines[3] == lines[1]
    assert lines[4:] == ["reactive: 0 of 4 rows differ"]
    for alias in ("wec_satlin_census", "wec_satlin_against"):  # the counter is unwrapped
        assert sys.modules[alias + ".simulate"]._Loop.cross.__name__ == "cross"


def test_referee_census_prints_json(capsys):
    code = _tool("referee_census").main(["--set", "golden", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["differ"] == {}
    counts = out["counts"]["src"]["golden"]
    assert (counts["rows"], counts["maps"], counts["at_cap"]) == (3, 3, 0)
    assert counts["searches"] == 9  # two switches and a guard turn a row
    assert counts["newton_steps"] > 0 and counts["max_residual"] <= 1e-12
