"""Tests for the emission module: its scalar text, its float kernel against
CPython's ``'%.12g' %``, and that it is the only code in the package that
writes a file."""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wec_satlin import emit
from wec_satlin.config import RunConfig
from wec_satlin.emit import fmt
from wec_satlin.mismatch import smith_grid

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wec_satlin"


def write_opens(source: str) -> list[int]:
    """Lines of the ``open`` calls in ``source`` whose mode may write.

    ``open(file, mode)``, ``io.open`` and ``os.open`` take the mode second,
    a path's ``.open(mode)`` first.  A mode left out reads; one that is not
    a string literal counts as writing.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            index = 1
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            module = isinstance(func.value, ast.Name) and func.value.id in ("io", "os")
            index = 1 if module else 0
        else:
            continue
        modes = [kw.value for kw in node.keywords if kw.arg in ("mode", "flags")]
        mode = node.args[index] if len(node.args) > index else next(iter(modes), None)
        if mode is None:
            continue
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            lines.append(node.lineno)
        elif set(mode.value) & set("wax+"):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "call, writes",
    [
        ('open(p, "w")', True), ('open(p, mode="a", encoding="utf-8")', True),
        ('open(p, "r+")', True), ('open(p, "xb")', True), ("open(p, m)", True),
        ('io.open(p, "w")', True), ("os.open(p, os.O_WRONLY)", True),
        ('path.open("w")', True), ('path.open(mode="a")', True),
        ("open(p)", False), ('open(p, "r", encoding="utf-8")', False),
        ('open(p, "rb")', False), ("path.open()", False), ('io.open(p, "r")', False),
    ],
)
def test_detector_reads_the_mode(call, writes):
    assert write_opens(call) == ([1] if writes else [])


def test_only_the_emission_module_opens_a_file_for_writing():
    found = {path.name: write_opens(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "emit.py" in found and "cli.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {
        "emit.py": found["emit.py"]
    }
    assert len(found["emit.py"]) == 1


@pytest.mark.parametrize("value, text", [(12345678901234567, "12345678901234567"),
                                         (-3, "-3"), (1.0 / 3.0, "0.333333333333")])
def test_fmt_writes_integers_whole_and_floats_at_12_digits(value, text):
    assert fmt(value) == text


def kernel_text(values) -> list[str]:
    """The text :func:`emit._float_cells` gives each of ``values``, NULs dropped."""
    cells = emit._float_cells(np.asarray(values, dtype=np.float64).reshape(-1))
    return [bytes(cell).replace(b"\0", b"").decode() for cell in cells]


def percent_text(values) -> list[str]:
    return ["%.12g" % x for x in values]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_kernel_matches_percent_on_any_float(values):
    assert kernel_text(values) == percent_text(values)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(10**11, 10**12 - 1), st.floats(0.0, 1.0),
                          st.integers(-16, 1), st.booleans()), min_size=1, max_size=40))
def test_kernel_matches_percent_in_fixed_notation(parts):
    # twelve digits, a fraction and a scale: the fast path's range and its ties
    values = [(-1.0) ** neg * (digits + frac) * 10.0**scale
              for digits, frac, scale, neg in parts]
    assert kernel_text(values) == percent_text(values)


def edge_floats() -> list[float]:
    values = []
    for k in range(-5, 14):
        power = float(f"1e{k}")
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, math.inf)]
    for k in range(-16, 2):  # 12-digit ties, exact or as near as a float gets
        values += [123456789012.5 * 10.0**k, 999999999999.5 * 10.0**k]
    values += [123456789013.5, 1e-4, 9.99999999999e-5, 9.999999999995e-5, 1e12,
               999999999999.0, 999999999999.4, 999999999999.5, 0.0, 5e-324, math.inf,
               math.nan, 2.0**40, 1.0 / 3.0, 1200.0, 100.0, 0.1, 0.5]
    return values + [-x for x in values]


def test_kernel_matches_percent_on_edges():
    values = edge_floats()
    assert kernel_text(values) == percent_text(values)
    # the same cells, each alone, match too: the kernel keeps no state across cells
    assert [kernel_text([x])[0] for x in values] == percent_text(values)


def trailing_zero_floats() -> list[float]:
    """12-digit significands ending in k = 0 to 11 zeros at every exponent
    of fixed notation, both signs, each with its two float neighbours and
    the decimal half-units either side, where rounding adds or strips zeros."""
    values = []
    for digits in (123456789123, 987654321987):  # no zero digit before the trailing zeros
        for k in range(12):
            sig = digits // 10**k * 10**k
            for e in range(-4, 12):
                x = float(f"{sig}e{e - 11}")
                values += [x, np.nextafter(x, 0.0), np.nextafter(x, math.inf),
                           float(f"{sig}.5e{e - 11}"), float(f"{sig - 1}.5e{e - 11}")]
    return values + [-x for x in values]


def test_kernel_matches_percent_on_trailing_zeros():
    # uniform digits give a low group of 0000 about once in 1e4 draws and a
    # zero middle group too once in 1e8: the cells whose count carries upward
    values = trailing_zero_floats()
    assert kernel_text(values) == percent_text(values)


def test_fast_path_formats_most_of_the_default_smith_grid():
    cfg = RunConfig()
    fast = []
    for alpha in cfg.alphas:
        grid = smith_grid(alpha, cfg.smith_resolution, cfg.smith_angular)
        for values in (grid["gamma"].real, grid["gamma"].imag, grid["power_ratio"],
                       grid["v_ratio"], grid["i_ratio"]):
            fast.append(emit._fixed(values)[0])
    assert np.concatenate(fast).mean() >= 0.95
