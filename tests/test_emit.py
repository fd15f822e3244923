"""Tests for the emission module: its scalar text, and that it is the only code
in the package that writes a file."""

import ast
import pathlib

import pytest

from wec_satlin.emit import fmt

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
