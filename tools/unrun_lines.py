"""Print every executable line of the package sources that the Tier-1
suite never runs.

The suite runs in this process under :func:`sys.settrace` (and
:func:`threading.settrace`), which records the lines each source file
runs.  A line is executable when the line table of one of the file's code
objects names it (:meth:`types.CodeType.co_lines`, nested code objects
included), so docstrings, comments and blank lines never count.  Run from
the repository root with the package importable; arguments go to pytest:

    PYTHONPATH=src python tools/unrun_lines.py [pytest args]

The exit status is the suite's.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path


def code_lines(code: types.CodeType) -> set[int]:
    """Line numbers in the line tables of ``code`` and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line}  # None or 0: no line
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def main(argv: list[str]) -> int:
    root = Path("src").resolve()
    sources = {str(path): path for path in sorted(root.rglob("*.py"))}
    seen: dict[str, set[int]] = {name: set() for name in sources}
    owner: dict[str, set[int] | None] = {}  # co_filename -> its line set, or None

    def lines_of(code: types.CodeType) -> set[int] | None:
        name = code.co_filename
        if name not in owner:
            owner[name] = seen.get(os.path.realpath(name))  # as root: links resolved
        return owner[name]

    def trace(frame, event, arg):
        lines = lines_of(frame.f_code)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    import pytest  # imported before tracing starts; the package is not

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name, path in sources.items():
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        unrun = sorted(code_lines(compile(text, name, "exec")) - seen[name])
        total += len(unrun)
        for line in unrun:
            print(f"{path.relative_to(root.parent)}:{line}: {lines[line - 1].strip()}")
    print(f"{total} executable source lines never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
