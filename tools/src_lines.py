"""Print the physical and code line counts of the package sources.

A code line is one that holds a token other than a comment, a newline or
indentation, and that is not part of a docstring (a module, class or
function body's leading string, found with :mod:`ast`).  Run from the
repository root, or pass the source directory:

    python tools/src_lines.py [src]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) or not body:
            continue
        first = body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """``(physical, code)`` line counts of one source file."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = [0, 0]
    for path in sorted(root.rglob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total[0] += physical
        total[1] += code
        print(f"{physical:6d} {code:6d}  {path}")
    print(f"{total[0]:6d} {total[1]:6d}  total (physical, code)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
