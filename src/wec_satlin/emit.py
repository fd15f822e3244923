"""Emission: CSV text, and :func:`write_text`, the one place a file is written.

CSV output is deterministic: fixed column order, lowercase snake_case
headers, floats at 12 significant digits, complex values split into paired
``_re``/``_im`` columns.  Identical configuration produces byte-identical
files.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["fmt", "tag", "write_csv", "write_text"]


def fmt(value) -> str:
    """Deterministic scalar formatting: floats at 12 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def tag(value) -> str:
    """File-name tag of a swept value: its :func:`fmt` text with ``.`` as
    ``p`` and ``-`` as ``m``.  Values whose text differs get different tags."""
    return fmt(value).replace(".", "p").replace("-", "m")


def _column_cells(column) -> tuple[str | None, object]:
    """printf spec and cell values of one CSV column.

    A list of ``str`` prints as ``%s``; a scalar, the same on every row, has
    its :func:`fmt` text in the spec and no cells.  A boolean column has no
    spec and its array as cells: :func:`_format_rows` prints it together with
    its boolean neighbours.  Otherwise integer dtypes print as ``%d`` and
    floats as ``%.12g``, the text :func:`fmt` gives each cell (``inf``,
    ``nan`` and ``-0`` included); any other column goes through :func:`fmt`
    cell by cell.
    """
    if isinstance(column, list) and set(map(type, column)) <= {str}:
        return "%s", column
    arr = np.asarray(column)
    if arr.ndim == 0:
        return fmt(column).replace("%", "%%"), None
    if arr.dtype.kind == "b":
        return None, arr
    if arr.dtype.kind in "iu":
        return "%d", arr.tolist()
    if arr.dtype.kind == "f":
        return "%.12g", arr.tolist()
    return "%s", [fmt(v) for v in column]


_BOOL_RUN = 8  # most boolean columns per cell; the text table has 2**k entries


def _bool_cells(run) -> list[str]:
    """One text cell per row for adjacent boolean columns, such as ``0,1``.

    A row's bits, packed into one index, pick its text from the table of the
    2**k joins of ``0`` and ``1``.
    """
    packed = np.zeros(len(run[0]), dtype=np.intp)
    for bits in run:
        packed = packed << 1 | bits
    table = [",".join(t) for t in itertools.product("01", repeat=len(run))]
    return np.array(table, dtype=object)[packed].tolist()


def _format_rows(columns) -> str:
    """Text of ``columns``, one line per row, formatted column-wise.

    One row template built from the column kinds is applied to all cells in
    a single ``%``, so the bytes match a per-cell :func:`fmt` join.  Each run
    of adjacent boolean columns, up to ``_BOOL_RUN`` of them, is one ``%s``
    cell taken from :func:`_bool_cells`.
    """
    kinds = list(map(_column_cells, columns))
    if len({len(cells) for _, cells in kinds if cells is not None}) != 1:
        raise ValueError("CSV columns differ in length, or none holds cells")
    specs, cells = [], []
    for boolean, run in itertools.groupby(kinds, lambda kind: kind[0] is None):
        run = list(run)
        if not boolean:
            specs += [spec for spec, _ in run]
            cells += [values for _, values in run if values is not None]
            continue
        for k in range(0, len(run), _BOOL_RUN):
            specs.append("%s")
            cells.append(_bool_cells([bits for _, bits in run[k:k + _BOOL_RUN]]))
    row = ",".join(specs) + "\n"
    return row * len(cells[0]) % tuple(itertools.chain.from_iterable(zip(*cells)))


def write_csv(path: str, header: list[str], columns) -> None:
    """Write ``columns`` under ``header``; see :func:`_column_cells` for the kinds."""
    write_text(path, ",".join(header) + "\n" + _format_rows(columns))


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``\\n`` line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
