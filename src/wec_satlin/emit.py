"""Emission: CSV text, and :func:`write_text`, the one place a file is written.

CSV output is deterministic: fixed column order, lowercase snake_case
headers, floats at 12 significant digits, complex values split into paired
``_re``/``_im`` columns.  Identical configuration produces byte-identical
files.

Every cell's bytes are those of a per-cell :func:`fmt` join, ``'%.12g' % x``
for a float, but a table is built as ``uint8`` blocks of ``_CHUNK`` rows in
which NUL bytes are padding: a flag column is one byte, text and integer
columns are ``S`` arrays, a scalar is its text broadcast down the rows and
the separators are byte columns.  ``bytes.translate`` drops the NULs in one
pass; on a default Smith file a boolean mask took about four times as long.

The float cells of a block go to :func:`_float_cells` in one call.  A cell
takes the fast path when ``%.12g`` prints it in fixed notation, at a decimal
exponent e in [-4, 11].  The kernel takes e = floor(log10|x|) clipped to
that range, and p = |x| * 10**(11 - e) is then one correctly rounded
product, since 10**(11 - e) <= 1e15 is exact.  Rounding is monotonic and
every half-integer below 2**40 is a float, so p is never on the other side
of a half-integer than the exact product: ``rint(p)`` is the correctly
rounded 12-digit significand unless p is itself a half-integer.  That cell
falls back, as does every cell with p < 1e11 (e too high: ``log10`` read
one too high, or |x| < 1e-4; checked so that nothing rests on its
accuracy), with ``rint(p)`` >= 1e12 (e too low, |x| >= 1e12, or rounded up
into the next decade) or with p nan.  The significand, as an integer,
splits by floor division into three 4-digit groups, each a 1-D array.  The
trailing zeros of the fraction come from a table of 0000 to 9999 at the low
group; only the cells whose low group is 0000, found with one
``flatnonzero``, look up the middle and then the high group.  One gather
from a table keyed by (sign, e, significant digits) gives the cell's frame
-- the sign, ``0.`` and leading zeros, which digit slots are written
(trailing zeros stripped) and where the point goes -- and a bytewise AND of
each group's text, from a second table, into its 8-byte word of the frame
fills the digit slots.  Every lookup is an ``ndarray.take``.  On the
default Smith files (4,096-row blocks of five float columns) the kernel
takes about 34 ns a cell, against 58 with a strided (n, 4) array of groups
and trailing zeros counted in all three (medians of 40 interleaved runs;
Python 3.11, numpy 2.4, a shared 2-vCPU VM).  Every other cell -- 0 and -0,
the exponent form, inf, nan and the half-integer p -- is CPython's text, as
is every cell of a block below ``_KERNEL_MIN`` float cells.
"""

from __future__ import annotations

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


_CHUNK = 4096  # rows per block: bounds the kernel's temporaries at a few MB
_POW10 = 10.0 ** np.arange(16)
_WIDTH = 32  # bytes of a cell: a frame, or CPython's text of at most 19 bytes
# Below this many float cells in a block, CPython's text is as fast as the kernel's
# fixed cost or faster: 57-63 against 30-33 us at 64 cells, 52-73 against 60-68 at
# 128, 72-80 against 76-85 at 160 (Python 3.11, numpy 2.4, a shared 2-vCPU VM).
# Without this fork, `saturate` on tests/data/golden.ini (one 4-row table) runs
# 1.087 times as long (quartiles 1.045 and 1.132 over 200 in-process pairs).
_KERNEL_MIN = 128


def _quads() -> tuple[np.ndarray, np.ndarray]:
    """Text and trailing zeros of 0000 to 9999.

    Each number's text is one ``uint64`` of four (digit, 0xFF) byte pairs, the
    shape of a frame's digit slots.
    """
    pairs = np.array([divmod(k, 10) for k in range(100)], dtype=np.uint8) + ord("0")
    text = np.full((10000, 8), 0xFF, dtype=np.uint8)
    text[:, 0:4:2] = np.repeat(pairs, 100, axis=0)
    text[:, 4:8:2] = np.tile(pairs, (100, 1))
    two = (np.arange(100) % 10 == 0).astype(np.intp) + (np.arange(100) == 0)  # of 00 to 99
    trailing = two + (np.arange(100) == 0) * two[:, None]  # by (first pair, second pair)
    return text.view(np.uint64)[:, 0], trailing.reshape(-1)


def _frames() -> np.ndarray:
    """Text frame of a fast-path cell by (sign, e + 4, digits - 1), as bytes.

    The 8-byte head holds the sign, and ``0.`` and up to three zeros for
    e < 0; each of the twelve byte pairs after it a digit slot and a point slot.  A digit slot
    holds 0xFF where the digit is written and NUL where it is stripped; the
    point stands after digit e when a digit follows it.
    """
    sign, e, digits = np.ix_([0, 1], np.arange(-4, 12), np.arange(1, 13))
    frame = np.zeros((2, 16, 12, _WIDTH), dtype=np.uint8)
    frame[..., 0] = np.where(sign, ord("-"), 0)
    frame[..., 1:3] = np.where((e < 0)[..., None], np.frombuffer(b"0.", np.uint8), 0)
    frame[..., 3:6] = np.where(np.arange(3) < -e[..., None] - 1, ord("0"), 0)
    written = np.maximum(digits, e + 1)[..., None]
    frame[..., 8::2] = np.where(np.arange(12) < written, 0xFF, 0)
    point = (np.arange(12) == e[..., None]) & (digits > e + 1)[..., None]
    frame[..., 9::2] = np.where(point, ord("."), 0)
    return frame.reshape(-1).view(f"S{_WIDTH}")


# built once at import, about 0.2 ms together; never written to
_QUAD_TEXT, _QUAD_ZEROS = _quads()
_FRAMES = _frames()


def _fixed(values: np.ndarray):
    """The cells of ``values`` the fast path formats, their rounded 12-digit
    significands (any float elsewhere) and their exponents, clipped to [-4, 11]."""
    mag = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        exp = np.fmin(np.fmax(np.floor(np.log10(mag)), -4), 11).astype(np.intp)  # nan to -4
        scaled = mag * _POW10.take(11 - exp)
        sig = np.rint(scaled)
        fast = (np.abs(scaled - sig) != 0.5) & (scaled >= 1e11) & (sig < 1e12)
    return fast, sig, exp


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``'%.12g' % x`` of each of ``values`` as a row of ``_WIDTH`` bytes, NULs between."""
    fast, sig, exp = _fixed(values)
    slow = np.flatnonzero(~fast)
    sig[slow] = 1e11  # any valid significand: these cells are CPython's text
    sig = sig.astype(np.intp)
    top = sig // 10000
    high = top // 10000
    groups = high, top - high * 10000, sig - top * 10000
    trailing = _QUAD_ZEROS.take(groups[2])
    bare = np.flatnonzero(trailing == 4)  # low group 0000: carry into the middle and high
    if len(bare):
        carried = 4 + _QUAD_ZEROS.take(groups[1].take(bare))
        trailing[bare] = carried + (carried == 8) * _QUAD_ZEROS.take(high.take(bare))
    key = exp * 12 + 59 - trailing  # (sign * 16 + e + 4) * 12 + 11 - trailing, sign 0
    np.add(key, 192, out=key, where=np.signbit(values))
    cells = _FRAMES.take(key).view(np.uint64).reshape(-1, 4)
    for word, group in enumerate(groups, 1):  # word 0, the head, stays as it is
        cells[:, word] &= _QUAD_TEXT.take(group)  # bytewise: each digit slot & its digit
    cells = cells.view(np.uint8)
    if len(slow):
        cells[slow] = _cpython_cells(values[slow])
    return cells


def _cpython_cells(values: np.ndarray) -> np.ndarray:
    """``'%.12g' % x`` of each of ``values`` by CPython, as rows of ``_WIDTH`` bytes."""
    text = f"%-{_WIDTH}.12g" * len(values) % tuple(values.tolist())
    return np.frombuffer(text.encode().replace(b" ", b"\0"), np.uint8).reshape(-1, _WIDTH)


def _block(text: np.ndarray) -> np.ndarray:
    """An ``S`` array as a (rows, itemsize) block of ``uint8``."""
    text = np.ascontiguousarray(text)
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _column(column) -> tuple[np.ndarray, bool]:
    """One CSV column as float64 values or a block of cell bytes, and whether
    it is a scalar, whose one-row block stands for every row.

    A flag column is ``0`` or ``1``, and integer and ``S`` arrays are their
    text; any other column, text included, goes through :func:`fmt` cell by
    cell.
    """
    arr = np.asarray(column)
    if arr.ndim == 0:
        return _block(np.array([fmt(column).encode()])), True
    if arr.dtype.kind == "f":
        return arr.astype(np.float64, copy=False), False
    if arr.dtype.kind == "b":
        return (arr.astype(np.uint8) + ord("0"))[:, None], False
    if arr.dtype.kind in "iuS":
        return _block(arr.astype("S", copy=False)), False
    return _block(np.array([fmt(cell).encode() for cell in column], dtype="S")), False


def _row_blocks(columns, end: bytes = b"\n"):
    """The rows of ``columns`` as (rows, width) ``uint8`` blocks, ``_CHUNK``
    rows each: the cells NUL-padded to their column's width, separated by
    commas and followed by ``end``.  The float cells of a block are
    formatted in one :func:`_float_cells` call."""
    cols = [_column(column) for column in columns]
    lengths = {len(data) for data, scalar in cols if not scalar}
    if len(lengths) != 1:
        raise ValueError("CSV columns differ in length, or none holds cells")
    n_rows = lengths.pop()
    widths = [_WIDTH if data.ndim == 1 else data.shape[1] for data, _ in cols]
    starts = np.cumsum([0] + [w + 1 for w in widths])
    floats = [data for data, _ in cols if data.ndim == 1]
    for first in range(0, n_rows, _CHUNK):
        rows = slice(first, first + _CHUNK)
        block = np.zeros((min(_CHUNK, n_rows - first), starts[-1] - 1 + len(end)), np.uint8)
        if floats:
            flat = np.concatenate([values[rows] for values in floats])
            cells = _float_cells(flat) if len(flat) >= _KERNEL_MIN else _cpython_cells(flat)
            float_cells = iter(cells.reshape(len(floats), len(block), _WIDTH))
        for (data, scalar), start, width in zip(cols, starts, widths):
            block[:, start:start + width] = (
                next(float_cells) if data.ndim == 1 else data if scalar else data[rows])
        block[:, starts[1:-1] - 1] = ord(",")
        block[:, block.shape[1] - len(end):] = np.frombuffer(end, np.uint8)
        yield block


def _row_text(columns) -> np.ndarray:
    """The rows of ``columns`` as an ``S`` array of comma-joined cells, NUL
    padding included: a column :func:`write_csv` writes as it is."""
    block = np.concatenate(list(_row_blocks(columns, end=b"")))
    return block.view(f"S{block.shape[1]}")[:, 0]


def write_csv(path: str, header: list[str], columns) -> None:
    """Write ``columns`` under ``header``; see :func:`_column` for the kinds."""
    body = [block.tobytes().translate(None, b"\0") for block in _row_blocks(columns)]
    write_text(path, [",".join(header).encode() + b"\n", *body])


def write_text(path: str, chunks: list[bytes]) -> None:
    """Write the ``bytes`` of ``chunks`` to ``path`` in order.  Lines end in ``\\n``."""
    with open(path, "wb") as fh:
        fh.writelines(chunks)
