"""Distance and precedence matrices by 1-based vertex id, and their files.

Both are allocated once at full (n+1) x (n+1) (row/col 0 unused) and
filled in place by the pipeline (see solver.solve).  Distances are exact
int64 integers; a pair with no path holds UNREACHED.

A matrix file (README "Matrix files") has '#' header lines, then one line
per row of space-separated cells: decimal digits, or INF for the missing
value (an infinite distance or an UNSET predecessor).  Both directions run
numpy over blocks of rows, never Python per cell.
"""

from __future__ import annotations

import re
from typing import IO

import numpy as np

from .graph import INF

#: PrecedenceMatrix cell value meaning "no stored predecessor": the path's
#: last hop is the direct edge from the row vertex.  Vertex ids are 1-based
#: so 0 is free.
UNSET = 0

#: DistanceMatrix cell of a pair with no path between them (2**63 - 1).
UNREACHED = np.iinfo(np.int64).max


class DistanceMatrix:
    __slots__ = ("order", "cells")

    def __init__(self, order: int):
        self.order = order
        self.cells = np.full((order + 1, order + 1), UNREACHED, dtype=np.int64)
        np.fill_diagonal(self.cells, 0)

    def get(self, i: int, j: int):
        v = int(self.cells[i, j])
        return INF if v == UNREACHED else v

    def set(self, i: int, j: int, value) -> None:
        self.cells[i, j] = UNREACHED if value == INF else value


class PrecedenceMatrix:
    __slots__ = ("order", "cells")

    def __init__(self, order: int):
        self.order = order
        self.cells = np.zeros((order + 1, order + 1), dtype=np.int32)

    def get(self, i: int, j: int) -> int:
        """Predecessor id, or UNSET (0)."""
        return int(self.cells[i, j])

    def set(self, i: int, j: int, value: int) -> None:
        self.cells[i, j] = value


# -- text serialization --------------------------------------------------

_BLOCK_CELLS = 1 << 16  # cells in the block of rows held at a time
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # digits = 1 + powers reached
_ROW_CHARS = str.maketrans(dict.fromkeys("0123456789INF \t"))  # translate drops these
_LINE = re.compile(r"^.*$", re.MULTILINE)
_ORDER = re.compile(r"#\s*n\s+([0-9]+)")


def _write_cells(cells: np.ndarray, order: int, kind: str, out: IO[str],
                 missing) -> None:
    ids = " ".join(map(str, range(1, order + 1)))
    out.write(f"# graphshrink {kind} matrix\n# n {order}\n# ids {ids}\n")
    step = _BLOCK_CELLS // (order + 1) + 1
    for lo in range(1, order + 1, step):
        unset = cells[lo:lo + step, 1:] == missing
        values = np.where(unset, 0, cells[lo:lo + step, 1:]).astype(np.int64)
        digits = np.where(unset, 3, np.searchsorted(_POW10, values, side="right") + 1)
        # right-align each cell in `width` bytes plus a separator, then keep
        # only the cell's own digits and its separator
        width = max(int(digits.max()), 3)
        chars = np.empty(values.shape + (width + 1,), np.uint8)
        for col in range(width - 1, -1, -1):
            values, chars[..., col] = np.divmod(values, 10)
        chars += ord("0")
        chars[unset, width - 3:width] = np.frombuffer(b"INF", np.uint8)
        chars[..., width], chars[:, -1, width] = ord(" "), ord("\n")
        keep = np.arange(width + 1) >= width - digits[..., None]
        out.write(chars[keep].tobytes().decode("ascii"))


def write_distance_matrix(m: DistanceMatrix, out: IO[str]) -> None:
    _write_cells(m.cells, m.order, "distance", out, UNREACHED)


def write_precedence_matrix(p: PrecedenceMatrix, out: IO[str]) -> None:
    _write_cells(p.cells, p.order, "precedence", out, UNSET)


def _parse(lines: list[str], dest: np.ndarray):
    """`lines` as int64 cells shaped like `dest`, INF as -1; None when a
    cell is not digits or INF or reaches dest's dtype maximum."""
    if "".join(lines).translate(_ROW_CHARS):
        return None
    try:
        block = np.loadtxt([line.replace("INF", "-1") for line in lines], dtype=np.int64, ndmin=2)
    except ValueError:
        return None
    limit = np.iinfo(dest.dtype).max
    return block if block.shape == dest.shape and ((block >= -1) & (block < limit)).all() else None


def _store_rows(dest: np.ndarray, rows: list[tuple[int, str]], missing) -> None:
    """Parse (line number, line) `rows` into the cells `dest`."""
    block = _parse([line for _, line in rows], dest)
    if block is None:
        lineno = next((k for k, line in rows if _parse([line], dest[:1]) is None), rows[-1][0])
        raise ValueError(f"line {lineno}: expected {dest.shape[1]} cells, each INF or digits "
                         f"below {np.iinfo(dest.dtype).max} (malformed or out of range)")
    dest[...] = np.where(block < 0, missing, block)


def _read_cells(text: str, make, missing):
    m, rows, lineno = None, [], 0
    for lineno, match in enumerate(_LINE.finditer(text), 1):
        line = match.group().strip()
        header = _ORDER.fullmatch(line)
        if header and m is None:
            # a file of order n holds at least 2 n**2 characters: refuse a
            # header the text cannot fill before allocating for it
            if 2 * int(header[1]) ** 2 > len(text):
                raise ValueError(f"line {lineno}: the file is too short for order {header[1]}")
            m, done = make(int(header[1])), 0
        elif line and not line.startswith("#"):
            if m is None or done + len(rows) == m.order:
                raise ValueError(f"line {lineno}: row outside the '# n <order>' header's count")
            rows.append((lineno, line))
            if len(rows) * m.order >= _BLOCK_CELLS or done + len(rows) == m.order:
                _store_rows(m.cells[done + 1:done + 1 + len(rows), 1:], rows, missing)
                done, rows = done + len(rows), []
    if m is None or done != m.order:
        raise ValueError(f"line {lineno}: missing the '# n <order>' header or some of its rows")
    return m


def read_distance_matrix(text: str) -> DistanceMatrix:
    return _read_cells(text, DistanceMatrix, UNREACHED)


def read_precedence_matrix(text: str) -> PrecedenceMatrix:
    return _read_cells(text, PrecedenceMatrix, UNSET)
