"""Distance and precedence matrices by 1-based vertex id, and their files.

Both are allocated once at full (n+1) x (n+1) (row/col 0 unused) and
filled in place by the pipeline (see solver.solve).  Distances are exact
int64 integers; a pair with no path holds UNREACHED.

A matrix file (README "Matrix files") has '#' header lines, then one line
per row of space-separated cells: decimal digits, or INF for the missing
value (an infinite distance or an UNSET predecessor).  Both directions run
numpy over blocks of rows, never Python per cell.  The writer splits each
cell into base-10**4 chunks and gathers one 4-byte ASCII word per chunk
from a table, NUL-padding the leading chunk, INF and the separators; one
bytes.translate then drops every NUL.  It refuses negative cells.  The
reader encodes a block's lines as one ASCII byte string and refuses it when
a byte other than a digit, I, N, F, a blank or a newline is left.  Tokens
start and end where the bytes change between separator (<= 32) and not;
each line must hold `order` of them.  A cell is summed from one gather per
digit column, counted back from its token's end, and a token holding a
letter must be exactly INF, the missing value.  A refused block is parsed
again line by line to name the first bad line.
"""

from __future__ import annotations

import functools
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
        """The distance from i to j, or INF when there is no path."""
        if not (1 <= i <= self.order and 1 <= j <= self.order):
            raise IndexError(f"pair ({i},{j}) has an id outside 1..{self.order}")
        v = int(self.cells[i, j])
        return INF if v == UNREACHED else v


class PrecedenceMatrix:
    __slots__ = ("order", "cells")

    def __init__(self, order: int):
        self.order = order
        self.cells = np.zeros((order + 1, order + 1), dtype=np.int32)


# -- text serialization --------------------------------------------------

_BLOCK_CELLS = 1 << 16  # cells in the block of rows held at a time
_CHUNK = 10_000  # cells are written in base-10**4 chunks, one 4-byte word each
_NUL, _INF, _SP, _NL = range(2 * _CHUNK, 2 * _CHUNK + 4)  # word indices past the chunks
_LINE = re.compile(r"^.*$", re.MULTILINE)
_ORDER = re.compile(r"#\s*n\s+([0-9]+)")


@functools.cache
def _words() -> np.ndarray:
    """The uint32 words, four ASCII bytes each, that cells are gathered from.

    Word k < C (C = 10**4) is chunk k zero-padded ("0042"), for a chunk
    behind its cell's leading one; word C + k is chunk k NUL-padded
    ("\\0\\042"), for the leading chunk, 0 as "\\0\\0\\0" "0".  Then come the
    all-NUL word, INF, " " and "\\n", NUL-padded too.  Built on the first
    write, not at import.
    """
    k = np.arange(_CHUNK)[:, None]
    digits = (k // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    lead = digits * (k >= [1000, 100, 10, 0])  # a digit before the first nonzero one is NUL
    extra = np.frombuffer(b"\0\0\0\0\0INF\0\0\0 \0\0\0\n", np.uint8).reshape(4, 4)
    words = np.concatenate([digits, lead, extra]).view(np.uint32).ravel()
    words.flags.writeable = False
    return words


def _write_cells(cells: np.ndarray, order: int, kind: str, out: IO[str],
                 missing) -> None:
    body = cells[1:, 1:]
    if body.size and body.min() < 0:
        i, j = np.argwhere(body < 0)[0] + 1
        raise ValueError(f"{kind} cell ({i},{j}) is negative: {body[i - 1, j - 1]}")
    words = _words()
    ids = " ".join(map(str, range(1, order + 1)))
    out.write(f"# graphshrink {kind} matrix\n# n {order}\n# ids {ids}\n")
    step = _BLOCK_CELLS // (order + 1) + 1
    for lo in range(1, order + 1, step):
        unset = cells[lo:lo + step, 1:] == missing
        values = np.where(unset, 0, cells[lo:lo + step, 1:])
        width = (len(str(values.max())) + 3) // 4  # 4-digit chunks in the widest cell
        # each cell is `width` chunk words and a separator word; chunk j
        # from the right is high % C for high = value // C**j, leading when
        # high < C and all NUL when high is 0 (j > 0)
        chunks = np.empty(values.shape + (width + 1,), np.uint32)
        high = values
        for j in range(width):
            if j:
                high = high // _CHUNK
            if j == width - 1:  # every high < C: a leading chunk, or NUL
                index = high + _CHUNK
            else:
                index = np.where(high < _CHUNK, high + _CHUNK, high % _CHUNK)
            if j == 0:
                index[unset] = _INF
            else:
                index[high == 0] = _NUL
            chunks[..., width - 1 - j] = words[index]
        chunks[..., width], chunks[:, -1, width] = words[_SP], words[_NL]
        # one C pass drops every NUL byte of padding
        out.write(chunks.tobytes().translate(None, b"\0").decode("ascii"))


def write_distance_matrix(m: DistanceMatrix, out: IO[str]) -> None:
    _write_cells(m.cells, m.order, "distance", out, UNREACHED)


def write_precedence_matrix(p: PrecedenceMatrix, out: IO[str]) -> None:
    _write_cells(p.cells, p.order, "precedence", out, UNSET)


def _parse(lines: list[str], dest: np.ndarray, missing) -> bool:
    """Parse `lines` into the cells `dest`, INF as `missing`; False, with
    dest left as it was, when a line does not hold dest.shape[1] cells that
    are each INF or digits below dest's dtype maximum."""
    data = ("\n" + "\n".join(lines) + "\n").encode("ascii", "replace")  # non-ASCII: "?"
    letters = data.translate(None, b"0123456789 \t\n")
    if letters.translate(None, b"INF"):
        return False
    raw = np.frombuffer(data, np.uint8)
    sep = raw <= 32
    # data opens and closes with a separator, so the edges alternate: a
    # token's first byte, then the byte after its last
    starts, ends = (np.flatnonzero(sep[1:] != sep[:-1]) + 1).reshape(-1, 2).T
    newlines = np.cumsum([0] + [len(line) + 1 for line in lines])
    if (np.diff(np.searchsorted(starts, newlines)) != dest.shape[1]).any():
        return False
    lengths = ends - starts
    width = int(lengths.max())
    if width > 19:  # a digit before a token's last 19 must be a leading zero
        nonzero = np.cumsum(raw != ord("0"))
        if (nonzero[np.maximum(ends - 19, starts) - 1] != nonzero[starts - 1]).any():
            return False
    # one gather per digit column, counted back from each token's end
    kind = np.uint64 if width >= 19 else np.int64  # 19 digits stay below 2**64, not 2**63
    zero, last = np.uint8(ord("0")), ends - 1
    values = (raw[last] - zero).astype(kind)
    for k in range(1, min(width, 19)):
        digit = raw[last - k] - zero
        digit *= lengths > k
        values += np.multiply(digit, kind(10 ** k), dtype=kind)  # not uint8 under NumPy 1
    if values.max() >= kind(np.iinfo(dest.dtype).max):
        return False
    if letters:  # every token holding a letter must be exactly INF
        three = np.flatnonzero(lengths == 3)
        at = starts[three]
        inf = three[(raw[at] == ord("I")) & (raw[at + 1] == ord("N")) & (raw[at + 2] == ord("F"))]
        if 3 * len(inf) != len(letters):
            return False
        values[inf] = missing
    dest[...] = values.reshape(dest.shape)
    return True


def _store_rows(dest: np.ndarray, rows: list[tuple[int, str]], missing) -> None:
    """Parse (line number, line) `rows` into the cells `dest`."""
    if not _parse([line for _, line in rows], dest, missing):
        lineno = next((k for k, line in rows if not _parse([line], dest[:1], missing)),
                      rows[-1][0])
        raise ValueError(f"line {lineno}: expected {dest.shape[1]} cells, each INF or digits "
                         f"below {np.iinfo(dest.dtype).max} (malformed or out of range)")


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
