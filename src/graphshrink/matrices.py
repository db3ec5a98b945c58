"""Distance and precedence matrices by 1-based vertex id, and their files.

Both are allocated once at full (n+1) x (n+1) (row/col 0 unused) and
filled in place by the pipeline (see solver.solve).  Distances are exact
int64 integers; a pair with no path holds UNREACHED.

A matrix file (README "Matrix files") has '#' header lines, then one line
per row of space-separated cells: decimal digits, or INF for the missing
value (an infinite distance or an UNSET predecessor).  Both directions run
numpy over blocks of rows, never Python per cell.  The writer refuses a
negative cell before its first byte.  It splits each cell into as many
base-10**4 chunks as the block's widest cell needs, a missing cell
counting as one, and gathers each chunk as four ASCII bytes from a table,
NUL-padding the leading chunk and INF.  A cell is one record of
4 * chunks + 1 bytes: its chunk words, gathered straight into their
fields, and one byte for the blank behind it, "\\n" at a row's end.  One
bytes.translate then drops every NUL.

The reader finds each line end with str.find.  A line that starts with
anything but a blank, '#' or '\\r' is a row, taken without a copy; any
other line is classified once its blanks and a CRLF's '\\r' are stripped.
Rows are parsed a block at a time: the block's runs of consecutive row
lines are sliced from the text, joined behind a fixed pad of blanks and
encoded once, so a comment or blank line between rows does not cut the
block.  The block is refused when a byte other than a digit, I, N, F, a
blank, a newline or a '\\r' right before the newline is left.  The parse
keeps one index per token, its last byte: a byte above 32 right before a
separator (<= 32).  Each line must hold `order` of them.  Digit column k
of every token is gathered at that index in a view of the bytes that
starts k earlier, inside the pad.  A running mask keeps the tokens that
still have a byte in column k, so no token start or length is needed, and
the first column that no token reaches ends the loop.  The columns pair
up into uint8 values 0..99, widened into the narrowest unsigned type that
holds the block's widest token.  Only a block with a token of 20 bytes or
more finds its tokens' starts, to check that every byte before a token's
last 19 is a 0.  A token holding a letter must be exactly INF, the missing
value: an F behind I, N and a separator.  The same parse function, given
one row at a time, names the first bad line of a refused block.
"""

from __future__ import annotations

import functools
import re
from itertools import chain
from typing import IO

import numpy as np

from .graph import INF, Graph

#: PrecedenceMatrix cell value meaning "no stored predecessor": the path's
#: last hop is the direct edge from the row vertex.  Vertex ids are 1-based
#: so 0 is free.
UNSET = 0

#: DistanceMatrix cell of a pair with no path between them (2**63 - 1).
#: It is the one no-path value of every dense stage of solve: the
#: contraction's mirror, the residual's min-plus core, the replay and the
#: predecessor rule all add in uint64 (on a uint64 view of D's int64
#: cells), where two values of at most UNREACHED sum to at most
#: 2**64 - 2 and never wrap.  A result of UNREACHED or more does not fit
#: and is refused.  Every operand must be uint64: int64 + uint64 arrays
#: promote to float64.
UNREACHED = np.iinfo(np.int64).max


def fill_weights(g: Graph, w: np.ndarray) -> np.ndarray:
    """Write g's edge weights into the square matrix `w` over its present
    ids ascending, w[i, j] = w(ids[i], ids[j]), and return those ids; every
    other cell keeps what it holds.  A weight past int64 raises
    OverflowError before any write."""
    ids = np.array(sorted(g.adj), np.intp)
    rows = [g.adj[u] for u in ids.tolist()]
    vals = np.fromiter(chain.from_iterable(r.values() for r in rows), np.int64)
    keys = np.fromiter(chain.from_iterable(rows), np.intp, len(vals))
    w[np.repeat(np.arange(len(ids)), [len(r) for r in rows]), ids.searchsorted(keys)] = vals
    return ids


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
_NUL, _INF = range(2 * _CHUNK, 2 * _CHUNK + 2)  # word indices past the chunks
_PAD = 20  # blanks ahead of a block's rows: the separator before its first token, and
# room for the gather of each of 19 columns back from a token's last byte
_ORDER = re.compile(r"#\s*n\s+0*([0-9]+)")  # the order's digits past its leading zeros


@functools.cache
def _words() -> np.ndarray:
    """The uint32 words, four ASCII bytes each, that cells are gathered from.

    Word k < C (C = 10**4) is chunk k zero-padded ("0042"), for a chunk
    behind its cell's leading one; word C + k is chunk k NUL-padded
    ("\\0\\042"), for the leading chunk, 0 as "\\0\\0\\0" "0".  Then come the
    all-NUL word and INF, NUL-padded too.  The blank or newline behind a
    cell is not a word: it is the byte that ends the cell's record.  Built
    on the first write, not at import.
    """
    k = np.arange(_CHUNK)[:, None]
    digits = (k // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    lead = digits * (k >= [1000, 100, 10, 0])  # a digit before the first nonzero one is NUL
    extra = np.frombuffer(b"\0\0\0\0\0INF", np.uint8).reshape(2, 4)
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
        block = cells[lo:lo + step, 1:]
        unset = block == missing
        holes = unset.any()
        top = block.max()
        if top == missing:  # D's UNREACHED tops every cell; P's UNSET, 0, widens none
            top = np.max(block, where=~unset, initial=0)
        width = (len(str(top)) + 3) // 4  # 4-digit chunks in the widest cell
        # each cell is a (4 * width + 1)-byte record: its chunk words, the
        # last in "lo", then its separator.  Chunk j from the right is
        # high % C for high = value // C**j, leading when high < C and all
        # NUL when high is 0 (j > 0); a missing cell is NUL words and INF
        chunks = np.empty(block.shape, [("hi", np.uint32, (width - 1,)), ("lo", np.uint32),
                                        ("sep", np.uint8)])
        high = block
        for j in range(width):
            if j:
                high = high // _CHUNK
            if j == width - 1:  # high < C but in a missing cell: a leading chunk, or NUL
                index = high + _CHUNK
            else:
                index = np.where(high < _CHUNK, high + _CHUNK, high % _CHUNK)
            if j:
                index[high == 0] = _NUL
            if holes:
                np.copyto(index, _NUL if j else _INF, where=unset)
            # "clip" leaves out unbuffered: every index is already in range
            np.take(words, index, out=chunks["hi"][..., width - 1 - j] if j else chunks["lo"],
                    mode="clip")
        chunks["sep"] = ord(" ")
        chunks["sep"][:, -1] = ord("\n")
        # one C pass drops every NUL byte of padding
        out.write(chunks.tobytes().translate(None, b"\0").decode("ascii"))


def write_distance_matrix(m: DistanceMatrix, out: IO[str]) -> None:
    _write_cells(m.cells, m.order, "distance", out, UNREACHED)


def write_precedence_matrix(p: PrecedenceMatrix, out: IO[str]) -> None:
    _write_cells(p.cells, p.order, "precedence", out, UNSET)


def _parse(text: str, rows: list[tuple[int, int, int]], dest: np.ndarray, missing) -> bool:
    """Parse the (line number, start, stop) `rows` of `text`, each a row
    line's span with stop just past its "\\n" (or the text's end plus 1),
    into the cells `dest`, INF as `missing`.  False when a line does not
    hold dest.shape[1] cells that are each INF or digits below dest's dtype
    maximum; dest may then hold part of the block."""
    # rows on consecutive lines are sliced from the text as one run, which
    # lives only until the join
    cuts = [k for k in range(1, len(rows)) if rows[k][1] != rows[k - 1][2]]
    pieces = (text[rows[i][1]:rows[j - 1][2]] for i, j in zip([0, *cuts], [*cuts, len(rows)]))
    data = "".join([" " * _PAD, *pieces, "\n"]).encode("ascii", "replace")  # non-ASCII: "?"
    raw = np.frombuffer(data, np.uint8)
    newlines = np.cumsum([stop - start for _, start, stop in rows]) - 1  # in raw[_PAD:]
    letters = data.translate(None, b"0123456789 \t\n")  # "\r" must end a line, before "\n"
    # one index per token, its last byte in raw[_PAD:]: a byte above 32 right
    # before a separator (<= 32); data ends with "\n", so every token ends
    sep = raw <= 32
    at = np.flatnonzero(sep[_PAD + 1:] > sep[_PAD:-1])
    if (letters.translate(None, b"INF\r")
            or np.count_nonzero(raw[_PAD - 1:][newlines] == ord("\r")) != letters.count(b"\r")
            or (np.diff(np.searchsorted(at, newlines), prepend=0) != dest.shape[1]).any()):
        return False
    # digit column k of every token is gathered at that index in a view of
    # the bytes that starts k earlier, inside the pad.  `inside` keeps the
    # tokens that still have a byte in column k, so no token length is
    # needed, and the first column that no token reaches ends the loop.
    # Each even column and the next make one uint8 pair, 0..99
    zero, inside, pairs = np.uint8(ord("0")), np.ones(len(at), bool), []
    for k in range(20):
        digit = raw[_PAD - k:][at]
        inside &= digit > 32
        if k == 19 or not inside.any():
            break
        digit -= zero
        digit *= inside
        if k % 2:
            pairs[-1] += digit * np.uint8(10)
        else:
            pairs.append(digit)
    if inside.any():
        # a byte in column 19 marks a token of 20 bytes or more: only then
        # are the starts found, to check each byte before its last 19 is a 0
        nonzero = np.cumsum(raw != ord("0"))
        before = np.flatnonzero(sep[:-1] > sep[1:])
        if (nonzero[np.maximum(at + (_PAD - 19), before)] != nonzero[before]).any():
            return False
    # the pairs summed in the narrowest unsigned type that holds k digits
    kind = np.min_scalar_type(10 ** k - 1).type
    values = pairs[0].astype(kind)
    for j, pair in enumerate(pairs[1:], 1):
        values += np.multiply(pair, kind(100 ** j), dtype=kind)  # not uint8 under NumPy 1
    if int(values.max()) >= np.iinfo(dest.dtype).max:
        return False
    dest[...] = values.reshape(dest.shape)
    if letters:  # a token holding a letter must be exactly INF: an F behind I, N, a separator
        inf = np.flatnonzero(raw[_PAD:][at] == ord("F"))
        end = at[inf] + _PAD
        inf = inf[(raw[end - 3] <= 32) & (raw[end - 2] == ord("I")) & (raw[end - 1] == ord("N"))]
        dest.flat[inf] = missing
        return 3 * len(inf) + letters.count(b"\r") == len(letters)
    return True


def _store_rows(dest: np.ndarray, text: str, rows: list[tuple[int, int, int]], missing) -> None:
    """Parse the (line number, start, stop) `rows` of `text` into the cells
    `dest`, or name the first bad line."""
    if not _parse(text, rows, dest, missing):
        lineno = next((row[0] for row in rows if not _parse(text, [row], dest[:1], missing)),
                      rows[-1][0])
        raise ValueError(f"line {lineno}: expected {dest.shape[1]} cells, each INF or digits "
                         f"below {np.iinfo(dest.dtype).max} (malformed or out of range)")


def _read_cells(text: str, make, missing):
    m, rows, stop, lineno = None, [], 0, 0
    while stop <= len(text):
        pos, stop, lineno = stop, text.find("\n", stop) + 1 or len(text) + 1, lineno + 1
        row = text[pos:pos + 1] not in " \t#\r\n"  # not blank, not a comment: taken uncopied
        line = "" if row else text[pos:stop - 1].removesuffix("\r").strip(" \t")
        header = not row and _ORDER.fullmatch(line)  # only a non-row line can be '# n'
        if header and m is None:
            # a file of order n holds at least 2 n**2 characters: refuse a
            # header the text cannot fill before allocating for it, and an
            # order of 10 or more digits (2 * 10**18 characters) before
            # int() meets them (int() refuses past 4300 digits)
            if len(header[1]) > 9 or 2 * int(header[1]) ** 2 > len(text):
                raise ValueError(f"line {lineno}: the file is too short for its '# n' order")
            m, done = make(int(header[1])), 0
        elif row or line and not line.startswith("#"):
            if m is None or done + len(rows) == m.order:
                raise ValueError(f"line {lineno}: row outside the '# n <order>' header's count")
            rows.append((lineno, pos, stop))
            if len(rows) * m.order >= _BLOCK_CELLS or done + len(rows) == m.order:
                _store_rows(m.cells[done + 1:done + 1 + len(rows), 1:], text, rows, missing)
                done, rows = done + len(rows), []
    if m is None or done != m.order:
        raise ValueError(f"line {lineno}: missing the '# n <order>' header or some of its rows")
    return m


def read_distance_matrix(text: str) -> DistanceMatrix:
    return _read_cells(text, DistanceMatrix, UNREACHED)


def read_precedence_matrix(text: str) -> PrecedenceMatrix:
    return _read_cells(text, PrecedenceMatrix, UNSET)
