import io
import random
import re
import tracemalloc

import numpy as np
import pytest
from conftest import grid_graph, path_graph, random_connected_graph

import graphshrink.matrices as matrices
from graphshrink import INF, solve
from graphshrink.graph import MAX_WEIGHT
from graphshrink.matrices import (
    UNREACHED,
    UNSET,
    DistanceMatrix,
    PrecedenceMatrix,
    read_distance_matrix,
    read_precedence_matrix,
    write_distance_matrix,
    write_precedence_matrix,
)


def reference_write_cells(cells, order, kind, out, sentinel_value):
    """The original per-cell writer, kept as the byte-level reference."""
    out.write(f"# graphshrink {kind} matrix\n")
    out.write(f"# n {order}\n")
    out.write("# ids " + " ".join(str(i) for i in range(1, order + 1)) + "\n")
    for i in range(1, order + 1):
        row = cells[i, 1:]
        parts = ["INF" if v == sentinel_value else str(int(v)) for v in row]
        out.write(" ".join(parts) + "\n")


def reference_store_rows(dest, rows, missing):
    """The original np.loadtxt block parser of (line number, line) `rows`,
    kept as the reference for the block tokenizer's cells and refusal
    messages."""
    row_chars = str.maketrans(dict.fromkeys("0123456789INF \t"))

    def parse(lines, dest):
        if "".join(lines).translate(row_chars):
            return None
        try:
            block = np.loadtxt([line.replace("INF", "-1") for line in lines],
                               dtype=np.int64, ndmin=2)
        except ValueError:
            return None
        limit = np.iinfo(dest.dtype).max
        ok = block.shape == dest.shape and ((block >= -1) & (block < limit)).all()
        return block if ok else None

    block = parse([line for _, line in rows], dest)
    if block is None:
        lineno = next((k for k, line in rows if parse([line], dest[:1]) is None), rows[-1][0])
        raise ValueError(f"line {lineno}: expected {dest.shape[1]} cells, each INF or "
                         f"digits below {np.iinfo(dest.dtype).max} (malformed or out of range)")
    dest[...] = np.where(block < 0, missing, block)


_LINE = re.compile(r"^.*$", re.MULTILINE)
_ORDER = re.compile(r"#\s*n\s+([0-9]+)")


def reference_read_cells(text, make, missing):
    """The original line-by-line reader, with README's edge rule (only blanks
    and a line end's "\\r" are dropped), over reference_store_rows: the
    reference for the block scan's cells, refusals and line numbers."""
    m, rows, lineno = None, [], 0
    for lineno, match in enumerate(_LINE.finditer(text), 1):
        line = match.group().removesuffix("\r").strip(" \t")
        header = _ORDER.fullmatch(line)
        if header and m is None:
            if (len(header[1].lstrip("0")) > len(str(len(text)))
                    or 2 * int(header[1]) ** 2 > len(text)):
                raise ValueError(f"line {lineno}: the file is too short for its '# n' order")
            m, done = make(int(header[1])), 0
        elif line and not line.startswith("#"):
            if m is None or done + len(rows) == m.order:
                raise ValueError(f"line {lineno}: row outside the '# n <order>' header's count")
            rows.append((lineno, line))
            if len(rows) * m.order >= matrices._BLOCK_CELLS or done + len(rows) == m.order:
                reference_store_rows(m.cells[done + 1:done + 1 + len(rows), 1:], rows, missing)
                done, rows = done + len(rows), []
    if m is None or done != m.order:
        raise ValueError(f"line {lineno}: missing the '# n <order>' header or some of its rows")
    return m


def written(write, matrix) -> str:
    out = io.StringIO()
    write(matrix, out)
    return out.getvalue()


def hand_built() -> tuple[DistanceMatrix, PrecedenceMatrix]:
    m, p = DistanceMatrix(5), PrecedenceMatrix(5)
    for i, j, w in [(1, 2, 7), (2, 1, 7), (1, 3, 0), (3, 1, 0),
                    (4, 5, MAX_WEIGHT * 14999), (5, 4, 10)]:
        m.cells[i, j] = w
    p.cells[1, 3] = 2
    p.cells[4, 5] = 5
    return m, p


def solved(g):
    result = solve(g)
    return result.distances, result.precedence


def matrix_pairs():
    yield "grid16", solved(grid_graph(16))
    yield "random100", solved(random_connected_graph(100, 42))
    yield "zero-weight", solved(random_connected_graph(60, 3, wmax=0))
    yield "hand-built", hand_built()
    yield "order1", (DistanceMatrix(1), PrecedenceMatrix(1))


CASES = list(matrix_pairs())


FORMATS = {DistanceMatrix: (write_distance_matrix, read_distance_matrix, "distance", UNREACHED),
           PrecedenceMatrix: (write_precedence_matrix, read_precedence_matrix, "precedence",
                              UNSET)}


def assert_like_reference(matrix) -> str:
    """`matrix` written, after checking it against reference_write_cells."""
    write, _, kind, sentinel = FORMATS[type(matrix)]
    expected = io.StringIO()
    reference_write_cells(matrix.cells, matrix.order, kind, expected, sentinel)
    text = written(write, matrix)
    got, want = text.split("\n"), expected.getvalue().split("\n")
    # name the first differing line instead of diffing whole files
    bad = next((k for k, (a, b) in enumerate(zip(got, want), 1) if a != b), None)
    assert bad is None, f"{kind} line {bad}: {got[bad - 1][:200]!r} != {want[bad - 1][:200]!r}"
    assert len(got) == len(want), f"{kind}: {len(got)} lines, reference has {len(want)}"
    return text


def assert_same_bytes(m, p):
    for matrix in (m, p):
        assert_like_reference(matrix)


def assert_writes_like_reference_and_reads_back(matrix):
    read = FORMATS[type(matrix)][1]
    back = read(assert_like_reference(matrix))
    assert back.order == matrix.order and np.array_equal(back.cells[1:, 1:], matrix.cells[1:, 1:])


@pytest.mark.parametrize("m,p", [pair for _, pair in CASES], ids=[name for name, _ in CASES])
def test_writers_match_reference_bytes(m, p):
    assert_same_bytes(m, p)


def test_blocks_keep_bytes_and_bound_what_the_reader_parses(monkeypatch):
    # 64 cells per block gives 5 rows per block at order 13: three blocks,
    # the last one short
    monkeypatch.setattr(matrices, "_BLOCK_CELLS", 64)
    parsed_rows = []
    parse = matrices._parse
    monkeypatch.setattr(matrices, "_parse",
                        lambda text, rows, *args: parsed_rows.append(len(rows))
                        or parse(text, rows, *args))
    m, p = solved(random_connected_graph(13, 5))
    m.cells[2, 9] = UNREACHED
    m.cells[12, 3] = 123456789
    assert_same_bytes(m, p)
    assert np.array_equal(read_distance_matrix(written(write_distance_matrix, m)).cells, m.cells)
    assert np.array_equal(read_precedence_matrix(written(write_precedence_matrix, p)).cells,
                          p.cells)
    assert parsed_rows == [5, 5, 3] * 2


def with_row(matrix, row: int, values):
    matrix.cells[row, 1:len(values) + 1] = values
    return matrix


# cells at each chunk and digit-count boundary, beside the missing value
D_EDGES = [0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 2**63 - 2, UNREACHED]
P_EDGES = [9, 10, 9999, 10**4, 10**8 - 1, 10**8, 2**31 - 2, UNSET]
BOUNDARY_CASES = {
    "distance-edges": with_row(DistanceMatrix(len(D_EDGES)), 2, D_EDGES),
    "precedence-edges": with_row(PrecedenceMatrix(len(P_EDGES)), 2, P_EDGES),
    # ids of 10**4 and above; 10**8 and 100010000 have zero chunks behind the leading one
    "precedence-large-ids": with_row(
        with_row(PrecedenceMatrix(4), 1, [10**4, 10**4 + 1, 12345, 10**8 + 7]),
        4, [99999, 10**8, 100010000, 2**31 - 2]),
    "distance-zero-chunks": with_row(DistanceMatrix(4), 3, [10**16, 10**12 + 1, 0, 10**8 + 10**4]),
    "order1-distance": DistanceMatrix(1),
    "order1-precedence": PrecedenceMatrix(1),
    "order1-distance-huge": with_row(DistanceMatrix(1), 1, [2**63 - 2]),
    "order1-precedence-id": with_row(PrecedenceMatrix(1), 1, [10**4]),
}


@pytest.mark.parametrize("matrix", BOUNDARY_CASES.values(), ids=BOUNDARY_CASES.keys())
def test_writer_chunk_boundaries_match_reference_and_read_back(matrix):
    assert_writes_like_reference_and_reads_back(matrix)


def block_widths(monkeypatch, matrix) -> list[int]:
    """The chunks per cell of each block the writer allocates for `matrix`,
    read from the itemsize of its cell records (4 * chunks + 1 bytes), after
    checking the bytes against reference_write_cells."""
    widths, empty = [], np.empty
    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", lambda shape, dtype: widths.append(
            (np.dtype(dtype).itemsize - 1) // 4) or empty(shape, dtype))
        assert_like_reference(matrix)
    return widths


def test_each_block_takes_the_chunks_its_own_cells_need(monkeypatch):
    # order 4 with 8 cells per block holds 2 rows per block: rows 1-2 stay
    # below 10**4 (one chunk per cell), rows 3-4 reach 2**63 - 2 (five)
    monkeypatch.setattr(matrices, "_BLOCK_CELLS", 8)
    m = with_row(DistanceMatrix(4), 1, [0, 9999, 10, UNREACHED])
    with_row(m, 3, [2**63 - 2, 7, 0, 10**16])
    assert block_widths(monkeypatch, m) == [1, 5]
    assert_writes_like_reference_and_reads_back(m)
    # UNREACHED is a block's largest cell, yet INF takes one chunk
    assert block_widths(monkeypatch, with_row(DistanceMatrix(2), 1, [UNREACHED, 7])) == [1]


def fuzz_matrix(rng: random.Random, make, order: int):
    """A matrix of `order` whose blocks of rows (as the writer cuts them)
    each draw their cells' digit counts, with zero chunks among them, and
    hold missing cells nowhere, beside the block's widest cell, or in every
    cell."""
    matrix = make(order)
    limit, missing = (2**63 - 1, UNREACHED) if make is DistanceMatrix else (2**31 - 1, UNSET)
    step = matrices._BLOCK_CELLS // (order + 1) + 1
    for lo in range(1, order + 1, step):
        block = matrix.cells[lo:lo + step, 1:]
        top = rng.randint(1, len(str(limit)))  # the block's most digits
        zero_chunks = [v for v in (10**8, 10**8 + 10**4, 10**16 + 1) if v < 10**top]
        for k in range(block.size):
            digits = rng.randint(1, top)
            v = rng.randrange(10 ** (digits - 1) if digits > 1 else 0, 10**digits)
            if zero_chunks and rng.random() < 0.2:
                v = rng.choice(zero_chunks)
            block.flat[k] = min(v, limit - 1) if v != missing else 1
        place = rng.choice(["nowhere", "beside", "all"])
        if place == "beside":
            widest = int(np.argmax(block))
            for k in (widest - 1, widest + 1):
                if 0 <= k < block.size:
                    block.flat[k] = missing
        elif place == "all":
            block[...] = missing
    return matrix


@pytest.mark.parametrize("block_cells", [8, 64, 1 << 16])
def test_writer_fuzz_matches_reference_bytes_and_reads_back(monkeypatch, block_cells):
    monkeypatch.setattr(matrices, "_BLOCK_CELLS", block_cells)
    rng = random.Random(29)
    for order in list(range(1, 41)) * 3:
        for make in (DistanceMatrix, PrecedenceMatrix):
            assert_writes_like_reference_and_reads_back(fuzz_matrix(rng, make, order))


@pytest.mark.parametrize("make", [DistanceMatrix, PrecedenceMatrix])
def test_writer_refuses_a_negative_cell_before_writing_a_byte(make):
    m = make(2)
    m.cells[0, 1] = -1  # row and column 0 are unused and never written
    m.cells[1, 2], m.cells[2, 1] = -5, -123
    out = io.StringIO()
    with pytest.raises(ValueError, match=r"cell \(1,2\) is negative: -5$"):
        FORMATS[make][0](m, out)
    assert out.getvalue() == ""
    m.cells[1, 2] = 0
    with pytest.raises(ValueError, match=r"cell \(2,1\) is negative: -123$"):
        FORMATS[make][0](m, out)


@pytest.mark.parametrize("m,p", [pair for _, pair in CASES], ids=[name for name, _ in CASES])
def test_read_inverts_write(m, p):
    back_m = read_distance_matrix(written(write_distance_matrix, m))
    back_p = read_precedence_matrix(written(write_precedence_matrix, p))
    assert back_m.order == m.order and np.array_equal(back_m.cells, m.cells)
    assert back_p.order == p.order and np.array_equal(back_p.cells, p.cells)
    assert back_p.cells.dtype == p.cells.dtype


def test_reader_accepts_blank_lines_tabs_and_comments():
    text = "# n 2\n\n# a comment\n0\t INF \n  \n3 0\n"
    m = read_distance_matrix(text)
    assert m.get(1, 2) == float("inf") and m.get(2, 1) == 3
    assert int(read_precedence_matrix(text).cells[1, 2]) == UNSET


GOOD_BODY = "# graphshrink distance matrix\n# n 3\n# ids 1 2 3\n0 1 2\n1 0 3\n2 3 0\n"
UNFLUSHED_BAD_ROW = "# n 3\n0 1 x\n# c\n1 0 2\n"
#: whitespace to str.strip() but not blanks to the reader
EDGE_CHARS = "\x85\xa0\u3000\u2028\x0b\x0c\x1c\x1d\x1e\x1f"


@pytest.mark.parametrize("text,line", [
    ("0 1 2\n1 0 3\n2 3 0\n", 1),                        # no '# n' header
    ("# n 3\n0 1 2\n1 0\n2 3 0\n", 3),                    # short row
    ("# n 3\n0 1 2\n1 0 3 4\n2 3 0\n", 3),                # long row
    (GOOD_BODY + "4 4 4\n", 7),                          # extra row
    ("# n 3\n0 1 2\n1 0 3\n", 4),                         # missing row
    ("# n 1000000000\n0\n", 1),                          # order the text cannot fill
    ("# graphshrink distance matrix\n# n " + "9" * 5000 + "\n0\n", 2),  # past int()'s digits
    (GOOD_BODY.replace("1 0 3", "1 0 inf"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0 nan"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0 1.5"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0 1e3"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0 -3"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0 +3"), 5),
    (GOOD_BODY.replace("2 3 0", "2 NIF 0"), 6),
    (GOOD_BODY.replace("2 3 0", "2 3INF 0"), 6),
    (GOOD_BODY.replace("2 3 0", "2 INF3 0"), 6),
    (GOOD_BODY.replace("2 3 0", "2 IINF 0"), 6),
    (GOOD_BODY.replace("2 3 0", "2 NF 0"), 6),
    (GOOD_BODY.replace("2 3 0", "2 INFF 0"), 6),
    (GOOD_BODY.replace("2 3 0", "I NF 0"), 6),
    # 2**63, in a row that is not the last of its block
    (GOOD_BODY.replace("1 0 3", "1 0 9223372036854775808"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0 9223372036854775807"), 5),  # UNREACHED's digits
    (GOOD_BODY.replace("1 0 3", "1 0 \u0663"), 5),             # ARABIC-INDIC DIGIT THREE
    (GOOD_BODY.replace("1 0 3", "1 0 3\u00e9"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0\x003"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0\r3"), 5),
    (UNFLUSHED_BAD_ROW, 5),  # its bad row's block never fills
    # README's edge rule drops only blanks and a line end's "\r"
    *[(GOOD_BODY.replace("1 0 3", edge), 5) for char in EDGE_CHARS
      for edge in (char + "1 0 3", "1 0 3" + char)],
    (GOOD_BODY.replace("1 0 3", "\r1 0 3"), 5),
], ids=["no-header", "short-row", "long-row", "extra-row", "missing-row", "huge-order",
        "order-past-int-digits", "inf", "nan", "1.5", "1e3", "-3", "+3", "NIF", "3INF", "INF3",
        "IINF", "NF", "INFF", "I-NF", "2**63", "2**63-1",
        "arabic-indic-3", "e-acute", "nul", "inner-cr", "unflushed-bad-row",
        *[f"{where}-{ord(char):#x}" for char in EDGE_CHARS for where in ("leading", "trailing")],
        "leading-cr"])
def test_reader_rejects_malformed_input_naming_the_line(text, line):
    for read in (read_distance_matrix, read_precedence_matrix):
        with pytest.raises(ValueError, match=rf"^line {line}: "):
            read(text)


def test_precedence_reader_rejects_ids_beyond_int32():
    with pytest.raises(ValueError, match="^line 3: .*out of range"):
        read_precedence_matrix("# n 2\nINF 1\n99999999999 INF\n")
    with pytest.raises(ValueError, match="^line 2: .*below 2147483647 "):
        read_precedence_matrix("# n 2\nINF 2147483647\n1 INF\n")
    assert int(read_precedence_matrix("# n 2\nINF 2147483646\n1 INF\n").cells[1, 2]) == 2**31 - 2


def test_reader_accepts_leading_zeros_and_crlf_but_not_the_maximum_behind_them():
    m = read_distance_matrix("# n 2\r\n0 0000000000000000000042\r\n0009223372036854775806 0\r\n")
    assert m.get(1, 2) == 42 and m.get(2, 1) == 2**63 - 2
    p = read_precedence_matrix("# n 2\r\nINF 0000000000000000000002\r\n1 INF\r\n")
    assert int(p.cells[1, 2]) == 2 and int(p.cells[2, 2]) == UNSET
    with pytest.raises(ValueError, match="^line 2: .*below 9223372036854775807 "):
        read_distance_matrix("# n 2\n0 0009223372036854775807\n1 0\n")
    # leading zeros in the header's order, past the 4300 digits int() takes
    assert read_distance_matrix("# n " + "0" * 5000 + "2\n0 1\n1 0\n").get(1, 2) == 1


#: 2**31 - 2 zero-padded to 19, 20 and 21 bytes: only the last two reach
#: column 19, so only their blocks find their tokens' starts
LONG_CELLS = [str(2**31 - 2).zfill(size) for size in (19, 20, 21)]


@pytest.mark.parametrize("block_cells", [4, 1 << 16])
def test_reader_takes_long_cells_and_inf_at_a_blocks_start_after_a_tab_and_before_crlf(
        monkeypatch, block_cells):
    # with blocks of 4 cells each row of 4 is a block of its own, so its
    # first cell sits right behind the pad
    monkeypatch.setattr(matrices, "_BLOCK_CELLS", block_cells)
    text = "# n 4\r\n" + "".join(f"{cell}\t{cell} 7 {cell}\r\n" for cell in [*LONG_CELLS, "INF"])
    for read, missing in [(read_distance_matrix, UNREACHED), (read_precedence_matrix, UNSET)]:
        long, inf = [2**31 - 2, 2**31 - 2, 7, 2**31 - 2], [missing, missing, 7, missing]
        assert read(text).cells[1:, 1:].tolist() == [long] * 3 + [inf]


@pytest.mark.parametrize("place", [0, 1, 3], ids=["block-start", "after-tab", "before-crlf"])
@pytest.mark.parametrize("nonzero_at", [0, 1])
def test_reader_refuses_a_nonzero_byte_before_a_cells_last_19(monkeypatch, place, nonzero_at):
    monkeypatch.setattr(matrices, "_BLOCK_CELLS", 4)
    cells = ["5", "5", "7", "5"]
    cells[place] = "0" * nonzero_at + "1" + "0" * (18 - nonzero_at) + "42"  # 21 bytes
    rows = ["5 5 7 5"] * 2 + ["{}\t{} {} {}".format(*cells), "5 5 7 5"]
    text = "# n 4\r\n" + "".join(row + "\r\n" for row in rows)
    for read in (read_distance_matrix, read_precedence_matrix):
        with pytest.raises(ValueError, match="^line 4: "):
            read(text)


def test_one_block_parse_keeps_one_index_per_cell():
    # one block of 2**16 cells of 4 digits: beside the matrix, the parse
    # holds the block's bytes, a separator mask, its edges and one intp
    # index per cell, about 27 bytes a cell.  Two indices a cell, and the
    # token lengths built from them, took it past 50
    order = 256
    assert order * order == matrices._BLOCK_CELLS
    text = f"# n {order}\n" + (" ".join(["1234"] * order) + "\n") * order
    for read in (read_distance_matrix, read_precedence_matrix):
        tracemalloc.start()
        try:
            m = read(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (m.cells[1:, 1:] == 1234).all()
        assert peak - m.cells.nbytes < 40 * order * order


#: cells at the int32 and int64 guards and past them, beside leading zeros
FUZZ_CELLS = ["0", "7", "INF", "2147483646", "2147483647", "9223372036854775806",
              "9223372036854775807", "9223372036854775808", "9999999999999999999",
              "18446744073709551616", "0009223372036854775806"]
FUZZ_BLANKS = [" ", "\t", "  ", " \t ", "\t\t"]
FUZZ_INSERTS = ["+", "-", ".", "e", "\u00e9", " ", "\t", "\n", "I", "N", "F", "0", "9",
                "\x0b", "\x0c", "\x85", "\xa0", "\r"]


def fuzz_text(rng: random.Random) -> str:
    """A small matrix text of order 1-4, one in five with CRLF line ends,
    then up to three random edits."""
    order = rng.randint(1, 4)

    def cell():
        pick = rng.random()
        if pick < 0.15:
            return rng.choice(FUZZ_CELLS)
        if pick < 0.35:  # 19-22 digits, leading zeros included
            value = rng.randrange(10 ** rng.choice([3, 9, 19]))
            return "0" * rng.randint(0, 3) + str(value).zfill(19)
        return str(rng.randrange(10 ** rng.randint(1, 6)))

    lines = ["# graphshrink distance matrix", f"# n {order}",
             "# ids " + " ".join(map(str, range(1, order + 1)))]
    for _ in range(order):
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "# a comment", " \t"]))
        cells = [cell() for _ in range(order)]
        row = "".join(c + rng.choice(FUZZ_BLANKS) for c in cells[:-1]) + cells[-1]
        lines.append(rng.choice(["", " ", "\t"]) + row + rng.choice(["", " ", "\t "]))
    end = "\r\n" if rng.random() < 0.2 else "\n"
    text = end.join(lines) + end
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(len(text))
        if rng.random() < 0.7:
            text = text[:at] + rng.choice(FUZZ_INSERTS) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


def outcome(read, text):
    try:
        m = read(text)
    except ValueError as error:
        return str(error)
    return m.order, m.cells.dtype, m.cells.tolist()


@pytest.mark.parametrize("block_cells", [4, 1 << 16])
def test_reader_matches_the_loadtxt_reference_on_mutated_texts(monkeypatch, block_cells):
    monkeypatch.setattr(matrices, "_BLOCK_CELLS", block_cells)
    rng = random.Random(14)
    refused = 0
    for text in [UNFLUSHED_BAD_ROW] + [fuzz_text(rng) for _ in range(1500)]:
        for make, missing, read in [(DistanceMatrix, UNREACHED, read_distance_matrix),
                                    (PrecedenceMatrix, UNSET, read_precedence_matrix)]:
            want = outcome(lambda text: reference_read_cells(text, make, missing), text)
            assert outcome(read, text) == want, repr(text)
            refused += isinstance(want, str)
    assert 500 < refused < 2500  # both outcomes are well represented


def test_distance_cells_up_to_the_int64_guard_survive_a_round_trip():
    m = DistanceMatrix(2)
    m.cells[1, 2] = 2**63 - 2
    m.cells[2, 1] = UNREACHED
    text = written(write_distance_matrix, m)
    assert text.splitlines()[3:] == ["0 9223372036854775806", "INF 0"]
    back = read_distance_matrix(text)
    assert back.cells.dtype == np.int64 and np.array_equal(back.cells, m.cells)
    assert back.get(1, 2) == 2**63 - 2 and back.get(2, 1) == INF


def test_distance_matrix_maps_inf_to_the_sentinel_both_ways():
    m = DistanceMatrix(2)
    assert m.cells.dtype == np.int64 and m.get(1, 2) == INF and m.get(1, 1) == 0
    assert m.cells[1, 2] == UNREACHED and m.get(1, 2) == INF


@pytest.mark.parametrize("i, j", [(-1, 1), (1, 4), (0, 2), (3, 0), (4, 4)])
def test_distance_get_refuses_an_id_outside_the_order(i, j):
    # -1 would read row 3 and 0 the unused row, both without an error
    m = solve(path_graph([3, 5])).distances
    assert [m.get(1, k) for k in (1, 2, 3)] == [0, 3, 8] and m.get(3, 1) == 8
    with pytest.raises(IndexError, match=fr"^pair \({i},{j}\) has an id outside 1\.\.3$"):
        m.get(i, j)
