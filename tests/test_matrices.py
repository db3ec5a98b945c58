import io

import numpy as np
import pytest
from conftest import grid_graph, random_connected_graph

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


def written(write, matrix) -> str:
    out = io.StringIO()
    write(matrix, out)
    return out.getvalue()


def hand_built() -> tuple[DistanceMatrix, PrecedenceMatrix]:
    m, p = DistanceMatrix(5), PrecedenceMatrix(5)
    for i, j, w in [(1, 2, 7), (2, 1, 7), (1, 3, 0), (3, 1, 0),
                    (4, 5, MAX_WEIGHT * 14999), (5, 4, 10)]:
        m.set(i, j, w)
    p.set(1, 3, 2)
    p.set(4, 5, 5)
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


def assert_same_bytes(m, p):
    for matrix, write, kind, sentinel in [(m, write_distance_matrix, "distance", UNREACHED),
                                          (p, write_precedence_matrix, "precedence", UNSET)]:
        expected = io.StringIO()
        reference_write_cells(matrix.cells, matrix.order, kind, expected, sentinel)
        got, want = written(write, matrix).split("\n"), expected.getvalue().split("\n")
        # name the first differing line instead of diffing whole files
        bad = next((k for k, (a, b) in enumerate(zip(got, want), 1) if a != b), None)
        assert bad is None, f"{kind} line {bad}: {got[bad - 1][:200]!r} != {want[bad - 1][:200]!r}"
        assert len(got) == len(want), f"{kind}: {len(got)} lines, reference has {len(want)}"


@pytest.mark.parametrize("m,p", [pair for _, pair in CASES], ids=[name for name, _ in CASES])
def test_writers_match_reference_bytes(m, p):
    assert_same_bytes(m, p)


def test_blocks_keep_bytes_and_bound_what_the_reader_parses(monkeypatch):
    # 64 cells per block gives 5 rows per block at order 13: three blocks,
    # the last one short
    monkeypatch.setattr(matrices, "_BLOCK_CELLS", 64)
    parsed_rows = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt",
                        lambda lines, **kw: parsed_rows.append(len(lines)) or loadtxt(lines, **kw))
    m, p = solved(random_connected_graph(13, 5))
    m.set(2, 9, np.inf)
    m.set(12, 3, 123456789)
    assert_same_bytes(m, p)
    assert np.array_equal(read_distance_matrix(written(write_distance_matrix, m)).cells, m.cells)
    assert np.array_equal(read_precedence_matrix(written(write_precedence_matrix, p)).cells,
                          p.cells)
    assert parsed_rows == [5, 5, 3] * 2


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
    assert read_precedence_matrix(text).get(1, 2) == UNSET


GOOD_BODY = "# graphshrink distance matrix\n# n 3\n# ids 1 2 3\n0 1 2\n1 0 3\n2 3 0\n"


@pytest.mark.parametrize("text,line", [
    ("0 1 2\n1 0 3\n2 3 0\n", 1),                        # no '# n' header
    ("# n 3\n0 1 2\n1 0\n2 3 0\n", 3),                    # short row
    ("# n 3\n0 1 2\n1 0 3 4\n2 3 0\n", 3),                # long row
    (GOOD_BODY + "4 4 4\n", 7),                          # extra row
    ("# n 3\n0 1 2\n1 0 3\n", 4),                         # missing row
    ("# n 1000000000\n0\n", 1),                          # order the text cannot fill
    (GOOD_BODY.replace("1 0 3", "1 0 inf"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0 nan"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0 1.5"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0 1e3"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0 -3"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0 +3"), 5),
    (GOOD_BODY.replace("2 3 0", "2 NIF 0"), 6),
    (GOOD_BODY.replace("2 3 0", "2 3INF 0"), 6),
    (GOOD_BODY.replace("2 3 0", "2 INF3 0"), 6),
    # 2**63, in a row that is not the last of its block
    (GOOD_BODY.replace("1 0 3", "1 0 9223372036854775808"), 5),
    (GOOD_BODY.replace("1 0 3", "1 0 9223372036854775807"), 5),  # UNREACHED's digits
], ids=["no-header", "short-row", "long-row", "extra-row", "missing-row", "huge-order",
        "inf", "nan", "1.5", "1e3", "-3", "+3", "NIF", "3INF", "INF3", "2**63", "2**63-1"])
def test_reader_rejects_malformed_input_naming_the_line(text, line):
    for read in (read_distance_matrix, read_precedence_matrix):
        with pytest.raises(ValueError, match=rf"^line {line}: "):
            read(text)


def test_precedence_reader_rejects_ids_beyond_int32():
    with pytest.raises(ValueError, match="^line 3: .*out of range"):
        read_precedence_matrix("# n 2\nINF 1\n99999999999 INF\n")


def test_distance_cells_up_to_the_int64_guard_survive_a_round_trip():
    m = DistanceMatrix(2)
    m.set(1, 2, 2**63 - 2)
    m.set(2, 1, INF)
    text = written(write_distance_matrix, m)
    assert text.splitlines()[3:] == ["0 9223372036854775806", "INF 0"]
    back = read_distance_matrix(text)
    assert back.cells.dtype == np.int64 and np.array_equal(back.cells, m.cells)
    assert back.get(1, 2) == 2**63 - 2 and back.get(2, 1) == INF


def test_distance_matrix_maps_inf_to_the_sentinel_both_ways():
    m = DistanceMatrix(2)
    assert m.cells.dtype == np.int64 and m.get(1, 2) == INF and m.get(1, 1) == 0
    m.set(1, 2, 5)
    m.set(1, 2, INF)
    assert m.cells[1, 2] == UNREACHED and m.get(1, 2) == INF
