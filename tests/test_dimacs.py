import sys

import pytest
from conftest import random_connected_graph

from graphshrink import DimacsError, Graph, parse_dimacs, write_dimacs

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def test_parse_single_edge():
    g = parse_dimacs("p sp 2 1\na 1 2 7\na 2 1 7")
    assert g.n_original == 2
    assert g.m == 1
    assert g.adj[1][2] == 7


def test_parse_duplicate_arcs_keep_minimum():
    g = parse_dimacs("p sp 3 3\na 1 2 4\na 1 2 3\na 2 3 1")
    assert g.adj[1][2] == 3
    assert g.m == 2


def test_parse_refuses_n_above_max_n_before_allocating(monkeypatch):
    def no_graph(n):
        raise AssertionError(f"Graph({n}) built for an input above max_n")

    monkeypatch.setattr("graphshrink.dimacs.Graph", no_graph)
    with pytest.raises(DimacsError, match="line 1: .*cap 15000"):
        parse_dimacs("p sp 20000 0\n", max_n=15000)


def test_parse_accepts_n_at_max_n():
    assert parse_dimacs("p sp 3 0", max_n=3).n_original == 3


def test_parse_single_vertex_no_edges():
    g = parse_dimacs("p sp 1 0")
    assert g.n_original == 1
    assert g.m == 0


def test_parse_drops_self_loops():
    g = parse_dimacs("p sp 2 2\na 1 1 5\na 1 2 3")
    assert g.m == 1


def test_parse_ignores_comments_and_blank_lines():
    g = parse_dimacs("c header\n\np sp 2 1\nc mid\na 1 2 3\n")
    assert g.adj[1][2] == 3


@pytest.mark.parametrize("text", [
    "a 1 2 3",                      # arc before problem line
    "p sp x 1\na 1 2 3",            # malformed problem line
    "p sp 2 1\na 1 3 4",            # id out of range
    "p sp 2 1\na 1 2 -4",           # negative weight
    f"p sp 2 1\na 1 2 {2**32}",     # weight above the input cap
    "p sp 2 1\np sp 2 1",           # duplicate problem line
    "q sp 2 1",                     # unknown line type
    "",                             # no problem line
])
def test_parse_rejects_malformed(text):
    with pytest.raises(DimacsError):
        parse_dimacs(text)


@pytest.mark.parametrize("text,message", [
    ("p sp 2 1\na 1 2 1_0", "line 2: malformed arc line"),
    ("p sp 2 1\na 1 2 +3", "line 2: malformed arc line"),
    ("p sp 2 1\na 1_2 2 3", "line 2: malformed arc line"),
    ("p sp 2 1\na 1 2 \u0663", "line 2: malformed line"),      # an Arabic-Indic 3
    ("p sp 2 1\na 1 2 \u00b3", "line 2: malformed line"),      # a superscript 3
    ("p sp 2 1\na 1 2 --3", "line 2: malformed arc line"),
    ("p sp 2 1\na 1 2 " + "9" * 5000, "line 2: malformed arc line"),  # beyond int()'s digits
    ("p sp 1_0 2", "line 1: malformed problem line"),
    ("p sp +2 1", "line 1: malformed problem line"),
    ("p sp 2 1_0", "line 1: malformed problem line"),
    ("p sp -2 1", "line 1: malformed problem line"),
    ("c ok\np sp \u0662 1", "line 2: malformed line"),
    ("p sp 2 1\na 1 2 -3", "line 2: negative weight -3"),
    ("p sp 0 0", "line 1: vertex count must be positive"),
    pytest.param("p sp " + "9" * (sys.get_int_max_str_digits() + 1) + " 1",
                 "line 1: malformed problem line", id="count-beyond-int-digits"),
])
def test_parse_accepts_only_plain_decimal_integers(text, message):
    for given in (text, text.encode("utf-8")):
        with pytest.raises(DimacsError, match=f"^{message}"):
            parse_dimacs(given)


def test_parse_bytes_that_are_not_ascii_name_the_line():
    with pytest.raises(DimacsError, match="^line 3: malformed line"):
        parse_dimacs(b"p sp 2 1\na 1 2 3\na 2 1 \xff\n")


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_parse_takes_each_line_end(end):
    data = end.join([b"p sp 3 2", b"c note", b"a 1 2 5", b"a 2 3 1", b""])
    assert sorted(parse_dimacs(data).edges()) == [(1, 2, 5), (2, 3, 1)]


def test_a_comment_holding_a_separator_byte_stays_one_line():
    # str.splitlines breaks lines at \x0b, \x0c, \x1c-\x1e and \x85 too:
    # the comment's tail was read as the arc (1, 2, 5)
    assert list(parse_dimacs(b"p sp 3 2\nc note\x0ba 1 2 5\na 2 3 1\n").edges()) == [(2, 3, 1)]


def test_a_separator_byte_does_not_move_the_line_numbers():
    # a trailing \x85 made a line of its own, so this was refused at line 4
    with pytest.raises(DimacsError, match="^line 3: malformed arc line"):
        parse_dimacs(b"p sp 3 2\na 1 2 5\x85\na 2 3 x\n")


def test_comments_may_hold_any_text():
    text = "c caf\u00e9 \u0663 1_0 +3\np sp 2 1\nc \u00ff\na 1 2 3\n"
    for given in (text, text.encode("utf-8"), b"c \xff\xfe\n" + text.encode("utf-8")):
        assert parse_dimacs(given).adj[1] == {2: 3}


def test_write_single_edge():
    g = Graph(2)
    g.set_edge(1, 2, 7)
    text = write_dimacs(g)
    lines = [l for l in text.splitlines() if not l.startswith("c")]
    assert lines == ["p sp 2 2", "a 1 2 7", "a 2 1 7"]


def test_write_edgeless():
    text = write_dimacs(Graph(3))
    lines = [l for l in text.splitlines() if not l.startswith("c")]
    assert lines == ["p sp 3 0"]


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_random(seed):
    g = random_connected_graph(37, seed)
    h = parse_dimacs(write_dimacs(g))
    assert h.n_original == g.n_original
    assert h.m == g.m
    assert h.adj == g.adj


if HAVE_HYPOTHESIS:

    @st.composite
    def simple_graphs(draw):
        n = draw(st.integers(min_value=1, max_value=12))
        g = Graph(n)
        if n >= 2:
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
            for u, v in chosen:
                g.set_edge(u, v, draw(st.integers(min_value=0, max_value=2**32 - 1)))
        return g

    @settings(max_examples=60, deadline=None)
    @given(simple_graphs())
    def test_round_trip_property(g):
        h = parse_dimacs(write_dimacs(g))
        assert h.adj == g.adj
        assert h.m == g.m
