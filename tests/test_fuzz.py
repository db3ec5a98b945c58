"""Seeded fuzz.  Differential: solve against floyd_warshall on many graph
shapes and the whole knob grid, with D and P certified cell by cell, and
every residual's solve checked against a reference built on apsp_dijkstra,
with the residual's inner core at three orders; graphs whose weights sit
at solve's int64 guard against apsp_dijkstra.  Byte mutations of small
DIMACS files: parse_dimacs and the solve and verify commands give a
result or an error that names a line."""

import itertools
import random
import re

import numpy as np
import pytest
from conftest import core_caps, grid_graph, random_connected_graph, reference_solve_residual

from graphshrink import (
    UNBOUNDED,
    DimacsError,
    Graph,
    SolveParams,
    apsp_dijkstra,
    first_bad_cell,
    floyd_warshall,
    parse_dimacs,
    solve,
    write_dimacs,
)
from graphshrink import microsolve, solver
from graphshrink.cli import main
from graphshrink.graph import MAX_WEIGHT


def weighted(n, edges, seed, weights):
    rng = random.Random(seed)
    g = Graph(n)
    for u, v in edges:
        g.set_edge(u, v, rng.choice(weights))
    return g


def long_path(seed):
    order = random.Random(seed).sample(range(1, 41), 40)
    return weighted(40, zip(order, order[1:]), seed, range(1, 9))


def star(seed):
    return weighted(25, ((1, leaf) for leaf in range(2, 26)), seed, range(0, 5))


def clique(seed):
    return weighted(12, ((u, v) for u in range(1, 13) for v in range(u + 1, 13)), seed,
                    range(1, 30))


def zero_weights(seed):
    g = random_connected_graph(30, seed, wmax=0)
    for u, v, _ in list(g.edges())[::3]:
        g.set_edge(u, v, 1)
    return g


def max_weights(seed):
    g = random_connected_graph(30, seed, wmax=1)
    for u, v, w in list(g.edges()):
        g.set_edge(u, v, MAX_WEIGHT if w else MAX_WEIGHT - 1)
    return g


def wheel(seed):
    # a hub on a ring: one vertex of high degree next to many of degree 3
    ring = random.Random(seed).randint(8, 30)
    edges = [(1, v) for v in range(2, ring + 2)] + [(v, 2 + (v - 1) % ring)
                                                    for v in range(2, ring + 2)]
    return weighted(ring + 1, edges, seed, range(0, 6))


def clique_path(seed):
    # a clique joined to a long path: degree k - 1 next to degrees 1 and 2
    rng = random.Random(seed)
    k, length = rng.randint(5, 10), rng.randint(20, 40)
    edges = [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]
    return weighted(k + length, edges + [(v, v + 1) for v in range(k, k + length)], seed,
                    range(1, 20))


FAMILIES = {
    "long_path": long_path,
    "star": star,
    "clique": clique,
    "grid": lambda seed: grid_graph(6, 0.2, seed),
    "sparse_ties": lambda seed: random_connected_graph(40, seed, wmax=3, extra_factor=1),
    "zero_weights": zero_weights,
    "max_weights": max_weights,
    "wheel": wheel,
    "clique_path": clique_path,
}

KNOBS = [SolveParams(d_max=d_max, i_max=i_max, n_min=n_min)
         for d_max in (1, 2, 3, 4, UNBOUNDED)
         for i_max in (0, UNBOUNDED)
         for n_min in (1, 6)]


def knob_id(params):
    return f"d{params.d_max}-i{params.i_max}-n{params.n_min}"


@pytest.mark.parametrize("params", KNOBS, ids=knob_id)
@pytest.mark.parametrize("family", FAMILIES)
def test_solve_matches_floyd_warshall_and_every_precedence_cell_is_tight(
        family, params, monkeypatch):
    for seed in range(5):
        g = FAMILIES[family](seed)
        result = solve(g, params)
        assert np.array_equal(result.distances.cells, floyd_warshall(g).cells)
        assert first_bad_cell(g, result.distances, result.precedence) is None
        r = result.residual_order
        if r > 1:
            # the residual solved by the baseline's Dijkstra gives the same
            # bytes, and so does the residual's inner contraction alone, to
            # a core of about half, and its min-plus core alone
            with monkeypatch.context() as m:
                m.setattr(solver, "solve_residual", reference_solve_residual)
                by_reference = solve(g, params)
            assert np.array_equal(by_reference.distances.cells, result.distances.cells)
            assert np.array_equal(by_reference.precedence.cells, result.precedence.cells)
            for cap in core_caps(r):
                with monkeypatch.context() as m:
                    m.setattr(microsolve, "_CORE_ORDER", cap)
                    by_core = solve(g, params)
                assert np.array_equal(by_reference.distances.cells, by_core.distances.cells), cap
                assert np.array_equal(by_reference.precedence.cells,
                                      by_core.precedence.cells), cap


def heavy_hubs(seed):
    """One or two hubs in a chain, each joined to three to five leaves,
    each leaf in a private clique of six to eight; chain and leaf edges
    are heavy, clique edges weigh 0 to 3.  The heavy weights are scaled
    so that twice the encoded weight sum, which solve keeps below 2**63,
    sits just below it.  A hub's removal joins its leaves by shortcuts of
    two heavy weights, which can take the encoded residual's weight sum
    past 2**63 - 1."""
    rng = random.Random(seed)
    ids = itertools.count(1)
    heavy, light, hub = [], [], None
    for _ in range(rng.randint(1, 2)):
        prev, hub = hub, next(ids)
        if prev:
            heavy.append((prev, hub))
        for _ in range(rng.randint(3, 5)):
            clique = [next(ids) for _ in range(rng.randint(6, 8))]
            heavy.append((hub, clique[0]))
            light += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    g = weighted(next(ids) - 1, light, seed, range(0, 4))
    scale = g.n_original + 1
    shares = [rng.randint(1, 8) for _ in heavy]
    # twice the encoded sum is 2 (unit * scale * sum(shares) + len(heavy) + light_part)
    light_part = sum(w * scale + 1 for _, _, w in g.edges())
    unit = (2**62 - 1 - light_part - len(heavy)) // (scale * sum(shares))
    for (a, b), share in zip(heavy, shares):
        g.set_edge(a, b, share * unit)
    return g


@pytest.mark.parametrize("params", KNOBS, ids=knob_id)
def test_solve_matches_apsp_dijkstra_with_weights_at_the_int64_guard(params, monkeypatch):
    # the residual reference runs apsp_dijkstra on the encoded residual,
    # whose weight sum can pass 2**63 - 1 here, so apsp_dijkstra on the
    # graph itself checks D, and each core order must give the same bytes
    for seed in range(6):
        g = heavy_hubs(seed)
        encoded = sum(w * (g.n_original + 1) + 1 for _, _, w in g.edges())
        assert 2**63 - 2**40 < 2 * encoded < 2**63
        result = solve(g, params)
        assert np.array_equal(result.distances.cells, apsp_dijkstra(g)[0].cells)
        assert first_bad_cell(g, result.distances, result.precedence) is None
        for cap in core_caps(result.residual_order) if result.residual_order > 1 else ():
            with monkeypatch.context() as m:
                m.setattr(microsolve, "_CORE_ORDER", cap)
                by_core = solve(g, params)
            assert np.array_equal(by_core.distances.cells, result.distances.cells), cap
            assert np.array_equal(by_core.precedence.cells, result.precedence.cells), cap


# -- byte mutations of small DIMACS files ------------------------------------

#: What a mutation inserts or writes over a byte: digits, blanks, line
#: breaks, line letters, bytes no number takes, and whole lines.
MUTATIONS = [b"0", b"1", b"7", b"9", b"-", b" ", b"\t", b"\n", b"\r", b"a", b"p", b"c",
             b"x", b"_", b"+", b"\xff", b"\x00", b"99999999999", b"a 1 2 3\n", b"p sp 4 2\n",
             # str.splitlines would break a line at each of these
             b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x85"]

#: One line and its end, where parse_dimacs ends lines: \r\n, a lone \r
#: or \n, not at the other bytes str.splitlines breaks at.
LINE = re.compile(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z")

#: Refusals of a whole file rather than of one line.
WHOLE_FILE = re.compile(r"no problem line found$|graph is disconnected: ")


def mutated(rng):
    """A small connected graph's DIMACS bytes with one or two bytes
    inserted, deleted or written over."""
    data = bytearray(write_dimacs(random_connected_graph(rng.randint(1, 8), rng.randrange(1000),
                                                         wmax=20)).encode())
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(data) + 1)
        pick = rng.random()
        if pick < 0.4:
            data[at:at] = rng.choice(MUTATIONS)
        elif pick < 0.7:
            del data[at:at + 1]
        else:
            data[at:at + 1] = rng.choice(MUTATIONS)
    return bytes(data)


def names_a_line(message, data):
    """The refusal names a line of `data`, or refuses the whole file."""
    line = re.match(r"line (\d+): ", message)
    if line is None:
        return WHOLE_FILE.match(message) is not None
    return 1 <= int(line[1]) <= len(LINE.findall(data))


def test_parse_dimacs_gives_a_graph_or_names_a_line_on_mutated_bytes():
    rng = random.Random(21)
    refused = 0
    for _ in range(1500):
        data = mutated(rng)
        try:
            parse_dimacs(data, max_n=100)
        except DimacsError as error:
            refused += 1
            assert names_a_line(str(error), data), data
    assert 900 < refused < 1400  # both outcomes are well represented


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cli_gives_a_result_or_an_error_line_on_mutated_files(command, tmp_path, capsys):
    rng = random.Random(22)
    path = tmp_path / "g.gr"
    refused = 0
    for _ in range(150):
        data = mutated(rng)
        path.write_bytes(data)
        rc = main([command, "--input", str(path), "--max-n", "100"])
        out, err = capsys.readouterr()
        if rc == 0:
            assert err == "" and out.startswith("n=" if command == "solve" else "OK: "), data
        else:
            refused += 1
            assert rc == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert names_a_line(err[len("error: "):-1], data), data
    assert 70 < refused < 140  # both outcomes are well represented
