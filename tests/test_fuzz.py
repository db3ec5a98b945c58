"""Seeded differential fuzz: solve against floyd_warshall on many graph
shapes and the whole knob grid, with every precedence cell checked, and
every residual's solve checked against a reference built on apsp_dijkstra,
with the residual's inner core at three orders."""

import random

import numpy as np
import pytest
from conftest import core_caps, grid_graph, random_connected_graph, reference_solve_residual

from graphshrink import UNBOUNDED, Graph, SolveParams, first_bad_precedence, floyd_warshall, solve
from graphshrink import microsolve, solver
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


FAMILIES = {
    "long_path": long_path,
    "star": star,
    "clique": clique,
    "grid": lambda seed: grid_graph(6, 0.2, seed),
    "sparse_ties": lambda seed: random_connected_graph(40, seed, wmax=3, extra_factor=1),
    "zero_weights": zero_weights,
    "max_weights": max_weights,
}

KNOBS = [SolveParams(d_max=d_max, i_max=i_max, n_min=n_min)
         for d_max in (1, 2, 3, UNBOUNDED)
         for i_max in (0, UNBOUNDED)
         for n_min in (1, 6)]


@pytest.mark.parametrize("params", KNOBS, ids=lambda k: f"d{k.d_max}-i{k.i_max}-n{k.n_min}")
@pytest.mark.parametrize("family", FAMILIES)
def test_solve_matches_floyd_warshall_and_every_precedence_cell_is_tight(
        family, params, monkeypatch):
    for seed in range(5):
        g = FAMILIES[family](seed)
        result = solve(g, params)
        assert np.array_equal(result.distances.cells, floyd_warshall(g).cells)
        assert first_bad_precedence(g, result.distances, result.precedence) is None
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
