import random

import pytest
from conftest import path_graph, random_connected_graph, triangle_graph

from graphshrink import (
    INF,
    Graph,
    GraphError,
    PrecedenceMatrix,
    SolveParams,
    UNBOUNDED,
    best_alternative_two_hop,
    disassemble,
    dijkstra,
    edge_delta,
    remove_and_preserve,
)


def star_graph(leaves=3, w=1):
    g = Graph(leaves + 1)
    for leaf in range(2, leaves + 2):
        g.set_edge(1, leaf, w)
    return g


# -- best_alternative_two_hop ---------------------------------------------

def test_alternative_sole_common_neighbor_excluded():
    g = path_graph([1, 1])
    assert best_alternative_two_hop(g, 1, 3, excluded=2) == INF


def test_alternative_picks_cheapest_remaining():
    g = Graph(5)
    # a=1, b=2; common neighbors 3 (sums 5), 4 (sums 3), 5 (excluded)
    g.set_edge(1, 3, 2)
    g.set_edge(3, 2, 3)
    g.set_edge(1, 4, 1)
    g.set_edge(4, 2, 2)
    g.set_edge(1, 5, 1)
    g.set_edge(5, 2, 1)
    assert best_alternative_two_hop(g, 1, 2, excluded=5) == 3


def test_alternative_no_common_neighbors():
    g = path_graph([1, 1, 1])
    assert best_alternative_two_hop(g, 1, 4, excluded=2) == INF


# -- edge_delta ------------------------------------------------------------

def test_edge_delta_degree_one():
    g = path_graph([1])
    assert edge_delta(g, 1) == -1


def test_edge_delta_triangle_no_new_edge():
    assert edge_delta(triangle_graph(), 2) == -2


def test_edge_delta_star_center():
    assert edge_delta(star_graph(3), 1) == 0


def test_edge_delta_isolated_rejected():
    g = Graph(2)
    g.set_edge(1, 2, 1)
    g.remove_vertex(2)
    with pytest.raises(GraphError):
        edge_delta(g, 1)


def test_edge_delta_is_pure():
    g = triangle_graph()
    before = {v: dict(nbrs) for v, nbrs in g.adj.items()}
    edge_delta(g, 2)
    assert {v: dict(nbrs) for v, nbrs in g.adj.items()} == before


@pytest.mark.parametrize("seed", range(20))
def test_edge_delta_matches_realized_removal(seed):
    rng = random.Random(seed)
    g = random_connected_graph(rng.randint(5, 50), seed)
    p = PrecedenceMatrix(g.n_original)
    v = rng.choice([u for u in sorted(g.adj) if g.degree(u) >= 1])
    predicted = edge_delta(g, v)
    m_before = g.m
    rec = remove_and_preserve(g, v, p)
    assert g.m - m_before == predicted
    assert rec.edge_delta == predicted


# -- remove_and_preserve ---------------------------------------------------

def test_remove_preserve_triangle_shortcut():
    g = triangle_graph()
    p = PrecedenceMatrix(3)
    rec = remove_and_preserve(g, 2, p)
    assert g.edge_weight(1, 3) == 2
    assert p.get(1, 3) == 2
    assert p.get(3, 1) == 2
    assert rec.incident_edges == [(1, 1), (3, 1)]
    assert rec.mutations == [(1, 3, 5, 2)]


def test_remove_preserve_degree_one_no_mutations():
    g = path_graph([1, 2])
    p = PrecedenceMatrix(3)
    rec = remove_and_preserve(g, 1, p)
    assert rec.mutations == []
    assert rec.incident_edges == [(2, 1)]


def test_remove_preserve_square_tie_adds_nothing():
    # square 1-2-3-4-1, unit weights; removing 2 must not add (1,3): the
    # two-hop via 4 is equally short, and strict comparison leaves it out
    g = Graph(4)
    for u, v in [(1, 2), (2, 3), (3, 4), (4, 1)]:
        g.set_edge(u, v, 1)
    dist_before, _ = dijkstra(g, 1)
    assert dist_before[3] == 2
    p = PrecedenceMatrix(4)
    rec = remove_and_preserve(g, 2, p)
    assert rec.mutations == []
    assert g.edge_weight(1, 3) == INF
    dist_after, _ = dijkstra(g, 1)
    assert dist_after[3] == 2  # still 2, via vertex 4


@pytest.mark.parametrize("seed", range(10))
def test_remove_preserve_keeps_survivor_distances(seed):
    rng = random.Random(seed)
    g = random_connected_graph(40, seed + 100)
    p = PrecedenceMatrix(g.n_original)
    for _ in range(15):
        v = rng.choice(sorted(g.adj))
        survivors = [u for u in sorted(g.adj) if u != v]
        before = {s: dijkstra(g, s)[0] for s in survivors[:8]}
        remove_and_preserve(g, v, p)
        for s in survivors[:8]:
            after, _ = dijkstra(g, s)
            for t in survivors:
                assert after[t] == before[s][t]


@pytest.mark.parametrize("seed", range(8))
def test_mutations_strictly_improve(seed):
    g = random_connected_graph(50, seed + 7)
    p = PrecedenceMatrix(g.n_original)
    seq = disassemble(g, SolveParams(), p)
    for rec in seq.records:
        for _, _, old, new in rec.mutations:
            assert new < old
        if len(rec.incident_edges) == 1:
            assert rec.mutations == []


# -- disassemble -----------------------------------------------------------

def test_disassemble_path_order():
    g = path_graph([1, 1, 1])
    p = PrecedenceMatrix(4)
    seq = disassemble(g, SolveParams(), p)
    assert [r.vertex for r in seq.records] == [1, 2, 3]
    assert sorted(seq.residual.adj) == [4]


def test_disassemble_full_contraction_random():
    for seed in range(6):
        g = random_connected_graph(35, seed)
        p = PrecedenceMatrix(g.n_original)
        seq = disassemble(g, SolveParams(), p)
        assert seq.residual.n_present == 1
        assert len(seq.records) == 34
        removed = {r.vertex for r in seq.records}
        assert len(removed) == 34
        assert removed.isdisjoint(seq.residual.adj)


def test_disassemble_single_vertex():
    g = Graph(1)
    p = PrecedenceMatrix(1)
    seq = disassemble(g, SolveParams(), p)
    assert seq.records == []
    assert seq.residual is g


def test_disassemble_respects_n_min():
    g = random_connected_graph(30, 3)
    p = PrecedenceMatrix(30)
    seq = disassemble(g, SolveParams(n_min=10), p)
    assert seq.residual.n_present == 10
    assert len(seq.records) == 20


def test_disassemble_respects_d_max():
    g = star_graph(5)  # center has degree 5
    p = PrecedenceMatrix(6)
    seq = disassemble(g, SolveParams(d_max=1), p)
    # leaves go one by one at degree 1; the center survives with the last leaf
    assert seq.residual.n_present == 1


def test_disassemble_blocked_by_tight_i_max():
    # star center: removing a leaf is fine (delta -1), but once only the
    # center and leaves remain, an i_max below any achievable delta blocks
    g = star_graph(4)
    p = PrecedenceMatrix(5)
    seq = disassemble(g, SolveParams(i_max=-2), p)
    # degree-1 leaves have delta -1 > -2, center delta varies; nothing moves
    assert seq.records == []
    assert seq.residual.n_present == 5


def test_disassemble_rejects_disconnected():
    g = Graph(4)
    g.set_edge(1, 2, 1)
    g.set_edge(3, 4, 1)
    with pytest.raises(GraphError):
        disassemble(g, SolveParams(), PrecedenceMatrix(4))
