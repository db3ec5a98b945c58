from fractions import Fraction

import numpy as np
import pytest
from conftest import path_graph, random_connected_graph, triangle_graph

from graphshrink import INF, Graph, GraphError, extract_connected_subgraph


def test_set_edge_new_edge_grows_m():
    g = Graph(3)
    g.set_edge(1, 2, 4)
    assert g.m == 1
    g.set_edge(2, 3, 1)
    assert g.m == 2


def test_set_edge_overwrite_keeps_m():
    g = Graph(2)
    g.set_edge(1, 2, 9)
    g.set_edge(1, 2, 3)
    assert g.m == 1
    assert g.adj[1][2] == g.adj[2][1] == 3


def test_set_edge_rejects_loop_and_inf():
    g = Graph(2)
    with pytest.raises(GraphError):
        g.set_edge(1, 1, 3)
    with pytest.raises(GraphError):
        g.set_edge(1, 2, INF)


@pytest.mark.parametrize("w", [1.5, float("nan"), 2.0, "3", -1])
def test_set_edge_refuses_non_integer_and_negative_weights(w):
    g = Graph(2)
    with pytest.raises(GraphError, match="weight"):
        g.set_edge(1, 2, w)
    assert g.m == 0 and g.adj == {1: {}, 2: {}}


def test_set_edge_stores_numpy_integers_as_int():
    g = Graph(2)
    g.set_edge(1, 2, np.int64(7))
    assert g.adj[1][2] == 7 and type(g.adj[2][1]) is int


def test_remove_vertex_returns_incident_edges():
    g = path_graph([1, 2])
    incident = g.remove_vertex(2)
    assert incident == [(1, 1), (3, 2)]
    assert g.m == 0
    assert 2 not in g.adj


def test_remove_isolated_vertex():
    g = Graph(2)
    g.set_edge(1, 2, 1)
    g.remove_vertex(2)
    assert g.remove_vertex(1) == []


def test_remove_vertex_triangle_keeps_far_edge():
    g = triangle_graph()
    incident = g.remove_vertex(2)
    assert incident == [(1, 1), (3, 1)]
    assert g.adj[1] == {3: 5}
    assert g.m == 1


def test_unreachable_pair():
    assert path_graph([1, 2]).unreachable_pair() is None
    g = Graph(4)
    g.set_edge(1, 2, 1)
    g.set_edge(3, 4, 1)
    assert g.unreachable_pair() == (1, 3)
    assert Graph(1).unreachable_pair() is None
    g = Graph(1)
    g.remove_vertex(1)
    with pytest.raises(GraphError, match="^connectivity undefined on an empty graph$"):
        g.unreachable_pair()


def test_order_below_one_refused():
    with pytest.raises(GraphError, match="^graph order must be >= 1, got 0$"):
        Graph(0)


def test_symmetry_invariant_random():
    g = random_connected_graph(60, 3)
    for u in g.adj:
        for v, w in g.adj[u].items():
            assert g.adj[v][u] == w


def test_stats_path():
    st = path_graph([1, 2]).stats()
    assert st.n == 3
    assert st.m == 2
    assert st.avg_degree == Fraction(4, 3)
    assert st.max_degree == 2


def test_stats_single_vertex():
    st = Graph(1).stats()
    assert (st.n, st.m, st.max_degree) == (1, 0, 0)


def test_stats_refused_on_an_empty_graph():
    g = path_graph([1])
    g.remove_vertex(1)
    g.remove_vertex(2)
    with pytest.raises(GraphError, match="^stats undefined on an empty graph$"):
        g.stats()


def test_subgraph_whole_graph():
    g = random_connected_graph(20, 1)
    sub, mapping = extract_connected_subgraph(g, 20, seed=5)
    assert mapping == list(range(1, 21))
    assert sub.m == g.m
    assert {tuple(e) for e in sub.edges()} == {tuple(e) for e in g.edges()}


def test_subgraph_single_vertex():
    g = random_connected_graph(10, 2)
    sub, mapping = extract_connected_subgraph(g, 1, seed=3)
    assert sub.n_present == 1
    assert len(mapping) == 1


@pytest.mark.parametrize("size", [1, 3, 10, 25, 40])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_subgraph_connected_and_sized(size, seed):
    g = random_connected_graph(40, 11)
    sub, mapping = extract_connected_subgraph(g, size, seed=seed)
    assert sub.n_present == size
    assert sub.unreachable_pair() is None
    assert len(set(mapping)) == size


def test_subgraph_size_exceeds_n():
    g = random_connected_graph(5, 1)
    with pytest.raises(GraphError):
        extract_connected_subgraph(g, 6, seed=1)


def test_subgraph_deterministic():
    g = random_connected_graph(50, 4)
    a, map_a = extract_connected_subgraph(g, 20, seed=9)
    b, map_b = extract_connected_subgraph(g, 20, seed=9)
    assert map_a == map_b
    assert list(a.edges()) == list(b.edges())
